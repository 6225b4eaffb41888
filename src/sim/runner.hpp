// Monte-Carlo trial runner: builds an independent overlay + Byzantine
// placement + protocol run per trial, parallelized across trials on the
// worker pool. Seeds are derived per trial with SplitMix64 so results are
// bitwise independent of the thread count and schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/strategies.hpp"
#include "graph/small_world.hpp"
#include "protocols/estimate.hpp"
#include "protocols/fastpath.hpp"

namespace byz::sim {

/// Byzantine budget B(n) = floor(n^(1-delta)) (the paper's bound).
[[nodiscard]] graph::NodeId derive_byz_count(graph::NodeId n, double delta);

struct TrialConfig {
  graph::OverlayParams overlay;          ///< n, d, k, (seed overridden per trial)
  double delta = 0.5;                    ///< drives B(n) unless byz_count >= 0
  std::int64_t byz_count = -1;           ///< explicit count; -1 = derive
  adv::StrategyKind strategy = adv::StrategyKind::kHonest;
  proto::ProtocolConfig protocol;
  std::uint64_t seed = 1;                ///< base seed of the trial series
};

struct TrialResult {
  proto::RunResult run;
  proto::Accuracy accuracy;
  graph::NodeId byz_count = 0;
};

/// One trial with the config's seed.
[[nodiscard]] TrialResult run_trial(const TrialConfig& cfg);

/// `trials` independent repetitions (per-trial seeds split from cfg.seed),
/// fanned out on the worker pool. Results are ordered by trial index.
[[nodiscard]] std::vector<TrialResult> run_trials(const TrialConfig& cfg,
                                                  std::uint32_t trials);

}  // namespace byz::sim
