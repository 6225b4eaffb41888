#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace byz::sim {
namespace {

TEST(DeriveByzCount, MatchesPower) {
  EXPECT_EQ(derive_byz_count(1024, 0.5), 32u);
  EXPECT_EQ(derive_byz_count(1024, 1.0), 1u);
  EXPECT_EQ(derive_byz_count(65536, 0.5), 256u);
}

TEST(DeriveByzCount, CappedAtQuarter) {
  // δ → 0 would make everyone Byzantine; the cap keeps runs meaningful.
  EXPECT_LE(derive_byz_count(100, 0.01), 25u);
}

TEST(RunTrial, CleanTrialAllDecide) {
  TrialConfig cfg;
  cfg.overlay.n = 256;
  cfg.overlay.d = 6;
  cfg.byz_count = 0;
  cfg.seed = 5;
  const TrialResult r = run_trial(cfg);
  EXPECT_EQ(r.byz_count, 0u);
  EXPECT_EQ(r.accuracy.honest, 256u);
  EXPECT_EQ(r.accuracy.decided, 256u);
  EXPECT_EQ(r.accuracy.crashed, 0u);
  EXPECT_GT(r.accuracy.mean_ratio, 0.0);
}

TEST(RunTrial, DeterministicGivenSeed) {
  TrialConfig cfg;
  cfg.overlay.n = 200;
  cfg.overlay.d = 6;
  cfg.delta = 0.5;
  cfg.strategy = adv::StrategyKind::kFakeColor;
  cfg.seed = 9;
  const TrialResult a = run_trial(cfg);
  const TrialResult b = run_trial(cfg);
  EXPECT_EQ(a.run.estimate, b.run.estimate);
  EXPECT_EQ(a.accuracy.decided, b.accuracy.decided);
}

TEST(RunTrial, ByzCountDerivedFromDelta) {
  TrialConfig cfg;
  cfg.overlay.n = 1024;
  cfg.overlay.d = 6;
  cfg.delta = 0.5;
  cfg.seed = 3;
  const TrialResult r = run_trial(cfg);
  EXPECT_EQ(r.byz_count, 32u);
}

TEST(RunTrials, IndependentSeedsDiffer) {
  TrialConfig cfg;
  cfg.overlay.n = 200;
  cfg.overlay.d = 6;
  cfg.byz_count = 0;
  cfg.seed = 11;
  const auto results = run_trials(cfg, 4);
  ASSERT_EQ(results.size(), 4u);
  // At least two trials should differ somewhere (different overlays).
  bool any_diff = false;
  for (std::size_t t = 1; t < results.size() && !any_diff; ++t) {
    any_diff = results[t].run.estimate != results[0].run.estimate;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RunTrials, ThreadCountInvariant) {
  // Per-trial seed derivation makes results independent of the pool's
  // scheduling; re-running must reproduce results exactly.
  TrialConfig cfg;
  cfg.overlay.n = 128;
  cfg.overlay.d = 6;
  cfg.delta = 0.6;
  cfg.strategy = adv::StrategyKind::kAdaptive;
  cfg.seed = 13;
  const auto a = run_trials(cfg, 6);
  const auto b = run_trials(cfg, 6);
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].run.estimate, b[t].run.estimate) << "trial " << t;
    EXPECT_EQ(a[t].byz_count, b[t].byz_count);
  }
}

}  // namespace
}  // namespace byz::sim
