// E14 — Engineering performance: overlay construction, the flood kernel,
// full protocol runs on both tiers, and trial throughput through the
// shared scheduler at 1..N workers. Not a paper claim — this is the
// simulator's own perf trajectory, now emitted as BENCH_e14.json metrics
// (ms/op medians) instead of a google-benchmark dependency.
#include <algorithm>
#include <functional>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace byz;
using namespace byz::bench;

/// Runs `op` `reps` times and returns per-rep milliseconds.
std::vector<double> time_reps(std::uint32_t reps,
                              const std::function<void()>& op) {
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::uint32_t r = 0; r < reps; ++r) {
    util::Timer timer;
    op();
    ms.push_back(timer.milliseconds());
  }
  return ms;
}

void run_e14(RunContext& ctx) {
  const auto reps = ctx.trials(5);
  const auto max_exp = ctx.max_exp(16);

  util::Table table("E14: kernel timings (median of " + std::to_string(reps) +
                    " reps; wall-clock, machine-dependent)");
  table.columns({"kernel", "n", "median ms", "min ms", "items/s"});

  auto report = [&](const std::string& kernel, graph::NodeId n,
                    std::vector<double> ms, double items_per_rep,
                    Json extra = Json::object()) {
    const double med = util::median(ms);
    const double best = *std::min_element(ms.begin(), ms.end());
    table.row()
        .cell(kernel)
        .cell(std::uint64_t{n})
        .cell(med, 3)
        .cell(best, 3)
        .cell(med > 0 ? items_per_rep / (med / 1e3) : 0.0, 0);
    Json j = std::move(extra);
    j["n"] = std::uint64_t{n};
    j["median_ms"] = med;
    j["min_ms"] = best;
    ctx.metric(kernel + "_n" + std::to_string(n), std::move(j));
  };

  // Overlay rows also track memory per node (the finished overlay: H, its
  // simple view, G's CSR and distances) and G slots per node.
  for (const auto n : analysis::pow2_sizes(12, std::min(max_exp, 16u))) {
    std::uint64_t seed = 1;
    std::uint64_t bytes = 0;
    std::uint64_t g_slots = 0;
    auto ms = time_reps(reps, [&] {
      graph::OverlayParams params;
      params.n = n;
      params.d = 8;
      params.seed = seed++;
      const auto overlay = graph::Overlay::build(params);
      g_slots = overlay.g().num_slots();  // materializes G: timed, counted
      bytes = overlay.memory_bytes();
    });
    Json extra = Json::object();
    extra["bytes_per_node"] = static_cast<double>(bytes) / n;
    extra["g_slots_per_node"] = static_cast<double>(g_slots) / n;
    report("overlay_build", n, std::move(ms), static_cast<double>(n),
           std::move(extra));
  }

  for (const auto n : analysis::pow2_sizes(12, std::min(max_exp, 16u))) {
    const auto overlay = ctx.overlay(n, 8, 42);
    const std::vector<bool> byz(n, false);
    const std::vector<bool> crashed(n, false);
    const proto::Verifier verifier(*overlay, byz, {});
    proto::FloodWorkspace ws;
    sim::Instrumentation instr;
    std::vector<proto::Color> gen(n);
    util::Xoshiro256 rng(7);
    for (auto& c : gen) c = util::geometric_color(rng);
    proto::FloodParams params;
    params.steps = 6;
    report("flood_subphase", n, time_reps(reps, [&] {
             proto::run_flood_subphase(*overlay, byz, crashed, verifier,
                                       params, gen, {}, ws, instr);
           }),
           static_cast<double>(n) * params.steps);
  }

  for (const auto n : analysis::pow2_sizes(12, std::min(max_exp, 16u))) {
    const auto overlay = ctx.overlay(n, 8, 42);
    std::uint64_t seed = 1;
    report("algo1_fastpath", n, time_reps(reps, [&] {
             const auto run = proto::run_basic_counting(*overlay, seed++);
             (void)run.estimate.size();
           }),
           static_cast<double>(n));
  }

  for (const auto n : analysis::pow2_sizes(12, std::min(max_exp, 14u))) {
    const auto overlay = ctx.overlay(n, 8, 42);
    (void)overlay->g();  // build G outside the timed runs (the crash rule reads it)
    const auto byz = place_byz(n, 0.5, 99);
    std::uint64_t seed = 1;
    report("algo2_fake_color", n, time_reps(reps, [&] {
             const auto strat = adv::make_strategy(adv::StrategyKind::kFakeColor);
             proto::ProtocolConfig cfg;
             const auto run = proto::run_counting(*overlay, byz, *strat, cfg,
                                                  seed++);
             (void)run.estimate.size();
           }),
           static_cast<double>(n));
  }

  for (const auto n : analysis::pow2_sizes(10, std::min(max_exp, 12u))) {
    const auto overlay = ctx.overlay(n, 6, 42);
    (void)overlay->g();  // build G outside the timed runs (engine setup reads it)
    const auto byz = place_byz(n, 0.7, 99);
    std::uint64_t seed = 1;
    report("engine_reference", n, time_reps(reps, [&] {
             const auto strat = adv::make_strategy(adv::StrategyKind::kFakeColor);
             proto::ProtocolConfig cfg;
             sim::Engine engine(*overlay, byz, *strat, cfg, seed++);
             const auto run = engine.run();
             (void)run.estimate.size();
           }),
           static_cast<double>(n));
  }

  // Trial throughput through the shared scheduler: the same 16-trial batch
  // at 1 worker and at the run's --jobs setting.
  {
    sim::TrialConfig cfg;
    cfg.overlay.n = 1 << 12;
    cfg.overlay.d = 8;
    cfg.delta = 0.5;
    cfg.strategy = adv::StrategyKind::kFakeColor;
    cfg.seed = 1;
    const std::uint32_t batch = 16;
    for (const unsigned jobs : {1u, ctx.scheduler().jobs()}) {
      const bench_core::TrialScheduler sched(jobs);
      const auto ms = time_reps(std::max(1u, reps / 2), [&] {
        const auto sweep = analysis::sweep_trials(cfg, batch, sched);
        (void)sweep.results.size();
      });
      report("trial_throughput_j" + std::to_string(jobs), cfg.overlay.n,
             ms, static_cast<double>(batch));
      if (jobs == ctx.scheduler().jobs() && jobs == 1) break;
    }
  }

  table.note("Wall-clock medians; absolute numbers are machine-dependent, "
             "the JSON metrics track the trajectory across PRs. "
             "trial_throughput_jN uses the shared work-stealing scheduler; "
             "per-trial results are seed-derived and identical at any job "
             "count.");
  ctx.emit(table);
}

}  // namespace

BYZBENCH_REGISTER(e14) {
  ScenarioSpec spec;
  spec.id = "e14";
  spec.title = "kernel timings and scheduler throughput";
  spec.claim = "engineering: overlay build, flood kernel, both protocol "
               "tiers, and scheduler scaling tracked across PRs";
  spec.grid = {{"kernel", {"overlay_build", "flood_subphase", "algo1_fastpath",
                           "algo2_fake_color", "engine_reference",
                           "trial_throughput"}},
               pow2_axis(10, 16)};
  spec.base_trials = 5;
  spec.metrics = {"<kernel>_n<size>.median_ms",
                  "overlay_build_n<size>.bytes_per_node",
                  "overlay_build_n<size>.g_slots_per_node"};
  spec.run = run_e14;
  return spec;
}
