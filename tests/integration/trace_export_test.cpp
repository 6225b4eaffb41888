// End-to-end observability contract: tracing a real protocol run yields a
// parseable Chrome trace containing phase, subphase, round, and trial
// spans — and the run's outputs are bitwise identical with tracing on or
// off (the pure read-side invariant of src/obs/obs.hpp, the same contract
// CI pins at the BENCH-manifest level).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "adversary/strategies.hpp"
#include "bench_core/json.hpp"
#include "bench_core/scheduler.hpp"
#include "graph/categories.hpp"
#include "graph/small_world.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/fastpath.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace byz {
namespace {

#if BYZ_OBS_ENABLED
proto::RunResult traced_run(bool trace) {
  obs::set_enabled(trace);
  graph::OverlayParams params;
  params.n = 256;
  params.d = 6;
  params.seed = 7;
  const auto overlay = graph::Overlay::build(params);
  util::Xoshiro256 placement(params.seed ^ 0xB12);
  const auto byz = graph::random_byzantine_mask(
      params.n, sim::derive_byz_count(params.n, 0.5), placement);
  const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  proto::ProtocolConfig cfg;
  auto result = proto::run_counting(overlay, byz, *strategy, cfg, 99);
  obs::set_enabled(false);
  return result;
}

TEST(TraceExportIntegration, ProtocolRunEmitsPhaseSubphaseAndRoundSpans) {
  obs::reset_trace();
  obs::reset_metrics();
  (void)traced_run(true);

  const auto doc =
      bench_core::Json::parse(obs::chrome_trace_json(obs::trace_snapshot()));
  ASSERT_TRUE(doc.has_value());
  std::set<std::string> names;
  for (const auto& e : doc->find("traceEvents")->elements()) {
    names.insert(e.find("name")->as_string());
  }
  EXPECT_TRUE(names.contains("count.run"));
  EXPECT_TRUE(names.contains("count.phase"));
  EXPECT_TRUE(names.contains("count.subphase"));
  EXPECT_TRUE(names.contains("flood.subphase"));
  EXPECT_TRUE(names.contains("flood.round"));
  EXPECT_TRUE(names.contains("count.setup"));
  EXPECT_TRUE(names.contains("count.crash_rule"));
  EXPECT_TRUE(names.contains("count.verifier"));
  EXPECT_TRUE(names.contains("overlay.sample_h"));
  EXPECT_TRUE(names.contains("overlay.materialize_g"));

  // The metrics registry saw the same run.
  const auto snap = obs::metrics_snapshot();
  bool rounds_counted = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "flood.rounds") rounds_counted = value > 0;
  }
  EXPECT_TRUE(rounds_counted);
  obs::reset_trace();
  obs::reset_metrics();
}

/// The single span named `name` in the snapshot.
const obs::TraceEvent& only_span(const obs::TraceSnapshot& snap,
                                 const std::string& name) {
  const obs::TraceEvent* found = nullptr;
  for (const auto& e : snap.events) {
    if (e.name != name) continue;
    EXPECT_EQ(found, nullptr) << "duplicate span " << name;
    found = &e;
  }
  if (found == nullptr) throw std::runtime_error("missing span " + name);
  return *found;
}

bool encloses(const obs::TraceEvent& outer, const obs::TraceEvent& inner) {
  return outer.tid == inner.tid && outer.ts_us <= inner.ts_us &&
         inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us;
}

TEST(TraceExportIntegration, SetupSpansNestInsideTheRun) {
  // The crash rule and the verifier build are attributed: count.setup
  // holds count.crash_rule, and both it and count.verifier sit inside
  // count.run; the engine's setup sits inside engine.run.
  obs::reset_trace();
  (void)traced_run(true);
  auto snap = obs::trace_snapshot();
  const auto& run = only_span(snap, "count.run");
  const auto& setup = only_span(snap, "count.setup");
  EXPECT_TRUE(encloses(run, setup));
  EXPECT_TRUE(encloses(setup, only_span(snap, "count.crash_rule")));
  EXPECT_TRUE(encloses(run, only_span(snap, "count.verifier")));

  obs::reset_trace();
  graph::OverlayParams params;
  params.n = 128;
  params.d = 6;
  params.seed = 3;
  const auto overlay = graph::Overlay::build(params);
  const std::vector<bool> byz(params.n, false);
  const auto strategy = adv::make_strategy(adv::StrategyKind::kHonest);
  obs::set_enabled(true);
  sim::Engine engine(overlay, byz, *strategy, proto::ProtocolConfig{}, 5);
  (void)engine.run();
  obs::set_enabled(false);
  snap = obs::trace_snapshot();
  EXPECT_TRUE(encloses(only_span(snap, "engine.run"),
                       only_span(snap, "engine.setup")));
  obs::reset_trace();
}

TEST(TraceExportIntegration, OverlayBuildSpansCarrySizes) {
  // Overlay::build is attributed in two layers on the calling thread:
  // sampling H inside build, then materializing G on the first read of G,
  // each tagged with n and its slots.
  obs::reset_trace();
  graph::OverlayParams params;
  params.n = 256;
  params.d = 6;
  params.seed = 7;
  obs::set_enabled(true);
  std::optional<graph::Overlay> overlay;
  {
    obs::Span outer("test.build");
    overlay.emplace(graph::Overlay::build(params));
  }
  auto snap = obs::trace_snapshot();
  const auto& sample = only_span(snap, "overlay.sample_h");
  EXPECT_TRUE(encloses(only_span(snap, "test.build"), sample));
  EXPECT_EQ(sample.args, "\"n\": 256, \"slots\": " +
                             std::to_string(overlay->h().num_slots()));
  for (const auto& e : snap.events) {
    EXPECT_NE(e.name, "overlay.materialize_g") << "G built eagerly";
  }

  {
    obs::Span outer("test.first_read");
    (void)overlay->g();
  }
  (void)overlay->g_dists(0);  // later reads build nothing
  (void)overlay->h_dist(0, 1);
  obs::set_enabled(false);
  snap = obs::trace_snapshot();
  const auto& materialize = only_span(snap, "overlay.materialize_g");
  EXPECT_TRUE(encloses(only_span(snap, "test.first_read"), materialize));
  EXPECT_EQ(materialize.args, "\"n\": 256, \"slots\": " +
                                  std::to_string(overlay->g().num_slots()));
  obs::reset_trace();
}

TEST(TraceExportIntegration, ScheduledTrialsEmitTrialSpans) {
  obs::reset_trace();
  obs::set_enabled(true);
  const bench_core::TrialScheduler scheduler(2);
  std::atomic<int> ran{0};
  scheduler.for_each(4, [&](std::uint64_t) { ++ran; });
  obs::set_enabled(false);
  EXPECT_EQ(ran.load(), 4);

  const auto snap = obs::trace_snapshot();
  int trial_spans = 0;
  for (const auto& e : snap.events) {
    if (e.name == "bench.trial") ++trial_spans;
  }
  EXPECT_EQ(trial_spans, 4);
  obs::reset_trace();
}

TEST(TraceExportIntegration, TracingDoesNotPerturbTheRun) {
  obs::reset_trace();
  obs::reset_metrics();
  const auto plain = traced_run(false);
  const auto traced = traced_run(true);
  EXPECT_EQ(plain.status, traced.status);
  EXPECT_EQ(plain.estimate, traced.estimate);
  EXPECT_EQ(plain.phases_executed, traced.phases_executed);
  EXPECT_EQ(plain.flood_rounds, traced.flood_rounds);
  EXPECT_EQ(plain.instr, traced.instr);
  obs::reset_trace();
  obs::reset_metrics();
}

#endif  // BYZ_OBS_ENABLED

}  // namespace
}  // namespace byz
