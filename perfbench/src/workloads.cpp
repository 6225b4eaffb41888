#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "byzcount.hpp"
#include "obs/digest.hpp"
#include "rollup.hpp"

namespace perfbench {
namespace {

using namespace byz;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint32_t resolve_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::uint32_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The OpenMP team size the runtime will use: the first entry of
/// OMP_NUM_THREADS, or one thread per CPU when it is unset.
std::uint32_t resolve_omp_threads(std::uint32_t nproc) {
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (env == nullptr || *env == '\0') return nproc;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || v == 0 || (*end != '\0' && *end != ',')) {
    throw std::runtime_error(std::string("bad OMP_NUM_THREADS '") + env + "'");
  }
  return static_cast<std::uint32_t>(std::min(v, 1ul << 20));
}

// --- one-shot workloads ----------------------------------------------------

struct Deployment {
  graph::OverlayParams params;
  std::vector<bool> byz;
  std::uint64_t color_seed = 0;
};

/// Operation `index`'s inputs: a fresh seed-split overlay and Byzantine
/// placement, drawn the way size_service draws a deployment.
Deployment deployment(const Config& cfg, std::uint64_t seed,
                      std::uint64_t index) {
  Deployment dep;
  const auto s = bench_core::TrialScheduler::trial_seed(seed, index);
  dep.params.n = cfg.n;
  dep.params.d = cfg.d;
  dep.params.seed = s;
  dep.color_seed = s;
  util::Xoshiro256 rng(s ^ 0xB12);
  dep.byz = graph::random_byzantine_mask(
      cfg.n, sim::derive_byz_count(cfg.n, cfg.delta), rng);
  return dep;
}

struct OneshotOut {
  std::optional<graph::Overlay> overlay;
  proto::RunResult run;
  std::vector<double> smoothed;  ///< algo2 only
};

proto::RunControls brc_controls(const Config& cfg) {
  proto::RunControls c;
  c.flood = {proto::FloodMode::kParallel, cfg.threads.flood_threads};
  return c;
}

/// The one-call path: Overlay::build, then the backend's run (and for
/// algo2 the refine and smooth stages).
OneshotOut oneshot_one_call(const Config& cfg, const Deployment& dep) {
  OneshotOut out;
  out.overlay.emplace(graph::Overlay::build(dep.params));
  const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  if (cfg.kind == Kind::kOneshotAlgo2) {
    out.run = proto::run_counting(*out.overlay, dep.byz, *strategy,
                                  proto::ProtocolConfig{}, dep.color_seed);
    const auto refined = proto::refine_run(out.run, cfg.d);
    out.smoothed = proto::smooth_estimates(*out.overlay, dep.byz, refined,
                                           proto::EstimateLie::kInflate);
  } else {
    out.run = proto::make_estimator("brc")->run(
        *out.overlay, dep.byz, *strategy, dep.color_seed, brc_controls(cfg));
  }
  return out;
}

/// The layer-by-layer path, each public call under its own span.
OneshotOut oneshot_layers(const Config& cfg, const Deployment& dep) {
  OneshotOut out;
  obs::Span root("perfbench.op");
  graph::Graph h;
  {
    obs::Span span("graph.sample_h");
    util::Xoshiro256 rng(dep.params.seed);
    h = graph::build_hamiltonian_graph(dep.params.n, dep.params.d, rng);
  }
  {
    obs::Span span("graph.materialize_g");
    out.overlay.emplace(graph::Overlay::build_from_h(dep.params, std::move(h)));
  }
  const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  if (cfg.kind == Kind::kOneshotAlgo2) {
    const proto::ProtocolConfig pcfg;
    std::optional<proto::Verifier> verifier;
    {
      obs::Span span("protocols.verifier");
      verifier.emplace(*out.overlay, dep.byz, pcfg.verification, 1);
    }
    {
      obs::Span span("protocols.count_run");
      proto::RunControls controls;
      controls.verifier = &*verifier;
      controls.flood = {proto::FloodMode::kSerial, 0};
      out.run = proto::run_counting_with(*out.overlay, dep.byz, *strategy,
                                         pcfg, dep.color_seed, controls);
    }
    {
      obs::Span span("protocols.refine_smooth");
      const auto refined = proto::refine_run(out.run, cfg.d);
      out.smoothed = proto::smooth_estimates(*out.overlay, dep.byz, refined,
                                             proto::EstimateLie::kInflate);
    }
  } else {
    obs::Span span("protocols.brc_run");
    out.run = proto::make_estimator("brc")->run(
        *out.overlay, dep.byz, *strategy, dep.color_seed, brc_controls(cfg));
  }
  return out;
}

OpOutcome judge_oneshot(const Config& cfg, const OneshotOut& out) {
  const auto bound =
      proto::make_estimator(cfg.kind == Kind::kOneshotAlgo2 ? "algo2" : "brc")
          ->bound(*out.overlay);
  const auto [lo, hi] = cfg.band.value_or(std::pair{bound.lo, bound.hi});
  OpOutcome o;
  o.in_band = proto::summarize_accuracy(out.run, cfg.n, lo, hi).frac_in_band;
  o.ok = o.in_band >= 1.0 - bound.eps;
  o.estimates = 1;
  std::uint64_t h = obs::mix2(0x0E5, out.run.status.size());
  for (std::size_t v = 0; v < out.run.status.size(); ++v) {
    h = obs::mix2(h, static_cast<std::uint64_t>(out.run.status[v]) << 32 |
                         out.run.estimate[v]);
  }
  for (const double x : out.smoothed) {
    h = obs::mix2(h, std::bit_cast<std::uint64_t>(x));
  }
  o.digest = h;
  return o;
}

// --- churn workload --------------------------------------------------------

/// algo2's declared band. The registry asks for an overlay; algo2's band
/// does not depend on it, so a minimal one serves.
proto::EstimatorBound algo2_bound() {
  static const proto::EstimatorBound bound = [] {
    graph::OverlayParams p;
    p.n = 16;
    return proto::make_estimator("algo2")->bound(graph::Overlay::build(p));
  }();
  return bound;
}

dynamics::ChurnRunConfig churn_config(const Config& cfg, std::uint64_t seed,
                                      std::uint64_t index) {
  dynamics::ChurnRunConfig c;
  const auto s = bench_core::TrialScheduler::trial_seed(seed, index);
  c.seed = s;
  c.trace.seed = s;
  c.trace.n0 = cfg.n;
  c.trace.epochs = cfg.epochs;
  c.trace.arrival_rate = cfg.churn_rate;
  c.trace.departure_rate = cfg.churn_rate;
  c.trace.model = dynamics::ChurnModel::kSteady;
  c.trace.min_n = std::max<graph::NodeId>(cfg.n / 4, 16);
  c.d = cfg.d;
  c.delta = cfg.delta;
  c.strategy = adv::StrategyKind::kFakeColor;
  const auto bound = algo2_bound();
  std::tie(c.band_lo, c.band_hi) =
      cfg.band.value_or(std::pair{bound.lo, bound.hi});
  c.incremental.incremental = true;
  c.incremental.warm_start = true;
  c.mid_run.enabled = true;
  c.mid_run.policy = proto::MembershipPolicy::kReadmitNextPhase;
  c.flood = {proto::FloodMode::kSerial, 0};
  return c;
}

OpOutcome judge_churn(const dynamics::ChurnRunResult& r) {
  OpOutcome o;
  double in_band = 0.0;
  std::uint64_t h = obs::mix2(0xC4, r.epochs.size());
  for (const auto& ep : r.epochs) {
    if (ep.estimated) {
      in_band += ep.fresh.frac_in_band;
      ++o.estimates;
    }
    for (const std::uint64_t x :
         {std::uint64_t{ep.n_true}, std::uint64_t{ep.byz_alive},
          std::uint64_t{ep.joins}, std::uint64_t{ep.leaves},
          ep.fresh.honest, ep.fresh.decided, ep.fresh.crashed,
          ep.fresh.undecided, ep.fresh.in_band,
          std::bit_cast<std::uint64_t>(ep.fresh.min_ratio),
          std::bit_cast<std::uint64_t>(ep.fresh.max_ratio),
          std::bit_cast<std::uint64_t>(ep.fresh.mean_ratio), ep.messages,
          ep.balls_recomputed, ep.balls_reused, ep.subphases_executed,
          ep.verify_rows_reused, ep.verify_rows_recomputed,
          ep.midrun_events_applied, ep.midrun_admitted}) {
      h = obs::mix2(h, x);
    }
  }
  o.in_band = o.estimates == 0 ? 0.0 : in_band / o.estimates;
  o.ok = o.estimates > 0 && o.in_band >= 1.0 - algo2_bound().eps;
  o.digest = h;
  return o;
}

template <typename Fn>
OpOutcome guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    OpOutcome o;
    o.error = e.what();
    return o;
  }
}

// --- traced runs -----------------------------------------------------------

/// Span names from outermost to innermost (breaks same-microsecond ties).
const std::vector<std::string> kNesting = {
    "perfbench.op",          "dynamics.run_churn",
    "graph.sample_h",        "graph.materialize_g",
    "protocols.verifier",    "protocols.count_run",
    "protocols.brc_run",     "protocols.refine_smooth",
    "epoch",                 "incremental.snapshot",
    "incremental.dirty_bfs", "incremental.csr_assembly",
    "warm.eps_entry",        "warm.rows",
    "count.run",             "count.phase",
    "count.subphase",        "flood.subphase",
    "flood.round"};

std::uint64_t counter_delta(const obs::MetricsSnapshot& delta,
                            const std::string& name) {
  for (const auto& [key, value] : delta.counters) {
    if (key == name) return value;
  }
  return 0;
}

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Runs `fn` with tracing on and rolls up the spans under perfbench.op.
template <typename Fn>
Rollup traced(TracedOp& t, obs::MetricsSnapshot& counters, Fn&& fn) {
  obs::reset_trace();
  const auto before = obs::metrics_snapshot();
  obs::set_enabled(true);
  try {
    fn();
  } catch (...) {
    obs::set_enabled(false);
    throw;
  }
  obs::set_enabled(false);
  counters = obs::metrics_delta(before, obs::metrics_snapshot());
  const auto snap = obs::trace_snapshot();
  auto r = rollup(snap.events, "perfbench.op", kNesting);
  t.rollup_ok = snap.dropped == 0 && r.check();
  if (!t.rollup_ok) {
    t.failure += "trace rollup incomplete (" + std::to_string(snap.dropped) +
                 " spans dropped); ";
  }
  return r;
}

void fill_span_metrics(TracedOp& t, const Rollup& r, double untraced_ms) {
  auto& m = t.metrics;
  m["graph.sample_h_ms"] = r.ms("graph.sample_h", false);
  m["graph.materialize_g_ms"] = r.ms("graph.materialize_g", false);
  m["protocols.verifier_ms"] = r.ms("protocols.verifier", false);
  m["protocols.count_run_ms"] = r.ms("count.run", false);
  m["protocols.count_run_self_ms"] = r.ms("count.run", true);
  m["protocols.phase_loop_ms"] = r.ms("count.phase", false);
  m["protocols.flood_ms"] = r.ms("flood.subphase", false);
  m["protocols.brc_run_ms"] = r.ms("protocols.brc_run", false);
  m["protocols.refine_smooth_ms"] = r.ms("protocols.refine_smooth", false);
  m["incremental.snapshot_ms"] = r.ms("incremental.snapshot", false);
  m["dynamics.phase_boundary_ms"] = r.ms("count.phase", true);
  m["dynamics.epoch_self_ms"] = r.ms("epoch", true);
  const double wall_ms = static_cast<double>(r.wall_us) / 1000.0;
  m["trace.unattributed_frac"] = frac(r.unattributed_us, r.wall_us);
  m["trace.overhead_frac"] = wall_ms / untraced_ms - 1.0;
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (unit != "ms") continue;
    const auto base = name.substr(0, name.size() - 3);
    m[base + ".share"] = wall_ms > 0.0 ? m[name] / wall_ms : 0.0;
  }
}

void fill_run_counts(TracedOp& t, const proto::RunResult& run) {
  auto& m = t.metrics;
  m["protocols.flood_rounds"] = static_cast<double>(run.flood_rounds);
  m["protocols.subphases_executed"] =
      static_cast<double>(run.subphases_executed);
  m["protocols.token_messages"] =
      static_cast<double>(run.instr.token_messages);
  m["protocols.verify_messages"] =
      static_cast<double>(run.instr.verify_messages);
  m["protocols.lazy_skip_frac"] =
      1.0 - frac(run.subphases_executed, run.subphases_scheduled);
}

TracedOp traced_oneshot(const Config& cfg, std::uint64_t seed,
                        std::uint64_t index) {
  TracedOp t;
  const auto dep = deployment(cfg, seed, index);
  const auto t0 = Clock::now();
  const auto one_call = oneshot_one_call(cfg, dep);
  const double untraced_ms = ms_since(t0);
  t.outcome = judge_oneshot(cfg, one_call);

  OneshotOut layers;
  obs::MetricsSnapshot counters;
  const auto r = traced(t, counters, [&] { layers = oneshot_layers(cfg, dep); });
  t.oracle_ok =
      incremental::overlays_identical(*one_call.overlay, *layers.overlay) &&
      one_call.run == layers.run && one_call.smoothed == layers.smoothed;
  if (!t.oracle_ok) t.failure += "layer path != one-call path; ";

  auto& m = t.metrics;
  if (cfg.kind == Kind::kOneshotAlgo2) {
    // Algorithm 2's crash rule runs inside count.run without a span of its
    // own. Time the same public calls run_counting makes for it, outside
    // the traced operation, and check they crash exactly the honest nodes
    // the run reports as crashed.
    const auto c0 = Clock::now();
    proto::ClaimSet claims(*layers.overlay);
    const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
    strategy->setup_lies(
        sim::World::make(*layers.overlay, dep.byz, dep.color_seed), claims);
    const auto crashed = proto::compute_crash_set(claims, dep.byz);
    m["protocols.crash_rule_ms"] = ms_since(c0);
    std::uint64_t probe = 0;
    std::uint64_t reported = 0;
    for (graph::NodeId v = 0; v < cfg.n; ++v) {
      probe += crashed[v] && !dep.byz[v] ? 1 : 0;
      reported += layers.run.status[v] == proto::NodeStatus::kCrashed ? 1 : 0;
    }
    m["protocols.crashed_nodes"] = static_cast<double>(probe);
    if (probe != reported) {
      t.oracle_ok = false;
      t.failure += "crash-rule probe != crashed statuses; ";
    }
  }
  fill_span_metrics(t, r, untraced_ms);
  fill_run_counts(t, layers.run);
  m["graph.g_slots"] = static_cast<double>(layers.overlay->g().num_slots());
  m["graph.overlay_mb"] =
      static_cast<double>(layers.overlay->memory_bytes()) / (1 << 20);
  return t;
}

TracedOp traced_churn(const Config& cfg, std::uint64_t seed,
                      std::uint64_t index) {
  TracedOp t;
  const auto c = churn_config(cfg, seed, index);
  const auto t0 = Clock::now();
  const auto untraced = dynamics::run_churn(c);
  const double untraced_ms = ms_since(t0);
  t.outcome = judge_churn(untraced);

  dynamics::ChurnRunResult traced_run;
  obs::MetricsSnapshot counters;
  const auto r = traced(t, counters, [&] {
    obs::Span root("perfbench.op");
    obs::Span span("dynamics.run_churn");
    traced_run = dynamics::run_churn(c);
  });
  // Tracing is read-side: the traced call must reproduce every counter.
  t.oracle_ok = untraced.epochs == traced_run.epochs &&
                untraced.trace.epochs == traced_run.trace.epochs;
  if (!t.oracle_ok) t.failure += "traced run_churn != untraced run_churn; ";

  fill_span_metrics(t, r, untraced_ms);
  std::uint64_t scheduled = 0, executed = 0, rows_reused = 0, rows_fresh = 0;
  std::uint64_t balls_reused = 0, balls_fresh = 0, refreshes = 0;
  for (const auto& ep : traced_run.epochs) {
    scheduled += ep.subphases_scheduled;
    executed += ep.subphases_executed;
    rows_reused += ep.verify_rows_reused;
    rows_fresh += ep.verify_rows_recomputed;
    balls_reused += ep.balls_reused;
    balls_fresh += ep.balls_recomputed;
    refreshes += ep.midrun_verifier_refreshes;
  }
  auto& m = t.metrics;
  m["protocols.flood_rounds"] =
      static_cast<double>(counter_delta(counters, "flood.rounds"));
  m["protocols.token_messages"] =
      static_cast<double>(counter_delta(counters, "flood.tokens"));
  m["protocols.subphases_executed"] = static_cast<double>(executed);
  m["protocols.lazy_skip_frac"] = 1.0 - frac(executed, scheduled);
  m["protocols.warm_rows_reused_frac"] =
      frac(rows_reused, rows_reused + rows_fresh);
  m["incremental.ball_reuse_frac"] =
      frac(balls_reused, balls_reused + balls_fresh);
  m["dynamics.verifier_refreshes"] = static_cast<double>(refreshes);
  return t;
}

}  // namespace

std::uint32_t ThreadBudget::peak() const {
  return workers * std::max(omp_threads, flood_threads);
}

Config make_config(const std::string& workload) {
  Config cfg;
  cfg.name = workload;
  if (workload == "oneshot-algo2") {
    cfg.kind = Kind::kOneshotAlgo2;
    cfg.n = 8192;
  } else if (workload == "oneshot-brc-large") {
    cfg.kind = Kind::kOneshotBrc;
    cfg.n = 65536;
  } else if (workload == "churn-composed") {
    cfg.kind = Kind::kChurn;
    cfg.n = 8192;
    cfg.delta = 0.7;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + workload +
        "' (known: oneshot-algo2, oneshot-brc-large, churn-composed)");
  }
  auto& t = cfg.threads;
  t.nproc = resolve_nproc();
  t.omp_threads = resolve_omp_threads(t.nproc);
  // The BRC workload runs the parallel flood kernel at 4 threads, or at
  // every CPU when there are fewer; the others use the serial kernel.
  t.flood_threads = cfg.kind == Kind::kOneshotBrc ? std::min(4u, t.nproc) : 0;
  if (t.peak() > t.nproc) {
    throw std::runtime_error(
        "thread budget exceeded: " + std::to_string(t.workers) +
        " worker(s) x max(omp " + std::to_string(t.omp_threads) + ", flood " +
        std::to_string(t.flood_threads) + ") threads > nproc " +
        std::to_string(t.nproc));
  }
  return cfg;
}

OpOutcome run_op(const Config& cfg, std::uint64_t seed, std::uint64_t index) {
  return guarded([&] {
    if (cfg.kind == Kind::kChurn) {
      return judge_churn(dynamics::run_churn(churn_config(cfg, seed, index)));
    }
    return judge_oneshot(cfg,
                         oneshot_one_call(cfg, deployment(cfg, seed, index)));
  });
}

TracedOp run_traced_op(const Config& cfg, std::uint64_t seed,
                       std::uint64_t index) {
  try {
    return cfg.kind == Kind::kChurn ? traced_churn(cfg, seed, index)
                                    : traced_oneshot(cfg, seed, index);
  } catch (const std::exception& e) {
    TracedOp t;
    t.outcome.error = e.what();
    t.failure = std::string("threw: ") + e.what();
    return t;
  }
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const auto list = [] {
    std::vector<std::pair<std::string, std::string>> base = {
        {"graph.sample_h_ms", "ms"},
        {"graph.materialize_g_ms", "ms"},
        {"graph.g_slots", "count"},
        {"graph.overlay_mb", "MiB"},
        {"protocols.crash_rule_ms", "ms"},
        {"protocols.crashed_nodes", "count"},
        {"protocols.verifier_ms", "ms"},
        {"protocols.count_run_ms", "ms"},
        {"protocols.count_run_self_ms", "ms"},
        {"protocols.phase_loop_ms", "ms"},
        {"protocols.flood_ms", "ms"},
        {"protocols.brc_run_ms", "ms"},
        {"protocols.refine_smooth_ms", "ms"},
        {"protocols.flood_rounds", "count"},
        {"protocols.subphases_executed", "count"},
        {"protocols.token_messages", "count"},
        {"protocols.verify_messages", "count"},
        {"protocols.lazy_skip_frac", "frac"},
        {"protocols.warm_rows_reused_frac", "frac"},
        {"incremental.snapshot_ms", "ms"},
        {"incremental.ball_reuse_frac", "frac"},
        {"dynamics.phase_boundary_ms", "ms"},
        {"dynamics.epoch_self_ms", "ms"},
        {"dynamics.verifier_refreshes", "count"},
        {"trace.unattributed_frac", "frac"},
        {"trace.overhead_frac", "frac"}};
    auto all = base;
    for (const auto& [name, unit] : base) {
      if (unit == "ms") {
        all.emplace_back(name.substr(0, name.size() - 3) + ".share", "frac");
      }
    }
    return all;
  }();
  return list;
}

}  // namespace perfbench
