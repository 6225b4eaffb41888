// The parallel flood kernel's contract: bitwise-identical to the serial
// reference oracle at EVERY thread count — same per-node state, same
// instrumentation counters, same hierarchical digest trail. The serial
// kernel is the specification; these tests are the property suite that
// keeps the parallel kernel honest across randomized overlays, Byzantine
// sets, injections, crashes, and word-boundary sizes. Full-run parity
// (run_counting_with under RunControls::flood) rides on RunResult's
// defaulted operator==, which compares every instrumentation counter.
#include "protocols/flooding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "adversary/strategies.hpp"
#include "graph/categories.hpp"
#include "obs/digest.hpp"
#include "protocols/fastpath.hpp"
#include "util/rng.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

constexpr std::uint32_t kThreadCounts[] = {1, 2, 4, 8};

Overlay sample(NodeId n, std::uint32_t d, std::uint64_t seed) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

/// One subphase execution under a given kernel, with a digester attached
/// so the trail comparison exercises the parallel round-digest fold.
struct SubphaseRun {
  FloodWorkspace ws;
  sim::Instrumentation instr;
  obs::RunDigester digester;

  SubphaseRun(const Overlay& overlay, const std::vector<bool>& byz,
              const std::vector<bool>& crashed, const Verifier& verifier,
              std::span<const Color> gen, std::span<const Injection> inj,
              FloodParams params) {
    params.digest = &digester;
    digester.begin_phase(1);
    digester.begin_subphase(1);
    run_flood_subphase(overlay, byz, crashed, verifier, params, gen, inj, ws,
                       instr);
    digester.close_subphase();
    digester.close_phase();
    digester.close_run();
  }
};

void expect_bitwise_equal(const SubphaseRun& serial, const SubphaseRun& par,
                          std::uint32_t threads) {
  EXPECT_EQ(serial.ws.known, par.ws.known) << "threads=" << threads;
  EXPECT_EQ(serial.ws.fresh, par.ws.fresh) << "threads=" << threads;
  EXPECT_EQ(serial.ws.best_before, par.ws.best_before)
      << "threads=" << threads;
  EXPECT_EQ(serial.ws.last_step, par.ws.last_step) << "threads=" << threads;
  EXPECT_EQ(serial.instr, par.instr) << "threads=" << threads;
  const auto div =
      obs::first_divergence(serial.digester.trail(), par.digester.trail());
  EXPECT_FALSE(div.diverged())
      << "threads=" << threads << " level=" << obs::to_string(div.level)
      << " phase=" << div.phase << " subphase=" << div.subphase
      << " round=" << div.round;
  EXPECT_EQ(serial.digester.trail().run_digest,
            par.digester.trail().run_digest)
      << "threads=" << threads;
}

TEST(FloodParallel, RandomizedSubphasesBitwiseEqualAcrossThreadCounts) {
  // Randomized overlays / Byzantine sets / colors / injections: the serial
  // oracle and the parallel kernel must agree bit for bit at 1/2/4/8
  // threads, including the commutatively folded round digests.
  struct Shape {
    NodeId n;
    std::uint32_t d;
    std::uint64_t seed;
    std::uint32_t steps;
  };
  const Shape shapes[] = {
      {256, 6, 11, 3}, {301, 8, 22, 4}, {512, 6, 33, 3}};
  for (const auto& shape : shapes) {
    const Overlay overlay = sample(shape.n, shape.d, shape.seed);
    util::Xoshiro256 rng(shape.seed ^ 0xF100D);
    const auto byz =
        graph::random_byzantine_mask(shape.n, shape.n / 32, rng);
    std::vector<bool> crashed(shape.n, false);
    const Verifier verifier(overlay, byz, {});

    std::vector<Color> gen(shape.n);
    for (NodeId v = 0; v < shape.n; ++v) {
      gen[v] = byz[v] ? 0 : util::geometric_color(rng);
    }
    // Injections from Byzantine nodes across the step range: step-1
    // free floods, mid-subphase chain checks, and late fabrications that
    // must be caught — the accept() paths whose counters the parallel
    // kernel folds serially.
    std::vector<Injection> inj;
    for (NodeId v = 0; v < shape.n && inj.size() < 8; ++v) {
      if (!byz[v]) continue;
      const auto step =
          static_cast<std::uint32_t>(1 + (rng() % shape.steps));
      inj.push_back({v, step, static_cast<Color>(50 + (rng() % 100))});
    }

    FloodParams params;
    params.steps = shape.steps;
    params.exec = {FloodMode::kSerial, 0};
    const SubphaseRun serial(overlay, byz, crashed, verifier, gen, inj,
                             params);
    for (const std::uint32_t t : kThreadCounts) {
      params.exec = {FloodMode::kParallel, t};
      const SubphaseRun par(overlay, byz, crashed, verifier, gen, inj,
                            params);
      expect_bitwise_equal(serial, par, t);
    }
  }
}

TEST(FloodParallel, WordBoundarySizesMatchSerial) {
  // n = 63/64/65: the frontier straddles (or exactly fills) one 64-bit
  // word, exercising the packed representation's tail handling.
  for (const NodeId n : {NodeId{63}, NodeId{64}, NodeId{65}}) {
    const Overlay overlay = sample(n, 4, 900 + n);
    util::Xoshiro256 rng(n);
    const std::vector<bool> byz(n, false);
    std::vector<bool> crashed(n, false);
    crashed[n - 1] = true;  // the last id: the tail bit must stay clear
    const Verifier verifier(overlay, byz, {});
    std::vector<Color> gen(n);
    for (auto& c : gen) c = util::geometric_color(rng);

    FloodParams params;
    params.steps = 3;
    params.exec = {FloodMode::kSerial, 0};
    const SubphaseRun serial(overlay, byz, crashed, verifier, gen, {},
                             params);
    for (const std::uint32_t t : kThreadCounts) {
      params.exec = {FloodMode::kParallel, t};
      const SubphaseRun par(overlay, byz, crashed, verifier, gen, {}, params);
      expect_bitwise_equal(serial, par, t);
    }
  }
}

TEST(FloodParallel, CrashesAndSuppressedByzantinesMatchSerial) {
  // The non-default kernel branches: crashed nodes silent, Byzantine
  // forwarding disabled, and a focused region restricting the flood.
  const NodeId n = 256;
  const Overlay overlay = sample(n, 6, 44);
  util::Xoshiro256 rng(44);
  const auto byz = graph::random_byzantine_mask(n, n / 16, rng);
  std::vector<bool> crashed(n, false);
  for (NodeId v = 0; v < n; v += 7) crashed[v] = true;
  const Verifier verifier(overlay, byz, {});
  std::vector<Color> gen(n);
  for (NodeId v = 0; v < n; ++v) {
    gen[v] = byz[v] ? 0 : util::geometric_color(rng);
  }
  std::vector<std::uint8_t> region(n, 0);
  for (NodeId v = 0; v < n / 2; ++v) region[v] = 1;

  FloodParams params;
  params.steps = 4;
  params.byz_forward = false;
  params.region = region;
  params.exec = {FloodMode::kSerial, 0};
  const SubphaseRun serial(overlay, byz, crashed, verifier, gen, {}, params);
  for (const std::uint32_t t : kThreadCounts) {
    params.exec = {FloodMode::kParallel, t};
    const SubphaseRun par(overlay, byz, crashed, verifier, gen, {}, params);
    expect_bitwise_equal(serial, par, t);
  }
}

TEST(FloodParallel, VerifierTableIdenticalAtEveryThreadCount) {
  // The batched row precompute is a pure per-row function; the table must
  // not depend on how it was partitioned.
  const NodeId n = 256;
  const Overlay overlay = sample(n, 6, 55);
  util::Xoshiro256 rng(55);
  const auto byz = graph::random_byzantine_mask(n, n / 16, rng);
  const Verifier reference(overlay, byz, {}, 1);
  for (const std::uint32_t t : kThreadCounts) {
    const Verifier batched(overlay, byz, {}, t);
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(reference.ball_row(v).size(), batched.ball_row(v).size());
      for (std::size_t r = 0; r < reference.ball_row(v).size(); ++r) {
        ASSERT_EQ(reference.ball_row(v)[r], batched.ball_row(v)[r])
            << "threads=" << t << " v=" << v << " r=" << r;
      }
      ASSERT_EQ(reference.usable_chain(v), batched.usable_chain(v))
          << "threads=" << t << " v=" << v;
    }
  }
}

TEST(FloodParallel, VerifierOnFreshOverlayMatchesSerialTable) {
  // Each batched verifier below is the first reader of its overlay's G:
  // the constructor must build G before fanning out, and its table must
  // match the serial table of an overlay whose G already existed.
  const NodeId n = 1024;
  const Overlay warm = sample(n, 8, 56);
  util::Xoshiro256 rng(56);
  const auto byz = graph::random_byzantine_mask(n, n / 16, rng);
  (void)warm.g();
  const Verifier reference(warm, byz, {}, 1);
  for (const std::uint32_t t : kThreadCounts) {
    const Overlay fresh = sample(n, 8, 56);
    ASSERT_FALSE(fresh.g_materialized());
    const Verifier batched(fresh, byz, {}, t);
    EXPECT_TRUE(fresh.g_materialized());
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_TRUE(std::ranges::equal(reference.ball_row(v),
                                     batched.ball_row(v)))
          << "threads=" << t << " v=" << v;
      ASSERT_EQ(reference.usable_chain(v), batched.usable_chain(v))
          << "threads=" << t << " v=" << v;
    }
  }
}

TEST(FloodParallel, FullRunsBitwiseEqualAcrossThreadCounts) {
  // Whole-protocol parity through RunControls::flood: statuses, estimates,
  // phase/subphase/round counts, every instrumentation counter, and the
  // full digest trail. This is the relation E30's `identical` guard and
  // the TSan CI job re-assert at scale.
  const NodeId n = 512;
  const Overlay overlay = sample(n, 6, 77);
  util::Xoshiro256 rng(77);
  const auto byz = graph::random_byzantine_mask(n, n / 64, rng);
  const ProtocolConfig cfg;
  const std::uint64_t color_seed = 404;

  auto serial_strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
  obs::RunDigester serial_digest;
  RunControls serial_controls;
  serial_controls.flood = {FloodMode::kSerial, 0};
  serial_controls.digester = &serial_digest;
  const RunResult serial = run_counting_with(overlay, byz, *serial_strategy,
                                             cfg, color_seed,
                                             serial_controls);

  for (const std::uint32_t t : kThreadCounts) {
    auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);
    obs::RunDigester digest;
    RunControls controls;
    controls.flood = {FloodMode::kParallel, t};
    controls.digester = &digest;
    const RunResult par =
        run_counting_with(overlay, byz, *strategy, cfg, color_seed, controls);
    EXPECT_EQ(serial, par) << "threads=" << t;
    const auto div =
        obs::first_divergence(serial_digest.trail(), digest.trail());
    EXPECT_FALSE(div.diverged())
        << "threads=" << t << " level=" << obs::to_string(div.level)
        << " phase=" << div.phase << " subphase=" << div.subphase
        << " round=" << div.round;
  }
}

TEST(FloodParallel, ProcessDefaultRoundTrips) {
  // kDefault resolves against the process default; setting and resetting
  // the default must round-trip without disturbing explicit modes.
  const FloodExec ambient = resolve_flood_exec({});
  set_default_flood_exec({FloodMode::kParallel, 3});
  EXPECT_EQ(resolve_flood_exec({}),
            (FloodExec{FloodMode::kParallel, 3}));
  // Explicit modes are never rewritten by the default.
  EXPECT_EQ(resolve_flood_exec({FloodMode::kSerial, 5}),
            (FloodExec{FloodMode::kSerial, 5}));
  set_default_flood_exec({FloodMode::kSerial, 0});
  EXPECT_EQ(resolve_flood_exec({}).mode, FloodMode::kSerial);
  // A kDefault store clears the override back to the environment default.
  set_default_flood_exec({});
  EXPECT_EQ(resolve_flood_exec({}), ambient);
}

TEST(FloodParallel, ProcessDefaultSelectsTheKernel) {
  // A run whose controls leave FloodExec at kDefault must follow the
  // process default — this is the seam byzbench --flood-threads and the
  // TSan job's BYZ_FLOOD_THREADS use.
  const NodeId n = 256;
  const Overlay overlay = sample(n, 6, 88);
  util::Xoshiro256 rng(88);
  const auto byz = graph::random_byzantine_mask(n, n / 64, rng);
  const ProtocolConfig cfg;

  auto s1 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  RunControls serial_controls;
  serial_controls.flood = {FloodMode::kSerial, 0};
  const RunResult serial =
      run_counting_with(overlay, byz, *s1, cfg, 9, serial_controls);

  set_default_flood_exec({FloodMode::kParallel, 4});
  auto s2 = adv::make_strategy(adv::StrategyKind::kFakeColor);
  const RunResult defaulted = run_counting(overlay, byz, *s2, cfg, 9);
  set_default_flood_exec({});

  EXPECT_EQ(serial, defaulted);
}

}  // namespace
}  // namespace byz::proto
