// IncrementalEngine mechanics: bootstrap equivalence with the static
// build, ball-reuse accounting, the verify_against_full debug mode, and
// behavior with incremental reuse disabled (full rebuilds through the same
// assembly path, dirty masks still reported for the warm tier).
#include "incremental/engine.hpp"

#include <gtest/gtest.h>

#include "../graph/reference_overlay.hpp"
#include "graph/small_world.hpp"

namespace byz::incremental {
namespace {

using dynamics::MutableOverlay;

TEST(IncrementalEngine, BootstrapSnapshotMatchesTheFullRebuild) {
  MutableOverlay overlay(256, 6, 0, 42);
  IncrementalEngine engine(overlay);
  const auto inc = engine.snapshot();
  const auto full = overlay.snapshot();
  EXPECT_TRUE(overlays_identical(inc.overlay, full.overlay));
  const auto ref = graph::reference_snapshot(overlay);
  EXPECT_TRUE(overlays_identical(inc.overlay, ref.overlay));
  EXPECT_EQ(engine.stats().full_rebuilds, 1u);
  EXPECT_EQ(engine.stats().last_recomputed, 256u);
  EXPECT_EQ(engine.stats().last_reused, 0u);
  // First snapshot reports everything dirty to warm-start consumers.
  EXPECT_EQ(engine.last_dirty().size(), 256u);
}

TEST(IncrementalEngine, ReusesCleanBallsAcrossEpochs) {
  MutableOverlay overlay(1024, 6, 0, 7);
  IncrementalEngine engine(overlay);
  (void)engine.snapshot();
  util::Xoshiro256 rng(3);
  overlay.join(rng);
  overlay.leave(overlay.random_alive(rng));
  const auto snap = engine.snapshot();
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.snapshots, 2u);
  EXPECT_EQ(stats.full_rebuilds, 1u);
  EXPECT_GT(stats.last_reused, stats.last_recomputed);
  EXPECT_TRUE(overlays_identical(snap.overlay, overlay.snapshot().overlay));
  const auto ref = graph::reference_snapshot(overlay);
  EXPECT_EQ(snap.dense_to_stable, ref.dense_to_stable);
  EXPECT_TRUE(overlays_identical(snap.overlay, ref.overlay));
  // The dirty mask of the last snapshot matches what was recomputed.
  std::uint64_t dirty_alive = 0;
  for (const auto stable : snap.dense_to_stable) {
    if (engine.last_dirty()[stable] != 0) ++dirty_alive;
  }
  EXPECT_EQ(dirty_alive, stats.last_recomputed);
}

TEST(IncrementalEngine, VerifyModeCrossChecksEverySnapshot) {
  MutableOverlay overlay(192, 6, 0, 11);
  IncrementalEngine engine(overlay, {/*incremental=*/true,
                                     /*verify_against_full=*/true});
  util::Xoshiro256 rng(5);
  for (int round = 0; round < 3; ++round) {
    overlay.join(rng);
    overlay.rewire(overlay.random_alive(rng), rng);
    EXPECT_NO_THROW((void)engine.snapshot());
  }
  EXPECT_EQ(engine.stats().verified, 3u);
}

TEST(IncrementalEngine, NonIncrementalModeStillReportsDirtyMasks) {
  MutableOverlay overlay(256, 6, 0, 13);
  IncrementalEngine engine(overlay, {/*incremental=*/false,
                                     /*verify_against_full=*/false});
  (void)engine.snapshot();
  util::Xoshiro256 rng(1);
  overlay.join(rng);
  const auto snap = engine.snapshot();
  // Full rebuild every time...
  EXPECT_EQ(engine.stats().full_rebuilds, 2u);
  EXPECT_EQ(engine.stats().last_reused, 0u);
  // ...but the dirty mask still reflects only what actually changed.
  std::uint64_t dirty_alive = 0;
  for (const auto stable : snap.dense_to_stable) {
    if (stable < engine.last_dirty().size() &&
        engine.last_dirty()[stable] != 0) {
      ++dirty_alive;
    }
  }
  EXPECT_GT(dirty_alive, 0u);
  EXPECT_LT(dirty_alive, snap.overlay.num_nodes());
  const auto ref = graph::reference_snapshot(overlay);
  EXPECT_TRUE(overlays_identical(snap.overlay, ref.overlay));
}

TEST(IncrementalEngine, OverlaysIdenticalDetectsDifferences) {
  graph::OverlayParams params;
  params.n = 128;
  params.d = 6;
  params.seed = 1;
  const auto a = graph::Overlay::build(params);
  EXPECT_TRUE(overlays_identical(a, a));
  params.seed = 2;
  const auto b = graph::Overlay::build(params);
  EXPECT_FALSE(overlays_identical(a, b));
}

}  // namespace
}  // namespace byz::incremental
