#include "bench_core/overlay_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dynamics/mutable_overlay.hpp"

namespace byz::bench_core {
namespace {

TEST(OverlayCache, MissThenHitReturnsSameInstance) {
  OverlayCache cache;
  const auto a = cache.get(256, 6, 42);
  const auto b = cache.get(256, 6, 42);
  EXPECT_EQ(a.get(), b.get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(OverlayCache, DistinctKeysBuildDistinctOverlays) {
  OverlayCache cache;
  const auto a = cache.get(256, 6, 1);
  const auto b = cache.get(256, 6, 2);   // different seed
  const auto c = cache.get(256, 8, 1);   // different degree
  const auto d = cache.get(512, 6, 1);   // different size
  const std::set<const graph::Overlay*> distinct{a.get(), b.get(), c.get(),
                                                 d.get()};
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(OverlayCache, BuiltOverlayMatchesDirectBuild) {
  OverlayCache cache;
  const auto cached = cache.get(256, 6, 42);
  graph::OverlayParams params;
  params.n = 256;
  params.d = 6;
  params.seed = 42;
  const auto direct = graph::Overlay::build(params);
  EXPECT_EQ(cached->num_nodes(), direct.num_nodes());
  EXPECT_EQ(cached->g().num_edges(), direct.g().num_edges());
  EXPECT_EQ(cached->k(), direct.k());
}

TEST(OverlayCache, ConcurrentSameKeyBuildsOnce) {
  OverlayCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const graph::Overlay>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&cache, &seen, t] { seen[t] = cache.get(512, 6, 7); });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0].get(), seen[t].get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(OverlayCache, EvictsLeastRecentlyUsedPastByteBound) {
  // Tiny budget: after the first overlay lands, inserting a second must
  // evict the older one (LRU), but a live shared_ptr stays valid.
  OverlayCache cache(/*max_bytes=*/1);
  const auto a = cache.get(256, 6, 1);
  const auto b = cache.get(256, 6, 2);
  const auto stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(a->num_nodes(), 256u);  // still usable after eviction
  // The evicted key re-builds (miss), not a stale hit.
  const auto a2 = cache.get(256, 6, 1);
  EXPECT_EQ(a2->num_nodes(), 256u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(OverlayCache, LaterMaterializedGCountsAgainstTheBound) {
  // Inserted overlays hold H only; G appears on the first read. The bound
  // is sized so two H-only overlays fit but one overlay with its G does
  // not: forcing G on the cached entry must make the next insertion evict.
  graph::OverlayParams params;
  params.n = 512;
  params.d = 6;
  params.seed = 1;
  const auto probe = graph::Overlay::build(params);
  const std::uint64_t h_only = probe.memory_bytes();
  (void)probe.g();
  const std::uint64_t with_g = probe.memory_bytes();
  ASSERT_GT(with_g, 3 * h_only);

  OverlayCache cache(/*max_bytes=*/3 * h_only);
  const auto a = cache.get(512, 6, 1);
  EXPECT_EQ(cache.stats().resident_bytes, h_only);
  (void)a->g();  // a trial reading G on the shared overlay
  EXPECT_EQ(cache.stats().resident_bytes, with_g);
  const auto b = cache.get(512, 6, 2);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, b->memory_bytes());
}

TEST(OverlayCache, SnapshotGenerationNeverAliasesTheStaticKey) {
  // The collision scenario the generation tag exists for: a dynamic epoch
  // snapshot carries the same (n, d, seed) as the static sample it evolved
  // from, but MUST occupy a distinct cache entry.
  OverlayCache cache;
  constexpr graph::NodeId kN = 96;
  const std::uint64_t seed = 42;

  dynamics::MutableOverlay dyn(kN, 6, 0, seed);
  util::Xoshiro256 rng(7);
  // One join + one leave: back to n = 96 with the SAME (n, d, seed) as the
  // static build but a different edge set.
  const auto joined = dyn.join(rng);
  dyn.leave(joined - 1);
  auto snap = dyn.snapshot();
  ASSERT_EQ(snap.overlay.num_nodes(), kN);
  ASSERT_NE(snap.overlay.params().generation, 0u);

  const auto published = cache.put(std::make_shared<const graph::Overlay>(
      std::move(snap.overlay)));
  const auto static_overlay = cache.get(kN, 6, seed);
  EXPECT_NE(published.get(), static_overlay.get());
  EXPECT_EQ(cache.stats().entries, 2u);

  // Publishing the same snapshot key again: the resident entry wins.
  const auto again = cache.put(published);
  EXPECT_EQ(again.get(), published.get());
  EXPECT_EQ(cache.stats().entries, 2u);

  // get() refuses to fabricate a snapshot from a generation-tagged key,
  // and put() refuses to poison a static key with a hand-built overlay.
  EXPECT_THROW((void)cache.get(published->params()), std::invalid_argument);
  graph::OverlayParams static_params;
  static_params.n = kN;
  static_params.d = 6;
  static_params.seed = seed;
  EXPECT_THROW((void)cache.put(std::make_shared<const graph::Overlay>(
                   graph::Overlay::build(static_params))),
               std::invalid_argument);
}

TEST(OverlayCache, EvictsOldGenerationsOfTheSameOverlayBeforeStaticEntries) {
  // Generation-aware capacity policy: epoch snapshots of one evolving
  // overlay supersede each other, so when a new snapshot lands at
  // capacity, the oldest resident generation of the SAME (d, k, seed)
  // family goes first — even when an unrelated static entry is older in
  // plain LRU terms.
  const std::uint64_t seed = 42;
  dynamics::MutableOverlay dyn(96, 6, 0, seed);
  util::Xoshiro256 rng(7);
  auto snapshot_ptr = [&] {
    return std::make_shared<const graph::Overlay>(
        std::move(dyn.snapshot().overlay));
  };
  const auto gen1 = snapshot_ptr();
  dyn.join(rng);
  const auto gen2 = snapshot_ptr();
  dyn.join(rng);
  const auto gen3 = snapshot_ptr();

  graph::OverlayParams static_params;
  static_params.n = 128;
  static_params.d = 6;
  static_params.seed = 7;
  const auto static_bytes =
      graph::Overlay::build(static_params).memory_bytes();

  // Budget that holds the static entry plus two snapshots, but not three:
  // publishing gen3 must evict exactly one entry.
  OverlayCache cache(static_bytes + gen1->memory_bytes() +
                     gen2->memory_bytes() + gen3->memory_bytes() - 1);
  const auto static_overlay = cache.get(static_params);  // LRU-oldest
  (void)cache.put(gen1);
  (void)cache.put(gen2);
  (void)cache.put(gen3);

  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  // The unrelated static entry survived despite being least recently used:
  // a re-get is a pure hit, not a rebuild.
  const auto misses_before = stats.misses;
  const auto again = cache.get(static_params);
  EXPECT_EQ(again.get(), static_overlay.get());
  EXPECT_EQ(cache.stats().misses, misses_before);
  // The victim was the oldest same-family generation: re-publishing gen1
  // inserts it anew (entry count grows) while gen2 was still resident.
  (void)cache.put(gen1);
  EXPECT_GE(cache.stats().entries, 3u);
  EXPECT_GE(cache.stats().evictions, 2u);  // re-insert re-evicts in-family
}

TEST(OverlayCache, ClearDropsEntries) {
  OverlayCache cache;
  (void)cache.get(256, 6, 1);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  (void)cache.get(256, 6, 1);
  EXPECT_EQ(cache.stats().misses, 2u);
}

}  // namespace
}  // namespace byz::bench_core
