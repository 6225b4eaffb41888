#include "graph/small_world.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/hamiltonian.hpp"
#include "incremental/engine.hpp"
#include "reference_overlay.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace byz::graph {
namespace {

Overlay sample(NodeId n = 256, std::uint32_t d = 8, std::uint64_t seed = 11) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

TEST(SmallWorld, PaperK) {
  EXPECT_EQ(paper_k(6), 2u);
  EXPECT_EQ(paper_k(8), 3u);   // ceil(8/3)
  EXPECT_EQ(paper_k(9), 3u);
  EXPECT_EQ(paper_k(10), 4u);
  EXPECT_EQ(paper_k(12), 4u);
}

TEST(SmallWorld, ResolvesDefaultK) {
  const Overlay o = sample(128, 8);
  EXPECT_EQ(o.k(), 3u);
}

TEST(SmallWorld, ExplicitKRespected) {
  OverlayParams p;
  p.n = 128;
  p.d = 8;
  p.k = 2;
  p.seed = 3;
  const Overlay o = Overlay::build(p);
  EXPECT_EQ(o.k(), 2u);
}

TEST(SmallWorld, GMatchesBallDefinition) {
  // (u,v) ∈ E(G) iff dist_H(u,v) <= k — checked against ground-truth BFS.
  const Overlay o = sample(128, 6, 5);
  const std::uint32_t k = o.k();
  for (NodeId v = 0; v < 32; ++v) {  // spot-check a prefix of nodes
    const auto dist = bfs_distances(o.h_simple(), v);
    for (NodeId w = 0; w < o.num_nodes(); ++w) {
      if (w == v) continue;
      const bool in_g = o.g().has_edge(v, w);
      const bool within = dist[w] <= k;
      EXPECT_EQ(in_g, within) << "v=" << v << " w=" << w;
    }
  }
}

TEST(SmallWorld, DistanceAnnotationsExact) {
  const Overlay o = sample(128, 6, 7);
  for (NodeId v = 0; v < 16; ++v) {
    const auto dist = bfs_distances(o.h_simple(), v);
    const auto nbrs = o.g().neighbors(v);
    const auto dists = o.g_dists(v);
    ASSERT_EQ(nbrs.size(), dists.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(dists[i], dist[nbrs[i]]);
    }
  }
}

TEST(SmallWorld, HDistLookup) {
  const Overlay o = sample(128, 6, 9);
  EXPECT_EQ(o.h_dist(5, 5), 0u);
  const auto nbrs = o.g().neighbors(5);
  const auto dists = o.g_dists(5);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_EQ(o.h_dist(5, nbrs[i]), dists[i]);
  }
}

TEST(SmallWorld, HDistSymmetric) {
  const Overlay o = sample(64, 6, 13);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    for (const NodeId w : o.g().neighbors(v)) {
      EXPECT_EQ(o.h_dist(v, w), o.h_dist(w, v));
    }
  }
}

TEST(SmallWorld, NotInBallSentinel) {
  const Overlay o = sample(512, 4, 17);  // k=2, sparse: far pairs exist
  bool found_far = false;
  const auto dist = bfs_distances(o.h_simple(), 0);
  for (NodeId w = 0; w < o.num_nodes(); ++w) {
    if (dist[w] > o.k()) {
      EXPECT_EQ(o.h_dist(0, w), kNotInBall);
      found_far = true;
      break;
    }
  }
  EXPECT_TRUE(found_far);
}

TEST(SmallWorld, HNeighborsMatchSimpleH) {
  const Overlay o = sample(128, 8, 19);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    const auto a = o.h_neighbors(v);
    const auto b = o.h_simple().neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(SmallWorld, GDegreeBoundObservation2) {
  // |B_G(v,1)| < (d-1)^(k+1) + 1 (Observation 2 with τ=1).
  const Overlay o = sample(1024, 8, 23);
  const double bound = std::pow(7.0, 4.0);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    EXPECT_LT(o.g().degree(v), bound);
  }
}

TEST(SmallWorld, DeterministicGivenSeed) {
  const Overlay a = sample(64, 6, 31);
  const Overlay b = sample(64, 6, 31);
  EXPECT_EQ(a.g().num_edges(), b.g().num_edges());
  for (NodeId v = 0; v < 64; ++v) {
    const auto na = a.g().neighbors(v);
    const auto nb = b.g().neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
  }
}

TEST(SmallWorld, RejectsZeroK) {
  OverlayParams p;
  p.n = 16;
  p.d = 4;
  p.k = 0;  // resolves to paper k = 2, fine
  EXPECT_NO_THROW((void)Overlay::build(p));
}

TEST(SmallWorld, ReferenceFromAdjacencySortsLists) {
  std::vector<std::vector<NodeId>> adj{{2, 1}, {0}, {0}};
  const Graph g = reference_from_adjacency(std::move(adj));
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
}

/// A d-regular H on n nodes: the shipped sampler for n >= 3; below that,
/// d/2 "cycles" over one or two nodes (self-loops at n = 1, parallel
/// edges at n = 2), which build_from_h accepts as a multigraph.
Graph sample_h(NodeId n, std::uint32_t d, std::uint64_t seed) {
  if (n >= 3) {
    util::Xoshiro256 rng(seed);
    return build_hamiltonian_graph(n, d, rng);
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::uint32_t c = 0; c < d / 2; ++c) {
    for (NodeId v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  }
  return Graph::from_edges(n, edges, false);
}

TEST(SmallWorld, BuildMatchesReferenceAcrossGridAndTeamSizes) {
  // The in-place, radix-sorted build must equal the old three-copy,
  // comparison-sorted build bitwise: offsets, ids, order and distances.
  // The sizes straddle the radix digit boundaries (8 and 11 id bits,
  // bitset words at 64) and the worker pool's participant cap must not
  // matter.
  const std::vector<unsigned> teams{1, 4};
  std::uint32_t mismatches = 0;
  std::uint32_t checked = 0;
  for (const NodeId n : {1u, 2u, 3u, 5u, 63u, 64u, 65u, 255u, 256u, 257u,
                         2047u, 2048u, 2049u, 8192u}) {
    for (const std::uint32_t d : {4u, 6u, 8u}) {
      std::vector<std::uint32_t> ks{1, 2};
      if (paper_k(d) > 2) ks.push_back(paper_k(d));
      for (const std::uint32_t k : ks) {
        for (const std::uint64_t seed : {7u, 99u}) {
          OverlayParams p;
          p.n = n;
          p.d = d;
          p.k = k;
          p.seed = seed;
          const Overlay ref = reference_build_from_h(p, sample_h(n, d, seed));
          for (const unsigned team : teams) {
            const util::ParticipantCap cap(team);
            const Overlay got = Overlay::build_from_h(p, sample_h(n, d, seed));
            ++checked;
            // G is built lazily, by overlays_identical's first read, at
            // this team size.
            if (got.g_materialized()) {
              ADD_FAILURE() << "G built eagerly: n=" << n;
            }
            if (!incremental::overlays_identical(ref, got)) {
              ++mismatches;
              ADD_FAILURE() << "n=" << n << " d=" << d << " k=" << k
                            << " seed=" << seed << " team=" << team;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(checked, 14u * 7u * 2u * teams.size());
}

TEST(SmallWorld, GIsBuiltOnFirstReadAndCountedOnlyThen) {
  OverlayParams p;
  p.n = 512;
  p.d = 6;
  p.seed = 3;
  const Overlay o = Overlay::build(p);
  EXPECT_FALSE(o.g_materialized());
  EXPECT_EQ(o.memory_bytes(), o.h().memory_bytes() + o.h_simple().memory_bytes());
  EXPECT_EQ(o.h_dist(0, o.h_neighbors(0)[0]), 1u);  // any G accessor builds it
  EXPECT_TRUE(o.g_materialized());
  EXPECT_EQ(o.memory_bytes(), o.h().memory_bytes() +
                                  o.h_simple().memory_bytes() +
                                  o.g().memory_bytes() + o.g().num_slots());
  // Moving an overlay carries its G (built or not) along.
  Overlay lazy = Overlay::build(p);
  const Overlay moved = std::move(lazy);
  EXPECT_FALSE(moved.g_materialized());
  EXPECT_TRUE(incremental::overlays_identical(o, moved));
}

TEST(SmallWorld, ConcurrentFirstReadsOfASharedOverlayBuildGOnce) {
  // The overlay cache hands one const Overlay to concurrent trials, so the
  // first reads of G race by design. Four threads released together must
  // all see the same G, equal to an eagerly assembled one. At this size
  // the build itself fans out on the pool from whichever thread wins.
  OverlayParams p;
  p.n = 2048;
  p.d = 6;
  p.seed = 21;
  const Overlay eager = reference_build_from_h(p, sample_h(p.n, p.d, p.seed));
  ASSERT_TRUE(eager.g_materialized());
  const Overlay shared = Overlay::build_from_h(p, sample_h(p.n, p.d, p.seed));
  ASSERT_FALSE(shared.g_materialized());

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<const Graph*> seen(kThreads, nullptr);
  std::vector<std::uint64_t> dist_sum(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        seen[t] = &shared.g();
        for (NodeId v = 0; v < p.n; v += 97) {
          for (const std::uint8_t dist : shared.g_dists(v)) dist_sum[t] += dist;
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(dist_sum[t], dist_sum[0]);
  }
  EXPECT_TRUE(incremental::overlays_identical(eager, shared));
}

}  // namespace
}  // namespace byz::graph
