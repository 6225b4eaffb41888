#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "graph/hamiltonian.hpp"
#include "util/rng.hpp"

namespace byz::graph {
namespace {

/// Path graph 0-1-2-...-(n-1).
Graph path_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::from_edges(n, edges, true);
}

/// Cycle graph.
Graph cycle_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return Graph::from_edges(n, edges, true);
}

TEST(Bfs, PathDistances) {
  const Graph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, MaxDepthTruncates) {
  const Graph g = path_graph(10);
  const auto dist = bfs_distances(g, 0, 3);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Bfs, DisconnectedUnreachable) {
  const Graph g = Graph::from_edges(4, std::vector<std::pair<NodeId, NodeId>>{{0, 1}}, true);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, BadSourceThrows) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)bfs_distances(g, 7), std::out_of_range);
}

/// ball() from one center over `g`'s rows.
std::vector<BallEntry> ball_of(const Graph& g, NodeId center,
                               std::uint32_t radius) {
  std::vector<BallEntry> out;
  ball({&center, 1}, radius, g.num_nodes(), csr_neighbors(g), out);
  return out;
}

TEST(Ball, ContainsExactlyTheBall) {
  const Graph g = cycle_graph(10);
  const auto b = ball_of(g, 0, 2);
  // Ball of radius 2 on a 10-cycle: {0,1,9,2,8}.
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0].node, 0u);
  EXPECT_EQ(b[0].dist, 0u);
  std::uint32_t at_two = 0;
  for (const auto& e : b) {
    if (e.dist == 2) ++at_two;
  }
  EXPECT_EQ(at_two, 2u);
}

TEST(Ball, ScratchReusableAcrossCalls) {
  const Graph g = cycle_graph(12);
  EXPECT_EQ(ball_of(g, 0, 1).size(), 3u);
  const auto b = ball_of(g, 6, 1);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].node, 6u);
  // A larger id bound after a smaller one grows the thread's scratch.
  EXPECT_EQ(ball_of(cycle_graph(40), 39, 2).size(), 5u);
  EXPECT_EQ(ball_of(g, 11, 2).size(), 5u);
}

TEST(Ball, RadiusZeroIsSelf) {
  const Graph g = cycle_graph(5);
  const auto b = ball_of(g, 2, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].node, 2u);
}

TEST(Ball, StopsWhenBallSaturates) {
  const Graph g = cycle_graph(6);
  EXPECT_EQ(ball_of(g, 0, 100).size(), 6u);  // radius >> diameter
}

TEST(Ball, MatchesBfsDistancesEverywhereOnRandomH) {
  util::Xoshiro256 rng(8);
  const Graph h = simplify(build_hamiltonian_graph(300, 6, rng));
  for (NodeId v = 0; v < h.num_nodes(); ++v) {
    const auto dist = bfs_distances(h, v);
    for (std::uint32_t r = 1; r <= 4; ++r) {
      const auto b = ball_of(h, v, r);
      std::uint32_t within = 0;
      for (const auto dv : dist) {
        if (dv <= r) ++within;
      }
      ASSERT_EQ(b.size(), within) << "v=" << v << " r=" << r;
      std::uint8_t last = 0;
      for (const auto& e : b) {
        ASSERT_EQ(dist[e.node], e.dist) << "v=" << v << " r=" << r;
        ASSERT_GE(e.dist, last) << "entries must come in BFS order";
        last = e.dist;
      }
    }
  }
}

TEST(Ball, MultiSourceMatchesTruncatedMultiSourceDistances) {
  util::Xoshiro256 rng(12);
  const Graph h = simplify(build_hamiltonian_graph(400, 8, rng));
  for (const std::uint32_t k : {1u, 2u, 3u, 4u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<NodeId> sources;
      const auto count = 1 + rng.below(6);
      for (std::uint64_t i = 0; i < count; ++i) {
        sources.push_back(static_cast<NodeId>(rng.below(400)));
      }
      sources.push_back(sources.front());  // a repeated source is harmless
      const auto dist = multi_source_distances(h, sources, k - 1);
      std::vector<BallEntry> b;
      ball(sources, k - 1, h.num_nodes(), csr_neighbors(h), b);
      std::uint32_t reached = 0;
      for (const auto dv : dist) {
        if (dv != kUnreachable) ++reached;
      }
      ASSERT_EQ(b.size(), reached) << "k=" << k << " trial=" << trial;
      std::set<NodeId> seen;
      for (const auto& e : b) {
        ASSERT_TRUE(seen.insert(e.node).second) << "duplicate " << e.node;
        ASSERT_EQ(dist[e.node], e.dist) << "k=" << k << " trial=" << trial;
      }
    }
  }
}

TEST(Ball, FilteredFunctorSkipsMaskedNodes) {
  // Path 0-1-...-9 with node 4 masked out: from 2 the ball stops at 3 on
  // that side, exactly as if 4 had departed.
  const Graph g = path_graph(10);
  std::vector<std::uint8_t> masked(10, 0);
  masked[4] = 1;
  const auto live = [&](NodeId u, auto&& visit) {
    for (const NodeId w : g.neighbors(u)) {
      if (masked[w] == 0) visit(w);
    }
  };
  const NodeId center = 2;
  std::vector<BallEntry> b;
  ball({&center, 1}, 5, g.num_nodes(), live, b);
  std::set<NodeId> got;
  for (const auto& e : b) got.insert(e.node);
  EXPECT_EQ(got, (std::set<NodeId>{0, 1, 2, 3}));
  // Against the distances of the graph with node 4's edges removed.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < 10; ++v) {
    if (v != 3 && v != 4) edges.emplace_back(v, v + 1);
  }
  const auto dist =
      bfs_distances(Graph::from_edges(10, edges, true), center, 5);
  for (const auto& e : b) EXPECT_EQ(dist[e.node], e.dist);
}

TEST(MultiSource, NearestSourceWins) {
  const Graph g = path_graph(10);
  const std::vector<NodeId> sources{0, 9};
  const auto dist = multi_source_distances(g, sources);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[9], 0u);
  EXPECT_EQ(dist[4], 4u);
  EXPECT_EQ(dist[5], 4u);
}

TEST(MultiSource, EmptySourcesAllUnreachable) {
  const Graph g = path_graph(4);
  const auto dist = multi_source_distances(g, {});
  for (const auto dv : dist) EXPECT_EQ(dv, kUnreachable);
}

TEST(MultiSource, DepthCap) {
  const Graph g = path_graph(10);
  const std::vector<NodeId> sources{0};
  const auto dist = multi_source_distances(g, sources, 2);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Eccentricity, PathEnds) {
  const Graph g = path_graph(7);
  EXPECT_EQ(eccentricity(g, 0), 6u);
  EXPECT_EQ(eccentricity(g, 3), 3u);
}

TEST(FarthestNode, PathGraph) {
  const Graph g = path_graph(7);
  const Farthest f = farthest_node(g, 0);
  EXPECT_EQ(f.node, 6u);
  EXPECT_EQ(f.dist, 6u);
}

TEST(FarthestNode, TieBreaksToSmallestId) {
  const Graph g = cycle_graph(6);
  const Farthest f = farthest_node(g, 0);
  EXPECT_EQ(f.dist, 3u);
  EXPECT_EQ(f.node, 3u);
}

/// `count` distinct ids <= max_node: every 2^j - 1, 2^j, 2^j + 1 that fits
/// (the radix digit boundaries for any digit width), the extremes, then
/// random ids; shuffled, each with a random dist byte.
std::vector<std::uint64_t> synthetic_keys(NodeId max_node, std::size_t count,
                                          util::Xoshiro256& rng) {
  std::set<NodeId> ids;
  auto add = [&](std::uint64_t id) {
    if (id <= max_node && ids.size() < count) {
      ids.insert(static_cast<NodeId>(id));
    }
  };
  add(0);
  add(max_node);
  for (unsigned j = 0; j <= 32; ++j) {
    const std::uint64_t p = std::uint64_t{1} << j;
    add(p - 1);
    add(p);
    add(p + 1);
  }
  while (ids.size() < count) {
    add(rng.below(static_cast<std::uint64_t>(max_node) + 1));
  }
  std::vector<std::uint64_t> keys;
  for (const NodeId id : ids) {
    keys.push_back(pack_ball_key(id, static_cast<std::uint8_t>(rng())));
  }
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  return keys;
}

TEST(RadixSortBallKeys, MatchesStdSortOnSyntheticIds) {
  util::Xoshiro256 rng(2024);
  std::vector<std::uint64_t> tmp;  // reused across calls, like the build
  for (const NodeId max_node :
       {0u, 1u, 2u, 63u, 64u, 255u, 256u, 2047u, 2048u, 2049u, 65535u,
        65536u, (1u << 22) - 1, 1u << 22, (1u << 22) + 1, 0xFFFFFFFEu,
        0xFFFFFFFFu}) {
    for (const std::size_t size : {0u, 1u, 2u, 3u, 17u, 450u, 5000u}) {
      const std::size_t count = static_cast<std::size_t>(
          std::min<std::uint64_t>(size, std::uint64_t{max_node} + 1));
      auto keys = synthetic_keys(max_node, count, rng);
      auto want = keys;
      std::sort(want.begin(), want.end());
      radix_sort_ball_keys(keys, max_node, tmp);
      EXPECT_EQ(keys, want) << "max_node=" << max_node << " size=" << count;
    }
  }
}

TEST(RadixSortBallKeys, EqualIdsKeepInputOrder) {
  // The dist byte is carried, not sorted on: duplicate ids stay stable.
  util::Xoshiro256 rng(77);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(pack_ball_key(static_cast<NodeId>(rng.below(40000)),
                                 static_cast<std::uint8_t>(rng())));
  }
  auto want = keys;
  std::stable_sort(
      want.begin(), want.end(),
      [](std::uint64_t a, std::uint64_t b) { return a >> 8 < b >> 8; });
  std::vector<std::uint64_t> tmp;
  radix_sort_ball_keys(keys, 39999, tmp);
  EXPECT_EQ(keys, want);
}

TEST(RadixSortBallKeys, SortsRealBalls) {
  util::Xoshiro256 rng(5);
  const Graph h = simplify(build_hamiltonian_graph(3000, 8, rng));
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> tmp;
  for (NodeId v = 0; v < 3000; v += 97) {
    keys.clear();
    for (const auto& e : ball_of(h, v, 3)) {
      keys.push_back(pack_ball_key(e.node, e.dist));
    }
    auto want = keys;
    std::sort(want.begin(), want.end());
    radix_sort_ball_keys(keys, 2999, tmp);
    EXPECT_EQ(keys, want) << "v=" << v;
  }
}

}  // namespace
}  // namespace byz::graph
