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

TEST(BfsBall, ContainsExactlyTheBall) {
  const Graph g = cycle_graph(10);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(g, 0, 2, scratch, ball);
  // Ball of radius 2 on a 10-cycle: {0,1,9,2,8}.
  ASSERT_EQ(ball.size(), 5u);
  EXPECT_EQ(ball[0].node, 0u);
  EXPECT_EQ(ball[0].dist, 0u);
  std::uint32_t at_two = 0;
  for (const auto& e : ball) {
    if (e.dist == 2) ++at_two;
  }
  EXPECT_EQ(at_two, 2u);
}

TEST(BfsBall, ScratchReusableAcrossCalls) {
  const Graph g = cycle_graph(12);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(g, 0, 1, scratch, ball);
  EXPECT_EQ(ball.size(), 3u);
  bfs_ball(g, 6, 1, scratch, ball);
  EXPECT_EQ(ball.size(), 3u);
  EXPECT_EQ(ball[0].node, 6u);
}

TEST(BfsBall, RadiusZeroIsSelf) {
  const Graph g = cycle_graph(5);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(g, 2, 0, scratch, ball);
  ASSERT_EQ(ball.size(), 1u);
  EXPECT_EQ(ball[0].node, 2u);
}

TEST(BfsBall, StopsWhenBallSaturates) {
  const Graph g = cycle_graph(6);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(g, 0, 100, scratch, ball);  // radius >> diameter
  EXPECT_EQ(ball.size(), 6u);
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

TEST(Bfs, AgreesWithBallOnRandomRegular) {
  util::Xoshiro256 rng(21);
  const Graph h = simplify(build_hamiltonian_graph(200, 6, rng));
  const auto dist = bfs_distances(h, 17);
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  bfs_ball(h, 17, 3, scratch, ball);
  std::uint32_t within3 = 0;
  for (const auto dv : dist) {
    if (dv <= 3) ++within3;
  }
  EXPECT_EQ(ball.size(), within3);
  for (const auto& e : ball) EXPECT_EQ(dist[e.node], e.dist);
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
  BfsScratch scratch;
  std::vector<BallEntry> ball;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> tmp;
  for (NodeId v = 0; v < 3000; v += 97) {
    bfs_ball(h, v, 3, scratch, ball);
    keys.clear();
    for (const auto& e : ball) keys.push_back(pack_ball_key(e.node, e.dist));
    auto want = keys;
    std::sort(want.begin(), want.end());
    radix_sort_ball_keys(keys, 2999, tmp);
    EXPECT_EQ(keys, want) << "v=" << v;
  }
}

}  // namespace
}  // namespace byz::graph
