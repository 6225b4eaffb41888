// Test-only reference for graph::Overlay::build_from_h: the G
// materialization it replaced. Two bounded-BFS passes (ball sizes, then
// the balls), a comparison sort of each ball by node id, a copy of every
// row into per-node adjacency lists, and a CSR assembled from those lists
// after re-sorting each one. It holds three copies of G's neighbor ids at
// once and exists only to be compared against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/small_world.hpp"

namespace byz::graph {

/// CSR from per-node adjacency lists, each sorted first.
inline Graph reference_from_adjacency(std::vector<std::vector<NodeId>> adj) {
  Graph::OffsetVec offsets(adj.size() + 1, 0);
  for (std::size_t v = 0; v < adj.size(); ++v) {
    offsets[v + 1] = offsets[v] + adj[v].size();
  }
  Graph::NeighborVec neighbors(offsets.back());
  for (std::size_t v = 0; v < adj.size(); ++v) {
    std::sort(adj[v].begin(), adj[v].end());
    std::copy(adj[v].begin(), adj[v].end(),
              neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v]));
  }
  return Graph::from_csr(std::move(offsets), std::move(neighbors));
}

inline Overlay reference_build_from_h(const OverlayParams& params, Graph h) {
  const std::uint32_t k = params.k == 0 ? paper_k(params.d) : params.k;
  if (k == 0) throw std::invalid_argument("Overlay: k must be >= 1");
  const Graph h_simple = simplify(h);
  const NodeId n = params.n;

  // Pass 1: ball sizes (excluding the center) -> CSR offsets.
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(n) + 1, 0);
  {
    BfsScratch scratch;
    std::vector<BallEntry> ball;
    for (NodeId v = 0; v < n; ++v) {
      bfs_ball(h_simple, v, k, scratch, ball);
      counts[static_cast<std::size_t>(v) + 1] = ball.size() - 1;  // minus self
    }
  }
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];

  // Pass 2: fill node/dist arrays, sorted by neighbor id per node.
  std::vector<NodeId> nodes(counts.back());
  std::vector<std::uint8_t> dists(counts.back());
  {
    BfsScratch scratch;
    std::vector<BallEntry> ball;
    for (NodeId v = 0; v < n; ++v) {
      bfs_ball(h_simple, v, k, scratch, ball);
      std::sort(ball.begin() + 1, ball.end(),
                [](const BallEntry& a, const BallEntry& b) {
                  return a.node < b.node;
                });
      std::uint64_t w = counts[v];
      for (std::size_t i = 1; i < ball.size(); ++i, ++w) {
        nodes[w] = ball[i].node;
        dists[w] = ball[i].dist;
      }
    }
  }

  std::vector<std::vector<NodeId>> adj(n);
  for (NodeId v = 0; v < n; ++v) {
    adj[v].assign(nodes.begin() + static_cast<std::ptrdiff_t>(counts[v]),
                  nodes.begin() + static_cast<std::ptrdiff_t>(counts[v + 1]));
  }
  return Overlay::build_with_balls(params, std::move(h),
                                   reference_from_adjacency(std::move(adj)),
                                   std::move(dists));
}

}  // namespace byz::graph
