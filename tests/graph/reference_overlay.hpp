// Test-only references for the k-ball graph G, frozen so that the oracles
// never compare graph::ball() against itself:
//   * reference_build_from_h, the G materialization Overlay::build_from_h
//     replaced: two passes of a hand-written bounded BFS (ball sizes, then
//     the balls), a comparison sort of each ball by node id, a copy of
//     every row into per-node adjacency lists, and a CSR assembled from
//     those lists after re-sorting each one. It holds three copies of G's
//     neighbor ids at once and exists only to be compared against.
//   * reference_snapshot, MutableOverlay::snapshot() with G built by that
//     BFS over the rings and a comparison sort, as IncrementalEngine's own
//     cycle-walk BFS and std::sort used to build it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dynamics/mutable_overlay.hpp"
#include "graph/bfs.hpp"
#include "graph/hamiltonian.hpp"
#include "graph/small_world.hpp"

namespace byz::graph {

/// B(src, radius) in BFS order, `src` first at distance 0: a bounded BFS
/// over `g`'s rows with its own visited array.
inline std::vector<BallEntry> reference_bfs_ball(const Graph& g, NodeId src,
                                                 std::uint32_t radius) {
  std::vector<std::uint8_t> visited(g.num_nodes(), 0);
  std::vector<BallEntry> out{{src, 0}};
  visited[src] = 1;
  std::size_t level_begin = 0;
  for (std::uint32_t depth = 1; depth <= radius; ++depth) {
    const std::size_t level_end = out.size();
    if (level_begin == level_end) break;
    for (std::size_t i = level_begin; i < level_end; ++i) {
      for (const NodeId w : g.neighbors(out[i].node)) {
        if (visited[w] == 0) {
          visited[w] = 1;
          out.push_back({w, static_cast<std::uint8_t>(depth)});
        }
      }
    }
    level_begin = level_end;
  }
  return out;
}

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
  for (NodeId v = 0; v < n; ++v) {
    counts[static_cast<std::size_t>(v) + 1] =
        reference_bfs_ball(h_simple, v, k).size() - 1;  // minus self
  }
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];

  // Pass 2: fill node/dist arrays, sorted by neighbor id per node.
  std::vector<NodeId> nodes(counts.back());
  std::vector<std::uint8_t> dists(counts.back());
  for (NodeId v = 0; v < n; ++v) {
    auto ball = reference_bfs_ball(h_simple, v, k);
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

  std::vector<std::vector<NodeId>> adj(n);
  for (NodeId v = 0; v < n; ++v) {
    adj[v].assign(nodes.begin() + static_cast<std::ptrdiff_t>(counts[v]),
                  nodes.begin() + static_cast<std::ptrdiff_t>(counts[v + 1]));
  }
  return Overlay::build_with_balls(params, std::move(h),
                                   reference_from_adjacency(std::move(adj)),
                                   std::move(dists));
}

/// MutableOverlay::snapshot() with G rebuilt by reference_bfs_ball over
/// the rings in stable-id space (departed ids isolated), each ball sorted
/// and translated stable -> dense (a monotone map: rows stay sorted).
inline dynamics::MutableOverlay::Snapshot reference_snapshot(
    const dynamics::MutableOverlay& ov) {
  auto snap = ov.snapshot();  // H and the dense ids; G is never read
  std::vector<std::pair<NodeId, NodeId>> ring_edges;
  std::vector<NodeId> dense(ov.id_bound(), kInvalidNode);
  for (NodeId i = 0; i < snap.dense_to_stable.size(); ++i) {
    const NodeId v = snap.dense_to_stable[i];
    dense[v] = i;
    for (std::uint32_t c = 0; c < ov.num_cycles(); ++c) {
      ring_edges.emplace_back(v, ov.successor(c, v));
    }
  }
  const Graph rings = Graph::from_edges(ov.id_bound(), ring_edges, true);
  std::vector<std::vector<NodeId>> adj(snap.dense_to_stable.size());
  std::vector<std::uint8_t> dists;
  for (NodeId i = 0; i < adj.size(); ++i) {
    auto ball = reference_bfs_ball(rings, snap.dense_to_stable[i], ov.k());
    std::sort(ball.begin() + 1, ball.end(),
              [](const BallEntry& a, const BallEntry& b) {
                return a.node < b.node;
              });
    for (std::size_t j = 1; j < ball.size(); ++j) {
      adj[i].push_back(dense[ball[j].node]);
      dists.push_back(ball[j].dist);
    }
  }
  Graph g = reference_from_adjacency(std::move(adj));
  snap.overlay = Overlay::build_with_balls(
      snap.overlay.params(), snap.overlay.h(), std::move(g), std::move(dists));
  return snap;
}

}  // namespace byz::graph
