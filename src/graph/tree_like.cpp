#include "graph/tree_like.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "util/parallel.hpp"

namespace byz::graph {

std::uint64_t tree_ball_size(std::uint32_t d, std::uint32_t r) {
  if (d < 3) throw std::invalid_argument("tree_ball_size: need d >= 3");
  // 1 + d + d(d-1) + ... + d(d-1)^(r-1)
  std::uint64_t size = 1;
  std::uint64_t level = d;
  for (std::uint32_t i = 0; i < r; ++i) {
    size += level;
    level *= (d - 1);
  }
  return size;
}

double paper_ltl_radius(std::uint64_t n, std::uint32_t d) {
  return std::log2(static_cast<double>(n)) / (10.0 * std::log2(d));
}

namespace {

/// A node is LTL at radius r iff its BFS ball over the multigraph has full
/// tree size AND no parallel edges occur inside the ball. Parallel edges
/// also shrink the dedup'd ball, so checking the dedup'd ball size against
/// the tree size is sufficient — but we traverse the multigraph directly
/// and count distinct visits, which is the same thing.
bool node_is_tree_like(const Graph& h_multi, NodeId w, std::uint32_t radius,
                       std::uint64_t want, std::vector<BallEntry>& row) {
  ball({&w, 1}, radius, h_multi.num_nodes(), csr_neighbors(h_multi), row);
  if (row.size() != want) return false;
  // Every neighbor of an interior node (distance < radius) lies in the
  // ball, so its multigraph edge endpoints there total the interior
  // degrees; a perfect tree has (#interior nodes) * d of them.
  std::uint64_t internal_endpoints = 0;
  std::uint64_t interior = 0;
  for (const auto& e : row) {
    if (e.dist == radius) continue;
    internal_endpoints += h_multi.degree(e.node);
    ++interior;
  }
  return internal_endpoints == interior * static_cast<std::uint64_t>(
                                              h_multi.degree(w));
}

}  // namespace

TreeLikeResult classify_tree_like(const Graph& h_multi, std::uint32_t d,
                                  std::uint32_t radius) {
  const NodeId n = h_multi.num_nodes();
  TreeLikeResult result;
  result.radius = radius;
  const std::uint64_t want = tree_ball_size(d, radius);
  // One byte per node: chunks write disjoint bytes, whereas neighbouring
  // vector<bool> bits share a word.
  std::vector<std::uint8_t> ltl(n, 0);
  util::parallel_for(n, 0, util::balanced_grain(n, 0), [&](std::uint64_t first,
                                                          std::uint64_t last) {
    std::vector<BallEntry> row;
    for (auto v = static_cast<NodeId>(first); v < last; ++v) {
      ltl[v] = node_is_tree_like(h_multi, v, radius, want, row);
    }
  });
  result.is_tree_like.assign(ltl.begin(), ltl.end());
  result.count = static_cast<std::uint64_t>(
      std::count(ltl.begin(), ltl.end(), std::uint8_t{1}));
  return result;
}

}  // namespace byz::graph
