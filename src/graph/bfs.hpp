// Breadth-first search toolkit. Everything here operates on the dedup'd
// adjacency view (parallel edges do not change distances).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/parallel.hpp"

namespace byz::graph {

inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// Distances from `src` to every node (kUnreachable where disconnected),
/// optionally truncated at `max_depth`.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(
    const Graph& g, NodeId src,
    std::uint32_t max_depth = kUnreachable);

/// One entry of a bounded-ball enumeration: node plus its distance.
struct BallEntry {
  NodeId node;
  std::uint8_t dist;
};

/// Generation-stamped visited set for ball(): one per thread, grown to the
/// largest id bound it has seen, so a traversal costs O(|ball|) instead of
/// an O(n) clear. Callers never hold one; ball() uses the calling thread's.
class BfsScratch {
 public:
  [[nodiscard]] static BfsScratch& local() noexcept;

  /// Starts a traversal over ids below `id_bound`: nothing is visited.
  void begin(std::size_t id_bound);
  /// Marks `v` visited; false if it already was.
  [[nodiscard]] bool visit(NodeId v) noexcept {
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    return true;
  }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

/// The bounded-ball kernel: B(sources, radius), every node within `radius`
/// hops of some source, each source at distance 0, written to `out` in BFS
/// order (the sources first, in order, duplicates dropped). Node ids must
/// be below `id_bound`. `neighbors(u, visit)` calls visit(w) for each
/// neighbor w of u; repeats are harmless, and a neighbor it skips (a
/// departed node, say) is simply not in the graph. radius <= 255.
template <class Neighbors>
void ball(std::span<const NodeId> sources, std::uint32_t radius,
          NodeId id_bound, Neighbors&& neighbors, std::vector<BallEntry>& out) {
  BfsScratch& seen = BfsScratch::local();
  seen.begin(id_bound);
  out.clear();
  for (const NodeId s : sources) {
    if (seen.visit(s)) out.push_back({s, 0});
  }
  std::size_t level_begin = 0;
  for (std::uint32_t depth = 1; depth <= radius; ++depth) {
    const std::size_t level_end = out.size();
    if (level_begin == level_end) break;  // ball stopped growing
    const auto dist = static_cast<std::uint8_t>(depth);
    for (std::size_t i = level_begin; i < level_end; ++i) {
      const NodeId u = out[i].node;  // push_back may move `out`
      neighbors(u, [&](NodeId w) {
        if (seen.visit(w)) out.push_back({w, dist});
      });
    }
    level_begin = level_end;
  }
}

/// ball()'s neighbor functor over a graph's CSR rows.
[[nodiscard]] inline auto csr_neighbors(const Graph& g) {
  return [&g](NodeId u, auto&& visit) {
    for (const NodeId w : g.neighbors(u)) visit(w);
  };
}

/// A ball entry packed as `node << 8 | dist`, the key radix_sort_ball_keys
/// orders.
[[nodiscard]] constexpr std::uint64_t pack_ball_key(
    NodeId node, std::uint8_t dist) noexcept {
  return static_cast<std::uint64_t>(node) << 8 | dist;
}

/// Sorts packed ball keys ascending by node id without comparisons: an LSD
/// radix sort over the node bits only, in ceil(bit_width(max_node) / 11)
/// stable counting passes whose digits split those bits evenly (16-bit ids:
/// two 8-bit passes). The dist byte rides along unsorted, so keys with
/// equal ids keep their input order; a ball's ids are unique, so the result
/// equals std::sort of the keys. Every id must be <= max_node. `tmp` is
/// scratch, grown as needed.
void radix_sort_ball_keys(std::span<std::uint64_t> keys, NodeId max_node,
                          std::vector<std::uint64_t>& tmp);

/// First pass of a packed, id-sorted ball build (G's rows, the incremental
/// engine's): size_out[c] = |B(c, radius)| - 1, the center excluded, for
/// each center c. Fans out on the worker pool.
template <class Neighbors>
void ball_sizes(std::span<const NodeId> centers, std::uint32_t radius,
                NodeId id_bound, const Neighbors& neighbors,
                std::uint64_t* size_out) {
  const std::uint64_t grain = util::balanced_grain(centers.size(), 0);
  util::parallel_for(centers.size(), 0, grain, [&](std::uint64_t first,
                                                   std::uint64_t last) {
    std::vector<BallEntry> row;
    for (std::uint64_t i = first; i < last; ++i) {
      ball(centers.subspan(i, 1), radius, id_bound, neighbors, row);
      size_out[centers[i]] = row.size() - 1;
    }
  });
}

/// Second pass: each center c's ball, the center excluded, radix-sorted by
/// id and written to ids/dists from row_start[c] on.
template <class Neighbors>
void write_sorted_balls(std::span<const NodeId> centers, std::uint32_t radius,
                        NodeId id_bound, const Neighbors& neighbors,
                        const std::uint64_t* row_start, NodeId* ids,
                        std::uint8_t* dists) {
  const std::uint64_t grain = util::balanced_grain(centers.size(), 0);
  util::parallel_for(centers.size(), 0, grain, [&](std::uint64_t first,
                                                   std::uint64_t last) {
    std::vector<BallEntry> row;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> tmp;
    for (std::uint64_t i = first; i < last; ++i) {
      ball(centers.subspan(i, 1), radius, id_bound, neighbors, row);
      keys.clear();
      for (std::size_t j = 1; j < row.size(); ++j) {
        keys.push_back(pack_ball_key(row[j].node, row[j].dist));
      }
      radix_sort_ball_keys(keys, id_bound - 1, tmp);
      const std::uint64_t at = row_start[centers[i]];
      for (std::size_t j = 0; j < keys.size(); ++j) {
        ids[at + j] = static_cast<NodeId>(keys[j] >> 8);
        dists[at + j] = static_cast<std::uint8_t>(keys[j]);
      }
    }
  });
}

/// Multi-source BFS: distance from each node to the nearest source.
[[nodiscard]] std::vector<std::uint32_t> multi_source_distances(
    const Graph& g, std::span<const NodeId> sources,
    std::uint32_t max_depth = kUnreachable);

/// Eccentricity of `src` within its component.
[[nodiscard]] std::uint32_t eccentricity(const Graph& g, NodeId src);

/// The farthest node from `src` and its distance (ties: smallest id).
struct Farthest {
  NodeId node;
  std::uint32_t dist;
};
[[nodiscard]] Farthest farthest_node(const Graph& g, NodeId src);

}  // namespace byz::graph
