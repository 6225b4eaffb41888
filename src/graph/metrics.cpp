#include "graph/metrics.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/bfs.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace byz::graph {

namespace {

/// Counts edges among the (sorted, dedup'd) neighbor list of v.
std::uint64_t edges_among_neighbors(const Graph& g, NodeId v) {
  const auto nbrs = g.neighbors(v);
  std::uint64_t count = 0;
  for (const NodeId u : nbrs) {
    // Intersect u's adjacency with nbrs; both sorted.
    const auto un = g.neighbors(u);
    auto a = nbrs.begin();
    auto b = un.begin();
    while (a != nbrs.end() && b != un.end()) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        ++count;
        ++a;
        ++b;
      }
    }
  }
  return count / 2;  // each triangle edge counted from both endpoints
}

double local_clustering(const Graph& g, NodeId v) {
  const std::uint64_t deg = g.degree(v);
  if (deg < 2) return 0.0;
  const auto possible = static_cast<double>(deg * (deg - 1) / 2);
  return static_cast<double>(edges_among_neighbors(g, v)) / possible;
}

}  // namespace

double average_clustering(const Graph& simple, std::uint32_t sample,
                          std::uint64_t seed) {
  const NodeId n = simple.num_nodes();
  if (n == 0) return 0.0;
  std::vector<NodeId> targets;
  if (sample == 0 || sample >= n) {
    targets.resize(n);
    for (NodeId v = 0; v < n; ++v) targets[v] = v;
  } else {
    util::Xoshiro256 rng(seed);
    targets.reserve(sample);
    for (std::uint32_t i = 0; i < sample; ++i) {
      targets.push_back(static_cast<NodeId>(rng.below(n)));
    }
  }
  // Per-target values, then a serial fold in target order: the sum has the
  // same bits at every participant count.
  std::vector<double> local(targets.size());
  util::parallel_for(targets.size(), 0, 64, [&](std::uint64_t first,
                                                std::uint64_t last) {
    for (std::uint64_t i = first; i < last; ++i) {
      local[i] = local_clustering(simple, targets[i]);
    }
  });
  double sum = 0.0;
  for (const double c : local) sum += c;
  return sum / static_cast<double>(targets.size());
}

DiameterResult diameter(const Graph& g, std::uint32_t exact_threshold,
                        std::uint32_t probes, std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  if (n == 0) return {0, true};
  if (n <= exact_threshold) {
    std::vector<std::uint32_t> ecc(n);
    util::parallel_for(n, 0, 64, [&](std::uint64_t first, std::uint64_t last) {
      for (auto v = static_cast<NodeId>(first); v < last; ++v) {
        ecc[v] = eccentricity(g, v);
      }
    });
    return {*std::max_element(ecc.begin(), ecc.end()), true};
  }
  // Iterated double sweep: BFS from a random node, then from the farthest
  // node found; repeat from several seeds. Lower-bounds the diameter.
  util::Xoshiro256 rng(seed);
  std::uint32_t best = 0;
  for (std::uint32_t p = 0; p < probes; ++p) {
    const auto start = static_cast<NodeId>(rng.below(n));
    const Farthest f1 = farthest_node(g, start);
    const Farthest f2 = farthest_node(g, f1.node);
    best = std::max(best, f2.dist);
  }
  return {best, false};
}

double average_path_length(const Graph& g, std::uint32_t sources,
                           std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  if (n < 2) return 0.0;
  util::Xoshiro256 rng(seed);
  std::vector<NodeId> roots;
  roots.reserve(sources);
  for (std::uint32_t i = 0; i < sources; ++i) {
    roots.push_back(static_cast<NodeId>(rng.below(n)));
  }
  // Per-root (distance sum, pair count), folded in root order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> per_root(roots.size());
  util::parallel_for(roots.size(), 0, 1, [&](std::uint64_t first,
                                             std::uint64_t last) {
    for (std::uint64_t i = first; i < last; ++i) {
      for (const auto d : bfs_distances(g, roots[i])) {
        if (d != kUnreachable && d > 0) {
          per_root[i].first += d;
          ++per_root[i].second;
        }
      }
    }
  });
  std::uint64_t total = 0;
  std::uint64_t pairs = 0;
  for (const auto& [sum, count] : per_root) {
    total += sum;
    pairs += count;
  }
  return pairs ? static_cast<double>(total) / static_cast<double>(pairs)
               : 0.0;
}

}  // namespace byz::graph
