#include "graph/bfs.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

namespace byz::graph {

BfsScratch& BfsScratch::local() noexcept {
  thread_local BfsScratch scratch;
  return scratch;
}

void BfsScratch::begin(std::size_t id_bound) {
  if (stamp_.size() < id_bound) {
    stamp_.assign(id_bound, 0);
    epoch_ = 0;
  }
  ++epoch_;
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId src,
                                         std::uint32_t max_depth) {
  return multi_source_distances(g, {&src, 1}, max_depth);
}

void radix_sort_ball_keys(std::span<std::uint64_t> keys, NodeId max_node,
                          std::vector<std::uint64_t>& tmp) {
  constexpr unsigned kMaxDigitBits = 11;
  const std::size_t size = keys.size();
  const auto id_bits = static_cast<unsigned>(std::bit_width(max_node));
  if (size < 2 || id_bits == 0) return;
  const unsigned passes = (id_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned digit_bits = (id_bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit_bits;
  const std::uint64_t mask = buckets - 1;
  tmp.resize(size);
  std::array<std::size_t, std::size_t{1} << kMaxDigitBits> count;
  std::uint64_t* src = keys.data();
  std::uint64_t* dst = tmp.data();
  for (unsigned pass = 0; pass < passes; ++pass) {
    const unsigned shift = 8 + pass * digit_bits;
    std::fill_n(count.begin(), buckets, 0);
    for (std::size_t i = 0; i < size; ++i) ++count[(src[i] >> shift) & mask];
    std::size_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      sum += std::exchange(count[b], sum);
    }
    for (std::size_t i = 0; i < size; ++i) {
      dst[count[(src[i] >> shift) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) std::copy_n(src, size, keys.data());
}

std::vector<std::uint32_t> multi_source_distances(const Graph& g,
                                                  std::span<const NodeId> sources,
                                                  std::uint32_t max_depth) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::vector<NodeId> frontier;
  for (const NodeId s : sources) {
    if (s >= g.num_nodes()) {
      throw std::out_of_range("multi_source_distances: bad source");
    }
    if (dist[s] != 0 || frontier.empty() || frontier.back() != s) {
      if (dist[s] == kUnreachable) {
        dist[s] = 0;
        frontier.push_back(s);
      }
    }
  }
  std::uint32_t depth = 0;
  std::vector<NodeId> next;
  while (!frontier.empty() && depth < max_depth) {
    next.clear();
    ++depth;
    for (const NodeId u : frontier) {
      for (const NodeId w : g.neighbors(u)) {
        if (dist[w] == kUnreachable) {
          dist[w] = depth;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::uint32_t eccentricity(const Graph& g, NodeId src) {
  const auto dist = bfs_distances(g, src);
  std::uint32_t ecc = 0;
  for (const auto d : dist) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

Farthest farthest_node(const Graph& g, NodeId src) {
  const auto dist = bfs_distances(g, src);
  Farthest best{src, 0};
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] != kUnreachable && dist[v] > best.dist) best = {v, dist[v]};
  }
  return best;
}

}  // namespace byz::graph
