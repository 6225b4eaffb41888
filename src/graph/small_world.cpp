#include "graph/small_world.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/hamiltonian.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace byz::graph {

Overlay Overlay::build(const OverlayParams& params) {
  Graph h;
  {
    obs::Span span("overlay.sample_h");
    span.arg("n", params.n);
    util::Xoshiro256 rng(params.seed);
    h = build_hamiltonian_graph(params.n, params.d, rng);
    span.arg("slots", h.num_slots());
  }
  return build_from_h(params, std::move(h));
}

Overlay Overlay::build_from_h(const OverlayParams& params, Graph h) {
  obs::Span span("overlay.materialize_g");
  Overlay o;
  o.params_ = params;
  o.k_ = params.k == 0 ? paper_k(params.d) : params.k;
  if (o.k_ == 0) throw std::invalid_argument("Overlay: k must be >= 1");
  if (h.num_nodes() != params.n) {
    throw std::invalid_argument("Overlay: H node count != params.n");
  }
  if (!h.is_regular(params.d)) {
    throw std::invalid_argument("Overlay: H is not d-regular");
  }

  o.h_ = std::move(h);
  o.h_simple_ = simplify(o.h_);

  const NodeId n = params.n;
  const std::uint32_t k = o.k_;

  // Pass 1: ball sizes (excluding the center) -> CSR offsets.
  Graph::OffsetVec offsets(static_cast<std::size_t>(n) + 1, 0);
#pragma omp parallel
  {
    BfsScratch scratch;
    std::vector<BallEntry> ball;
#pragma omp for schedule(dynamic, 256)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      bfs_ball(o.h_simple_, static_cast<NodeId>(v), k, scratch, ball);
      offsets[static_cast<std::size_t>(v) + 1] = ball.size() - 1;  // minus self
    }
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  // Pass 2: each ball, radix-sorted by neighbor id (the Graph invariant
  // that h_dist binary-searches), lands in its own row of the final arrays.
  Graph::NeighborVec nodes(offsets.back());
  std::vector<std::uint8_t> dists(offsets.back());
#pragma omp parallel
  {
    BfsScratch scratch;
    std::vector<BallEntry> ball;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> tmp;
#pragma omp for schedule(dynamic, 256)
    for (std::int64_t sv = 0; sv < static_cast<std::int64_t>(n); ++sv) {
      const auto v = static_cast<NodeId>(sv);
      bfs_ball(o.h_simple_, v, k, scratch, ball);
      keys.clear();
      for (std::size_t i = 1; i < ball.size(); ++i) {
        keys.push_back(pack_ball_key(ball[i].node, ball[i].dist));
      }
      radix_sort_ball_keys(keys, n - 1, tmp);
      const std::uint64_t row = offsets[v];
      for (std::size_t i = 0; i < keys.size(); ++i) {
        nodes[row + i] = static_cast<NodeId>(keys[i] >> 8);
        dists[row + i] = static_cast<std::uint8_t>(keys[i]);
      }
    }
  }
  span.arg("n", n).arg("slots", nodes.size());
  o.g_ = Graph::from_csr(std::move(offsets), std::move(nodes));
  o.g_dist_ = std::move(dists);
  return o;
}

Overlay Overlay::build_with_balls(const OverlayParams& params, Graph h,
                                  Graph g, std::vector<std::uint8_t> g_dist) {
  Overlay o;
  o.params_ = params;
  o.k_ = params.k == 0 ? paper_k(params.d) : params.k;
  if (o.k_ == 0) throw std::invalid_argument("Overlay: k must be >= 1");
  if (h.num_nodes() != params.n || g.num_nodes() != params.n) {
    throw std::invalid_argument("Overlay: H/G node count != params.n");
  }
  if (!h.is_regular(params.d)) {
    throw std::invalid_argument("Overlay: H is not d-regular");
  }
  if (g_dist.size() != g.num_slots()) {
    throw std::invalid_argument("Overlay: g_dist size != G slots");
  }
  o.h_ = std::move(h);
  o.h_simple_ = simplify(o.h_);
  o.g_ = std::move(g);
  o.g_dist_ = std::move(g_dist);
  return o;
}

std::uint8_t Overlay::h_dist(NodeId v, NodeId w) const {
  if (v == w) return 0;
  const auto nbrs = g_.neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
  if (it == nbrs.end() || *it != w) return kNotInBall;
  const auto slot = static_cast<std::uint64_t>(it - nbrs.begin());
  return g_dist_[g_.first_slot(v) + slot];
}

}  // namespace byz::graph
