#include "graph/small_world.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/hamiltonian.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
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

namespace {

/// G's rows over `h_simple`: every ball B_H(v, k) \ {v}, id-sorted, with
/// per-slot H-distances, written in place into the final CSR arrays.
void build_k_balls(const Graph& h_simple, std::uint32_t k, Graph& g,
                   std::vector<std::uint8_t>& g_dist) {
  const NodeId n = h_simple.num_nodes();
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  Graph::OffsetVec offsets(static_cast<std::size_t>(n) + 1, 0);
  ball_sizes(all, k, n, csr_neighbors(h_simple), offsets.data() + 1);
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  // Rows sorted by neighbor id: the Graph invariant h_dist binary-searches.
  Graph::NeighborVec nodes(offsets.back());
  std::vector<std::uint8_t> dists(offsets.back());
  write_sorted_balls(all, k, n, csr_neighbors(h_simple), offsets.data(),
                     nodes.data(), dists.data());
  g = Graph::from_csr(std::move(offsets), std::move(nodes));
  g_dist = std::move(dists);
}

}  // namespace

Overlay Overlay::build_from_h(const OverlayParams& params, Graph h) {
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
  o.g_->built_at_depth = util::parallel_depth();
  return o;
}

void Overlay::materialize_g() const {
  std::call_once(g_->once, [this] {
    // A first read from inside a parallel_for the overlay was not built in
    // means a reader forgot to touch g() before fanning out: the loop's
    // other participants would block here while G is built without them.
    // (An overlay built inside a loop, one per sim::run_trials trial, may
    // materialize there.)
    assert(util::parallel_depth() <= g_->built_at_depth);
    obs::Span span("overlay.materialize_g");
    build_k_balls(h_simple_, k_, g_->g, g_->dist);
    span.arg("n", params_.n).arg("slots", g_->g.num_slots());
    g_->ready = true;
  });
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
  o.g_->g = std::move(g);
  o.g_->dist = std::move(g_dist);
  o.g_->ready = true;
  return o;
}

std::uint8_t Overlay::h_dist(NodeId v, NodeId w) const {
  if (v == w) return 0;
  const LazyG& l = lazy();
  const auto nbrs = l.g.neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
  if (it == nbrs.end() || *it != w) return kNotInBall;
  const auto slot = static_cast<std::uint64_t>(it - nbrs.begin());
  return l.dist[l.g.first_slot(v) + slot];
}

}  // namespace byz::graph
