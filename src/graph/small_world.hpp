// The small-world overlay of §2.1: G = H ∪ L where (u,v) ∈ E(L) iff
// dist_H(u,v) <= k, k = ceil(d/3). Adding L raises the clustering
// coefficient (neighbors of a node are interconnected) while H supplies the
// expansion; Algorithm 2 exploits both. Nodes do NOT know which of their
// G-edges are H-edges — the protocol reconstructs that (Lemma 3) — but the
// simulator of course does.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "graph/graph.hpp"

namespace byz::graph {

struct OverlayParams {
  NodeId n = 0;
  std::uint32_t d = 8;       ///< H-degree; even, >= 4
  std::uint32_t k = 0;       ///< L-radius; 0 means the paper's ceil(d/3)
  std::uint64_t seed = 1;    ///< drives the H(n,d) sample
  /// Topology build tag: 0 = the static H(n,d) sample determined by `seed`;
  /// dynamics::MutableOverlay snapshots stamp their (nonzero) mutation
  /// generation here, so caches keyed on the full params can never alias an
  /// epoch snapshot with the static overlay of the same (n, d, seed).
  std::uint64_t generation = 0;
};

/// Distance value meaning "w is not within v's k-ball".
inline constexpr std::uint8_t kNotInBall = 0xFF;

/// A sampled overlay: the H multigraph, its simple view, and the dedup'd
/// G = k-ball adjacency annotated with exact H-distances per slot.
///
/// WHEN G EXISTS. build / build_from_h leave G unbuilt: they sample (or
/// adopt) and validate H and build h_simple, O(n·d) bytes. G is
/// materialized on the first call to g(), g_dists() or h_dist(), exactly
/// once and thread-safely (the overlay cache shares one const Overlay
/// across concurrent trials), and is then immutable. Readers that never
/// touch G — the flood kernel, BRC, a disabled-verification Verifier —
/// never pay for it. build_with_balls adopts a ready-made G eagerly.
///
/// A reader that fans out over nodes (a util::parallel_for calling
/// g_dists(v)) must touch g() BEFORE its loop: a first touch inside the
/// loop would build G while the loop's other participants block on it.
/// Debug builds assert this in the builder.
class Overlay {
 public:
  /// Samples H(n,d) (span `overlay.sample_h`) and builds h_simple; G is
  /// materialized lazily (see the class comment).
  [[nodiscard]] static Overlay build(const OverlayParams& params);

  /// Wraps a caller-supplied H multigraph (must be an exactly d-regular
  /// multigraph on params.n nodes; parallel edges allowed); G over it is
  /// materialized lazily. Used by dynamics::MutableOverlay to turn an
  /// epoch's cycle state into the immutable overlay the protocols run on;
  /// params.seed/generation are recorded as provenance, not re-sampled.
  ///
  /// Cost of G's build (span `overlay.materialize_g`, on the thread that
  /// first reads G): two passes of the ball kernel (graph::ball, bfs.hpp)
  /// over h_simple — ball sizes, then the balls — each fanned out on the
  /// worker pool (util/parallel.hpp); each ball is radix-sorted by id (no
  /// comparison sort) and written straight into its row of G's final CSR
  /// and distance arrays. G exists once: peak memory is the finished
  /// overlay, O(n * (d-1)^k), plus per thread one O(n) visited array (the
  /// kernel's, kept across calls) and a few ball-sized buffers.
  [[nodiscard]] static Overlay build_from_h(const OverlayParams& params,
                                            Graph h);

  /// Assembles an overlay from a caller-supplied H **and** ready-made k-ball
  /// adjacency: `g` must be the dedup'd union of all balls B_H(v, k) \ {v}
  /// with `g_dist[slot]` the exact H-distance of each neighbor slot — the
  /// arrays build_from_h would have derived by running one bounded BFS per
  /// node. Skipping that BFS is the incremental snapshot engine's hot path;
  /// it is the CALLER's contract that the balls match H (the engine's debug
  /// mode cross-checks against a full rebuild). Only cheap shape invariants
  /// are validated here. G is resident from the start.
  [[nodiscard]] static Overlay build_with_balls(
      const OverlayParams& params, Graph h, Graph g,
      std::vector<std::uint8_t> g_dist);

  [[nodiscard]] const OverlayParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] NodeId num_nodes() const noexcept { return h_.num_nodes(); }

  [[nodiscard]] const Graph& h() const noexcept { return h_; }
  [[nodiscard]] const Graph& h_simple() const noexcept { return h_simple_; }
  /// G, materialized on first use.
  [[nodiscard]] const Graph& g() const { return lazy().g; }

  /// H-distances aligned with g().neighbors(v); values in [1, k].
  [[nodiscard]] std::span<const std::uint8_t> g_dists(NodeId v) const {
    const LazyG& l = lazy();
    return {l.dist.data() + l.g.first_slot(v),
            l.dist.data() + l.g.first_slot(v) + l.g.degree(v)};
  }

  /// Exact H-distance from v to w if w lies within v's k-ball, else
  /// kNotInBall. O(log deg_G(v)).
  [[nodiscard]] std::uint8_t h_dist(NodeId v, NodeId w) const;

  /// v's H-neighbors (distance exactly 1 within G's annotation); equals
  /// h_simple().neighbors(v).
  [[nodiscard]] std::span<const NodeId> h_neighbors(NodeId v) const {
    return h_simple_.neighbors(v);
  }

  /// Whether G is resident (never forces it).
  [[nodiscard]] bool g_materialized() const noexcept {
    return g_->ready;
  }

  /// Bytes resident now: H and h_simple, plus G once materialized.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    std::uint64_t bytes = h_.memory_bytes() + h_simple_.memory_bytes();
    if (g_materialized()) bytes += g_->g.memory_bytes() + g_->dist.size();
    return bytes;
  }

 private:
  /// G and its once-only build state. Held by pointer: std::once_flag is
  /// neither movable nor copyable, and the pointee stays writable from the
  /// const accessors that trigger the build.
  struct LazyG {
    std::once_flag once;
    std::atomic<bool> ready{false};
    unsigned built_at_depth = 0;  ///< util::parallel_depth() at construction
    Graph g;
    std::vector<std::uint8_t> dist;
  };

  [[nodiscard]] const LazyG& lazy() const {
    if (!g_->ready) materialize_g();
    return *g_;
  }
  void materialize_g() const;

  OverlayParams params_;
  std::uint32_t k_ = 0;
  Graph h_;
  Graph h_simple_;
  std::unique_ptr<LazyG> g_ = std::make_unique<LazyG>();
};

/// The paper's k = ceil(d/3).
[[nodiscard]] constexpr std::uint32_t paper_k(std::uint32_t d) noexcept {
  return (d + 2) / 3;
}

}  // namespace byz::graph
