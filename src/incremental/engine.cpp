#include "incremental/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/small_world.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace byz::incremental {

namespace {

bool graphs_equal(const graph::Graph& a, const graph::Graph& b) {
  const NodeId n = a.num_nodes();
  if (n != b.num_nodes() || a.num_slots() != b.num_slots()) return false;
  for (NodeId v = 0; v < n; ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

}  // namespace

bool overlays_identical(const graph::Overlay& a, const graph::Overlay& b) {
  const auto& pa = a.params();
  const auto& pb = b.params();
  if (pa.n != pb.n || pa.d != pb.d || pa.k != pb.k || pa.seed != pb.seed ||
      pa.generation != pb.generation || a.k() != b.k()) {
    return false;
  }
  if (!graphs_equal(a.h(), b.h()) ||
      !graphs_equal(a.h_simple(), b.h_simple()) ||
      !graphs_equal(a.g(), b.g())) {
    return false;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto da = a.g_dists(v);
    const auto db = b.g_dists(v);
    if (!std::equal(da.begin(), da.end(), db.begin(), db.end())) return false;
  }
  return true;
}

IncrementalEngine::IncrementalEngine(MutableOverlay& overlay, Config config)
    : overlay_(&overlay), config_(config), tracker_(overlay) {}

MutableOverlay::Snapshot IncrementalEngine::snapshot() {
  static const obs::Counter obs_recomputed("incremental.balls_recomputed");
  static const obs::Counter obs_reused("incremental.balls_reused");
  obs::Span snap_span("incremental.snapshot");
  const auto& ov = *overlay_;
  MutableOverlay::Snapshot snap;
  snap.dense_to_stable = ov.alive_nodes();
  const auto n = static_cast<NodeId>(snap.dense_to_stable.size());
  const NodeId bound = ov.id_bound();

  std::vector<NodeId> dense(bound, graph::kInvalidNode);
  for (NodeId i = 0; i < n; ++i) dense[snap.dense_to_stable[i]] = i;

  // What really changed since the last snapshot (warm-start consumers read
  // this even when incremental reuse is off).
  if (!has_snapshot_) {
    last_dirty_.assign(bound, 0);
    for (const NodeId v : snap.dense_to_stable) last_dirty_[v] = 1;
  } else {
    last_dirty_ = tracker_.dirty_mask();
    last_dirty_.resize(bound, 0);
  }

  const bool full = !has_snapshot_ || !config_.incremental;
  if (full) ++stats_.full_rebuilds;
  const auto fresh = [&](NodeId v) { return full || tracker_.is_dirty(v); };
  std::vector<NodeId> recompute;
  for (const NodeId v : snap.dense_to_stable) {
    if (fresh(v)) recompute.push_back(v);
  }

  // This snapshot's rows, packed in stable-id order: a fresh ball for each
  // recomputed node, the previous row for every other alive node, nothing
  // for departed ids. Dense order is increasing stable order, so these
  // offsets, read at the alive ids, are G's.
  std::vector<std::uint64_t> off(static_cast<std::size_t>(bound) + 1, 0);
  std::vector<NodeId> ids;
  std::vector<std::uint8_t> dists;
  {
    obs::Span bfs_span("incremental.dirty_bfs");
    bfs_span.arg("recompute", recompute.size()).arg("alive", n);
    graph::ball_sizes(recompute, ov.k(), bound, ov.ring_neighbors(),
                      off.data() + 1);
    for (const NodeId v : snap.dense_to_stable) {
      if (!fresh(v) && v + 1 < ball_off_.size()) {
        off[v + 1] = ball_off_[v + 1] - ball_off_[v];
      }
    }
    for (std::size_t i = 1; i < off.size(); ++i) off[i] += off[i - 1];
    ids.resize(off.back());
    dists.resize(off.back());
    graph::write_sorted_balls(recompute, ov.k(), bound, ov.ring_neighbors(),
                              off.data(), ids.data(), dists.data());
  }
  stats_.last_recomputed = recompute.size();
  stats_.last_reused = n - recompute.size();
  stats_.balls_recomputed += stats_.last_recomputed;
  stats_.balls_reused += stats_.last_reused;
  obs_recomputed.add(stats_.last_recomputed);
  obs_reused.add(stats_.last_reused);
  snap_span.arg("recomputed", stats_.last_recomputed)
      .arg("reused", stats_.last_reused);
  {
    obs::Span csr_span("incremental.csr_assembly");

    // H: every node holds exactly one successor and one predecessor slot
    // per cycle, so the CSR offsets are uniform; sorting each d-slot row
    // matches the multiset sort Graph::from_edges performs in the full
    // rebuild.
    const std::uint32_t d = ov.d();
    graph::Graph::OffsetVec h_off(static_cast<std::size_t>(n) + 1);
    for (NodeId i = 0; i <= n; ++i) {
      h_off[i] = static_cast<std::uint64_t>(i) * d;
    }
    graph::Graph::NeighborVec h_nbrs(static_cast<std::uint64_t>(n) * d);
    const std::uint64_t grain = util::balanced_grain(n, 0);
    util::parallel_for(n, 0, grain, [&](std::uint64_t first,
                                        std::uint64_t last) {
      for (auto i = static_cast<NodeId>(first); i < last; ++i) {
        const NodeId v = snap.dense_to_stable[i];
        NodeId* row = h_nbrs.data() + static_cast<std::uint64_t>(i) * d;
        NodeId* slot = row;
        ov.ring_neighbors()(v, [&](NodeId w) { *slot++ = dense[w]; });
        std::sort(row, row + d);
      }
    });

    // G: clean rows carry over from the previous snapshot's rows, then
    // every row is translated stable→dense. Departed rows are empty and
    // dense order is increasing stable order, so the packed rows are laid
    // out as G's: the same offsets, and sorted rows stay sorted.
    util::parallel_for(n, 0, grain, [&](std::uint64_t first,
                                        std::uint64_t last) {
      for (auto i = static_cast<NodeId>(first); i < last; ++i) {
        const NodeId v = snap.dense_to_stable[i];
        const std::uint64_t size = off[v + 1] - off[v];
        if (fresh(v) || size == 0) continue;
        std::copy_n(ball_ids_.begin() + ball_off_[v], size,
                    ids.begin() + off[v]);
        std::copy_n(ball_dists_.begin() + ball_off_[v], size,
                    dists.begin() + off[v]);
      }
    });
    ball_off_ = std::move(off);
    ball_ids_ = std::move(ids);
    ball_dists_ = std::move(dists);
    graph::Graph::OffsetVec g_off(static_cast<std::size_t>(n) + 1);
    for (NodeId i = 0; i < n; ++i) {
      g_off[i] = ball_off_[snap.dense_to_stable[i]];
    }
    g_off[n] = ball_off_.back();
    const std::uint64_t slots = ball_ids_.size();
    graph::Graph::NeighborVec g_nbrs(slots);
    const std::uint64_t slot_grain = util::balanced_grain(slots, 0);
    util::parallel_for(slots, 0, slot_grain, [&](std::uint64_t first,
                                                 std::uint64_t last) {
      for (std::uint64_t s = first; s < last; ++s) {
        g_nbrs[s] = dense[ball_ids_[s]];
      }
    });
    std::vector<std::uint8_t> g_dist(ball_dists_);

    graph::OverlayParams params;
    params.n = n;
    params.d = d;
    params.k = ov.k();
    params.seed = ov.bootstrap_seed();
    params.generation = ov.build_tag();
    snap.overlay = graph::Overlay::build_with_balls(
        params, graph::Graph::from_csr(std::move(h_off), std::move(h_nbrs)),
        graph::Graph::from_csr(std::move(g_off), std::move(g_nbrs)),
        std::move(g_dist));
  }

  if (config_.verify_against_full) {
    const auto reference = ov.snapshot();
    if (reference.dense_to_stable != snap.dense_to_stable ||
        !overlays_identical(reference.overlay, snap.overlay)) {
      throw std::logic_error(
          "IncrementalEngine::snapshot: incremental result diverged from the "
          "full rebuild (dirty-ball invariant violated)");
    }
    ++stats_.verified;
  }

  tracker_.clear();
  has_snapshot_ = true;
  ++stats_.snapshots;
  return snap;
}

}  // namespace byz::incremental
