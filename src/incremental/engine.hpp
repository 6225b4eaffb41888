// Incremental snapshot engine: the epoch-to-epoch sublinear hot path.
//
// MutableOverlay::snapshot() rebuilds every k-ball from scratch, so an
// epoch over a network where 0.1% of the nodes churned costs the same as a
// cold run. IncrementalEngine keeps the PREVIOUS snapshot's k-balls as
// packed, id-sorted rows in stable-id space, listens to splices through a
// DirtyBallTracker, and per snapshot
//   * re-runs graph::ball over the rings, radix-sorted by stable id, only
//     for dirty nodes (those within distance k-1 of any splice endpoint —
//     a superset of every changed ball),
//   * translates all balls stable→dense and assembles the G/H CSR arrays
//     directly (Graph::from_csr + Overlay::build_with_balls): the map is
//     monotone, so clean balls are reused without a BFS or a re-sort.
// The result is bitwise identical to MutableOverlay::snapshot() — the
// config's verify_against_full debug mode asserts exactly that on every
// call, and the property suite replays hundreds of seeded op interleavings
// against the full rebuild.
#pragma once

#include <cstdint>
#include <vector>

#include "incremental/dirty_ball.hpp"

namespace byz::incremental {

struct IncrementalStats {
  std::uint64_t snapshots = 0;
  std::uint64_t full_rebuilds = 0;  ///< first snapshot or incremental off
  std::uint64_t balls_recomputed = 0;
  std::uint64_t balls_reused = 0;
  std::uint64_t verified = 0;  ///< debug cross-checks that passed
  // Per-call view of the last snapshot() (the cumulative counters above
  // aggregate across epochs).
  std::uint64_t last_recomputed = 0;
  std::uint64_t last_reused = 0;
};

class IncrementalEngine {
 public:
  struct Config {
    /// Reuse clean balls (false = full rebuild through the same assembly
    /// path, with the tracker still reporting what actually changed — the
    /// warm-start tier wants dirty masks even without incremental
    /// snapshots).
    bool incremental = true;
    /// Debug mode: every snapshot() also runs the full rebuild and throws
    /// std::logic_error unless the two overlays are bitwise identical.
    bool verify_against_full = false;
  };

  explicit IncrementalEngine(MutableOverlay& overlay)
      : IncrementalEngine(overlay, Config{}) {}
  IncrementalEngine(MutableOverlay& overlay, Config config);

  /// The incremental equivalent of MutableOverlay::snapshot(); drains the
  /// tracker. Bitwise identical to the full rebuild by contract.
  [[nodiscard]] MutableOverlay::Snapshot snapshot();

  [[nodiscard]] const IncrementalStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const DirtyBallTracker& tracker() const noexcept {
    return tracker_;
  }
  /// Stable-id mask of the balls the LAST snapshot() recomputed (everything
  /// alive on the first snapshot). Ids at/past the mask's end are clean.
  [[nodiscard]] const std::vector<std::uint8_t>& last_dirty() const noexcept {
    return last_dirty_;
  }

 private:
  MutableOverlay* overlay_;
  Config config_;
  DirtyBallTracker tracker_;
  // The last snapshot's balls, self excluded: stable id v's row is
  // [ball_off_[v], ball_off_[v + 1]) of ball_ids_ (stable ids, sorted) and
  // ball_dists_ (H-distances); departed ids have empty rows.
  std::vector<std::uint64_t> ball_off_;
  std::vector<NodeId> ball_ids_;
  std::vector<std::uint8_t> ball_dists_;
  std::vector<std::uint8_t> last_dirty_;
  bool has_snapshot_ = false;
  IncrementalStats stats_;
};

/// Deep structural equality of two overlays: params, H, its simple view,
/// G, and the per-slot distance annotations. The equivalence oracle for the
/// incremental-vs-full contract (debug mode, property tests, E20).
[[nodiscard]] bool overlays_identical(const graph::Overlay& a,
                                      const graph::Overlay& b);

}  // namespace byz::incremental
