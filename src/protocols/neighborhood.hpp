// Setup stage of Algorithm 2 (lines 1-2) and Lemma 3:
//   1. every node presents its G-adjacency list to its G-neighbors,
//   2. each honest node v cross-checks the claims pairwise: if u asserts
//      "w is (not) my neighbor" while w asserts the opposite, v has received
//      contradictory information and crashes (goes into crash failure),
//   3. absent conflicts, v reconstructs the H-vs-L classification of its
//      edges via the subset criterion in Lemma 3's proof.
//
// Honest nodes always tell the truth, so only a node whose claim is
// overridden (a "suspect") can be half of a conflicting pair: a truthful
// node claims exactly N_G, and two truthful lists always agree. For each
// suspect u the crash set is built from
//   Asym(u) = {w != u, w < n : u's claim about w != w's claim about u}.
// An honest v ∈ N_G(u) crashes iff u denies v or N_G(v) meets Asym(u) —
// precisely the pairs (u, w ∈ N_G(v)) detects_conflict tests, so the rule
// is exact. Against truthful partners Asym(u) = claimed(u) Δ N_G(u); two
// disagreeing suspects are found from whichever one claims the other.
// Cost: O(n) to find the suspects; per suspect, a merge of claimed(u)
// with N_G(u), a binary search per neighbor and per suspect partner, and
// one stamp-array walk over the shorter of Asym(u) and u's surviving
// neighbors. Truthful Byzantine nodes cost nothing. The message-level
// engine runs detects_conflict per node instead, and the engine↔fastpath
// parity suites hold the two to the same crash set.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/small_world.hpp"
#include "sim/instrumentation.hpp"

namespace byz::proto {

/// Adjacency claims: honest nodes implicitly claim the truth; Byzantine
/// nodes may override their claimed list (one list, shown to everyone —
/// IDs cannot be faked per §2.1, but lists can lie).
class ClaimSet {
 public:
  explicit ClaimSet(const graph::Overlay& overlay)
      : overlay_(&overlay), overrides_(overlay.num_nodes()) {}

  /// Installs a lying claim for node u (sorted internally).
  void set_claim(graph::NodeId u, std::vector<graph::NodeId> claimed);

  /// The list u presents (truth unless overridden).
  [[nodiscard]] std::span<const graph::NodeId> claimed(graph::NodeId u) const;

  /// True iff u presents the truth.
  [[nodiscard]] bool truthful(graph::NodeId u) const {
    return !overrides_[u].has_value();
  }

  [[nodiscard]] const graph::Overlay& overlay() const { return *overlay_; }

 private:
  const graph::Overlay* overlay_;
  std::vector<std::optional<std::vector<graph::NodeId>>> overrides_;
};

/// Algorithm 2 line 2, for a single node: does v receive contradictory
/// claims from two of its G-neighbors? (Pairwise XOR test.) Exact but
/// O(deg^2); used by tests and small-n runs.
[[nodiscard]] bool detects_conflict(const ClaimSet& claims, graph::NodeId v);

/// Crash set over all honest nodes, computed with the Asym rule above
/// (equal to running detects_conflict at every honest node — see the
/// reference grid in the tests). Counts setup traffic and crashes into
/// `instr` if given.
[[nodiscard]] std::vector<bool> compute_crash_set(
    const ClaimSet& claims, const std::vector<bool>& byz_mask,
    sim::Instrumentation* instr = nullptr);

/// Lemma-3 reconstruction result for one node.
struct Reconstruction {
  bool conflict = false;                      ///< v would crash
  std::vector<graph::NodeId> h_neighbors;     ///< believed distance-1 nodes
};

/// Reconstructs v's believed H-neighborhood from the claims: the maximal
/// elements of the intersection partial order {N(u) ∩ N(v) : u ∈ N(v)}.
/// With truthful claims and a locally tree-like neighborhood this equals
/// the true H-neighbor set (Lemma 3); the unit tests assert exactly that.
[[nodiscard]] Reconstruction reconstruct_neighborhood(const ClaimSet& claims,
                                                      graph::NodeId v);

}  // namespace byz::proto
