// Test-only reference for proto::compute_crash_set: the suspect-pair loop
// the Asym rule replaced. For every honest v and every G-neighbor u that
// is Byzantine or lying, v crashes if u denies v or if u and some other
// G-neighbor w of v disagree about their shared edge. It is quadratic in
// the degree per suspect neighbor and exists only to be compared against.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "protocols/neighborhood.hpp"
#include "sim/instrumentation.hpp"

namespace byz::proto {

inline bool reference_claims_edge(const ClaimSet& claims, graph::NodeId u,
                                  graph::NodeId w) {
  const auto list = claims.claimed(u);
  return std::binary_search(list.begin(), list.end(), w);
}

inline std::vector<bool> reference_crash_set(
    const ClaimSet& claims, const std::vector<bool>& byz_mask,
    sim::Instrumentation* instr = nullptr) {
  const auto& g = claims.overlay().g();
  const graph::NodeId n = g.num_nodes();
  if (byz_mask.size() != n) {
    throw std::invalid_argument("reference_crash_set: mask size mismatch");
  }
  std::vector<bool> crashed(n, false);
  if (instr != nullptr) {
    for (graph::NodeId u = 0; u < n; ++u) {
      const auto len = claims.claimed(u).size();
      for (std::uint64_t e = 0; e < g.degree(u); ++e) {
        instr->count_setup_list(len);
      }
    }
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    if (byz_mask[v]) continue;
    const auto nbrs = g.neighbors(v);
    bool conflict = false;
    for (std::size_t a = 0; a < nbrs.size() && !conflict; ++a) {
      const graph::NodeId u = nbrs[a];
      if (!byz_mask[u] && claims.truthful(u)) continue;
      if (!reference_claims_edge(claims, u, v)) {
        conflict = true;
        break;
      }
      for (std::size_t b = 0; b < nbrs.size() && !conflict; ++b) {
        const graph::NodeId w = nbrs[b];
        if (w == u) continue;
        if (reference_claims_edge(claims, u, w) !=
            reference_claims_edge(claims, w, u)) {
          conflict = true;
        }
      }
    }
    crashed[v] = conflict;
    if (conflict && instr != nullptr) ++instr->crashes;
  }
  return crashed;
}

}  // namespace byz::proto
