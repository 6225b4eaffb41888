#include "protocols/neighborhood.hpp"

#include <algorithm>
#include <stdexcept>

namespace byz::proto {

using graph::NodeId;

void ClaimSet::set_claim(NodeId u, std::vector<NodeId> claimed) {
  std::sort(claimed.begin(), claimed.end());
  claimed.erase(std::unique(claimed.begin(), claimed.end()), claimed.end());
  overrides_[u] = std::move(claimed);
}

std::span<const NodeId> ClaimSet::claimed(NodeId u) const {
  if (overrides_[u]) return *overrides_[u];
  return overlay_->g().neighbors(u);
}

namespace {

/// Membership test in a sorted claim list.
bool claims_edge(const ClaimSet& claims, NodeId u, NodeId w) {
  const auto list = claims.claimed(u);
  return std::binary_search(list.begin(), list.end(), w);
}

}  // namespace

bool detects_conflict(const ClaimSet& claims, NodeId v) {
  const auto& g = claims.overlay().g();
  const auto nbrs = g.neighbors(v);
  for (std::size_t a = 0; a < nbrs.size(); ++a) {
    // A neighbor denying the very channel v holds to it is a contradiction
    // v can observe directly (ids cannot be faked on channels, §2.1).
    if (!claims_edge(claims, nbrs[a], v)) return true;
    for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
      const NodeId u = nbrs[a];
      const NodeId w = nbrs[b];
      if (claims_edge(claims, u, w) != claims_edge(claims, w, u)) return true;
    }
  }
  return false;
}

std::vector<bool> compute_crash_set(const ClaimSet& claims,
                                    const std::vector<bool>& byz_mask,
                                    sim::Instrumentation* instr) {
  const auto& g = claims.overlay().g();
  const NodeId n = g.num_nodes();
  if (byz_mask.size() != n) {
    throw std::invalid_argument("compute_crash_set: mask size mismatch");
  }
  std::vector<bool> crashed(n, false);

  // Every node ships its claimed list to each G-neighbor once.
  if (instr != nullptr) {
    for (NodeId u = 0; u < n; ++u) {
      instr->count_setup_list(claims.claimed(u).size(), g.degree(u));
    }
  }

  std::uint64_t crashes = 0;
  const auto crash = [&](NodeId v) {
    if (byz_mask[v] || crashed[v]) return;
    crashed[v] = true;
    ++crashes;
  };

  // Only overridden claims can conflict (see the header). The stamps hold
  // the suspect whose sets they currently mark, so they are never cleared.
  std::vector<NodeId> in_asym(n, graph::kInvalidNode);
  std::vector<NodeId> standing_mark(n, graph::kInvalidNode);
  std::vector<NodeId> suspects;
  for (NodeId u = 0; u < n; ++u) {
    if (!claims.truthful(u)) suspects.push_back(u);
  }
  std::vector<NodeId> standing;
  std::vector<NodeId> asym;
  for (const NodeId u : suspects) {
    const auto nbrs = g.neighbors(u);
    // 1. Honest neighbors that u denies see the contradiction on their
    //    own channel.
    standing.clear();
    for (const NodeId v : nbrs) {
      if (byz_mask[v] || crashed[v]) continue;
      if (claims_edge(claims, u, v)) {
        standing.push_back(v);
      } else {
        crash(v);
      }
    }
    if (standing.empty()) continue;

    // 2. Asym(u): the ids w whose claim about u differs from u's claim
    //    about w. A truthful w claims u iff w ∈ N_G(u), so against truthful
    //    partners Asym(u) is claimed(u) Δ N_G(u): one merge of the two
    //    sorted lists. Two suspects that disagree are found from the side
    //    that claims the other, whose pass crashes the same common
    //    neighbors. Ids >= n are fabricated; no channel reaches them.
    asym.clear();
    const auto add = [&](NodeId w) {
      in_asym[w] = u;
      asym.push_back(w);
    };
    std::size_t j = 0;
    const auto add_unclaimed_below = [&](NodeId bound) {
      for (; j < nbrs.size() && nbrs[j] < bound; ++j) {
        if (claims.truthful(nbrs[j])) add(nbrs[j]);
      }
    };
    for (const NodeId w : claims.claimed(u)) {
      if (w >= n) break;
      add_unclaimed_below(w);
      const bool g_edge = j < nbrs.size() && nbrs[j] == w;
      if (g_edge) ++j;
      if (w == u) continue;
      if (claims.truthful(w) ? !g_edge : !claims_edge(claims, w, u)) add(w);
    }
    add_unclaimed_below(n);
    if (asym.empty()) continue;

    // 3. A standing v crashes iff N_G(v) meets Asym(u): walk whichever
    //    side is shorter.
    if (asym.size() < standing.size()) {
      for (const NodeId v : standing) standing_mark[v] = u;
      for (const NodeId w : asym) {
        for (const NodeId x : g.neighbors(w)) {
          if (standing_mark[x] == u) crash(x);
        }
      }
    } else {
      for (const NodeId v : standing) {
        for (const NodeId x : g.neighbors(v)) {
          if (in_asym[x] == u) {
            crash(v);
            break;
          }
        }
      }
    }
  }
  if (instr != nullptr) instr->crashes += crashes;
  return crashed;
}

Reconstruction reconstruct_neighborhood(const ClaimSet& claims, NodeId v) {
  Reconstruction rec;
  rec.conflict = detects_conflict(claims, v);
  if (rec.conflict) return rec;

  const auto& g = claims.overlay().g();
  const auto nbrs = g.neighbors(v);
  const std::size_t deg = nbrs.size();

  // Bitset rows: I_u = N_G[u] ∩ N_G(v) with CLOSED neighborhoods (u ∈ N[u]),
  // indexed by position in nbrs. Closure is what makes the Lemma-3 subset
  // order work: a child's intersection contains its parent, so the parent
  // must appear in its own set for the containment to be strict.
  const std::size_t words = (deg + 63) / 64;
  std::vector<std::uint64_t> rows(deg * words, 0);
  for (std::size_t a = 0; a < deg; ++a) {
    rows[a * words + a / 64] |= (1ULL << (a % 64));  // self (closure)
    const auto list = claims.claimed(nbrs[a]);
    // Walk the two sorted sequences in tandem.
    std::size_t bi = 0;
    for (const NodeId w : list) {
      while (bi < deg && nbrs[bi] < w) ++bi;
      if (bi == deg) break;
      if (nbrs[bi] == w) {
        rows[a * words + bi / 64] |= (1ULL << (bi % 64));
      }
    }
  }

  auto strict_subset = [&](std::size_t a, std::size_t b) {
    // I_a ⊂ I_b (strict)?
    bool equal = true;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t ra = rows[a * words + w];
      const std::uint64_t rb = rows[b * words + w];
      if ((ra & ~rb) != 0) return false;  // something in a not in b
      if (ra != rb) equal = false;
    }
    return !equal;
  };

  // H-neighbors = maximal elements of the intersection order.
  for (std::size_t a = 0; a < deg; ++a) {
    bool maximal = true;
    for (std::size_t b = 0; b < deg && maximal; ++b) {
      if (b != a && strict_subset(a, b)) maximal = false;
    }
    if (maximal) rec.h_neighbors.push_back(nbrs[a]);
  }
  return rec;
}

}  // namespace byz::proto
