#include "protocols/run_common.hpp"

#include "obs/digest.hpp"

namespace byz::proto {

using graph::NodeId;

void digest_phase_state(obs::RunDigester& digester, const Verifier& verifier,
                        std::span<const NodeStatus> status,
                        std::span<const std::uint32_t> estimate,
                        NodeId id_bound) {
  for (NodeId v = 0; v < id_bound; ++v) {
    digester.fold_phase(obs::digest_state_term(
        v, (static_cast<std::uint64_t>(status[v]) << 32) | estimate[v]));
  }
  // A verifier without tables (verification off) folds the rows its
  // primary constructor would have tabled, derived here on demand — the
  // same terms, so digests do not depend on whether the table was built.
  const graph::Overlay& overlay = verifier.overlay();
  std::vector<std::uint32_t> derived(overlay.k());
  for (NodeId v = 0; v < id_bound; ++v) {
    std::span<const std::uint32_t> counts;
    std::uint64_t chain = 0;
    if (verifier.tabled()) {
      counts = verifier.ball_row(v);
      chain = verifier.usable_chain(v);
    } else {
      verifier_ball_row(overlay, v, derived.data());
      counts = derived;
      chain = verifier_chain_len(overlay, verifier.byz_mask(), v,
                                 verifier.config().chain_model);
    }
    std::uint64_t row = 0;
    for (const std::uint32_t count : counts) row = obs::mix2(row, count);
    digester.fold_phase(obs::digest_state_term(v, obs::mix2(row, chain)));
  }
}

const Verifier* admit_at_phase_boundary(
    MidRunHooks& midrun, std::uint32_t phase,
    const std::vector<bool>& byz_mask, const std::vector<bool>& crashed,
    std::span<const NodeStatus> status, std::vector<std::uint8_t>& participates,
    std::vector<bool>& active, std::uint64_t& active_count,
    std::vector<graph::NodeId>& admitted) {
  const auto nb = static_cast<NodeId>(participates.size());
  admitted.clear();
  const Verifier* verifier = midrun.begin_phase(phase, admitted);
  for (const NodeId a : admitted) {
    if (a >= nb || participates[a] != 0) continue;
    participates[a] = 1;
    if (!byz_mask[a] && !crashed[a] && status[a] == NodeStatus::kUndecided) {
      active[a] = true;
      ++active_count;
    }
  }
  return verifier;
}

void sweep_departed(MidRunHooks& midrun, std::vector<bool>& active,
                    std::uint64_t& active_count, RunResult& result,
                    obs::RunDigester* digester) {
  const auto nb = static_cast<NodeId>(result.status.size());
  for (NodeId v = 0; v < nb; ++v) {
    if (result.status[v] == NodeStatus::kDeparted || !midrun.departed(v)) {
      continue;
    }
    if (active[v]) {
      active[v] = false;
      --active_count;
    }
    if (result.status[v] != NodeStatus::kByzantine) {
      result.status[v] = NodeStatus::kDeparted;
      result.estimate[v] = 0;
      if (digester != nullptr) {
        digester->fold_phase(obs::digest_state_term(v, 0xDE9));
      }
    }
  }
}

void fold_run_outcome(obs::RunDigester& digester, const RunResult& result,
                      NodeId id_bound) {
  for (NodeId v = 0; v < id_bound; ++v) {
    digester.fold_run(obs::digest_state_term(
        v, (static_cast<std::uint64_t>(result.status[v]) << 32) |
               result.estimate[v]));
  }
  digester.close_run();
}

}  // namespace byz::proto
