// The per-subphase flood kernel (Algorithm 1/2 lines 10-17 inner loop),
// array-based. One subphase of phase i floods colors along H for exactly i
// steps under the forward-once rule: a node re-broadcasts only when its
// running maximum improves, so each send carries the sender's fresh max.
// Byzantine senders are driven by injections; honest receivers filter every
// received color through the Verifier.
//
// Round/phase lifecycle: a RUN is a sequence of phases i = 1, 2, ...; phase
// i runs subphases_in_phase(i) independent subphases; one subphase is one
// call into this kernel and floods for exactly i steps (= i protocol
// ROUNDS, the unit the paper's O(log³ n) bound counts). Within a subphase,
// step 1 broadcasts generated colors and steps 2..i relay improvements.
// Subphases share no state except the caller's fired flags; phases share
// no state except which nodes are still active.
//
// Per-node bookkeeping matches the pseudocode: k_t is the maximum ACCEPTED
// color received in step t; the subphase "fires" for v iff
//   k_i > k_t for all t < i   and   k_i > continue_threshold(i, d).
//
// Mid-protocol churn (FloodParams::live): when live hooks are attached the
// kernel resolves every neighbor set against the LIVE topology instead of
// `overlay`, and calls live->begin_round() before each step's sends so the
// owner can splice scheduled joins/leaves in first. Departed nodes drop
// messages from their departure round (sends and receives); joiners
// receive and relay from their entry round ("flood from entry") but never
// generate mid-subphase — generation is granted at phase boundaries by the
// MembershipPolicy (see verification.hpp / fastpath.hpp). With live ==
// nullptr the kernel is the static path, unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/small_world.hpp"
#include "protocols/color.hpp"
#include "protocols/midrun.hpp"
#include "protocols/verification.hpp"
#include "sim/instrumentation.hpp"
#include "util/bitset.hpp"

namespace byz::obs {
class RunDigester;
}  // namespace byz::obs

namespace byz::proto {

/// Which flood kernel a run uses. kSerial is the scalar reference oracle —
/// always available, never removed; kParallel is the word-packed kernel on
/// the worker pool (util/parallel.hpp), bitwise identical to kSerial at
/// every thread count (the determinism-by-construction contract documented
/// in flooding.cpp and guarded by tests/protocols/flood_parallel_test.cpp
/// and E30). kDefault
/// defers to the process-wide default (set_default_flood_exec, or the
/// BYZ_FLOOD_THREADS environment variable).
enum class FloodMode : std::uint8_t { kDefault, kSerial, kParallel };

/// The kernel knob threaded through RunControls, WarmConfig, MidRunConfig,
/// and ChurnRunConfig. threads caps the kernel's participants (0 = the
/// whole pool, util::pool_size()); it is ignored under kSerial.
struct FloodExec {
  FloodMode mode = FloodMode::kDefault;
  std::uint32_t threads = 0;
  bool operator==(const FloodExec&) const = default;
};

/// Process-wide default used by FloodMode::kDefault. Initialized from the
/// BYZ_FLOOD_THREADS environment variable (N > 0 selects the parallel
/// kernel with N threads — this is how the TSan CI job forces the parallel
/// path through unmodified test binaries); overridable at runtime
/// (byzbench --flood-threads, size_service --flood-threads). Passing a
/// FloodExec whose mode is kDefault resets to the environment-derived
/// default.
void set_default_flood_exec(FloodExec exec);
[[nodiscard]] FloodExec default_flood_exec();

/// Resolves kDefault against the process default; the result's mode is
/// always kSerial or kParallel.
[[nodiscard]] FloodExec resolve_flood_exec(FloodExec exec);

/// One Byzantine token emission: node `from` sends `value` to its
/// H-neighbors at subphase step `step` (1-based). Acceptance is decided by
/// the Verifier at each honest receiver.
struct Injection {
  graph::NodeId from;
  std::uint32_t step;
  Color value;
};

/// Reusable per-subphase state (avoids reallocation across the hundreds of
/// subphases of a run).
class FloodWorkspace {
 public:
  void ensure(graph::NodeId n);

  std::vector<Color> known;          ///< running max (own color at start)
  std::vector<std::uint32_t> fresh;  ///< step at which known last improved
  std::vector<Color> best_before;    ///< max over k_t, t < current
  std::vector<Color> last_step;      ///< k_i of the final step
  std::vector<Color> recv;           ///< per-step accepted receive max
  std::vector<graph::NodeId> frontier;
  std::vector<graph::NodeId> next_frontier;
  std::vector<graph::NodeId> touched;
  /// Canonical (sorted) wavefront handed to MidRunHooks::begin_round; only
  /// populated when live hooks are attached.
  std::vector<graph::NodeId> live_frontier;
  /// Word-packed set representation used by the parallel kernel (the serial
  /// oracle keeps the vectors above). Membership is identical to the vector
  /// form; iteration is ascending node id by construction.
  util::Bitset frontier_bits;
  util::Bitset next_frontier_bits;
  util::Bitset touched_bits;
};

struct FloodParams {
  std::uint32_t steps = 1;      ///< = phase index i
  bool byz_forward = true;      ///< Byzantine nodes relay the flood
  /// Focused mode (the warm tier's straggler re-evaluation): when
  /// non-empty, only marked nodes generate, forward, and receive — the
  /// flood runs on the induced subgraph. A node's step-t value depends
  /// only on B_H(node, t), so outputs are EXACT at every node whose
  /// radius-`steps` ball the region covers; the caller must only read
  /// those. Empty = the ordinary whole-network flood.
  std::span<const std::uint8_t> region;
  /// Mid-protocol churn hooks (see file comment). Null = static path.
  /// Incompatible with `region` (the lazy tier is a static-topology
  /// optimization); run_flood_subphase throws if both are set.
  MidRunHooks* live = nullptr;
  /// Clock of this subphase's FIRST step; the kernel advances step/round
  /// per flood step and hands the result to live->begin_round(). Ignored
  /// when live is null.
  RoundClock clock;
  /// Divergence-forensics digester (obs/digest.hpp). When attached the
  /// kernel folds each round's conformant senders and accepted receivers
  /// and closes one round digest per flood step. Null = no digesting
  /// (the default; pure read-side either way).
  obs::RunDigester* digest = nullptr;
  /// Kernel selection (serial reference vs word-packed parallel). The two
  /// kernels produce bitwise-identical outputs, instrumentation, and digest
  /// trails at every thread count.
  FloodExec exec;
};

/// Runs one subphase. `gen_color[v]` is v's generated color (0 = does not
/// generate: decided or crashed honest nodes, and Byzantine nodes whose
/// strategy emits via `injections` instead). `crashed[v]` nodes neither
/// send nor receive. Outputs land in the workspace (`best_before`,
/// `last_step` drive the caller's termination predicate).
void run_flood_subphase(const graph::Overlay& overlay,
                        const std::vector<bool>& byz_mask,
                        const std::vector<bool>& crashed,
                        const Verifier& verifier, const FloodParams& params,
                        std::span<const Color> gen_color,
                        std::span<const Injection> injections,
                        FloodWorkspace& ws, sim::Instrumentation& instr);

}  // namespace byz::proto
