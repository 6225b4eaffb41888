// The library's one parallel-loop mechanism: a process-wide worker pool of
// pool_size() - 1 threads, started on first use. The thread that calls
// parallel_for always claims chunks too. Idle workers, and a caller whose
// chunks are all claimed, sleep on condition variables; no wait spins.
//
// A loop nested in a body (a flood kernel inside a trial) is helped only by
// idle workers, and its caller can always finish it alone, so nesting can
// neither deadlock nor create threads: whatever the participant caps at
// each level multiply to, at most pool_size() threads run loop bodies.
#pragma once

#include <cstdint>

namespace byz::util {

/// CPUs in this process's affinity mask (sched_getaffinity), at least 1.
[[nodiscard]] unsigned pool_size() noexcept;

/// parallel_for loops enclosing the calling code (0 outside any). A helper
/// reports the level of the loop it runs, so the value does not depend on
/// which thread runs a chunk.
[[nodiscard]] unsigned parallel_depth() noexcept;

/// 1-based index of the calling pool worker; 0 on every other thread.
[[nodiscard]] unsigned pool_worker_id() noexcept;

/// A grain giving about four chunks per participant (0 = pool_size()):
/// enough to rebalance when part of the pool is busy elsewhere, few enough
/// that a body may allocate O(n) scratch per chunk.
[[nodiscard]] std::uint64_t balanced_grain(std::uint64_t count,
                                           unsigned max_participants) noexcept;

/// While alive, caps every parallel_for the calling thread starts at `cap`
/// participants. Tests use it to run a library loop at a fixed count.
class ParticipantCap {
 public:
  explicit ParticipantCap(unsigned cap) noexcept;
  ~ParticipantCap();
  ParticipantCap(const ParticipantCap&) = delete;
  ParticipantCap& operator=(const ParticipantCap&) = delete;

 private:
  unsigned saved_;
};

namespace detail {
using ChunkFn = void (*)(const void* body, std::uint64_t first,
                         std::uint64_t last);
void run_chunks(std::uint64_t count, unsigned max_participants,
                std::uint64_t grain, ChunkFn fn, const void* body);
}  // namespace detail

/// Runs body(first, last) once per chunk [c·grain, min((c+1)·grain, count))
/// of [0, count), claimed from an atomic cursor by at most
/// `max_participants` threads (0 = pool_size()), the caller among them.
/// Chunk boundaries depend only on count and grain, so per-chunk results
/// folded in chunk order are identical at every participant count. The
/// first exception a body throws is rethrown once the running chunks end;
/// chunks not yet started are skipped.
template <typename Body>
void parallel_for(std::uint64_t count, unsigned max_participants,
                  std::uint64_t grain, const Body& body) {
  detail::run_chunks(
      count, max_participants, grain,
      [](const void* b, std::uint64_t first, std::uint64_t last) {
        (*static_cast<const Body*>(b))(first, last);
      },
      &body);
}

}  // namespace byz::util
