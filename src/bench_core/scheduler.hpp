// Shared trial scheduler for the byzbench orchestrator: trials fan out on
// the process-wide worker pool (util/parallel.hpp), claimed one at a time
// from its atomic cursor, so load-balancing is dynamic, but every item
// derives its own seed from (base_seed, index) with SplitMix64 and writes
// to its own slot — results are bitwise identical for any worker count
// (the determinism contract the tests pin down).
//
// Scenarios, Monte-Carlo sweeps, and the examples all share one scheduler
// so a single --jobs flag caps the trials running at once; kernels nested
// inside a trial draw on the same pool, never on threads of their own.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hpp"

namespace byz::bench_core {

class TrialScheduler {
 public:
  /// At most `jobs` trials at once; 0 = util::pool_size().
  explicit TrialScheduler(unsigned jobs = 0);

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// Runs fn(index) for every index in [0, count). Blocks until all items
  /// finish. Items are claimed dynamically from the pool's atomic cursor;
  /// with jobs() == 1 the loop runs inline on the caller. The first
  /// exception thrown by any item is rethrown to the caller after the
  /// items already running finish.
  void for_each(std::uint64_t count,
                const std::function<void(std::uint64_t)>& fn) const;

  /// Deterministic seed of trial `index` in a series rooted at `base`.
  /// Matches the sim::run_trials convention: mix_seed(base, index + 1).
  [[nodiscard]] static std::uint64_t trial_seed(std::uint64_t base,
                                                std::uint64_t index) noexcept {
    return util::mix_seed(base, index + 1);
  }

  /// Maps fn over [0, count), collecting results by index — the canonical
  /// deterministic fan-out. fn must not depend on execution order.
  template <typename Fn>
  [[nodiscard]] auto map(std::uint64_t count, Fn&& fn) const
      -> std::vector<decltype(fn(std::uint64_t{0}))> {
    std::vector<decltype(fn(std::uint64_t{0}))> results(count);
    for_each(count, [&](std::uint64_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  unsigned jobs_;
};

}  // namespace byz::bench_core
