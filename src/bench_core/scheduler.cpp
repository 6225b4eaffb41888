#include "bench_core/scheduler.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace byz::bench_core {

namespace {

// Observability (pure read-side; inert unless obs::set_enabled): one span
// per trial, tagged with the pool worker that claimed it (0 = the calling
// thread) so the schedule is visible in the exported trace.
void run_traced_trial(const std::function<void(std::uint64_t)>& fn,
                      std::uint64_t index) {
  static const obs::Counter obs_trials("scheduler.trials");
  static const obs::Histogram obs_trial_us("scheduler.trial_us");
  const unsigned worker = util::pool_worker_id();
  // Pool threads get a stable trace name; the calling thread keeps its own
  // identity (scenario spans live there).
  if (worker != 0 && obs::enabled()) {
    obs::set_trace_thread_name("worker-" + std::to_string(worker));
  }
  const std::uint64_t start_us = obs::trace_now_us();
  {
    obs::Span span("bench.trial");
    span.arg("trial", index).arg("worker", worker);
    fn(index);
  }
  obs_trials.add(1);
  obs_trial_us.observe(obs::trace_now_us() - start_us);
}

}  // namespace

TrialScheduler::TrialScheduler(unsigned jobs)
    : jobs_(jobs == 0 ? util::pool_size() : jobs) {}

void TrialScheduler::for_each(
    std::uint64_t count, const std::function<void(std::uint64_t)>& fn) const {
  util::parallel_for(count, jobs_, 1,
                     [&](std::uint64_t first, std::uint64_t last) {
                       for (std::uint64_t i = first; i < last; ++i) {
                         run_traced_trial(fn, i);
                       }
                     });
}

}  // namespace byz::bench_core
