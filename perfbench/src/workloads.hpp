// The benchmark's workloads. Each one drives the byzcount library from
// outside, through its public functions, one operation at a time:
//
//   oneshot-algo2      Overlay::build -> run_counting -> refine_run ->
//                      smooth_estimates, n=8192, delta=0.5, serial kernel
//   oneshot-brc-large  Overlay::build -> make_estimator("brc")->run,
//                      n=65536, delta=0.5, parallel kernel
//   churn-composed     dynamics::run_churn, n0=8192, delta=0.7, steady
//                      4+4 churn over 8 epochs, incremental snapshots +
//                      warm start + mid-run churn (readmit-next-phase)
//
// All use d=8 and the fake-color attack. Operation i of a run draws its
// inputs from trial_seed(seed, i), so one seed always gives the same inputs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Kind : std::uint8_t { kOneshotAlgo2, kOneshotBrc, kChurn };

/// Threads the process may run at once, and how they are split. At most
/// one operation runs at a time (workers = 1), and the OpenMP regions (G
/// materialization) and the flood kernel never overlap, so the peak is
/// workers * max(omp_threads, flood_threads).
struct ThreadBudget {
  std::uint32_t nproc = 1;          ///< CPUs this process may run on
  std::uint32_t omp_threads = 1;    ///< OMP_NUM_THREADS (default nproc)
  std::uint32_t flood_threads = 0;  ///< 0 = serial flood kernel
  std::uint32_t workers = 1;        ///< concurrent operations

  [[nodiscard]] std::uint32_t peak() const;
};

struct Config {
  std::string name;
  Kind kind = Kind::kOneshotAlgo2;
  std::uint32_t n = 0;  ///< n, or n0 for churn
  std::uint32_t d = 8;
  double delta = 0.5;
  std::uint32_t epochs = 8;     ///< churn only
  double churn_rate = 4.0;      ///< churn only: mean joins = mean leaves
  ThreadBudget threads;
  /// Replaces the backend's declared band (failure injection in tests).
  std::optional<std::pair<double, double>> band;
};

/// The named workload's configuration. Throws std::invalid_argument on an
/// unknown name, and std::runtime_error if its threads exceed the budget.
[[nodiscard]] Config make_config(const std::string& workload);

/// Outcome of one untraced operation.
struct OpOutcome {
  bool ok = false;        ///< did not throw, and in-band share >= 1 - eps
  double in_band = 0.0;   ///< share of honest members inside the band
  std::uint32_t estimates = 0;  ///< fresh size estimates the operation made
  std::uint64_t digest = 0;  ///< (status, estimate) outcome digest
  std::string error;      ///< what() of a thrown exception
};

/// Runs operation `index` of a run at `seed` through the one-call path.
/// Never throws: an exception is reported as a failed outcome.
[[nodiscard]] OpOutcome run_op(const Config& cfg, std::uint64_t seed,
                               std::uint64_t index);

/// One traced operation: the one-call path untraced (timed), then the
/// layer-by-layer path under tracing, the decomposition oracle between the
/// two, and the per-layer metrics of the traced path.
struct TracedOp {
  OpOutcome outcome;          ///< of the untraced one-call path
  bool oracle_ok = false;     ///< layer path == one-call path, bitwise
  bool rollup_ok = false;     ///< self times + unattributed == wall
  std::string failure;        ///< why oracle_ok or rollup_ok is false
  std::map<std::string, double> metrics;  ///< per-layer metric -> value
};

[[nodiscard]] TracedOp run_traced_op(const Config& cfg, std::uint64_t seed,
                                     std::uint64_t index);

/// Every per-layer metric with its unit, in output order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

}  // namespace perfbench
