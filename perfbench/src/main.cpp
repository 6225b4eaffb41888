// perfbench: runs one benchmark workload in this process and prints
// one JSON line with its metrics. perfbench/run.py builds and invokes it;
// see perfbench/README.md for the metrics and how to run it.
//
//   perfbench --workload NAME --seed S --seconds T --trace 0|1
//                    [--setup-only] [--n N] [--epochs E] [--band LO,HI]
//   perfbench --self-test
//
// --trace 0 times the one-call path of each operation with tracing off and
// reports the end-to-end metrics; --trace 1 runs each operation once
// untraced and once traced layer by layer, checks the two agree bitwise,
// and reports the per-layer metrics. Operations run back to back until
// --seconds have passed and at least kMinOps have run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "protocols/flooding.hpp"
#include "rollup.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Timed operations every run makes whatever its speed; the outcome digest
/// covers exactly these and the warm-up.
constexpr std::uint64_t kMinOps = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool self_test = false;
  std::optional<std::uint32_t> n;
  std::optional<std::uint32_t> epochs;
  std::optional<std::pair<double, double>> band;
};

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t pos = 0;
  const auto x = std::stoull(v, &pos);
  if (pos != v.size() || v.empty() || v[0] == '-') {
    throw std::invalid_argument(flag + ": not a non-negative integer: " + v);
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--n") {
      a.n = static_cast<std::uint32_t>(parse_uint(flag, v));
    } else if (flag == "--epochs") {
      a.epochs = static_cast<std::uint32_t>(parse_uint(flag, v));
    } else if (flag == "--band") {
      const auto comma = v.find(',');
      if (comma == std::string::npos) {
        throw std::invalid_argument("--band takes LO,HI");
      }
      a.band = {std::stod(v.substr(0, comma)), std::stod(v.substr(comma + 1))};
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload && !a.self_test) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

/// Accumulates operation outcomes into the run's counts and digest. The
/// digest XORs the warm-up operation and the first kMinOps timed ones, so
/// two runs at one seed print the same digest.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::uint32_t digest_ops = 0;
  double in_band_sum = 0.0;
  std::vector<std::string> errors;

  void add(const perfbench::OpOutcome& o, std::uint64_t index) {
    ++attempted;
    in_band_sum += o.in_band;
    if (!o.ok) {
      ++failed;
      if (errors.size() < 4) {
        errors.push_back("op " + std::to_string(index) + ": " +
                         (o.error.empty() ? "in-band share " + num(o.in_band) +
                                                " below 1 - eps"
                                          : o.error));
      }
    }
    if (index <= kMinOps) {
      digest ^= o.digest;
      ++digest_ops;
    }
  }
};

std::string metric(const std::string& name, double value,
                   const std::string& unit) {
  return quote(name) + ": {\"value\": " + num(value) +
         ", \"unit\": " + quote(unit) + "}";
}

int run(const Args& args, Clock::time_point start) {
  auto cfg = perfbench::make_config(args.workload);
  if (args.n) cfg.n = *args.n;
  if (args.epochs) cfg.epochs = *args.epochs;
  cfg.band = args.band;
  // run_counting's default controls use the process-wide kernel; pin it to
  // the serial reference (the BRC workload passes its kernel explicitly).
  byz::proto::set_default_flood_exec({byz::proto::FloodMode::kSerial, 0});

  // Set-up: everything before the first timed operation, including one
  // untimed warm-up operation (operation 0).
  Tally tally;
  const auto warmup = perfbench::run_op(cfg, args.seed, 0);
  tally.add(warmup, 0);
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (args.setup_only) {
    std::cout << "{\"setup_s\": " << num(setup_s) << ", \"warmup_digest\": \""
              << hex(warmup.digest) << "\", \"warmup_ok\": "
              << (warmup.ok ? "true" : "false") << "}\n";
    return 0;
  }

  bool correct = true;
  std::vector<double> op_ms;
  std::vector<double> per_estimate_ms;
  std::map<std::string, std::vector<double>> layers;
  std::vector<std::string> oracle_failures;
  const auto measure_start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - measure_start).count();
  };
  for (std::uint64_t i = 1; elapsed() < args.seconds || i <= kMinOps; ++i) {
    if (args.trace) {
      const auto t = perfbench::run_traced_op(cfg, args.seed, i);
      tally.add(t.outcome, i);
      if (!t.oracle_ok || !t.rollup_ok) {
        correct = false;
        if (oracle_failures.size() < 4) {
          oracle_failures.push_back("op " + std::to_string(i) + ": " +
                                    t.failure);
        }
      }
      for (const auto& [name, value] : t.metrics) layers[name].push_back(value);
    } else {
      const auto t0 = Clock::now();
      const auto o = perfbench::run_op(cfg, args.seed, i);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      tally.add(o, i);
      op_ms.push_back(ms);
      per_estimate_ms.push_back(o.estimates > 0 ? ms / o.estimates : ms);
    }
  }
  correct = correct && tally.failed == 0;

  std::vector<std::string> metrics;
  if (args.trace) {
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      const auto it = layers.find(name);
      metrics.push_back(
          metric(name, it == layers.end() ? 0.0 : median(it->second), unit));
    }
  } else {
    // A one-shot deployment is one epoch that estimates once; a churn
    // operation is cfg.epochs epochs.
    const double epochs = cfg.kind == perfbench::Kind::kChurn ? cfg.epochs : 1;
    metrics.push_back(metric("estimate_ms", median(per_estimate_ms), "ms"));
    metrics.push_back(metric("epoch_ms", median(op_ms) / epochs, "ms"));
    metrics.push_back(metric("setup_s", setup_s, "s"));
    metrics.push_back(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    metrics.push_back(metric(
        "in_band_frac",
        tally.in_band_sum / static_cast<double>(tally.attempted), "frac"));
  }

  const auto& t = cfg.threads;
  std::ostringstream out;
  out << "{\"workload\": " << quote(cfg.name) << ", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"n\": " << cfg.n
      << ", \"d\": " << cfg.d << ", \"delta\": " << num(cfg.delta)
      << ", \"threads\": {\"nproc\": " << t.nproc
      << ", \"omp_threads\": " << t.omp_threads
      << ", \"flood_threads\": " << t.flood_threads
      << ", \"workers\": " << t.workers << ", \"peak\": " << t.peak() << "}"
      << ", \"op_ms\": [";
  for (std::size_t i = 0; i < op_ms.size(); ++i) {
    out << (i ? ", " : "") << num(op_ms[i]);
  }
  // Timed (or traced) operations: the sample count behind every median.
  out << "], \"samples\": " << tally.attempted - 1
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"ops_failed_frac\": "
      << num(static_cast<double>(tally.failed) /
             static_cast<double>(tally.attempted))
      << ", \"digest\": \"" << hex(tally.digest)
      << "\", \"digest_ops\": " << tally.digest_ops
      << ", \"warmup_digest\": \"" << hex(warmup.digest) << "\", \"errors\": [";
  auto errors = tally.errors;
  errors.insert(errors.end(), oracle_failures.begin(), oracle_failures.end());
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out << (i ? ", " : "") << quote(errors[i]);
  }
  out << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << metrics[i];
  }
  out << "}}";
  std::cout << out.str() << "\n";
  return 0;
}

/// Checks the self-time rollup on a hand-built trace:
///   root [0,100): A [10,50) holding B [20,30) and C [30,30);
///                 D [50,90) with the same interval as E [50,90).
int self_test() {
  using byz::obs::TraceEvent;
  const std::vector<TraceEvent> events = {
      {"E", 50, 40, 1, ""}, {"root", 0, 100, 1, ""}, {"B", 20, 10, 1, ""},
      {"A", 10, 40, 1, ""}, {"C", 30, 0, 1, ""},     {"D", 50, 40, 1, ""},
      {"X", 15, 5, 2, ""}};  // another thread: ignored
  const auto r = perfbench::rollup(events, "root", {"root", "D", "E"});
  const auto self = [&](const char* name) {
    return r.by_name.at(name).self_us;
  };
  const bool ok = r.wall_us == 100 && r.unattributed_us == 20 &&
                  self("A") == 30 && self("B") == 10 && self("C") == 0 &&
                  self("D") == 0 && self("E") == 40 &&
                  r.by_name.count("X") == 0 && r.check();
  std::cout << (ok ? "rollup self-test ok\n" : "rollup self-test FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (args.self_test) return self_test();
  try {
    return run(args, start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
