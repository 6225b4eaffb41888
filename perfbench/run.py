#!/usr/bin/env python3
"""The repo benchmark: builds the perfbench binary from source, runs one workload
in its own process, and prints the workload's metrics as a JSON line.

    python3 perfbench/run.py --workload oneshot-algo2 --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first call configures and builds into
.bench_build/ (the byzcount library plus the binary, Release). With
--trace 0 the last line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run. The line before it is the
run's metadata: thread budget, per-operation times, outcome digest.

Set-up time is the median of three processes' set-up: the measuring one
and two that only set up and exit (each runs the same warm-up operation,
whose digests must agree). See perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SETUP_PROCESSES = 3
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # every binary process of one run, build excluded


class BenchError(Exception):
    pass


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "byzcount.hpp"))):
        raise BenchError("no byzcount source tree next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(nproc())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_binary(args, extra, deadline):
    """Runs the binary once and returns its JSON line as a dict."""
    env = dict(os.environ)
    # OpenMP sizes its team once, at load time: cap it at the thread budget
    # here (the binary refuses a team larger than nproc).
    env.setdefault("OMP_NUM_THREADS", str(nproc()))
    # Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, glibc
    # raises it after large frees, so how much freed memory stays resident
    # depends on the order OpenMP threads free in, and peak RSS at one seed
    # varies by a fifth from run to run.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for flag in ("n", "epochs", "band"):
        value = getattr(args, flag)
        if value is not None:
            cmd += ["--" + flag, str(value)]
    proc = subprocess.run(cmd + extra, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, check=False, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller instances and injected failures, for perfbench/tests.
    parser.add_argument("--n", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--band", help="LO,HI replacing the declared band")
    args = parser.parse_args()

    try:
        build()
        deadline = time.monotonic() + RUN_TIMEOUT_S
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_PROCESSES - 1):
                setups.append(run_binary(args, ["--setup-only"], deadline))
        run = run_binary(args, [], deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    metrics = run.pop("metrics")
    correct = run["correct"]
    if args.trace == 0:
        samples = [metrics["setup_s"]["value"]]
        samples += [s["setup_s"] for s in setups]
        metrics["setup_s"]["value"] = statistics.median(samples)
        run["setup_s_samples"] = samples
        # Every set-up process ran the same warm-up operation.
        agree = all(s["warmup_digest"] == run["warmup_digest"]
                    and s["warmup_ok"] for s in setups)
        run["setup_digests_agree"] = agree
        correct = correct and agree
    print(json.dumps({"perfbench": run}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
