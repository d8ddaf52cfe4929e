#!/usr/bin/env python3
"""Builds and runs the lwsnap benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from anywhere inside an lwsnap checkout. The program is built from source
into .bench_build/ (RelWithDebInfo) on first use. Each run gets a fresh
directory under .bench_tmp/ for its Unix socket and spill segments, removed
when the run ends, also when it fails; a traced run writes its spans to
.bench_out/. The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
BENCHMARK.json is the one list of metric names and units: the program prints
the metrics a workload reaches, and this script orders them as declared,
reports a per-layer metric the workload bypasses as 0, and fails the run on a
missing end-to-end metric or an undeclared name or unit. The exit code is 0
only when every output check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("solver_fleet", "solver_budget", "queens_search")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target`; build output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return None
    return os.path.join(BUILD, target)


def declared_metrics(trace):
    """[(name, unit)] that BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def declared_order(got, declared, trace):
    """`got` metrics in declared order, and what does not fit the declaration."""
    units = dict(declared)
    problems = [f"metric {name} [{m['unit']}] is not declared in BENCHMARK.json"
                for name, m in got.items() if units.get(name) != m["unit"]]
    metrics = {}
    for name, unit in declared:
        if name not in got and not trace:
            problems.append(f"end-to-end metric {name} was not reported")
        # A per-layer metric the workload does not report is a layer it bypasses.
        metrics[name] = got.get(name, {"value": 0, "unit": unit})
    return metrics, problems


def timeout_s(args):
    # A traced run repeats the measured phase (and the fleet replays it once
    # more in-process); set-up and teardown fit in the margin.
    return 60 + (3 if args.trace else 1) * args.seconds * 1.5


def run(args, binary):
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    span_dir = os.path.join(ROOT, ".bench_out")
    if args.trace:
        os.makedirs(span_dir, exist_ok=True)
    span_file = os.path.join(span_dir, f"spans-{args.workload}-seed{args.seed}.json")
    # Paths relative to ROOT keep the Unix socket path short in deep checkouts.
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", os.path.relpath(tmp, ROOT),
           "--span-file", os.path.relpath(span_file, ROOT)]
    child = None
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=timeout_s(args))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            log(f"run exceeded {timeout_s(args):.0f} s")
            return 1
        lines = out.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if not lines or not lines[-1].startswith("{"):
            log("the program printed no result")
            return 1
        result = json.loads(lines[-1])
        metrics, problems = declared_order(result["metrics"], declared_metrics(args.trace == 1),
                                           args.trace == 1)
        for problem in problems:
            log(problem)
        ok = child.returncode == 0 and not problems
        print(json.dumps(dict(result, correct=result["correct"] and ok, metrics=metrics)),
              flush=True)
        if ok:
            return 0
        return child.returncode if child.returncode > 0 else 1
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)  # only when no other run is using it
        except OSError:
            pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None or args.seconds <= 0):
        parser.error("--workload, --seed and a positive --seconds are required")

    # The benchmark builds the repository it sits in; without it there is
    # nothing to measure.
    if not (os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.exists(os.path.join(ROOT, "src", "core", "session.h")) and
            os.path.exists(os.path.join(ROOT, "BENCHMARK.json"))):
        log(f"lwsnap sources or BENCHMARK.json missing next to {HERE}; nothing to run")
        return 2

    # SIGTERM unwinds like Ctrl-C, so the child is stopped and the run's
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.selftest:
        binary = build("perfbench_test")
        return 1 if binary is None else subprocess.run([binary]).returncode
    binary = build("perfbench")
    if binary is None:
        log("build failed")
        return 1
    return run(args, binary)


if __name__ == "__main__":
    sys.exit(main())
