#!/usr/bin/env python3
"""Build atmbench from source and run one workload.

Run from the repository root:

    python3 atmbench/run.py --workload fault_sweep --seed 1 --seconds 20 --trace 0
    python3 atmbench/run.py --self-test

The first run configures and builds the atmsim libraries and the
benchmark into .bench_build/atmbench (about a minute on 4 cores);
later runs only check the build is current. Build output goes to
stderr, so the last line of stdout is the run's JSON result. Spans of
traced runs are written to .bench_build/spans/.

--self-test builds and runs the checks' own tests, then checks that
BENCHMARK.json names exactly the metrics and workloads the binary
reports.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "atmbench")
JOBS = "4"


def build(target):
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS, "--target", target])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("atmbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def self_test():
    tests = build("atmbench_selftest")
    if subprocess.run([tests]).returncode != 0:
        return 1
    binary = build("atmbench")
    listed = subprocess.run([binary, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout
    have = {"end_to_end": [], "per_layer": [], "workload": []}
    for line in listed.splitlines():
        kind, *rest = line.split()
        have[kind].append(tuple(rest))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
        "workload": [(w["name"],) for w in spec["workloads"]],
    }
    bad = [k for k in want if want[k] != have[k]]
    for k in bad:
        print(f"BENCHMARK.json {k} {want[k]} != binary {have[k]}")
    if not bad:
        print("BENCHMARK.json matches the binary's metrics and workloads")
    return 1 if bad else 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    binary = build("atmbench")
    args = list(argv)
    if "--workload" in args and "--seed" in args and "--spans-out" not in args:
        name = args[args.index("--workload") + 1]
        seed = args[args.index("--seed") + 1]
        args += ["--spans-out", os.path.join(ROOT, ".bench_build", "spans",
                                             f"{name}-seed{seed}.jsonl")]
    # A child process, not exec: the run's peak_rss_mb must not
    # inherit the launcher's or the build's memory high-water marks.
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + args)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        print("atmbench: run exceeded 175 s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
