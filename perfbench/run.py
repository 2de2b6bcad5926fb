#!/usr/bin/env python3
"""Repository benchmark: builds perfbench against ../src and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The binary is built (on the checkout's first
run) under .bench_build/, twice: a Release build for every timing, and a
second build with PLS_COUNT_ALLOCS=ON whose allocation counts the traced run
adds.
With --trace 0 the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics. A failed
output check exits non-zero and prints no result line. See README.md.
"""
import argparse
import datetime
import fcntl
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The measuring binaries of one run (two when traced) must end within this.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(variant):
    """Configures and builds one variant; returns the binary's path."""
    bdir = os.path.join(BUILD, "perfbench-" + variant)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build-%s.log" % variant)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DPLS_COUNT_ALLOCS=" +
                          ("ON" if variant == "counting" else "OFF")])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                raise BenchError("build step failed: %s (log: %s)"
                                 % (" ".join(cmd), log_path))
    return os.path.join(bdir, "perfbench")


def run_binary(exe, args, deadline):
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (os.path.basename(exe),
                                                proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("no result line")
    return [l for l in lines[:-1]], json.loads(lines[-1])


def meta(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = ""
    try:
        compiler = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": "Release",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": " ".join(["python3", "perfbench/run.py"] + sys.argv[1:]),
    }


def expect(metrics, wanted):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    names = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise BenchError("metric set mismatch: missing %s, extra %s"
                         % (missing, extra))
    for name, unit in names.items():
        if metrics[name]["unit"] != unit:
            raise BenchError("metric %s has unit %s, expected %s"
                             % (name, metrics[name]["unit"], unit))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--break-check", default="",
                        help="fail the named output check (self-tests)")
    args = parser.parse_args()

    try:
        bench = spec()
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            raise BenchError("unknown workload %s" % args.workload)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds)]
        if args.break_check:
            common += ["--break-check", args.break_check]
        # Both builds happen on a checkout's first run, so that no later run
        # (traced or not) pays for a build inside its time limit.
        release = build("release")
        counting = build("counting")
        deadline = time.monotonic() + RUN_TIMEOUT_S
        if args.trace == 0:
            notes, result = run_binary(release, common + ["--trace", "0"],
                                       deadline)
            expect(result["metrics"], bench["end_to_end"])
        else:
            spans = os.path.join(BUILD, "spans-%s-%d.jsonl"
                                 % (args.workload, args.seed))
            notes, result = run_binary(
                release, common + ["--trace", "1", "--spans-out", spans],
                deadline)
            alloc_notes, allocs = run_binary(
                counting, common + ["--trace", "1", "--mode", "allocs"],
                deadline)
            notes += alloc_notes + ["# spans written to " + spans]
            result["metrics"].update(allocs["metrics"])
            expect(result["metrics"], bench["per_layer"])
        if not result.get("correct"):
            raise BenchError("output checks did not pass")
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    for line in notes:
        print(line)
    print("# _meta " + json.dumps(meta(args), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
