#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each end-to-end metric's
median and quartile spread (IQR / median), the figure BENCHMARK.json's
bounds are judged against.

    python3 perfbench/spread.py --workload W [--seeds 1,2,3,4,5] [--seconds S]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", seed, "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %s: %s" % (seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
            flush=True)
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-20s median %-14.6g spread %.4f  bound %.2f  %s" % (
            metric["name"], med, spread, metric["bound"],
            "ok" if spread < metric["bound"] / 3 else "WIDE"))


if __name__ == "__main__":
    main()
