#!/usr/bin/env python3
"""The benchmark's own test: a broken output check must fail the run.

    python3 perfbench/test_checks.py

For each workload it runs one short round with an output check forced to
fail (--break-check) and requires a non-zero exit with no result line, then
one clean run that must pass. Exits non-zero if any expectation fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

CASES = [
    ("lookup_routed", "lookups_match_sequential"),
    ("lookup_routed", "checkpoint_resave_identical"),
    ("lookup_routed", "transport_matches_sequential"),
    ("saturation_lossy", "lookups_decompose"),
    ("saturation_lossy", "transport_conserved"),
    ("saturation_lossy", "repair_transport_conserved"),
    ("paper_dynamic", "jobs_invariant"),
    ("paper_dynamic", "rounds_identical"),
]


def run(workload, broken):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "5", "--seconds", "0.1", "--trace", "0"]
    if broken:
        cmd += ["--break-check", broken]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    failures = 0
    for workload, check in CASES:
        code, result = run(workload, check)
        ok = code != 0 and result is None
        print("%-5s %s with %s broken: exit %d, result line %s" % (
            "ok" if ok else "FAIL", workload, check, code,
            "absent" if result is None else "present"))
        failures += 0 if ok else 1
    for workload in sorted({w for w, _ in CASES}):
        code, result = run(workload, "")
        ok = code == 0 and result is not None and result.get("correct")
        print("%-5s %s clean run: exit %d" % ("ok" if ok else "FAIL",
                                               workload, code))
        failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
