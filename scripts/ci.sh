#!/usr/bin/env bash
# The full CI gate: configure + build, the tier1 (seed-protecting) test
# suite, the perf-regression gate (allocation counters + determinism smoke,
# including shard-count invariance of `plsim --shards`; nothing
# wall-clock-sensitive), the repository benchmark's output checks, then the
# sanitizer matrix over everything — which drives the sharded
# thread-per-core runtime end to end under TSan.
#
#   scripts/ci.sh            # tier1 + perf gate + benchmark checks +
#                            # ASan/UBSan/TSan
#   scripts/ci.sh --fast     # tier1 + perf gate (skip the rest)
#
# tier2 (stress/property sweeps) runs inside the sanitizer matrix; run it
# un-instrumented with `ctest -L tier2` when iterating locally.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
fast=0
[[ "${1:-}" == "--fast" ]] && { fast=1; shift; }

echo "=== ci: configure + build ==="
cmake -B "${repo_root}/build" -S "${repo_root}"
cmake --build "${repo_root}/build" -j "${jobs}"

echo "=== ci: tier1 tests ==="
(cd "${repo_root}/build" && ctest -L tier1 --output-on-failure -j "${jobs}")

echo "=== ci: perf-regression gate ==="
"${repo_root}/scripts/perf_check.sh"

if [[ "${fast}" == "1" ]]; then
  echo "=== ci passed (fast mode: benchmark checks and sanitizers skipped) ==="
  exit 0
fi

# Each workload once with one output check forced to fail, then clean. The
# routed workload's checks hold the sharded runtime to the sequential
# service (lookups_match_sequential, transport_matches_sequential) and to
# a byte-identical re-save of its restored snapshot.
echo "=== ci: benchmark output checks ==="
(cd "${repo_root}" && python3 perfbench/test_checks.py)

"${repo_root}/scripts/run_sanitized_tests.sh" "$@"

echo "=== ci passed ==="
