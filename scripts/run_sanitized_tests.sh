#!/usr/bin/env bash
# Builds and runs the test suite under ASan, UBSan and TSan (separate
# build trees, so a plain `build/` stays usable). Any sanitizer report
# fails the corresponding ctest run. TSan matters since the TrialRunner
# fan-out: test_trial_runner's stress cases race real experiment code
# across worker threads. The scheduler's lifetime-heavy machinery
# (InlineEvent placement/relocation, the timer wheel's recycled node pool
# and capture slab) is exercised in every tree by test_inline_event,
# test_event_queue and the tier-2 differential fuzz
# (test_event_queue_fuzz), which drives the wheel and the reference heap
# queue in lockstep. The multi-tenant shared-cluster machinery (KeyId
# routing, per-key channels, tenant lifetimes on the FlatMap-backed
# hosts) runs under all three sanitizers via the tier-1
# test_shared_cluster invariants and the tier-2 test_shared_cluster_grid
# randomized differential grid. The workload
# engine (Zipfian/flash-crowd generators, partition-aware transport,
# SaturationEngine coalescing + admission control) is covered in every
# tree by test_workload_gen, test_partition, test_saturation and the
# tier-2 saturation differential grid, plus an end-to-end plsim
# saturation-mode scenario below. The sharded thread-per-core runtime
# (sim::ShardedRuntime worker threads, the lock-free SpscQueue rings, the
# acquire/release drain barrier) is where TSan earns its keep: the tier-1
# test_sharded_runtime and tier-2 test_sharded_grid differentials plus the
# two-thread test_spsc_fuzz race real producer/consumer pairs in every
# tree, and an end-to-end plsim --shards scenario below drives both the
# sharded service and sharded saturation paths under the sanitizers. The
# binary wire codec and the snapshot layer built on it run in every tree
# too: tier-1 test_wire/test_snapshot plus the tier-2 test_wire_fuzz
# corpus (random frames, exhaustive truncations, byte flips, splices,
# pure garbage) make ASan/UBSan prove the decoder touches no byte outside
# a corrupt frame, the tier-2 test_snapshot_fuzz loads every single-byte
# flip of the golden snapshot and of a Hash-y/MultiProbe snapshot under a
# per-load time limit, and an
# end-to-end plsim snapshot/restore scenario below exercises save/load
# under the sanitizers.
#
#   scripts/run_sanitized_tests.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_one() {
  local name="$1" sanitize="$2"
  shift 2
  local build_dir="${repo_root}/build-${name}"
  echo "=== ${name}: configuring (${sanitize}) ==="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DPLS_SANITIZE="${sanitize}" \
    -DPLS_BUILD_BENCH=OFF -DPLS_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "=== ${name}: building ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== ${name}: testing ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}" "$@")
  echo "=== ${name}: repair-under-churn scenario ==="
  # Permanent-loss churn with background repair across all five
  # strategies: the elastic-membership + repair machinery (wipes, repair
  # ledger, membership arithmetic) under the sanitizer's eye, end to end.
  for strategy in full fixed randomserver round hash multiprobe; do
    "${build_dir}/tools/plsim" --strategy "${strategy}" --param 2 \
      --servers 6 --entries 48 --updates 200 --lookups 200 \
      --mttf 60 --mttr 15 --loss-prob 0.5 --repair-interval 0.5 \
      --join-at 5 --leave-at 50 --seed 11 > /dev/null
  done
  echo "=== ${name}: saturation-mode scenario ==="
  # Open-loop overload replay with everything switched on (Zipfian flash
  # crowds, coalescing, admission control, deadlines): the workload
  # engine's queueing arithmetic and in-flight bookkeeping, end to end.
  for strategy in full fixed randomserver round hash multiprobe; do
    "${build_dir}/tools/plsim" --strategy "${strategy}" --param 2 \
      --keys 8 --servers 6 --entries 24 --target 3 --lookups 1500 \
      --offered-load 8 --theta 1.1 --flash-crowd --read-fraction 0.9 \
      --coalesce --admit 20 --deadline 25 --seed 11 > /dev/null
  done
  echo "=== ${name}: sharded-runtime scenario ==="
  # Thread-per-core execution across shard counts: worker threads, SPSC
  # op rings, broadcast control ops and the drain barrier — the service
  # path and the sharded saturation path, end to end. More shards than
  # cores is intentional: oversubscription shakes out ordering bugs.
  for shards in 1 2 8; do
    "${build_dir}/tools/plsim" --strategy round --param 2 \
      --keys 12 --servers 8 --entries 20 --target 4 \
      --updates 60 --lookups 300 --shards "${shards}" --seed 7 > /dev/null
    "${build_dir}/tools/plsim" --strategy round --param 2 \
      --keys 8 --servers 6 --entries 24 --target 3 --lookups 1000 \
      --offered-load 8 --theta 1.1 --read-fraction 0.9 \
      --coalesce --admit 20 --deadline 25 --shards "${shards}" \
      --seed 11 > /dev/null
  done
  echo "=== ${name}: snapshot/restore scenario ==="
  # Wire-format save, reload, and resumed execution — sequential and
  # sharded — so the codec and the snapshot layer run end to end under
  # the sanitizer, not just in the unit/fuzz tests.
  for shard_flags in "" "--shards 8"; do
    # shellcheck disable=SC2086  # intentional word-split of "--shards 8"
    "${build_dir}/tools/plsim" --strategy multiprobe --param 2 \
      --keys 12 --servers 8 --entries 20 --target 4 \
      --updates 60 --lookups 100 --seed 7 ${shard_flags} \
      --snapshot-at 30 --snapshot-out "${build_dir}/sanitize.snap" \
      > /dev/null
    # shellcheck disable=SC2086
    "${build_dir}/tools/plsim" --strategy multiprobe --param 2 \
      --keys 12 --servers 8 --entries 20 --target 4 \
      --updates 60 --lookups 100 --seed 7 ${shard_flags} \
      --restore "${build_dir}/sanitize.snap" > /dev/null
  done
}

# halt_on_error makes ASan reports fail the test process; UBSan aborts via
# -fno-sanitize-recover (set by the CMake option); TSan exits non-zero on
# any report via exitcode.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" run_one asan address "$@"
run_one ubsan undefined "$@"
TSAN_OPTIONS="halt_on_error=1:exitcode=66" run_one tsan thread "$@"

echo "=== sanitized test runs passed ==="
