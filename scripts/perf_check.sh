#!/usr/bin/env bash
# Perf-regression gate: allocation counters, not wall-clock.
#
#   scripts/perf_check.sh             # build + alloc tests + counter diff
#   scripts/perf_check.sh --update    # refresh the checked-in baseline
#   scripts/perf_check.sh --skip-smoke  # skip the determinism smoke
#
# Builds an instrumented tree (build-perf/, -DPLS_COUNT_ALLOCS=ON), runs the
# allocation-regression tests, then runs bench_micro_ops and
# bench_event_queue and extracts their deterministic counters
# (allocs_per_op / bytes_per_op / payload_copies_per_op) into
# BENCH_micro_ops.json. The result is diffed against the checked-in
# baseline at the repo root; counters are exact steady-state values (fixed
# iterations, warmed up), so the default tolerance only absorbs
# allocator-library noise. Wall-clock numbers are never compared — CI
# machines differ; heap traffic does not.
#
# The timer-wheel scheduler benches (BM_Wheel*) are held to a stricter bar
# than the tolerance diff: their steady-state allocs_per_op and bytes_per_op
# must be EXACTLY 0 — the wheel's whole point is that schedule/pop/cancel
# never touch the heap once warm.
#
# bench_wire is gated the same way: its counters diff against
# BENCH_wire.json, and every BM_WireEncode* bench must report
# payload_copies_per_op EXACTLY 0 — the wire codec aliases SharedEntries
# payloads, so encoding a 4096-entry LookupReply deep-copies nothing.
#
# bench_service_scale guards the shared-cluster tenancy design the same
# way: its per-key allocation counters are diffed against
# BENCH_service_scale.json, and the bench itself hard-gates the two
# scaling claims (flat bytes/key from 1k to 100k keys; >= 5x less retained
# memory than per-key clusters under a lossy-churn deployment). The same
# binary also runs the sharded-runtime lookup series (S in {1,2,4,8}) and
# hard-gates shard-count determinism: folded lookup counters must be
# bit-identical across shard counts and to the sequential oracle. Its
# lookups_per_sec figures are recorded in the JSON for trend-watching but
# never diffed (keys ending _per_sec are skipped — wall clock varies by
# machine). A plsim smoke re-checks the same contract end-to-end:
# --shards S output must carry the sequential run's metrics byte-for-byte
# plus conserved, consistent per-shard panels. A second plsim smoke pins
# snapshot/restore determinism: run-to-T + --snapshot-out, then --restore
# and finish, must reproduce the straight run's JSON byte-for-byte, both
# sequentially and at --shards 8.
#
# Environment:
#   PLS_PERF_TOLERANCE   relative tolerance for counter drift (default 0.10)
#
# Also runs a fast determinism smoke: bench_fig4 at --trials 4 must produce
# byte-identical JSON for different --jobs values, and three seeded benches
# must hash to the sha256 BENCH_trial_runner.json pins: fig4 at --trials 32,
# fig12 (built on metrics::lookup_satisfiable) at --trials 4 and
# bench_service_mix (the service mix stream) at --trials 4.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-perf"
baseline="${repo_root}/BENCH_micro_ops.json"
wire_baseline="${repo_root}/BENCH_wire.json"
scale_baseline="${repo_root}/BENCH_service_scale.json"
churn_baseline="${repo_root}/BENCH_repair_churn.json"
saturation_baseline="${repo_root}/BENCH_saturation.json"
figure_pins="${repo_root}/BENCH_trial_runner.json"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
tolerance="${PLS_PERF_TOLERANCE:-0.10}"

update=0
smoke=1
for arg in "$@"; do
  case "${arg}" in
    --update) update=1 ;;
    --skip-smoke) smoke=0 ;;
    *) echo "unknown flag: ${arg}" >&2; exit 2 ;;
  esac
done

echo "=== perf_check: build (PLS_COUNT_ALLOCS=ON) ==="
cmake -B "${build_dir}" -S "${repo_root}" \
  -DPLS_COUNT_ALLOCS=ON -DPLS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${build_dir}" -j "${jobs}" >/dev/null

echo "=== perf_check: allocation-regression tests ==="
(cd "${build_dir}" && ctest -R AllocRegression --output-on-failure)

# extract_counters OUT PREFIX FIELDS RAW...: folds the deterministic
# counters (allocs_per_op / bytes_per_op / payload_copies_per_op) of every
# counter-reporting bench in the google-benchmark RAW files into OUT, then
# applies a hard gate independent of the baseline diff: every bench whose
# name starts with PREFIX must report exactly 0 for each of the
# space-separated FIELDS.
extract_counters() {
  local out="$1" prefix="$2" fields="$3"
  shift 3
  python3 - "${out}" "${prefix}" "${fields}" "$@" <<'EOF'
import json, re, sys
out_path, prefix, fields = sys.argv[1], sys.argv[2], sys.argv[3].split()
counters = {}
for raw_path in sys.argv[4:]:
    with open(raw_path) as f:
        raw = json.load(f)
    for bench in raw["benchmarks"]:
        if "allocs_per_op" not in bench:
            continue  # wall-clock-only benches are not gated
        name = re.sub(r"/iterations:\d+", "", bench["name"])
        counters[name] = {
            "allocs_per_op": round(bench["allocs_per_op"], 3),
            "bytes_per_op": round(bench["bytes_per_op"], 3),
            "payload_copies_per_op": round(bench["payload_copies_per_op"], 3),
        }
with open(out_path, "w") as f:
    json.dump(counters, f, indent=2, sort_keys=True)
    f.write("\n")

violations = [
    f"  {name}: " + ", ".join(f"{k}={vals[k]}" for k in fields)
    for name, vals in sorted(counters.items())
    if name.startswith(prefix) and any(vals[k] != 0.0 for k in fields)
]
if violations:
    print(f"perf_check: {prefix}* benches must report exactly 0 "
          f"{', '.join(fields)}:")
    print("\n".join(violations))
    sys.exit(1)
gated = sum(1 for name in counters if name.startswith(prefix))
print(f"perf_check: {gated} {prefix}* benches at exactly 0 "
      f"{', '.join(fields)}")
EOF
}

echo "=== perf_check: micro-op counters ==="
raw_micro="${build_dir}/bench_micro_ops_raw.json"
raw_queue="${build_dir}/bench_event_queue_raw.json"
"${build_dir}/bench/bench_micro_ops" --benchmark_format=json > "${raw_micro}"
"${build_dir}/bench/bench_event_queue" --benchmark_format=json > "${raw_queue}"
# The timer wheel's steady state is allocation-free by contract.
candidate="${build_dir}/BENCH_micro_ops.json"
extract_counters "${candidate}" BM_Wheel "allocs_per_op bytes_per_op" \
  "${raw_micro}" "${raw_queue}"

echo "=== perf_check: wire codec counters ==="
raw_wire="${build_dir}/bench_wire_raw.json"
"${build_dir}/bench/bench_wire" --benchmark_format=json > "${raw_wire}"
# Encode aliases the message's SharedEntries payload: zero deep copies per
# encoded frame, whatever the entry count.
wire_candidate="${build_dir}/BENCH_wire.json"
extract_counters "${wire_candidate}" BM_WireEncode payload_copies_per_op \
  "${raw_wire}"

echo "=== perf_check: service key-count scaling ==="
# The bench enforces its own hard gates (bytes/key at 100k keys within 2x
# of 1k; shared cluster >= 5x smaller than per-key clusters under the
# lossy-churn deployment) and exits non-zero on violation; the counter
# JSON is additionally diffed against the checked-in baseline below.
scale_candidate="${build_dir}/BENCH_service_scale.json"
"${build_dir}/bench/bench_service_scale" --json-out "${scale_candidate}"

# Absolute data-plane memory budget, independent of the baseline diff:
# the compact index keeps every scale point at or below 4.8 KB/key, and
# MultiProbe's membership migration must stay cheaper than Round-Robin's.
python3 - "${scale_candidate}" <<'EOF_GATE'
import json, sys
with open(sys.argv[1]) as f:
    scale = json.load(f)
failures = []
for keys in (1000, 10000, 100000):
    point = scale.get(f"service_scale/K{keys}", {})
    bytes_per_key = point.get("bytes_per_key")
    if bytes_per_key is None:
        failures.append(f"K{keys}: bytes_per_key missing from the bench JSON")
    elif bytes_per_key > 4800.0:
        failures.append(
            f"K{keys}: bytes_per_key {bytes_per_key} above the 4.8 KB budget")
mig = scale.get("service_scale/migration_n8_h256", {})
for phase in ("join", "leave"):
    mp = mig.get(f"mp_{phase}_processed")
    rr = mig.get(f"rr_{phase}_processed")
    if mp is None or rr is None:
        failures.append(f"migration series missing {phase} counters")
    elif not mp < rr:
        failures.append(
            f"{phase}: MultiProbe processed {mp} messages, not below "
            f"Round-Robin's {rr}")
if failures:
    print("perf_check: service-scale hard gates failed:")
    for line in failures:
        print(f"  {line}")
    sys.exit(1)
print("perf_check: bytes/key <= 4.8 KB at K in {1k, 10k, 100k}; "
      "MultiProbe migration cheaper than Round-Robin")
EOF_GATE

echo "=== perf_check: durability under permanent-loss churn ==="
# bench_repair_churn hard-gates the headline claim (at the largest MTTF,
# repair holds mean losses near zero while no-repair bleeds >= half the
# reference set) and exits non-zero on violation; the durability series is
# additionally diffed against the checked-in baseline below.
churn_candidate="${build_dir}/BENCH_repair_churn.json"
"${build_dir}/bench/bench_repair_churn" --json-out "${churn_candidate}" \
  > /dev/null

echo "=== perf_check: overload saturation study ==="
# bench_saturation hard-gates the overload claims in-binary (open-loop
# goodput collapses past the knee while p99 diverges; admission control
# holds >= 0.9x peak goodput at 2x overload; coalescing cuts wire traffic)
# and exits non-zero on violation; the goodput/latency series is
# additionally diffed against the checked-in baseline below.
saturation_candidate="${build_dir}/BENCH_saturation.json"
"${build_dir}/bench/bench_saturation" --json-out "${saturation_candidate}" \
  > /dev/null

diff_counters() {
  python3 - "$1" "$2" "${tolerance}" <<'EOF'
import json, sys
baseline_path, candidate_path, rtol = sys.argv[1], sys.argv[2], float(sys.argv[3])
ATOL = 2.0  # absolute slack: tiny counters may wobble by a malloc or two
with open(baseline_path) as f:
    baseline = json.load(f)
with open(candidate_path) as f:
    candidate = json.load(f)
failures = []
for name in sorted(set(baseline) | set(candidate)):
    if name not in candidate:
        failures.append(f"{name}: benchmark disappeared")
        continue
    if name not in baseline:
        failures.append(f"{name}: new benchmark not in baseline "
                        "(run scripts/perf_check.sh --update)")
        continue
    for key, old in baseline[name].items():
        if key.endswith("_per_sec"):
            continue  # wall-clock throughput: machine-dependent, never gated
        new = candidate[name].get(key)
        if new is None:
            failures.append(f"{name}.{key}: counter disappeared")
            continue
        if abs(new - old) > max(ATOL, rtol * abs(old)):
            failures.append(f"{name}.{key}: {old} -> {new} "
                            f"(tolerance {rtol:.0%} + {ATOL:g})")
if failures:
    print(f"perf_check: counter regressions against {baseline_path}:")
    for line in failures:
        print(f"  {line}")
    print("If intentional, refresh with: scripts/perf_check.sh --update")
    sys.exit(1)
print(f"perf_check: {len(baseline)} benchmark counter sets within tolerance")
EOF
}

if [[ "${update}" == "1" ]]; then
  cp "${candidate}" "${baseline}"
  cp "${wire_candidate}" "${wire_baseline}"
  cp "${scale_candidate}" "${scale_baseline}"
  cp "${churn_candidate}" "${churn_baseline}"
  cp "${saturation_candidate}" "${saturation_baseline}"
  echo "baselines refreshed: ${baseline}, ${wire_baseline}," \
       "${scale_baseline}, ${churn_baseline}, ${saturation_baseline}"
else
  diff_counters "${baseline}" "${candidate}"
  diff_counters "${wire_baseline}" "${wire_candidate}"
  diff_counters "${scale_baseline}" "${scale_candidate}"
  diff_counters "${churn_baseline}" "${churn_candidate}"
  diff_counters "${saturation_baseline}" "${saturation_candidate}"
fi

if [[ "${smoke}" == "1" ]]; then
  echo "=== perf_check: determinism smoke (fig4, --trials 4) ==="
  a="${build_dir}/fig4_jobs1.json"
  b="${build_dir}/fig4_jobsN.json"
  "${build_dir}/bench/bench_fig4_lookup_cost" --trials 4 --jobs 1 \
    --json-out "${a}" >/dev/null
  smoke_jobs=$(( jobs > 1 ? jobs : 2 ))  # >1 even on single-core boxes
  "${build_dir}/bench/bench_fig4_lookup_cost" --trials 4 \
    --jobs "${smoke_jobs}" --json-out "${b}" >/dev/null
  if ! cmp -s "${a}" "${b}"; then
    echo "perf_check: fig4 aggregates depend on --jobs (determinism broken)"
    diff "${a}" "${b}" | head -20 || true
    exit 1
  fi
  echo "fig4 aggregates bit-identical across --jobs 1 and --jobs ${smoke_jobs}"

  echo "=== perf_check: figure pins (fig4 --trials 32, fig12 and" \
       "service_mix --trials 4) ==="
  # check_pin NAME KEY BENCH ARGS...: BENCH's --json-out must hash to the
  # sha256 at KEY (a dotted path) in BENCH_trial_runner.json.
  check_pin() {
    local name="$1" key="$2"
    shift 2
    local out="${build_dir}/${name}_pin.json"
    "$@" --json-out "${out}" >/dev/null
    python3 - "${figure_pins}" "${key}" "${out}" "${name}" <<'EOF'
import hashlib, json, sys
pins_path, key, out_path, name = sys.argv[1:]
with open(pins_path) as f:
    want = json.load(f)
for part in key.split("."):
    want = want[part]
with open(out_path, "rb") as f:
    got = hashlib.sha256(f.read()).hexdigest()
if got != want:
    print(f"perf_check: {name} JSON sha256 {got} differs from the pinned "
          f"{want} ({key} in {pins_path})")
    sys.exit(1)
print(f"{name}: JSON sha256 matches the pinned {want[:12]}")
EOF
  }
  check_pin fig4 determinism.json_sha256 \
    "${build_dir}/bench/bench_fig4_lookup_cost" --trials 32 --jobs 1
  check_pin fig12 fig12_pin.json_sha256 \
    "${build_dir}/bench/bench_fig12_cushion" --trials 4 --jobs 1
  check_pin service_mix service_mix_pin.json_sha256 \
    "${build_dir}/bench/bench_service_mix" --trials 4 --jobs 1

  echo "=== perf_check: determinism smoke (saturation, --smoke) ==="
  sa="${build_dir}/saturation_jobs1.json"
  sb="${build_dir}/saturation_jobsN.json"
  "${build_dir}/bench/bench_saturation" --smoke --jobs 1 \
    --json-out "${sa}" >/dev/null
  "${build_dir}/bench/bench_saturation" --smoke --jobs "${smoke_jobs}" \
    --json-out "${sb}" >/dev/null
  if ! cmp -s "${sa}" "${sb}"; then
    echo "perf_check: saturation aggregates depend on --jobs" \
         "(determinism broken)"
    diff "${sa}" "${sb}" | head -20 || true
    exit 1
  fi
  echo "saturation smoke bit-identical across --jobs 1 and" \
       "--jobs ${smoke_jobs}"

  echo "=== perf_check: determinism smoke (plsim --shards) ==="
  # The sharded runtime's contract: a sharded service run folds to
  # aggregates bit-identical to the sequential run for any --shards. The
  # sequential JSON's metric set is an exact (insertion-ordered) prefix of
  # the sharded one, so subset-equality is the whole check.
  plsim_flags=(--keys 12 --servers 8 --entries 20 --target 4
               --updates 60 --lookups 300 --trials 2 --seed 7)
  seq_json="${build_dir}/plsim_shards_seq.json"
  "${build_dir}/tools/plsim" "${plsim_flags[@]}" \
    --json-out "${seq_json}" >/dev/null
  for S in 1 2 4 8; do
    sh_json="${build_dir}/plsim_shards_${S}.json"
    "${build_dir}/tools/plsim" "${plsim_flags[@]}" --shards "${S}" \
      --json-out "${sh_json}" >/dev/null
    python3 - "${seq_json}" "${sh_json}" "${S}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    seq = json.load(f)["metrics"]
with open(sys.argv[2]) as f:
    sh = json.load(f)["metrics"]
shards = sys.argv[3]
diverged = [k for k in seq if sh.get(k) != seq[k]]
if diverged:
    print(f"perf_check: plsim --shards {shards} diverges from the "
          f"sequential run on: {', '.join(diverged[:10])}")
    sys.exit(1)
conserved = sh.get("svc/shard_conserved")
consistent = sh.get("svc/shard_consistent")
if not conserved or conserved.get("mean") != 1.0:
    print(f"perf_check: plsim --shards {shards}: per-shard counter "
          "conservation failed (svc/shard_conserved != 1)")
    sys.exit(1)
if not consistent or consistent.get("mean") != 1.0:
    print(f"perf_check: plsim --shards {shards}: shard replicas "
          "inconsistent (svc/shard_consistent != 1)")
    sys.exit(1)
print(f"plsim --shards {shards}: all {len(seq)} sequential metrics "
      "bit-identical; shard panels conserved and consistent")
EOF
  done

  echo "=== perf_check: determinism smoke (plsim snapshot/restore) ==="
  # The snapshot/restore contract (docs/PROTOCOLS.md §"Wire format v1"):
  # running to T, snapshotting, and finishing from the snapshot in a fresh
  # process must produce the straight run's JSON byte-for-byte — sequential
  # and sharded alike. The snapshot-writing run itself must also match the
  # straight run (save_snapshot drains but mutates nothing).
  snap_flags=(--keys 12 --servers 16 --entries 40 --target 8
              --updates 60 --lookups 200 --seed 11 --strategy multiprobe
              --param 2 --drop 0.05 --dup 0.02 --max-attempts 3)
  for variant in "seq:" "shard:--shards 8"; do
    name="${variant%%:*}"
    extra="${variant#*:}"
    # shellcheck disable=SC2206  # intentional word-split of "--shards 8"
    extra_flags=(${extra})
    straight="${build_dir}/plsim_snap_${name}_straight.json"
    during="${build_dir}/plsim_snap_${name}_during.json"
    resumed="${build_dir}/plsim_snap_${name}_resumed.json"
    snap_file="${build_dir}/plsim_${name}.snap"
    "${build_dir}/tools/plsim" "${snap_flags[@]}" ${extra_flags[@]+"${extra_flags[@]}"} \
      --json-out "${straight}" >/dev/null
    "${build_dir}/tools/plsim" "${snap_flags[@]}" ${extra_flags[@]+"${extra_flags[@]}"} \
      --snapshot-at 30 --snapshot-out "${snap_file}" \
      --json-out "${during}" >/dev/null
    "${build_dir}/tools/plsim" "${snap_flags[@]}" ${extra_flags[@]+"${extra_flags[@]}"} \
      --restore "${snap_file}" --json-out "${resumed}" >/dev/null
    for other in "${during}" "${resumed}"; do
      if ! cmp -s "${straight}" "${other}"; then
        echo "perf_check: plsim snapshot/restore (${name}) diverges from" \
             "the straight run"
        diff "${straight}" "${other}" | head -20 || true
        exit 1
      fi
    done
    echo "plsim snapshot/restore (${name}): straight, snapshot-writing," \
         "and restored runs bit-identical"
  done
fi

echo "=== perf_check passed ==="
