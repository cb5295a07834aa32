#!/usr/bin/env bash
# CI entry point: configure, build and unit-test each tree, then run every
# committed scenario baseline through one check (check_baseline below) in
# the RelWithDebInfo, ASan+UBSan and TSan builds.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-ci"
SCENARIOS="${ROOT}/bench/scenarios"
# Committed baselines are the scenarios' smoke-sized runs: every scenario
# with a "fast" overlay applies it (the others are CI-sized as written).
export SEMCLUST_BENCH_FAST=1

# The baseline manifest, one row per committed BENCH_*.jsonl:
# "<scenario> <baseline>". Every build (RelWithDebInfo, ASan+UBSan, TSan)
# runs every row:
#   fig5_1          the paper's main grid; its baseline predates src/cc/,
#                   so matching it also proves the lock manager is inert
#                   when disabled.
#   ocb_small       the second workload path (OCB generator, transaction
#                   set, scenario axis); its cyclic configuration graphs run
#                   the placement audit's raw-array walk stack and SCC
#                   condensation.
#   ocb_churn       deletes under DSTC/OPCF re-clustering: candidate scoring
#                   reads edge targets without a liveness probe, so an edge
#                   left dangling by a delete shows here first.
#   ocb_shard       the N-shard core (DESIGN.md §15); its expect block holds
#                   Structure_Shard ahead of Hash_Shard at every N.
#   oct_dyn         48 MB OCT builds into plan-sized edge runs carved back
#                   to back at the arena tail (an off-by-one writes into the
#                   next object's run), static reorganisation, DSTC/OPCF.
#   oct_contention  the only strict-2PL scenario: recycled lock and latch
#                   entries, pooled coroutine frames (poisoned while pooled
#                   under ASan, one pool per worker thread under TSan).
MANIFEST="
fig5_1 BENCH_fig5_1_fast.jsonl
ocb_small BENCH_ocb_small.jsonl
ocb_churn BENCH_ocb_churn.jsonl
ocb_shard BENCH_ocb_shard.jsonl
oct_dyn BENCH_oct_dyn.jsonl
oct_contention BENCH_oct_contention.jsonl
"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}
strip_wall() { sed -E 's/"elapsed_wall_s":[^,}]+//' "$1"; }

# check_baseline <build dir> <scenario> <baseline>: runs the scenario at 1
# and 4 jobs. The parallel runner must be bit-identical to the serial path:
# same tables and verdicts, same records field by field (bench_diff at
# tolerance 0, telemetry series included). The fresh records must then
# match the committed baseline exactly (rtol 0): the numbers are
# bit-identical on the pinned toolchain, and every optimisation is
# required to preserve them, so any drift means a semantic change. If the
# toolchain is ever upgraded and legitimate FP drift appears, regenerate
# the baselines in the same commit rather than loosening the tolerance.
# Baseline mode lets fields added since the baseline pass; removed or
# renamed fields fail. bench_diff flattens records, so a reordered key or
# 0 vs 0.0 would pass it: the records must also match byte for byte, with
# only the host wall-clock field stripped. semclust_run exits 1 when an
# expect claim deviates, which fails the check too. Each run's closing
# "[exec] ... wall, peak RSS" stderr line is echoed as information only.
check_baseline() {
  local build="$1" name="$2" baseline="${ROOT}/$3" out="$1/$2"
  for jobs in 1 4; do
    rm -f "${out}_jobs${jobs}.json"
    "${build}/tools/semclust_run" --jobs "${jobs}" \
      --json "${out}_jobs${jobs}.json" "${SCENARIOS}/${name}.scenario.json" \
      > "${out}_jobs${jobs}.out" 2> "${out}_jobs${jobs}.err" \
      || { cat "${out}_jobs${jobs}.err" >&2; fail "${name} at jobs=${jobs}" \
             "in ${build} exited non-zero"; }
    echo "${name} (${build##*/}): $(grep '^\[exec\]' "${out}_jobs${jobs}.err")"
  done
  diff "${out}_jobs1.out" "${out}_jobs4.out" \
    || fail "${name} tables differ between job counts in ${build}"
  "${BUILD}/tools/bench_diff" "${out}_jobs1.json" "${out}_jobs4.json"
  "${BUILD}/tools/bench_diff" --baseline "${baseline}" --rtol 0 \
    "${out}_jobs1.json"
  for jobs in 1 4; do
    diff <(strip_wall "${out}_jobs${jobs}.json") <(strip_wall "${baseline}") \
      || fail "${name} at jobs=${jobs} in ${build} is not byte-identical" \
              "to $3"
  done
}

# check_manifest <build dir>: every manifest row.
check_manifest() {
  local name baseline
  while read -r name baseline; do
    [ -n "${name}" ] || continue
    check_baseline "$1" "${name}" "${baseline}"
  done <<< "${MANIFEST}"
}

cmake -S "${ROOT}" -B "${BUILD}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer"
cmake --build "${BUILD}" -j "$(nproc)"
ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)"

RUN="${BUILD}/tools/semclust_run"
DIFF="${BUILD}/tools/bench_diff"
SCENARIO="${SCENARIOS}/fig5_1.scenario.json"
BASELINE="${ROOT}/BENCH_fig5_1_fast.jsonl"
check_manifest "${BUILD}"

# Self-check that the gate can actually trip: a 10x response-time
# perturbation must exit non-zero.
sed 's/"mean_response_s":0\./"mean_response_s":9./' "${BUILD}/fig5_1_jobs1.json" \
  > "${BUILD}/bench_perturbed.json"
if "${DIFF}" --baseline "${BASELINE}" --rtol 0 \
    "${BUILD}/bench_perturbed.json" > /dev/null 2>&1; then
  fail "bench_diff did not flag a 10x response-time perturbation"
fi
# Its flag values parse whole: a malformed tolerance or report limit
# exits 2 naming the flag instead of gating at a default.
for bad in "--rtol abc" "--tol mean_response_s=1x" "--max-report x"; do
  rc=0
  # shellcheck disable=SC2086  # split the flag from its value
  "${DIFF}" ${bad} "${BASELINE}" "${BASELINE}" > /dev/null 2>&1 || rc=$?
  [ "${rc}" -eq 2 ] || fail "bench_diff with ${bad} exited ${rc}, want 2"
done

# Scenario input boundary: every committed scenario loads (its expect
# selectors resolve), and each malformed probe is rejected with exit code
# 2 and an error naming the field -- never a crash, never a silently
# truncated value that dry-runs clean.
PROBES="${BUILD}/scenario_probes"
rm -rf "${PROBES}"
mkdir -p "${PROBES}"
probe() { printf '%s\n' "$2" > "${PROBES}/$1.json"; }
probe fraction '{"name": "p", "config": {"measured_transactions": 2.9}}'
probe negative_unsigned '{"name": "p", "config": {"buffer_pages": -1}}'
probe int_overflow '{"name": "p", "config": {"num_users": 99999999999}}'
probe uint32_overflow '{"name": "p", "config": {"page_size_bytes": 4294971392}}'
probe buffer_pages_bound '{"name": "p", "config": {"buffer_pages": 1000000000000}}'
probe num_users_bound '{"name": "p", "config": {"num_users": 2000000000}}'
# Values that parse but used to abort the run on a CHECK.
probe rw_ratio_zero '{"name": "p", "config": {"workload": {"rw_ratio": 0}}}'
probe think_time_zero '{"name": "p", "config": {"think_time_s": 0}}'
probe append_fill_above_one '{"name": "p", "config":
  {"append_fill_fraction": 1.5}}'
probe page_below_object '{"name": "p", "config": {"page_size_bytes": 1000}}'
# Time knobs past 2^32 disk page service times, where the simulated clock
# can no longer add a disk service time (a 1e300 s think time used to run
# to a mean response of 0.0 ms).
probe think_time_huge '{"name": "p", "config": {"think_time_s": 1e300}}'
probe telemetry_interval_huge '{"name": "p", "config":
  {"telemetry_interval_s": 1e300}}'
probe shard_hop_latency_huge '{"name": "p", "config":
  {"shards": 2, "shard_hop_latency_s": 1e300}}'
probe cc_lock_timeout_huge '{"name": "p", "config":
  {"concurrency": {"enabled": true, "cc_lock_timeout_s": 1e300}}}'
probe cc_backoff_base_huge '{"name": "p", "config": {"concurrency":
  {"enabled": true, "cc_backoff_base_s": 1e300, "cc_backoff_cap_s": 1e301}}}'
probe cc_backoff_cap_huge '{"name": "p", "config":
  {"concurrency": {"enabled": true, "cc_backoff_cap_s": 1e300}}}'
probe arrival_rate_tiny '{"name": "p", "config":
  {"arrival": "open", "arrival_rate_tps": 1e-300}}'
probe ocb_uint32_overflow '{"name": "p", "config": {"workload":
  {"kind": "ocb", "base_object_bytes": 4294967456}}}'
probe exponent '{"name": "p", "config": {"seed": 1e400}}'
probe sweep_fraction '{"name": "p", "sweep": {"shards": [2.5]}}'
probe ocb_gate '{"name": "p", "config": {"workload":
  {"kind": "oct", "instances": 500}}}'
probe fast_unknown '{"name": "p", "fast": {"measured": 5}}'
probe expect_kind '{"name": "p", "expect": [{"claim": "c", "kind": "rank"}]}'
probe expect_level '{"name": "p", "expect": [{"claim": "c", "kind": "best",
  "axis": "clustering", "levels": ["No_limit"]}]}'
# Variant levels are named config overlays; each of these four errors must
# also name the offending field (checked after the loop).
probe variant_duplicate_label '{"name": "p", "sweep": {"variant":
  [{"label": "a", "config": {}}, {"label": "a", "config": {}}]}}'
probe variant_swept_key '{"name": "p", "sweep": {"clustering": "figure5_1",
  "variant": [{"label": "a", "config": {"clustering": {"split": "NP_Split"}}}]}}'
probe variant_unknown_key '{"name": "p", "sweep": {"variant":
  [{"label": "a", "config": {"measured": 5}}]}}'
probe monotone_fields_and_axis '{"name": "p", "sweep": {"clustering":
  ["No_Clustering", "No_limit"]}, "expect": [{"claim": "c", "kind":
  "monotone", "axis": "clustering", "fields": ["a", "b"]}]}'
python3 -c 'print("[" * 200000)' > "${PROBES}/deep_nesting.json"
for f in "${SCENARIOS}"/*.json "${ROOT}"/perfbench/scenarios/*.json \
    "${PROBES}"/*.json; do
  case "${f}" in "${PROBES}"/*) want=2 ;; *) want=0 ;; esac
  rc=0
  "${RUN}" --dry-run "${f}" > /dev/null 2>&1 || rc=$?
  [ "${rc}" -eq "${want}" ] \
    || fail "semclust_run --dry-run ${f} exited ${rc}, want ${want}"
done
for named in "variant_duplicate_label sweep.variant[1].label" \
    "variant_swept_key sweep.clustering" \
    "variant_unknown_key sweep.variant[0].config: unknown key \"measured\"" \
    "monotone_fields_and_axis \"fields\" or \"axis\""; do
  err="$("${RUN}" --dry-run "${PROBES}/${named%% *}.json" 2>&1 || true)"
  grep -qF -- "${named#* }" <<< "${err}" \
    || fail "semclust_run --dry-run ${named%% *} does not name ${named#* }"
done
# Flag and environment values parse whole, as the scenario's integers do:
# a zero, trailing text, an overflow, a sign on the seed, a following
# option in place of the value, or a non-finite or negative interval exits
# 2 instead of running a default.
for bad in "--jobs 0" "--jobs 4x" "--jobs 99999999999999999999" \
    "--jobs 2147483648" "--seed abc" "--seed -1" "--jobs --dry-run" \
    SEMCLUST_BENCH_SEED=abc SEMCLUST_BENCH_JOBS=4x \
    SEMCLUST_BENCH_SERIES_S=nan SEMCLUST_BENCH_SERIES_S=-1; do
  rc=0
  case "${bad}" in
    SEMCLUST_*) env "${bad}" "${RUN}" --dry-run "${SCENARIO}" ;;
    # shellcheck disable=SC2086  # split the flag from its value
    *) "${RUN}" ${bad} --dry-run "${SCENARIO}" ;;
  esac > /dev/null 2>&1 || rc=$?
  [ "${rc}" -eq 2 ] || fail "semclust_run with ${bad} exited ${rc}, want 2"
done
# The bench binaries read the same knobs through the same helpers.
rc=0
SEMCLUST_BENCH_SEED=abc "${BUILD}/bench/bench_table4_1_parameters" \
  > /dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "a bench binary with a bad seed exited ${rc}, want 2"

# Span-profiler gates (DESIGN.md §14). With profiling on, the same
# scenario must (a) stay byte-identical across job counts (only
# elapsed_wall_s, host wall-clock, is stripped), (b) pass the
# zero-tolerance additivity audit — every (cell, kind) breakdown row's
# eight phase totals sum exactly to response_ticks — and (c) still match
# the committed baseline exactly on every simulated field, proving the
# profiler observes without perturbing. The slow-transaction exemplar
# trace is written alongside for the artifact upload.
SP1="${BUILD}/span_jobs1.json"
SP4="${BUILD}/span_jobs4.json"
rm -f "${SP1}" "${SP4}" "${BUILD}/span_trace.json"
SEMCLUST_SPANS=1 SEMCLUST_TRACE="${BUILD}/span_trace.json" \
  "${RUN}" --jobs 1 --json "${SP1}" "${SCENARIO}" > "${BUILD}/span_jobs1.out"
SEMCLUST_SPANS=1 \
  "${RUN}" --jobs 4 --json "${SP4}" "${SCENARIO}" > "${BUILD}/span_jobs4.out"
diff <(strip_wall "${SP1}") <(strip_wall "${SP4}") \
  || fail "span-profiled scenario differs between job counts"
"${BUILD}/tools/span_report" --check "${SP1}"
"${BUILD}/tools/span_report" "${SP1}" | tee "${BUILD}/span_report.out"
"${DIFF}" --baseline "${BASELINE}" --rtol 0 "${SP1}"
grep -q '"cat":"spans"' "${BUILD}/span_trace.json" \
  || fail "exemplar trace has no span events"
"${BUILD}/tools/trace_summary" "${BUILD}/span_trace.json" \
  > "${BUILD}/span_trace_summary.out"

# Span gate with contention: lock_wait is the tenth additive phase, so
# the profiled contention run must pass the zero-tolerance additivity
# audit and still match the unprofiled run exactly on every simulated
# field (baseline mode: only the profiled run carries breakdown.*).
CC1="${BUILD}/oct_contention_jobs1.json"
CCSP="${BUILD}/cc_span.json"
rm -f "${CCSP}"
SEMCLUST_SPANS=1 "${RUN}" --jobs 4 --json "${CCSP}" \
  "${SCENARIOS}/oct_contention.scenario.json" > "${BUILD}/cc_span.out"
"${BUILD}/tools/span_report" --check "${CCSP}"
"${DIFF}" --baseline "${CC1}" --rtol 0 "${CCSP}"

# Policy-surface smoke: the dynamic re-clustering axis must be
# registered and discoverable (canonical names and aliases).
"${RUN}" --list-policies > "${BUILD}/policies.out"
for needle in DSTC OPCF dstc_dynamic opportunistic; do
  grep -q "${needle}" "${BUILD}/policies.out" \
    || fail "--list-policies does not advertise ${needle}"
done

# bench_diff --allow-new-keys self-check: a candidate carrying an extra
# field must pass under the flag and fail without it (and a *removed*
# field must still fail either way) — the escape hatch for comparing
# old-format artifacts against newer builds cannot mask a regression.
sed '1s/}$/,"zz_ci_probe":1}/' "${CC1}" > "${BUILD}/cc_newkey.json"
if "${DIFF}" "${CC1}" "${BUILD}/cc_newkey.json" > /dev/null 2>&1; then
  fail "bench_diff ignored a new key without --allow-new-keys"
fi
"${DIFF}" --allow-new-keys "${CC1}" "${BUILD}/cc_newkey.json"
if "${DIFF}" --allow-new-keys "${BUILD}/cc_newkey.json" "${CC1}" \
    > /dev/null 2>&1; then
  fail "--allow-new-keys masked a removed key"
fi

# Ranking-transfer artifacts: how the clustering-policy ordering compares
# between the engineering workload (fig5.1) and the generic OCB graph,
# the churn sweep's static-vs-DSTC-vs-OPCF ordering against its committed
# baseline (a rank inversion under tolerance-passing drift still shows up
# here), and the dynamic axis across workload families: the OCT
# engineering grid vs the OCB churn run.
"${BUILD}/tools/ocb_compare" --json "${BUILD}/ocb_rankings.json" \
  "${BASELINE}" "${BUILD}/ocb_small_jobs1.json" | tee "${BUILD}/ocb_compare.out"
"${BUILD}/tools/ocb_compare" --json "${BUILD}/churn_rankings.json" \
  "${ROOT}/BENCH_ocb_churn.jsonl" "${BUILD}/ocb_churn_jobs1.json" \
  | tee "${BUILD}/churn_compare.out"
"${BUILD}/tools/ocb_compare" --json "${BUILD}/dyn_rankings.json" \
  "${BUILD}/oct_dyn_jobs1.json" "${BUILD}/ocb_churn_jobs1.json" \
  | tee "${BUILD}/dyn_compare.out"

# Release (-O3) job: GCC 12's -Werror=restrict false positive (upstream
# PR105651) is worked around in objmodel/validator.cc, so the optimised
# configuration must configure, build, and pass the test suite clean. Every
# component micro-benchmark runs once, briefly, so a broken fixture fails
# here rather than only when someone times it.
RELBUILD="${ROOT}/build-release"
cmake -S "${ROOT}" -B "${RELBUILD}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${RELBUILD}" -j "$(nproc)"
ctest --test-dir "${RELBUILD}" --output-on-failure -j "$(nproc)"
"${RELBUILD}/bench/bench_micro_components" --benchmark_min_time=0.01 \
  > "${RELBUILD}/bench_micro_components.out"

# Sanitizer job: AddressSanitizer + UndefinedBehaviorSanitizer over the
# test suite, one brief run of every component micro-benchmark, and every
# manifest baseline at jobs 1 and 4 (thread pool included). Any UB report
# halts the run, and the instrumented output must still match the
# committed baselines byte for byte.
SANBUILD="${ROOT}/build-sanitize"
cmake -S "${ROOT}" -B "${SANBUILD}" -DSEMCLUST_SANITIZE="address|undefined"
cmake --build "${SANBUILD}" -j "$(nproc)"
export UBSAN_OPTIONS=halt_on_error=1
ctest --test-dir "${SANBUILD}" --output-on-failure -j "$(nproc)"
"${SANBUILD}/bench/bench_micro_components" --benchmark_min_time=0.01 \
  > "${SANBUILD}/bench_micro_components.out"
check_manifest "${SANBUILD}"

# ThreadSanitizer job (cannot share a build with ASan): the thread pool and
# the parallel experiment runner -- exec_test, then every manifest
# baseline at jobs 1 and 4. Any data race report halts the run, and the
# instrumented output must still match the committed baselines byte for
# byte.
TSANBUILD="${ROOT}/build-tsan"
cmake -S "${ROOT}" -B "${TSANBUILD}" -DSEMCLUST_SANITIZE=thread
cmake --build "${TSANBUILD}" -j "$(nproc)" --target exec_test semclust_run
export TSAN_OPTIONS=halt_on_error=1
ctest --test-dir "${TSANBUILD}" -R '^exec_test$' --output-on-failure
check_manifest "${TSANBUILD}"

echo "ci: ok (tests passed; every manifest baseline exact and byte-identical at jobs=1 and jobs=4 with its expect claims holding, in the RelWithDebInfo, ASan/UBSan and TSan builds; probes rejected; spans additive; Release build clean)"
