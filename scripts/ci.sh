#!/usr/bin/env bash
# CI entry point: configure, build, unit-test, then run the fig5.1 bench
# in fast mode at 1 and 4 jobs and diff the machine-readable output to
# catch determinism regressions in the parallel experiment runner.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-ci"

cmake -S "${ROOT}" -B "${BUILD}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer"
cmake --build "${BUILD}" -j "$(nproc)"

ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)"

# Determinism gate: the parallel runner must be bit-identical to the
# serial path. elapsed_wall_s is the only nondeterministic field, so it
# is stripped before the diff.
BENCH="${BUILD}/bench/bench_fig5_1_clustering_effects"
J1="${BUILD}/bench_jobs1.json"
J4="${BUILD}/bench_jobs4.json"
rm -f "${J1}" "${J4}"

SEMCLUST_BENCH_FAST=1 SEMCLUST_BENCH_JOBS=1 SEMCLUST_BENCH_JSON="${J1}" \
  "${BENCH}" > "${BUILD}/bench_jobs1.out"
SEMCLUST_BENCH_FAST=1 SEMCLUST_BENCH_JOBS=4 SEMCLUST_BENCH_JSON="${J4}" \
  "${BENCH}" > "${BUILD}/bench_jobs4.out"

strip_wall() { sed -E 's/"elapsed_wall_s":[^,}]+//' "$1"; }
if ! diff <(strip_wall "${J1}") <(strip_wall "${J4}"); then
  echo "FAIL: parallel bench output differs from serial" >&2
  exit 1
fi
if ! diff "${BUILD}/bench_jobs1.out" "${BUILD}/bench_jobs4.out"; then
  echo "FAIL: human-readable bench tables differ between job counts" >&2
  exit 1
fi

# Exact cross-job gate again, through the structured differ (tolerance 0):
# same records, field by field, including the telemetry series.
"${BUILD}/tools/bench_diff" "${J1}" "${J4}"

# Regression gate against the committed baseline, exact (rtol 0): the
# fig5.1 numbers are bit-identical on the pinned toolchain, and the
# raw-speed pass (DESIGN.md §12) is required to preserve them bit-for-bit
# — any numeric drift means an optimisation changed semantics. If the
# toolchain is ever upgraded and legitimate FP drift appears, regenerate
# the baseline in the same commit as the upgrade rather than loosening
# the tolerance. Baseline mode: fields added since the baseline was
# committed never fail the gate; removed or renamed fields do.
BASELINE="${ROOT}/BENCH_fig5_1_fast.jsonl"
"${BUILD}/tools/bench_diff" --baseline "${BASELINE}" --rtol 0 "${J1}"

# Self-check that the gate can actually trip: a 10x response-time
# perturbation must exit non-zero.
sed 's/"mean_response_s":0\./"mean_response_s":9./' "${J1}" \
  > "${BUILD}/bench_perturbed.json"
if "${BUILD}/tools/bench_diff" --baseline "${BASELINE}" --rtol 0 \
    "${BUILD}/bench_perturbed.json" > /dev/null 2>&1; then
  echo "FAIL: bench_diff did not flag a 10x response-time perturbation" >&2
  exit 1
fi

# Scenario-driven smoke run: the committed declarative scenario must be
# deterministic across job counts (exact diff, tolerance 0) and must
# reproduce the hand-written C++ bench byte-for-byte on this toolchain —
# the declarative path and the compiled path are the same experiment.
RUN="${BUILD}/tools/semclust_run"
SCENARIO="${ROOT}/bench/scenarios/fig5_1_fast.scenario.json"
S1="${BUILD}/scenario_jobs1.json"
S4="${BUILD}/scenario_jobs4.json"
rm -f "${S1}" "${S4}"
"${RUN}" --jobs 1 --json "${S1}" "${SCENARIO}" > "${BUILD}/scenario_jobs1.out"
"${RUN}" --jobs 4 --json "${S4}" "${SCENARIO}" > "${BUILD}/scenario_jobs4.out"
"${BUILD}/tools/bench_diff" "${S1}" "${S4}"
"${BUILD}/tools/bench_diff" "${J1}" "${S1}"
"${BUILD}/tools/bench_diff" --baseline "${BASELINE}" --rtol 0 "${S1}"

# Scenario input boundary: every committed scenario loads, and each malformed
# probe is rejected with exit code 2 and an error naming the field -- never a
# crash, never a silently truncated value that dry-runs clean.
PROBES="${BUILD}/scenario_probes"
rm -rf "${PROBES}"
mkdir -p "${PROBES}"
printf '%s\n' '{"name": "p", "config": {"measured_transactions": 2.9}}' \
  > "${PROBES}/fraction.json"
printf '%s\n' '{"name": "p", "config": {"buffer_pages": -1}}' \
  > "${PROBES}/negative_unsigned.json"
printf '%s\n' '{"name": "p", "config": {"num_users": 99999999999}}' \
  > "${PROBES}/int_overflow.json"
printf '%s\n' '{"name": "p", "config": {"page_size_bytes": 4294971392}}' \
  > "${PROBES}/uint32_overflow.json"
printf '%s\n' '{"name": "p", "config": {"buffer_pages": 1000000000000}}' \
  > "${PROBES}/buffer_pages_bound.json"
printf '%s\n' '{"name": "p", "config": {"num_users": 2000000000}}' \
  > "${PROBES}/num_users_bound.json"
printf '%s\n' '{"name": "p", "config": {"workload":
  {"kind": "ocb", "base_object_bytes": 4294967456}}}' \
  > "${PROBES}/ocb_uint32_overflow.json"
printf '%s\n' '{"name": "p", "config": {"seed": 1e400}}' \
  > "${PROBES}/exponent.json"
printf '%s\n' '{"name": "p", "sweep": {"shards": [2.5]}}' \
  > "${PROBES}/sweep_fraction.json"
printf '%s\n' '{"name": "p", "config": {"workload":
  {"kind": "oct", "instances": 500}}}' > "${PROBES}/ocb_gate.json"
python3 -c 'print("[" * 200000)' > "${PROBES}/deep_nesting.json"
for f in "${ROOT}"/bench/scenarios/*.json \
    "${ROOT}"/perfbench/scenarios/*.json "${PROBES}"/*.json; do
  case "${f}" in "${PROBES}"/*) want=2 ;; *) want=0 ;; esac
  rc=0
  "${RUN}" --dry-run "${f}" > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne "${want}" ]; then
    echo "FAIL: semclust_run --dry-run ${f} exited ${rc}, want ${want}" >&2
    exit 1
  fi
done
# The CLI's own flag values parse whole, as the scenario's integers do: a
# zero, trailing text, an overflow, a sign on the seed, or a following
# option in place of the value exits 2 instead of running a default.
for flags in "--jobs 0" "--jobs 4x" "--jobs 99999999999999999999" \
    "--jobs 2147483648" "--seed abc" "--seed -1" "--jobs --dry-run"; do
  rc=0
  # shellcheck disable=SC2086  # split the flag from its value
  "${RUN}" ${flags} --dry-run "${SCENARIO}" > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "FAIL: semclust_run ${flags} exited ${rc}, want 2" >&2
    exit 1
  fi
done

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
  "${RUN}" --jobs 1 --json "${SP1}" "${SCENARIO}" \
  > "${BUILD}/span_jobs1.out"
SEMCLUST_SPANS=1 \
  "${RUN}" --jobs 4 --json "${SP4}" "${SCENARIO}" \
  > "${BUILD}/span_jobs4.out"
if ! diff <(strip_wall "${SP1}") <(strip_wall "${SP4}"); then
  echo "FAIL: span-profiled scenario differs between job counts" >&2
  exit 1
fi
"${BUILD}/tools/span_report" --check "${SP1}"
"${BUILD}/tools/span_report" "${SP1}" | tee "${BUILD}/span_report.out"
"${BUILD}/tools/bench_diff" --baseline "${BASELINE}" --rtol 0 "${SP1}"
if ! grep -q '"cat":"spans"' "${BUILD}/span_trace.json"; then
  echo "FAIL: exemplar trace has no span events" >&2
  exit 1
fi
"${BUILD}/tools/trace_summary" "${BUILD}/span_trace.json" \
  > "${BUILD}/span_trace_summary.out"

# OCB workload gate: the generic-benchmark scenario (src/ocb/) must be
# bit-identical across job counts (exact diff) and regenerate its committed
# baseline exactly (rtol 0), like fig5.1. This exercises the whole
# second workload path — generator, OCB transaction set, scenario axis —
# none of which the fig5.1 gates touch.
OCB_SCENARIO="${ROOT}/bench/scenarios/ocb_small.scenario.json"
OCB_BASELINE="${ROOT}/BENCH_ocb_small.jsonl"
O1="${BUILD}/ocb_jobs1.json"
O4="${BUILD}/ocb_jobs4.json"
rm -f "${O1}" "${O4}"
"${RUN}" --jobs 1 --json "${O1}" "${OCB_SCENARIO}" > "${BUILD}/ocb_jobs1.out"
"${RUN}" --jobs 4 --json "${O4}" "${OCB_SCENARIO}" > "${BUILD}/ocb_jobs4.out"
if ! diff "${BUILD}/ocb_jobs1.out" "${BUILD}/ocb_jobs4.out"; then
  echo "FAIL: OCB scenario tables differ between job counts" >&2
  exit 1
fi
"${BUILD}/tools/bench_diff" "${O1}" "${O4}"
"${BUILD}/tools/bench_diff" --baseline "${OCB_BASELINE}" --rtol 0 "${O1}"

# Policy-surface smoke: the dynamic re-clustering axis must be
# registered and discoverable (canonical names and aliases).
"${RUN}" --list-policies > "${BUILD}/policies.out"
for needle in DSTC OPCF dstc_dynamic opportunistic; do
  if ! grep -q "${needle}" "${BUILD}/policies.out"; then
    echo "FAIL: --list-policies does not advertise ${needle}" >&2
    exit 1
  fi
done

# Structural-churn gate (src/dyn/): the churn scenario sweeps the frozen
# static placement against DSTC and OPCF. Exact determinism across job
# counts (reorganisation happens on the virtual clock, so thread count
# must not leak into any sample), plus an exact (rtol 0) match against
# the committed baseline.
CHURN_SCENARIO="${ROOT}/bench/scenarios/ocb_churn.scenario.json"
CHURN_BASELINE="${ROOT}/BENCH_ocb_churn.jsonl"
C1="${BUILD}/churn_jobs1.json"
C4="${BUILD}/churn_jobs4.json"
rm -f "${C1}" "${C4}"
"${RUN}" --jobs 1 --json "${C1}" "${CHURN_SCENARIO}" \
  > "${BUILD}/churn_jobs1.out"
"${RUN}" --jobs 4 --json "${C4}" "${CHURN_SCENARIO}" \
  > "${BUILD}/churn_jobs4.out"
if ! diff "${BUILD}/churn_jobs1.out" "${BUILD}/churn_jobs4.out"; then
  echo "FAIL: churn scenario tables differ between job counts" >&2
  exit 1
fi
"${BUILD}/tools/bench_diff" "${C1}" "${C4}"
"${BUILD}/tools/bench_diff" --baseline "${CHURN_BASELINE}" --rtol 0 "${C1}"

# Shard-grid gate (core/sharding.*, DESIGN.md §15): the N-shard scenario
# must be bit-identical across job counts, match its committed baseline
# exactly (rtol 0), and keep the tentpole claim true on the
# fresh run: Structure_Shard beats Hash_Shard on BOTH the cross-shard
# reference fraction and the mean response time at every swept N.
SHARD_SCENARIO="${ROOT}/bench/scenarios/ocb_shard.scenario.json"
SHARD_BASELINE="${ROOT}/BENCH_ocb_shard.jsonl"
SH1="${BUILD}/shard_jobs1.json"
SH4="${BUILD}/shard_jobs4.json"
rm -f "${SH1}" "${SH4}"
"${RUN}" --jobs 1 --json "${SH1}" "${SHARD_SCENARIO}" \
  > "${BUILD}/shard_jobs1.out"
"${RUN}" --jobs 4 --json "${SH4}" "${SHARD_SCENARIO}" \
  > "${BUILD}/shard_jobs4.out"
if ! diff "${BUILD}/shard_jobs1.out" "${BUILD}/shard_jobs4.out"; then
  echo "FAIL: shard scenario tables differ between job counts" >&2
  exit 1
fi
"${BUILD}/tools/bench_diff" "${SH1}" "${SH4}"
"${BUILD}/tools/bench_diff" --baseline "${SHARD_BASELINE}" --rtol 0 "${SH1}"
python3 - "${SH1}" <<'PY'
import json, sys
rows = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    n = int(r["policy"].split("shard", 1)[0])
    rows[(n, "Structure" in r["policy"])] = r
bad = []
for n in sorted({k[0] for k in rows}):
    hash_row, structure_row = rows[(n, False)], rows[(n, True)]
    if not (structure_row["remote_fetch_fraction"]
                < hash_row["remote_fetch_fraction"]
            and structure_row["mean_response_s"]
                < hash_row["mean_response_s"]):
        bad.append(n)
if bad:
    sys.exit("FAIL: Structure_Shard does not beat Hash_Shard at N in %s"
             % bad)
print("ci: structure-aware sharding beats hash sharding on remote "
      "fraction and response time at every swept N")
PY

# OCT dynamic gate: the same static-vs-DSTC-vs-OPCF sweep the churn gate
# runs on the generic OCB graph, but across the engineering workload's
# density x R/W grid — the other half of the dynamic-axis transfer table.
# Exact across job counts and against the committed baseline (rtol 0).
OCT_DYN_SCENARIO="${ROOT}/bench/scenarios/oct_dyn.scenario.json"
OCT_DYN_BASELINE="${ROOT}/BENCH_oct_dyn.jsonl"
D1="${BUILD}/oct_dyn_jobs1.json"
D4="${BUILD}/oct_dyn_jobs4.json"
rm -f "${D1}" "${D4}"
"${RUN}" --jobs 1 --json "${D1}" "${OCT_DYN_SCENARIO}" \
  > "${BUILD}/oct_dyn_jobs1.out"
"${RUN}" --jobs 4 --json "${D4}" "${OCT_DYN_SCENARIO}" \
  > "${BUILD}/oct_dyn_jobs4.out"
if ! diff "${BUILD}/oct_dyn_jobs1.out" "${BUILD}/oct_dyn_jobs4.out"; then
  echo "FAIL: OCT dynamic scenario tables differ between job counts" >&2
  exit 1
fi
"${BUILD}/tools/bench_diff" "${D1}" "${D4}"
"${BUILD}/tools/bench_diff" --baseline "${OCT_DYN_BASELINE}" --rtol 0 "${D1}"

# Contention gate (src/cc/, DESIGN.md §16): the thousand-user strict-2PL
# sweep must be bit-identical across job counts (lock waits, aborts, and
# backoff all run on the virtual clock), reproduce the hand-written
# bench_oct_contention byte-for-byte, and match its committed baseline
# exactly (rtol 0). The fig5.1 gates above double as the
# cc-off neutrality proof: their baseline predates src/cc/ and is still
# matched at rtol 0 with the lock manager compiled in but disabled.
CC_SCENARIO="${ROOT}/bench/scenarios/oct_contention.scenario.json"
CC_BASELINE="${ROOT}/BENCH_oct_contention.jsonl"
CC_BENCH="${BUILD}/bench/bench_oct_contention"
CC1="${BUILD}/cc_jobs1.json"
CC4="${BUILD}/cc_jobs4.json"
CCB="${BUILD}/cc_bench.json"
rm -f "${CC1}" "${CC4}" "${CCB}"
"${RUN}" --jobs 1 --json "${CC1}" "${CC_SCENARIO}" \
  > "${BUILD}/cc_jobs1.out"
"${RUN}" --jobs 4 --json "${CC4}" "${CC_SCENARIO}" \
  > "${BUILD}/cc_jobs4.out"
if ! diff "${BUILD}/cc_jobs1.out" "${BUILD}/cc_jobs4.out"; then
  echo "FAIL: contention scenario tables differ between job counts" >&2
  exit 1
fi
"${BUILD}/tools/bench_diff" "${CC1}" "${CC4}"
"${BUILD}/tools/bench_diff" --baseline "${CC_BASELINE}" --rtol 0 "${CC1}"
SEMCLUST_BENCH_FAST=1 SEMCLUST_BENCH_JOBS=4 SEMCLUST_BENCH_JSON="${CCB}" \
  "${CC_BENCH}" > "${BUILD}/cc_bench.out"
if ! diff <(strip_wall "${CCB}") <(strip_wall "${CC1}"); then
  echo "FAIL: bench_oct_contention differs from its scenario" >&2
  exit 1
fi

# Byte-level baseline gate: bench_diff flattens records before comparing,
# so a reordered key or 0 vs 0.0 would pass it. Every committed baseline
# must regenerate byte for byte; only the host wall-clock field is stripped.
for pair in "${S1} ${BASELINE}" "${O1} ${OCB_BASELINE}" \
    "${C1} ${CHURN_BASELINE}" "${SH1} ${SHARD_BASELINE}" \
    "${D1} ${OCT_DYN_BASELINE}" "${CC1} ${CC_BASELINE}"; do
  read -r fresh baseline <<< "${pair}"
  if ! diff <(strip_wall "${fresh}") <(strip_wall "${baseline}"); then
    echo "FAIL: ${fresh} is not byte-identical to ${baseline}" >&2
    exit 1
  fi
done

# Contention-shape check on the fresh run: the cc machinery must actually
# engage (aborts, retries, lock waits, latch waits all nonzero over the
# grid) and mean response time must rise with the user population under
# every clustering policy.
python3 - "${CC1}" <<'PY'
import json, sys
rows = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    users = int(r["policy"].split("users", 1)[0])
    pool = r["policy"].split("_", 1)[1]
    rows[(pool, users)] = r
totals = {k: sum(r["cc"][k] for r in rows.values())
          for k in ("txn_aborts", "txn_retries", "lock_waits",
                    "latch_waits")}
dead = [k for k, v in totals.items() if v == 0]
if dead:
    sys.exit("FAIL: cc counters never engaged over the grid: %s" % dead)
for pool in sorted({k[0] for k in rows}):
    curve = [rows[(pool, u)]["mean_response_s"]
             for u in sorted(u for p, u in rows if p == pool)]
    if any(b <= a for a, b in zip(curve, curve[1:])):
        sys.exit("FAIL: response time not rising with users under %s: %s"
                 % (pool, curve))
print("ci: contention grid engages cc (totals %s) and response rises "
      "with users under every policy" % totals)
PY

# Span gate with contention: lock_wait is the tenth additive phase, so
# the profiled contention run must pass the zero-tolerance additivity
# audit and still match the unprofiled run exactly on every simulated
# field (baseline mode: only the profiled run carries breakdown.*).
CCSP="${BUILD}/cc_span.json"
rm -f "${CCSP}"
SEMCLUST_SPANS=1 "${RUN}" --jobs 4 --json "${CCSP}" "${CC_SCENARIO}" \
  > "${BUILD}/cc_span.out"
"${BUILD}/tools/span_report" --check "${CCSP}"
"${BUILD}/tools/bench_diff" --baseline "${CC1}" --rtol 0 "${CCSP}"

# bench_diff --allow-new-keys self-check: a candidate carrying an extra
# field must pass under the flag and fail without it (and a *removed*
# field must still fail either way) — the escape hatch for comparing
# old-format artifacts against newer builds cannot mask a regression.
sed '1s/}$/,"zz_ci_probe":1}/' "${CC1}" > "${BUILD}/cc_newkey.json"
if "${BUILD}/tools/bench_diff" "${CC1}" "${BUILD}/cc_newkey.json" \
    > /dev/null 2>&1; then
  echo "FAIL: bench_diff ignored a new key without --allow-new-keys" >&2
  exit 1
fi
"${BUILD}/tools/bench_diff" --allow-new-keys "${CC1}" \
  "${BUILD}/cc_newkey.json"
if "${BUILD}/tools/bench_diff" --allow-new-keys \
    "${BUILD}/cc_newkey.json" "${CC1}" > /dev/null 2>&1; then
  echo "FAIL: --allow-new-keys masked a removed key" >&2
  exit 1
fi

# Ranking-transfer artifacts: how the clustering-policy ordering compares
# between the engineering workload (fig5.1) and the generic OCB graph,
# the churn sweep's static-vs-DSTC-vs-OPCF ordering against its committed
# baseline (a rank inversion under tolerance-passing drift still shows up
# here), and the dynamic axis across workload families: the OCT
# engineering grid vs the OCB churn run.
"${BUILD}/tools/ocb_compare" --json "${BUILD}/ocb_rankings.json" \
  "${BASELINE}" "${O1}" | tee "${BUILD}/ocb_compare.out"
"${BUILD}/tools/ocb_compare" --json "${BUILD}/churn_rankings.json" \
  "${CHURN_BASELINE}" "${C1}" | tee "${BUILD}/churn_compare.out"
"${BUILD}/tools/ocb_compare" --json "${BUILD}/dyn_rankings.json" \
  "${D1}" "${C1}" | tee "${BUILD}/dyn_compare.out"

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
# test suite, one brief run of every component micro-benchmark, and the
# fig5.1, contention, OCB, OCT dynamic and OCB churn scenarios at
# jobs=4 (thread pool included). Any UB report halts the run, and the
# instrumented output must still match the committed baselines byte for
# byte. The contention scenario is the only committed one with strict 2PL
# on, so it runs the recycled lock and latch entries and the pooled
# coroutine frames (poisoned while pooled) under the sanitizers. The OCB
# scenario's cyclic configuration graphs run the placement audit's
# raw-array walk stack and its strongly-connected-component condensation.
# The OCT dynamic scenario builds 48 MB databases into plan-sized edge runs
# carved back to back at the arena tail, where an off-by-one would write
# into the next object's run, and runs the static reorganisation and the
# DSTC/OPCF re-clustering paths. The OCB churn scenario deletes objects
# while DSTC/OPCF re-cluster them: candidate scoring reads edge targets
# without a liveness probe, so an edge left dangling by a delete would show
# there first.
SANBUILD="${ROOT}/build-sanitize"
cmake -S "${ROOT}" -B "${SANBUILD}" -DSEMCLUST_SANITIZE="address|undefined"
cmake --build "${SANBUILD}" -j "$(nproc)"
export UBSAN_OPTIONS=halt_on_error=1
ctest --test-dir "${SANBUILD}" --output-on-failure -j "$(nproc)"
"${SANBUILD}/bench/bench_micro_components" --benchmark_min_time=0.01 \
  > "${SANBUILD}/bench_micro_components.out"
SAN1="${SANBUILD}/scenario_jobs4.json"
rm -f "${SAN1}"
"${SANBUILD}/tools/semclust_run" --jobs 4 --json "${SAN1}" "${SCENARIO}" \
  > "${SANBUILD}/scenario_jobs4.out"
if ! diff <(strip_wall "${SAN1}") <(strip_wall "${BASELINE}"); then
  echo "FAIL: sanitized fig5.1 scenario differs from the baseline" >&2
  exit 1
fi
SANCC="${SANBUILD}/cc_jobs4.json"
rm -f "${SANCC}"
"${SANBUILD}/tools/semclust_run" --jobs 4 --json "${SANCC}" "${CC_SCENARIO}" \
  > "${SANBUILD}/cc_jobs4.out"
if ! diff <(strip_wall "${SANCC}") <(strip_wall "${CC_BASELINE}"); then
  echo "FAIL: sanitized contention scenario differs from the baseline" >&2
  exit 1
fi
SANOCB="${SANBUILD}/ocb_jobs4.json"
rm -f "${SANOCB}"
"${SANBUILD}/tools/semclust_run" --jobs 4 --json "${SANOCB}" \
  "${OCB_SCENARIO}" > "${SANBUILD}/ocb_jobs4.out"
if ! diff <(strip_wall "${SANOCB}") <(strip_wall "${OCB_BASELINE}"); then
  echo "FAIL: sanitized OCB scenario differs from the baseline" >&2
  exit 1
fi
SANDYN="${SANBUILD}/oct_dyn_jobs4.json"
rm -f "${SANDYN}"
"${SANBUILD}/tools/semclust_run" --jobs 4 --json "${SANDYN}" \
  "${OCT_DYN_SCENARIO}" > "${SANBUILD}/oct_dyn_jobs4.out"
if ! diff <(strip_wall "${SANDYN}") <(strip_wall "${OCT_DYN_BASELINE}"); then
  echo "FAIL: sanitized OCT dynamic scenario differs from the baseline" >&2
  exit 1
fi
SANCHURN="${SANBUILD}/ocb_churn_jobs4.json"
rm -f "${SANCHURN}"
"${SANBUILD}/tools/semclust_run" --jobs 4 --json "${SANCHURN}" \
  "${CHURN_SCENARIO}" > "${SANBUILD}/ocb_churn_jobs4.out"
if ! diff <(strip_wall "${SANCHURN}") <(strip_wall "${CHURN_BASELINE}"); then
  echo "FAIL: sanitized OCB churn scenario differs from the baseline" >&2
  exit 1
fi

# ThreadSanitizer job (cannot share a build with ASan): the thread pool and
# the parallel experiment runner -- exec_test, then the fig5.1 and
# contention scenarios at jobs=4 (the latter runs every worker thread's
# own coroutine-frame pool). Any data race report halts the run, and the
# instrumented output must still match the committed baselines byte for
# byte.
TSANBUILD="${ROOT}/build-tsan"
cmake -S "${ROOT}" -B "${TSANBUILD}" -DSEMCLUST_SANITIZE=thread
cmake --build "${TSANBUILD}" -j "$(nproc)" --target exec_test semclust_run
export TSAN_OPTIONS=halt_on_error=1
ctest --test-dir "${TSANBUILD}" -R '^exec_test$' --output-on-failure
TSAN1="${TSANBUILD}/scenario_jobs4.json"
rm -f "${TSAN1}"
"${TSANBUILD}/tools/semclust_run" --jobs 4 --json "${TSAN1}" "${SCENARIO}" \
  > "${TSANBUILD}/scenario_jobs4.out"
if ! diff <(strip_wall "${TSAN1}") <(strip_wall "${BASELINE}"); then
  echo "FAIL: TSan fig5.1 scenario differs from the baseline" >&2
  exit 1
fi
TSANCC="${TSANBUILD}/cc_jobs4.json"
rm -f "${TSANCC}"
"${TSANBUILD}/tools/semclust_run" --jobs 4 --json "${TSANCC}" \
  "${CC_SCENARIO}" > "${TSANBUILD}/cc_jobs4.out"
if ! diff <(strip_wall "${TSANCC}") <(strip_wall "${CC_BASELINE}"); then
  echo "FAIL: TSan contention scenario differs from the baseline" >&2
  exit 1
fi

echo "ci: ok (tests passed, jobs=1 == jobs=4, scenario == bench, OCT/OCB/churn/shard/dyn/contention baselines exact, committed baselines byte-identical, structure sharding beats hash, cc engages under load, Release build clean, ASan/UBSan clean, TSan clean)"
