#!/usr/bin/env python3
"""Host-time benchmark of the semclust simulator.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
perfbench/CMakeLists.txt into .bench_build/ (the simulator's libraries plus
perfbench_driver, semclust_run and bench_micro_components); later runs only
check that the build is current.

Each workload is one committed scenario, run serially in one process
(perfbench_driver) in passes over its whole cell grid until S seconds have
passed. The seed replaces the scenario's base seed, so each seed is a new
database and transaction stream; every cell still derives its own seed with
ExperimentRunner::CellSeed, as `semclust_run` does.

Correctness: every cell of every pass must equal its reference record at
rtol 0, `elapsed_wall_s` aside. At seed 1 the reference is the committed
JSONL of the scenario. At any other seed it is `semclust_run --jobs N` on
the same scenario and seed, so each run also checks that the serial and the
parallel paths agree. A cell that crashes or differs counts as failed.

--trace 0 prints the end-to-end metrics, each a sum over cells of one
statistic of that cell's times over the run's passes:
  wall_s       seconds to run every cell and emit its JSONL (fastest pass)
  setup_s      seconds inside the EngineeringDbModel constructor (fastest pass)
  run_s        seconds inside EngineeringDbModel::Run() (fastest pass)
  peak_rss_mb  the driver's peak resident memory

--trace 1 alternates plain and traced passes and prints the per-layer
metrics, a share table of the traced wall, and three component
micro-benchmarks (see driver.cc for what a traced pass times).

Every run also writes its result, with the host (nproc, compiler, build
type, commit), to .bench_build/results/; perfbench/summarize.py turns those
files into the tables of perfbench/RESULTS.md.

The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Tests of the benchmark itself: python3 -m unittest discover -s perfbench
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
TARGETS = ("perfbench_driver", "semclust_run", "bench_micro_components")

# The seed the committed reference JSONL files were generated with.
REFERENCE_SEED = 1
# Every run must end within this many seconds (the first also builds).
RUN_LIMIT_S = 170


@dataclass(frozen=True)
class Workload:
    scenario: str   # scenario file, relative to the checkout root
    reference: str  # committed JSONL at REFERENCE_SEED


# Three workloads, so that each run can be long enough for the per-cell
# fastest pass to steady wall_s on a shared host. The paper's headline grid
# (fig5_1_fast) is not one of them: like oct_dyn it is dominated by the
# DbBuilder build, but its passes take 4 to 6 s on a loaded host, and with
# the three or four of them a 20 s run holds, two sets of ten runs spread
# by 25% and 34% of their median wall_s.
WORKLOADS = {
    # 27 cells; the build, then the only workload that runs StaticClusterer.
    "oct_dyn": Workload("bench/scenarios/oct_dyn.scenario.json",
                        "BENCH_oct_dyn.jsonl"),
    # 15 cells on a 6000-instance OCB graph; the placement audit dominates.
    "ocb_locality": Workload("bench/scenarios/ocb_small.scenario.json",
                             "BENCH_ocb_small.jsonl"),
    # 6 long strict-2PL cells; the measured simulation dominates.
    "oct_contention_long": Workload(
        "perfbench/scenarios/oct_contention_long.scenario.json",
        "perfbench/reference/oct_contention_long.jsonl"),
}

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit
    "db.build_s": "s",
    "db.build_objects_per_s": "1/s",
    "cluster.build_placements": "count",
    "cluster.score_ns": "ns",
    "core.setup_s": "s",
    "core.setup_other_s": "s",
    "core.sim_s": "s",
    "sim.events_per_s": "1/s",
    "core.txns_per_s": "1/s",
    "buffer.fix_ns": "ns",
    "sim.calendar_hold_ns": "ns",
    "obs.audit_s": "s",
    "obs.audit_ms_per_sample": "ms",
    "core.report_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "objmodel.objects": "count",
    "storage.pages": "count",
    "sim.events": "count",
    "buffer.fixes": "count",
    "buffer.hit_ratio": "ratio",
    "io.physical": "count",
    "txlog.records": "count",
    "cc.abort_rate": "ratio",
    "obs.audit_configurations": "count",
}

# google-benchmark name -> per-layer metric (bench/bench_micro_components.cc).
MICRO = {
    "BM_ScoreCandidates": "cluster.score_ns",
    "BM_BufferFix/0": "buffer.fix_ns",  # LRU
    "BM_EventCalendarHold/1024": "sim.calendar_hold_ns",
}

# Rows of the share table: the layers a traced pass times, then the two
# remainders that make the rows add up to the traced wall.
SHARE_ROWS = (
    "workload.build", "ocb.build", "cluster.static_reorg",
    "core.setup_other", "core.sim", "obs.audit", "core.report",
    "unattributed", "trace.overhead",
)


class BenchError(Exception):
    """A run that cannot produce a result (bad checkout, build failure)."""


def clean_env():
    """The environment minus every SEMCLUST_* knob, so that no caller
    setting (trace files, job counts, seeds) changes what is measured."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SEMCLUST_")}


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build(deadline):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(jobs()),
                  "--target", *TARGETS])
    with open(log_path, "a") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=clean_env(),
                                  timeout=max(1, deadline - time.monotonic()))
            if done.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(log: {log_path})")


def load_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def canonical(record, keep_final_placement_only):
    """The record as compared: no wall-clock field, and, for a traced
    record, no placement audit on samples before the last (a traced pass
    audits only the final state)."""
    out = {k: v for k, v in record.items() if k != "elapsed_wall_s"}
    if keep_final_placement_only and "series" in out:
        series = [dict(s) for s in out["series"]]
        for sample in series[:-1]:
            sample.pop("placement", None)
        out["series"] = series
    return out


def count_failures(records, reference, traced_passes=(), mismatched=(),
                   crashed=False):
    """Returns (attempted, failed) over every emitted record.

    Record i is cell i % len(reference) of pass i // len(reference).
    `traced_passes` holds the indices of traced passes; `mismatched` holds
    (pass, cell) pairs whose rebuild disagreed with the model. A crash
    counts the cell that was running as attempted and failed."""
    cells = len(reference)
    failed = 0
    for i, record in enumerate(records):
        pass_index, cell = divmod(i, cells)
        traced = pass_index in traced_passes
        if (canonical(record, traced) != canonical(reference[cell], traced)
                or (pass_index, cell) in mismatched):
            failed += 1
    attempted = len(records)
    if crashed:
        attempted += 1
        failed += 1
    return attempted, failed


def reference_records(workload, seed, scratch, deadline):
    if seed == REFERENCE_SEED:
        return load_jsonl(ROOT / workload.reference), workload.reference
    out = scratch / "reference.jsonl"
    out.unlink(missing_ok=True)
    cmd = [str(BUILD_DIR / "semclust_run"), "--jobs", str(jobs()),
           "--seed", str(seed), "--json", str(out),
           str(ROOT / workload.scenario)]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, env=clean_env(),
                   check=True, timeout=max(1, deadline - time.monotonic()))
    return load_jsonl(out), f"semclust_run --jobs {jobs()}"


def run_driver(workload, seed, seconds, traced, scratch, deadline):
    """Returns (passes, closing, records, crashed)."""
    jsonl = scratch / "cells.jsonl"
    cmd = [str(BUILD_DIR / "perfbench_driver"),
           "--scenario", str(ROOT / workload.scenario),
           "--seed", str(seed), "--seconds", str(seconds),
           "--mode", "traced" if traced else "plain", "--jsonl", str(jsonl)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                          text=True,
                          timeout=max(1, deadline - time.monotonic()))
    lines = [json.loads(line) for line in done.stdout.splitlines() if line]
    passes = [line for line in lines if "pass" in line]
    closing = next((line for line in lines if "peak_rss_mb" in line), None)
    records = load_jsonl(jsonl) if jsonl.exists() else []
    return passes, closing, records, done.returncode != 0 or closing is None


def run_micro(deadline):
    pattern = "^(" + "|".join(MICRO) + ")$"
    cmd = [str(BUILD_DIR / "bench_micro_components"),
           f"--benchmark_filter={pattern}", "--benchmark_format=json",
           "--benchmark_min_time=0.05", "--benchmark_repetitions=5",
           "--benchmark_report_aggregates_only=true"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=clean_env(),
                          check=True, text=True,
                          timeout=max(1, deadline - time.monotonic()))
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    out = {}
    for bench in json.loads(done.stdout)["benchmarks"]:
        if bench.get("aggregate_name") == "median":
            metric = MICRO.get(bench["run_name"])
            if metric:
                out[metric] = bench["real_time"] * scale[bench["time_unit"]]
    missing = set(MICRO.values()) - set(out)
    if missing:
        raise BenchError(f"micro-benchmarks missing: {sorted(missing)}")
    return out


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def per_cell(passes, key, pick):
    """Sum over cells of pick(that cell's times over the passes)."""
    return sum(pick(cell) for cell in zip(*(p[key] for p in passes)))


def end_to_end_metrics(plain, closing):
    """Each time takes each cell's fastest pass: noise on a shared host
    only ever slows a cell down, and comes in bursts several seconds long
    that a median over a run's passes does not drop. The set-up (the
    database build) suffers most: over ten 40 s runs per workload, the sum
    of per-cell medians spread by 21-32% of its median, the sum of per-cell
    fastest set-ups by 8-13%."""
    return {
        "wall_s": per_cell(plain, "cell_wall_s", min),
        "setup_s": per_cell(plain, "cell_setup_s", min),
        "run_s": per_cell(plain, "cell_run_s", min),
        "peak_rss_mb": closing["peak_rss_mb"],
    }


def layer_times(plain, traced):
    """Median seconds per share-table row (None = the layer did not run).

    The layers are medians over traced passes; `unattributed` is the plain
    wall no layer accounts for (teardown, glue) and `trace.overhead` is the
    traced wall minus the plain wall, so the rows add up to the median
    traced wall."""
    first = traced[0]
    build = median_of(traced, "build_s")
    rows = dict.fromkeys(SHARE_ROWS)
    rows["ocb.build" if first["builder"] == "ocb" else "workload.build"] = build
    if first["static_reorg"]:
        rows["cluster.static_reorg"] = median_of(traced, "static_reorg_s")
    rows["core.setup_other"] = statistics.median(
        p["setup_s"] - p["build_s"] - p["static_reorg_s"] for p in traced)
    rows["core.sim"] = median_of(traced, "sim_s")
    rows["obs.audit"] = median_of(traced, "audit_s")
    rows["core.report"] = median_of(traced, "report_s")
    plain_wall = median_of(plain, "wall_s")
    traced_wall = median_of(traced, "wall_s")
    layers = sum(v for k, v in rows.items() if v is not None)
    rows["unattributed"] = plain_wall - layers
    rows["trace.overhead"] = traced_wall - plain_wall
    return rows, traced_wall


def per_layer_metrics(plain, traced, micro):
    rows, traced_wall = layer_times(plain, traced)
    counts = traced[0]  # counts repeat exactly from pass to pass
    build = median_of(traced, "build_s")
    sim = rows["core.sim"]
    fixes = counts["buffer_fixes"]
    attempts = counts["cc_attempts"]
    metrics = {
        "db.build_s": build,
        "db.build_objects_per_s": counts["build_objects"] / build,
        "cluster.build_placements": counts["build_placements"],
        "core.setup_s": median_of(traced, "setup_s"),
        "core.setup_other_s": rows["core.setup_other"],
        "core.sim_s": sim,
        "sim.events_per_s": counts["events"] / sim,
        "core.txns_per_s": counts["txns"] / sim,
        "obs.audit_s": rows["obs.audit"],
        "obs.audit_ms_per_sample":
            1000.0 * rows["obs.audit"] / max(1, counts["audit_samples"]),
        "core.report_s": rows["core.report"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": rows["trace.overhead"],
        "objmodel.objects": counts["objects"],
        "storage.pages": counts["pages"],
        "sim.events": counts["events"],
        "buffer.fixes": fixes,
        "buffer.hit_ratio": counts["buffer_hits"] / fixes if fixes else 0.0,
        "io.physical": counts["io_physical"],
        "txlog.records": counts["txlog_records"],
        "cc.abort_rate": counts["cc_aborts"] / attempts if attempts else 0.0,
        "obs.audit_configurations": counts["audit_configurations"],
    }
    metrics.update(micro)
    return metrics, rows, traced_wall


def share_table(rows, traced_wall):
    lines = [f"{'layer':<22} {'seconds':>12} {'share':>8}"]
    for name in SHARE_ROWS:
        value = rows[name]
        if value is None:
            lines.append(f"{name:<22} {'absent':>12} {'':>8}")
        else:
            lines.append(f"{name:<22} {value:>12.6f} "
                         f"{value / traced_wall:>8.2%}")
    lines.append(f"{'traced wall':<22} {traced_wall:>12.6f} {1:>8.2%}")
    return lines


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    traced = args.trace == 1
    try:
        build(started + 900)
        # The time limit of a run counts from here, after any first build.
        deadline = time.monotonic() + RUN_LIMIT_S
        scratch = ROOT / ".bench_build" / "runs" / \
            f"{args.workload}-seed{args.seed}-trace{args.trace}"
        scratch.mkdir(parents=True, exist_ok=True)
        reference, reference_from = reference_records(
            workload, args.seed, scratch, deadline)
        passes, closing, records, crashed = run_driver(
            workload, args.seed, args.seconds, traced, scratch, deadline)
        micro = run_micro(deadline) if traced else {}
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    plain = [p for p in passes if p["kind"] == "plain"]
    traced_passes = [p for p in passes if p["kind"] == "traced"]
    mismatched = {(p["pass"], c) for p in traced_passes
                  for c in p["mismatched_cells"]}
    attempted, failed = count_failures(
        records, reference, {p["pass"] for p in traced_passes}, mismatched,
        crashed)
    if not plain or (traced and not traced_passes) or closing is None:
        print(f"perfbench: the driver stopped before a whole pass "
              f"({attempted} cells attempted, {failed} failed)",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload}: {workload.scenario}, seed {args.seed}, "
          f"{closing['cells']} cells, {len(passes)} passes "
          f"({len(traced_passes)} traced), reference: {reference_from}")
    host = {"nproc": os.cpu_count(), "compiler": closing["compiler"],
            "build_type": closing["build_type"], "commit": commit()}
    print("host: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    print(f"failed_cell_frac {failed / attempted:.6f} "
          f"({failed} of {attempted} cells)")
    rows = None
    if traced:
        metrics, rows, traced_wall = per_layer_metrics(
            plain, traced_passes, micro)
        names = PER_LAYER
        print("\n".join(share_table(rows, traced_wall)))
    else:
        metrics = end_to_end_metrics(plain, closing)
        names = END_TO_END
    for name, unit in names.items():
        print(f"{name:<26} {metrics[name]:>18.6f} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    saved = dict(result, workload=args.workload, seed=args.seed,
                 trace=args.trace, seconds=args.seconds, host=host,
                 passes=passes, shares=rows)
    (RESULTS_DIR / f"{scratch.name}.json").write_text(json.dumps(saved))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
