#!/usr/bin/env python3
"""Tables of the host-time benchmark's saved results, in Markdown.

usage: python3 perfbench/summarize.py [RESULTS_DIR]

Reads every result perfbench/run.py saved (default .bench_build/results/)
and prints, per workload:
  - each end-to-end metric over the --trace 0 runs: median, first and third
    quartile, and the quartile spread as a share of the median;
  - each per-layer metric over the --trace 1 runs: median;
  - one share table, one row per workload: the mean seconds of each layer
    over the --trace 1 runs as a share of the mean traced wall (means, so
    the rows still add up to the traced wall).
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(results_dir):
    runs = defaultdict(list)
    for path in sorted(Path(results_dir).glob("*.json")):
        result = json.loads(path.read_text())
        runs[(result["workload"], result["trace"])].append(result)
    return runs


def host_line(runs):
    hosts = {json.dumps(r["host"], sort_keys=True)
             for results in runs.values() for r in results}
    return "; ".join(
        ", ".join(f"{k} {v}" for k, v in json.loads(h).items())
        for h in sorted(hosts))


def end_to_end_table(runs):
    lines = ["| workload | metric | runs | median | Q1 | Q3 | spread |",
             "|---|---|---|---|---|---|---|"]
    for workload in run.WORKLOADS:
        results = runs.get((workload, 0), [])
        for name, unit in run.END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in results]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            lines.append(f"| {workload} | {name} ({unit}) | {len(values)} "
                         f"| {med:.4f} | {q1:.4f} | {q3:.4f} "
                         f"| {(q3 - q1) / med:.2%} |")
    return lines


def per_layer_table(runs):
    present = [w for w in run.WORKLOADS if runs.get((w, 1))]
    lines = ["| metric | unit | " + " | ".join(present) + " |",
             "|---|---|" + "---|" * len(present)]
    for name, unit in run.PER_LAYER.items():
        cells = []
        for workload in present:
            values = [r["metrics"][name]["value"] for r in runs[(workload, 1)]]
            cells.append(f"{statistics.median(values):.6g}")
        lines.append(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    return lines


def share_table(runs):
    lines = ["| workload | runs | traced wall (s) | " +
             " | ".join(run.SHARE_ROWS) + " |",
             "|---|---|---|" + "---|" * len(run.SHARE_ROWS)]
    for workload in run.WORKLOADS:
        results = runs.get((workload, 1), [])
        if not results:
            continue
        wall = statistics.fmean(sum(v for v in r["shares"].values()
                                    if v is not None) for r in results)
        cells = []
        for row in run.SHARE_ROWS:
            values = [r["shares"][row] for r in results]
            if any(v is None for v in values):
                cells.append("absent")
            else:
                cells.append(f"{statistics.fmean(values) / wall:.1%}")
        lines.append(f"| {workload} | {len(results)} | {wall:.3f} | " +
                     " | ".join(cells) + " |")
    return lines


def main(argv):
    results_dir = argv[1] if len(argv) > 1 else run.RESULTS_DIR
    runs = load(results_dir)
    if not runs:
        print(f"summarize: no results in {results_dir}", file=sys.stderr)
        return 1
    print(f"Host: {host_line(runs)}\n")
    for title, table in (("End-to-end metrics (--trace 0)", end_to_end_table),
                         ("Per-layer metrics (--trace 1, medians)",
                          per_layer_table),
                         ("Share of traced wall (--trace 1, means)",
                          share_table)):
        print(f"### {title}\n")
        print("\n".join(table(runs)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
