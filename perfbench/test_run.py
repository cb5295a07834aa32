"""Tests of the host-time benchmark's own logic (no build needed).

Run from the checkout root: python3 -m unittest discover -s perfbench
"""

import copy
import json
import math
import re
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def plain_pass(index, cell_walls):
    return {"pass": index, "kind": "plain", "wall_s": sum(cell_walls) + 0.01,
            "cell_wall_s": cell_walls,
            "cell_setup_s": [0.7 * w for w in cell_walls],
            "cell_run_s": [0.25 * w for w in cell_walls]}


def traced_pass(index, builder="workload", static_reorg=False):
    return {"pass": index, "kind": "traced", "wall_s": 5.5,
            "builder": builder, "static_reorg": static_reorg,
            "build_s": 2.0, "static_reorg_s": 0.9 if static_reorg else 0.0,
            "setup_s": 3.2 if static_reorg else 2.3, "sim_s": 0.3,
            "audit_s": 0.5, "report_s": 0.01, "audit_samples": 45,
            "audit_configurations": 1000, "build_objects": 9000,
            "build_placements": 9000, "objects": 9100, "pages": 800,
            "events": 40000, "txns": 600, "buffer_hits": 300,
            "buffer_fixes": 700, "io_physical": 500, "txlog_records": 900,
            "cc_aborts": 3, "cc_attempts": 603, "mismatched_cells": []}


class CountFailuresTest(unittest.TestCase):
    def setUp(self):
        self.reference = run.load_jsonl(
            run.ROOT / run.WORKLOADS["ocb_locality"].reference)
        self.records = self.reference + self.reference  # two passes

    def test_reference_matches_itself(self):
        self.assertEqual(
            run.count_failures(self.records, self.reference), (30, 0))

    def test_perturbed_reference_fails_one_cell_in_each_pass(self):
        perturbed = copy.deepcopy(self.reference)
        value = perturbed[4]["mean_response_s"]
        perturbed[4]["mean_response_s"] = math.nextafter(value, math.inf)
        attempted, failed = run.count_failures(self.records, perturbed)
        self.assertEqual(failed / attempted, 1 / len(self.reference))

    def test_wall_clock_field_is_ignored(self):
        shifted = copy.deepcopy(self.records)
        for record in shifted:
            record["elapsed_wall_s"] += 1.0
        self.assertEqual(run.count_failures(shifted, self.reference),
                         (30, 0))

    def test_traced_record_still_compares_the_final_placement(self):
        perturbed = copy.deepcopy(self.reference)
        perturbed[2]["series"][-1]["placement"]["colocated"] += 1
        _, failed = run.count_failures(self.records, perturbed,
                                       traced_passes={1})
        self.assertEqual(failed, 2)

    def test_rebuild_mismatch_fails_the_cell(self):
        _, failed = run.count_failures(self.records, self.reference,
                                       traced_passes={1},
                                       mismatched={(1, 7)})
        self.assertEqual(failed, 1)

    def test_crash_counts_the_running_cell(self):
        self.assertEqual(
            run.count_failures(self.records[:20], self.reference,
                               crashed=True), (21, 1))


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_every_name_uses_allowed_characters(self):
        names = (list(run.END_TO_END) + list(run.PER_LAYER) +
                 list(run.SHARE_ROWS) + list(run.WORKLOADS) +
                 [m["name"] for key in ("end_to_end", "per_layer")
                  for m in self.spec[key]] +
                 [w["name"] for w in self.spec["workloads"]])
        for name in names:
            self.assertRegex(name, NAME)

    def test_benchmark_json_declares_what_run_py_reports(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]},
            run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_each_mode_reports_exactly_its_metrics(self):
        plain = [plain_pass(0, [1.0, 2.0]), plain_pass(2, [1.2, 1.9])]
        closing = {"peak_rss_mb": 40.0}
        self.assertEqual(set(run.end_to_end_metrics(plain, closing)),
                         set(run.END_TO_END))
        micro = dict.fromkeys(run.MICRO.values(), 100.0)
        metrics, _, _ = run.per_layer_metrics(plain, [traced_pass(1)], micro)
        self.assertEqual(set(metrics), set(run.PER_LAYER))


class ShareTableTest(unittest.TestCase):
    def check_rows_add_up(self, traced):
        plain = [plain_pass(0, [1.5, 2.1]), plain_pass(2, [1.4, 2.4])]
        rows, traced_wall = run.layer_times(plain, traced)
        total = sum(v for v in rows.values() if v is not None)
        self.assertTrue(math.isclose(total, traced_wall, rel_tol=1e-12))
        return rows

    def test_rows_add_up_to_traced_wall(self):
        rows = self.check_rows_add_up([traced_pass(1), traced_pass(3)])
        self.assertIsNone(rows["ocb.build"])
        self.assertIsNone(rows["cluster.static_reorg"])

    def test_rows_add_up_with_static_reorg(self):
        rows = self.check_rows_add_up([traced_pass(1, static_reorg=True)])
        self.assertEqual(rows["cluster.static_reorg"], 0.9)
        self.assertTrue(math.isclose(rows["core.setup_other"], 0.3))

    def test_ocb_build_replaces_workload_build(self):
        rows = self.check_rows_add_up([traced_pass(1, builder="ocb")])
        self.assertIsNone(rows["workload.build"])
        self.assertEqual(rows["ocb.build"], 2.0)

    def test_share_table_marks_absent_layers(self):
        rows, wall = run.layer_times([plain_pass(0, [1.0])],
                                     [traced_pass(1)])
        text = "\n".join(run.share_table(rows, wall))
        self.assertRegex(text, r"cluster\.static_reorg +absent")
        self.assertRegex(text, r"ocb\.build +absent")


if __name__ == "__main__":
    unittest.main()
