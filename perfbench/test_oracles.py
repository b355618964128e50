#!/usr/bin/env python3
"""Tests of the benchmark itself: every oracle fires on a planted defect,
clean runs pass, and each run reports exactly the metrics BENCHMARK.json
names, with their units.

    python3 perfbench/test_oracles.py

Run from the repository root; builds the program first (see run.py).
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = 1
SEED = 7


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("build failed")
        cls.spec = load_spec()

    def run_workload(self, workload, trace=0, fault=None):
        code, out = run.run_binary(self.binary, workload, SEED, SECONDS,
                                   trace, fault)
        lines = out.strip().splitlines()
        self.assertTrue(lines, "no output from %s" % workload)
        return code, json.loads(lines[-1])

    def assert_caught(self, workload, fault, count_failed=True):
        code, result = self.run_workload(workload, fault=fault)
        self.assertNotEqual(code, 0, fault)
        self.assertFalse(result["correct"], fault)
        if count_failed:
            self.assertGreater(result["failed"], 0, fault)

    # --- each oracle fires ---

    def test_join_disagreeing_with_spades_is_caught(self):
        self.assert_caught("spec_query", "join-other-action")

    def test_readers_join_disagreeing_with_spades_is_caught(self):
        self.assert_caught("spec_query", "join-other-data")

    def test_save_that_drops_its_writes_is_caught(self):
        self.assert_caught("spec_edit", "drop-save")

    def test_version_restore_that_stays_back_is_caught(self):
        self.assert_caught("spec_edit", "restore-stays-back")

    def test_growing_database_is_caught(self):
        self.assert_caught("spec_edit", "grow", count_failed=False)

    def test_page_on_stale_snapshot_is_caught(self):
        self.assert_caught("team_checkin", "stale-snapshot")

    def test_inconsistent_master_is_caught(self):
        self.assert_caught("team_checkin", "corrupt-master",
                           count_failed=False)

    # --- clean runs pass and report the declared metrics ---

    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_clean_runs_report_end_to_end_metrics(self):
        for w in self.spec["workloads"]:
            code, result = self.run_workload(w["name"])
            self.assertEqual(code, 0, w["name"])
            self.assertTrue(result["correct"], w["name"])
            self.assertEqual(result["failed"], 0, w["name"])
            self.assertGreater(result["attempted"], 0, w["name"])
            self.check_metrics(result, self.spec["end_to_end"])
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, (w["name"], name))

    def test_traced_runs_report_per_layer_metrics(self):
        values = {}
        for w in self.spec["workloads"]:
            code, result = self.run_workload(w["name"], trace=1)
            self.assertEqual(code, 0, w["name"])
            self.assertTrue(result["correct"], w["name"])
            self.check_metrics(result, self.spec["per_layer"])
            values[w["name"]] = {k: v["value"]
                                 for k, v in result["metrics"].items()}
        # Warm plan cache on spec_query, cold snapshots on team_checkin.
        self.assertGreater(values["spec_query"]["planner.cache_hit_ratio"],
                           0.9)
        self.assertLess(values["team_checkin"]["planner.cache_hit_ratio"],
                        0.1)
        # The store is larger than the buffer pool.
        self.assertGreater(values["spec_edit"]["storage.evictions_per_save"],
                           0)
        # Every layer a workload exercises reports a non-zero figure.
        for workload, metric in (("spec_query", "query.execute_us"),
                                 ("spec_query", "spades.nav_us"),
                                 ("spec_edit", "core.save_us"),
                                 ("spec_edit", "core.load_ms"),
                                 ("spec_edit", "storage.checkpoint_ms"),
                                 ("spec_edit", "version.create_us"),
                                 ("spec_edit", "version.select_us"),
                                 ("spec_edit",
                                  "version.stored_bytes_per_version"),
                                 ("team_checkin", "multiuser.checkout_us"),
                                 ("team_checkin", "core.audit_ms"),
                                 ("team_checkin",
                                  "multiuser.checkin_growth")):
            self.assertGreater(values[workload][metric], 0,
                               (workload, metric))
        # One snapshot per commit, and disjoint roots never conflict.
        self.assertEqual(values["team_checkin"]["server.publishes_per_commit"],
                         1)
        self.assertEqual(
            values["team_checkin"]["multiuser.lock_conflicts_per_commit"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
