#!/usr/bin/env python3
"""Unit tests of tools/ab.py's statistics, bound logic and output parsing.

    python3 tools/test_ab.py

Needs no build and runs no benchmark.
"""

import io
import json
import os
import sys
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402


def run_result(metrics, correct=True, failed=0, setups="0.06 0.11"):
    """An (env, result) pair as parse_output returns it."""
    return ({"setup_s_each": setups},
            {"correct": correct, "attempted": 10, "failed": failed,
             "metrics": {k: {"value": v, "unit": "ms"}
                         for k, v in metrics.items()}})


class StatisticsTest(unittest.TestCase):
    def test_quantiles_interpolate_linearly(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(ab.median(values), 2.5)
        self.assertEqual(ab.quantile(values, 0.25), 1.75)
        self.assertEqual(ab.quantile(values, 0.75), 3.25)
        self.assertEqual(ab.iqr(values), 1.5)

    def test_single_value_has_no_spread(self):
        self.assertEqual(ab.median([7.0]), 7.0)
        self.assertEqual(ab.iqr([7.0]), 0.0)

    def test_ratio_is_change_over_parent_medians(self):
        self.assertAlmostEqual(ab.ratio([1.0, 1.2, 1.4], [2.0, 2.4, 2.8]),
                               0.5)
        self.assertIsNone(ab.ratio([1.0], [0.0]))

    def test_wins_follow_the_better_direction(self):
        pairs = [(2.0, 1.0), (2.0, 3.0), (2.0, 2.0), (1.0, 0.5)]
        self.assertEqual(ab.wins(pairs, "lower"), 2)
        self.assertEqual(ab.wins(pairs, "higher"), 1)

    def test_run_order_alternates(self):
        self.assertEqual(ab.run_order(0), ("parent", "change"))
        self.assertEqual(ab.run_order(1), ("change", "parent"))
        self.assertEqual(ab.run_order(2), ("parent", "change"))


class BoundTest(unittest.TestCase):
    def test_lower_is_better_flags_growth_past_the_bound(self):
        self.assertFalse(ab.beyond_bound(1.25, "lower", 0.25))
        self.assertTrue(ab.beyond_bound(1.26, "lower", 0.25))
        self.assertFalse(ab.beyond_bound(0.5, "lower", 0.25))

    def test_higher_is_better_flags_loss_past_the_bound(self):
        self.assertFalse(ab.beyond_bound(0.75, "higher", 0.25))
        self.assertTrue(ab.beyond_bound(0.74, "higher", 0.25))
        self.assertFalse(ab.beyond_bound(2.0, "higher", 0.25))

    def test_no_bound_or_no_ratio_never_flags(self):
        self.assertFalse(ab.beyond_bound(10.0, "lower", None))
        self.assertFalse(ab.beyond_bound(None, "lower", 0.1))

    def test_clear_gain_needs_more_than_the_parent_spread(self):
        parent = [2.0, 2.2, 2.4, 2.6]  # median 2.3, IQR 0.3
        self.assertTrue(ab.clear_gain(parent, [1.9, 1.9, 2.0], "lower"))
        self.assertFalse(ab.clear_gain(parent, [2.1, 2.1, 2.1], "lower"))
        self.assertTrue(ab.clear_gain(parent, [2.7, 2.8], "higher"))
        self.assertFalse(ab.clear_gain(parent, [1.0], "higher"))

    def test_metric_specs_read_benchmark_json(self):
        with open(os.path.join(ab.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        end_to_end = ab.metric_specs(spec, trace=0)
        self.assertEqual(end_to_end["ops_per_s"], ("higher", 0.25))
        self.assertEqual(end_to_end["peak_rss_mb"], ("lower", 0.1))
        per_layer = ab.metric_specs(spec, trace=1)
        self.assertEqual(per_layer["query.scan_plan_share"][1], None)


class ReportTest(unittest.TestCase):
    def test_report_flags_and_returns_crossed_bounds(self):
        specs = {"op_p50_ms": ("lower", 0.25), "ops_per_s": ("higher", 0.25)}
        runs = [{"parent": run_result({"op_p50_ms": 2.0, "ops_per_s": 100}),
                 "change": run_result({"op_p50_ms": 1.0, "ops_per_s": 50})}
                for _ in range(3)]
        out = io.StringIO()
        with redirect_stdout(out):
            crossed = ab.report("spec_query", runs, specs)
        self.assertEqual(crossed, ["ops_per_s"])
        text = out.getvalue()
        op_line = [l for l in text.splitlines() if l.startswith("op_p50_ms")]
        self.assertIn("0.500", op_line[0])
        self.assertIn(" 3/3 ", op_line[0])
        self.assertIn("CLEAR", op_line[0])
        self.assertIn("BOUND", [l for l in text.splitlines()
                                if l.startswith("ops_per_s")][0])
        self.assertIn("pair 3: 0.06 0.11", text)


class ParseTest(unittest.TestCase):
    def test_env_and_result_lines(self):
        stdout = ('building...\n{"env": {"setup_s_each": "0.1 0.2"}}\n'
                  '{"correct": true, "attempted": 5, "failed": 0, '
                  '"metrics": {}}\n')
        env, result = ab.parse_output(stdout)
        self.assertEqual(env["setup_s_each"], "0.1 0.2")
        self.assertTrue(result["correct"])

    def test_result_without_env_line(self):
        env, result = ab.parse_output('{"correct": false}\n')
        self.assertEqual(env, {})
        self.assertFalse(result["correct"])

    def test_empty_output_is_an_error(self):
        with self.assertRaises(ValueError):
            ab.parse_output("\n")


if __name__ == "__main__":
    unittest.main()
