#!/usr/bin/env python3
"""Tests of the benchmark's own metric code: python3 perfbench/test_metrics.py"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402
import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_p99_of_large_sample_is_the_nearest_rank(self):
        samples = list(range(1, 2001))  # 1..2000
        value, used, n = m.tail_percentile(samples, 99)
        self.assertEqual((value, used, n), (1980, 99.0, 2000))

    def test_at_least_ten_samples_lie_beyond_the_reported_rank(self):
        for n in (11, 12, 50, 100, 432, 999, 1000, 1001, 5000):
            samples = [float(i) for i in range(n)]
            value, used, count = m.tail_percentile(samples, 99)
            self.assertEqual(count, n)
            self.assertGreaterEqual(sum(1 for s in samples if s > value), 10, n)
            self.assertLessEqual(used, 99.0)

    def test_p99_is_lowered_when_the_sample_is_small(self):
        value, used, n = m.tail_percentile(list(range(100)), 99)
        self.assertEqual(n, 100)
        self.assertEqual(used, 90.0)
        self.assertEqual(value, 89)

    def test_exactly_one_thousand_samples_support_p99(self):
        _, used, _ = m.tail_percentile(list(range(1000)), 99)
        self.assertEqual(used, 99.0)

    def test_tiny_samples_fall_back_to_the_median(self):
        self.assertEqual(m.tail_percentile([3.0, 1.0, 2.0], 99), (2.0, 50.0, 3))

    def test_order_independence(self):
        samples = list(range(25, 0, -1))  # 25..1
        self.assertEqual(m.tail_percentile(samples, 50), (13, 50.0, 25))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            m.tail_percentile([], 99)


class SeriesMetricsTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(m.geomean([1.0, 4.0, 16.0]), 4.0)
        self.assertAlmostEqual(m.geomean([2.5]), 2.5)
        with self.assertRaises(ValueError):
            m.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            m.geomean([])

    def test_mean_of_group_medians(self):
        values = [1.0, 1.0, 9.0, 2.0, 4.0]
        groups = [0, 0, 0, 1, 1]
        self.assertAlmostEqual(m.mean_of_group_medians(values, groups), (1.0 + 3.0) / 2)
        self.assertEqual(m.mean_of_group_medians([5.0], [3]), 5.0)
        with self.assertRaises(ValueError):
            m.mean_of_group_medians([], [])

    def test_failed_frac(self):
        self.assertEqual(m.failed_frac(0, 10), 0.0)
        self.assertEqual(m.failed_frac(3, 12), 0.25)
        with self.assertRaises(ValueError):
            m.failed_frac(1, 0)
        with self.assertRaises(ValueError):
            m.failed_frac(11, 10)

    def test_goodput_tail_ratio_flat_series_is_one(self):
        times = [i + 0.5 for i in range(100)]  # one completion per second
        self.assertAlmostEqual(m.goodput_tail_ratio(times, 0.0, 100.0), 1.0)

    def test_goodput_tail_ratio_detects_slowdown(self):
        # 20 completions in the first 10 s, 5 in the last 10 s.
        times = [0.5 * i for i in range(1, 21)] + [50.0] * 10 + [92.0, 94.0, 96.0, 98.0, 100.0]
        self.assertAlmostEqual(m.goodput_tail_ratio(times, 0.0, 100.0), 0.25)

    def test_goodput_tail_ratio_window_offset(self):
        times = [10.5, 11.0, 19.5, 19.9]
        self.assertAlmostEqual(m.goodput_tail_ratio(times, 10.0, 20.0), 1.0)
        with self.assertRaises(ValueError):
            m.goodput_tail_ratio([15.0], 10.0, 20.0)

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 10.0, 10.0, 10.0]
        self.assertEqual(m.spread(values), 0.0)
        q1, _, q3 = __import__("statistics").quantiles([1, 2, 3, 4, 5], n=4)
        self.assertAlmostEqual(m.spread([1, 2, 3, 4, 5]), (q3 - q1) / 3)


class MaxRateTest(unittest.TestCase):
    def test_interpolates_between_passing_and_failing_rung(self):
        rungs = [(1.0, True, 0.1), (2.0, True, 0.5), (3.0, True, 1.5)]
        self.assertAlmostEqual(m.max_rate_under_slo(rungs, 1.0), 2.5)

    def test_top_rung_passing_returns_it(self):
        self.assertEqual(m.max_rate_under_slo([(1.0, True, 0.1), (2.0, True, 0.2)], 1.0), 2.0)

    def test_undrained_rung_does_not_pass(self):
        rungs = [(1.0, True, 0.1), (2.0, False, 0.2), (3.0, True, 5.0)]
        self.assertEqual(m.max_rate_under_slo(rungs, 1.0), 1.0)

    def test_nothing_passing_is_zero(self):
        self.assertEqual(m.max_rate_under_slo([(1.0, True, 3.0)], 1.0), 0.0)


class NameGrammarTest(unittest.TestCase):
    def test_grammar(self):
        for good in ("host_s", "core.launch_us_p99", "9lives", "a-b.c_d", "x" * 64):
            self.assertTrue(m.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "x" * 65, "a/b", "p99%"):
            self.assertFalse(m.valid_name(bad), bad)
        for good in ("s", "ms", "1/sim_s", "count", "%", "MiB"):
            self.assertTrue(m.valid_unit(good), good)
        for bad in ("", "a b", "u" * 17, "s*"):
            self.assertFalse(m.valid_unit(bad), bad)

    def test_every_metric_name_and_unit_is_valid_and_unique(self):
        names = [n for n, _, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in run.END_TO_END + run.PER_LAYER:
            self.assertTrue(m.valid_name(name), name)
            self.assertTrue(m.valid_unit(unit), unit)
            self.assertIn(better, ("lower", "higher"))

    def test_benchmark_json_matches_the_reported_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(e["name"], e["unit"], e["better"]) for e in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(e["name"], e["unit"], e["better"]) for e in bench["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertIn("setup_s", [e["name"] for e in bench["end_to_end"]])
        for e in bench["end_to_end"]:
            self.assertTrue(0 < e["bound"] <= 0.25, e["name"])
        self.assertIn(bench["run_seconds"], range(1, 61))


if __name__ == "__main__":
    unittest.main()
