"""Tests for run.py's statistics, module attribution and compare verdicts.

  python3 benchmark/test_run.py
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def side(values):
    return run.summarize(values)


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertEqual(run.percentile(list(range(1000)), 0.99), 989)

    def test_median_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)

    def test_unsorted_input_and_empty(self):
        self.assertEqual(run.percentile(list(range(1000))[::-1], 0.99), 989)
        self.assertIsNone(run.percentile([], 0.5))

    def test_churn_sized_sample_has_no_tail(self):
        self.assertIsNone(run.percentile([5.9, 6.1, 6.0, 5.8, 6.3, 6.2, 5.7,
                                          6.4], 0.99))


class SummaryTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        s = side(list(range(1, 11)))
        self.assertEqual(s["median"], 5.5)
        self.assertEqual((s["min"], s["max"]), (1, 10))
        # statistics.quantiles (exclusive): 2.75, 5.5, 8.25.
        self.assertAlmostEqual(s["iqr_share"], (8.25 - 2.75) / 5.5)

    def test_single_value_has_no_quartiles(self):
        self.assertIsNone(side([3.0])["iqr_share"])


class TimedMetricsTest(unittest.TestCase):
    def test_fastest_pass_and_pooled_setup(self):
        passes = [{"runs": 4, "wall_ns": 2e9, "run_wall_ns": [1e6, 3e6],
                   "setup_ns": [10_000]},
                  {"runs": 6, "wall_ns": 2e9, "run_wall_ns": [2e6, 4e6, 9e6],
                   "setup_ns": [30_000, 20_000]},
                  {"runs": 4, "wall_ns": 4e9, "run_wall_ns": [5e6],
                   "setup_ns": []}]
        m = run.timed_metrics({"peak_rss_kb": 2048}, passes)
        self.assertEqual(m["runs_per_s"], 3.0)
        self.assertEqual(m["run_ms_p50"], 4.0)
        self.assertEqual(m["setup_s"], 20e-6)
        self.assertEqual(m["peak_rss_mb"], 2.0)


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_same(self):
        self.assertEqual(run.verdict(side([100, 101, 99]),
                                     side([103, 102, 104]), "higher", 0.1),
                         "same")

    def test_direction_decides_worse_and_better(self):
        a, b = side([100, 101, 99]), side([85, 86, 84])
        self.assertEqual(run.verdict(a, b, "higher", 0.1), "worse")
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "better")

    def test_wide_spread_is_unresolved(self):
        self.assertEqual(run.verdict(side([80, 100, 120]),
                                     side([70, 75, 72]), "higher", 0.1),
                         "unresolved")
        self.assertEqual(run.verdict(side([100, 101, 99]),
                                     side([60, 100, 90]), "lower", 0.1),
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        self.assertEqual(run.verdict(side([80, 100, 120]),
                                     side([130, 150, 140]), "higher", 0.1),
                         "better")


class ModuleTest(unittest.TestCase):
    def test_sites_map_to_modules(self):
        cases = {"frodo.update_request": "frodo", "timer.upnp.renew": "upnp",
                 "tcp.syn": "net", "timer.tcp.retransmit": "net",
                 "timer.net.interface_down": "net",
                 "timer.workload.depart": "experiment",
                 "timer.experiment.change": "experiment",
                 "(unattributed)": "sim"}
        for site, module in cases.items():
            self.assertEqual(run.module_of(site), module, site)


if __name__ == "__main__":
    unittest.main()
