#!/usr/bin/env python3
"""Unit tests for scripts/perf_ab.py's summarize() on synthetic pairs.

    python3 tests/scripts/perf_ab_test.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import perf_ab  # noqa: E402

HIGHER = {"name": "m", "better": "higher", "bound": 0.25}
LOWER = {"name": "m", "better": "lower", "bound": 0.25}


def pairs(base, head):
    return [{"base": {"metrics": {"m": b}}, "head": {"metrics": {"m": h}}}
            for b, h in zip(base, head)]


def row(base, head, spec=HIGHER):
    return perf_ab.summarize("w", 0, pairs(base, head), [spec])[0]


class Verdicts(unittest.TestCase):
    NOISY_BASE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]

    def test_noisy_base_is_unresolved(self):
        r = row(self.NOISY_BASE, [5.5] * 10)
        self.assertEqual(r["verdict"], "unresolved")

    def test_noisy_base_beaten_by_every_head_run_is_resolved(self):
        r = row(self.NOISY_BASE, [11.0 + i for i in range(10)])
        self.assertTrue(r["every_run_better"])
        self.assertEqual(r["verdict"], "within bound")

    def test_noisy_base_beaten_by_every_head_run_lower_is_better(self):
        r = row(self.NOISY_BASE, [0.5] * 10, LOWER)
        self.assertEqual(r["verdict"], "within bound")
        r = row(self.NOISY_BASE, [20.0] * 10, LOWER)
        self.assertEqual(r["verdict"], "unresolved")

    def test_one_head_run_inside_the_base_range_stays_unresolved(self):
        r = row(self.NOISY_BASE, [11.0] * 9 + [9.5])
        self.assertFalse(r["every_run_better"])
        self.assertEqual(r["verdict"], "unresolved")

    def test_quiet_base_worse_beyond_bound(self):
        r = row([10.0, 10.1, 9.9, 10.0], [7.0, 7.1, 6.9, 7.0])
        self.assertEqual(r["verdict"], "WORSE")
        r = row([10.0, 10.1, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0], LOWER)
        self.assertEqual(r["verdict"], "WORSE")

    def test_quiet_base_within_bound(self):
        r = row([10.0, 10.1, 9.9, 10.0], [9.0, 9.1, 8.9, 9.0])
        self.assertEqual(r["verdict"], "within bound")

    def test_metric_without_bound_is_reported(self):
        r = row([1.0, 2.0], [3.0, 4.0], {"name": "m", "better": "lower"})
        self.assertEqual(r["verdict"], "reported")


class GainClaims(unittest.TestCase):
    BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_nine_of_ten_and_a_gap_beyond_the_quartiles_holds(self):
        head = [12.0] * 9 + [9.0]
        r = row(self.BASE, head)
        self.assertEqual(r["pairs_better"], 9)
        self.assertTrue(r["gain"])

    def test_eight_of_ten_does_not_hold(self):
        r = row(self.BASE, [12.0] * 8 + [9.0, 9.0])
        self.assertFalse(r["gain"])

    def test_ties_count_for_neither_side(self):
        r = row(self.BASE, [12.0] * 8 + [self.BASE[8], self.BASE[9]])
        self.assertEqual(r["pairs_better"], 8)
        self.assertFalse(r["gain"])

    def test_gap_inside_the_base_quartile_distance_does_not_hold(self):
        # Every pair better, but by less than the base's own q3 - q1.
        head = [b + 0.05 for b in self.BASE]
        r = row(self.BASE, head)
        self.assertEqual(r["pairs_better"], 10)
        self.assertFalse(r["gain"])

    def test_lower_is_better(self):
        r = row(self.BASE, [b / 3 for b in self.BASE], LOWER)
        self.assertTrue(r["gain"])
        r = row(self.BASE, [b * 3 for b in self.BASE], LOWER)
        self.assertFalse(r["gain"])
        self.assertEqual(r["pairs_better"], 0)


if __name__ == "__main__":
    unittest.main()
