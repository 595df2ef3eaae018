"""Tests of the span fold on synthetic span sets.

Run from the repository root: python3 -m unittest perfbench/test_fold.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from fold import covered_us, fold, uncovered_fraction  # noqa: E402


def span(sid, parent, layer, name, start, end):
    return {"id": sid, "parent": parent, "layer": layer, "name": name,
            "start_us": start, "end_us": end, "op": -1}


class CoveredTest(unittest.TestCase):
    def test_union_of_overlapping_and_disjoint_intervals(self):
        self.assertEqual(covered_us(0, 100, [(10, 30), (20, 40), (60, 70)]), 40)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(covered_us(10, 20, [(0, 15), (18, 30)]), 7)

    def test_no_children(self):
        self.assertEqual(covered_us(0, 10, []), 0)


class FoldTest(unittest.TestCase):
    def test_self_time_subtracts_children_once(self):
        spans = [
            span(0, -1, "e2e", "op", 0, 100),
            span(1, 0, "sta", "run", 10, 50),
            span(2, 0, "sta", "run", 40, 70),   # overlaps its sibling
            span(3, 1, "interconnect", "extract", 20, 30),
        ]
        rows = fold(spans)
        self.assertEqual(rows[("e2e", "op")],
                         {"count": 1, "total_us": 100, "self_us": 40})
        self.assertEqual(rows[("sta", "run")],
                         {"count": 2, "total_us": 70, "self_us": 60})
        self.assertEqual(rows[("interconnect", "extract")]["self_us"], 10)
        self.assertAlmostEqual(uncovered_fraction(rows), 0.4)

    def test_unclosed_spans_are_skipped(self):
        rows = fold([span(0, -1, "e2e", "op", 50, 0)])
        self.assertEqual(rows, {})
        self.assertEqual(uncovered_fraction(rows), 0.0)

    def test_children_of_different_parents_stay_apart(self):
        spans = [
            span(0, -1, "e2e", "a", 0, 10),
            span(1, -1, "e2e", "b", 0, 10),
            span(2, 0, "serve", "call", 0, 10),
        ]
        rows = fold(spans)
        self.assertEqual(rows[("e2e", "a")]["self_us"], 0)
        self.assertEqual(rows[("e2e", "b")]["self_us"], 10)


if __name__ == "__main__":
    unittest.main()
