"""Tests of the benchmark's comparison rule: python3 -m unittest discover eltbench"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

OLD = [10.0, 10.4, 9.8, 10.1, 10.3, 9.9, 10.2, 10.0, 10.1, 9.9]


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        new = [v * 0.8 for v in OLD]
        self.assertEqual(compare.verdict(OLD, new, "lower", 0.1), ("improved", 10))

    def test_gain_needs_nine_of_ten_pairs(self):
        new = [v * 0.8 for v in OLD[:8]] + [v * 1.05 for v in OLD[8:]]
        result, won = compare.verdict(OLD, new, "lower", 0.25)
        self.assertEqual(won, 8)
        self.assertEqual(result, "unchanged")

    def test_gain_within_spread_is_not_improved(self):
        new = [v - 0.05 for v in OLD]
        self.assertEqual(compare.verdict(OLD, new, "lower", 0.1)[0], "unchanged")

    def test_loss_beyond_bound_is_worse(self):
        new = [v * 1.2 for v in OLD]
        self.assertEqual(compare.verdict(OLD, new, "lower", 0.1), ("worse", 0))
        self.assertEqual(compare.verdict(OLD, new, "higher", 0.1)[0], "improved")

    def test_noise_wider_than_bound_is_unresolved(self):
        noisy = [5.0, 15.0] * 5
        self.assertEqual(compare.verdict(OLD, noisy, "lower", 0.1)[0], "unresolved")


class CompareTest(unittest.TestCase):
    def test_rows_per_workload_and_metric(self):
        spec = {
            "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
        }
        with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
            for d, scale in ((old_dir, 1.0), (new_dir, 0.5)):
                with open(os.path.join(d, "a.jsonl"), "w") as f:
                    for v in OLD:
                        run = {"correct": True, "attempted": 1, "failed": 0,
                               "metrics": {"wall_s": {"value": v * scale, "unit": "s"}}}
                        f.write(json.dumps(run) + "\n")
            rows = list(compare.compare(old_dir, new_dir, spec))
        self.assertEqual([(r["workload"], r["metric"], r["verdict"]) for r in rows],
                         [("a", "wall_s", "improved")])


if __name__ == "__main__":
    unittest.main()
