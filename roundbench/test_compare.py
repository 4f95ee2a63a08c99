"""Unit tests of compare.py's quartile helper, verdict rule and soundness
checks.

    python3 -m unittest -v test_compare      (from roundbench/)
"""
import statistics
import unittest

import compare


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, 5.5)

    def test_single_value(self):
        self.assertEqual(compare.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_spread_is_quartile_distance_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, med, q3 = compare.quartiles(values)
        self.assertAlmostEqual(compare.spread(values), (q3 - q1) / med)
        self.assertEqual(compare.spread([0.0, 0.0]), 0.0)


class Verdict(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def shifted(self, factor):
        return [v * factor for v in self.BASE]

    def test_within_bound(self):
        self.assertEqual(compare.verdict(self.BASE, self.shifted(1.002), 0.1,
                                         "lower"), "within bound")

    def test_worse_beyond_bound(self):
        self.assertEqual(compare.verdict(self.BASE, self.shifted(1.2), 0.1,
                                         "lower"), "worse")
        self.assertEqual(compare.verdict(self.BASE, self.shifted(0.8), 0.1,
                                         "higher"), "worse")

    def test_better_beyond_parent_spread(self):
        self.assertEqual(compare.verdict(self.BASE, self.shifted(0.9), 0.1,
                                         "lower"), "better")
        self.assertEqual(compare.verdict(self.BASE, self.shifted(1.1), 0.1,
                                         "higher"), "better")

    def test_wide_spread_is_unresolved_unless_runs_separate(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
        self.assertEqual(compare.verdict(noisy, [90.0, 95.0, 100.0], 0.1,
                                         "lower"), "unresolved")
        self.assertEqual(compare.verdict(noisy, [10.0, 11.0, 12.0], 0.1,
                                         "lower"), "better")


class Soundness(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "round_ms"}, {"name": "setup_s"}]}

    @staticmethod
    def runs(incorrect=0, attempted=1000, failed=0,
             metrics=("round_ms", "setup_s")):
        r = compare.Runs()
        r.runs, r.incorrect = 10, incorrect
        r.attempted, r.failed = attempted, failed
        r.metrics = {name: [1.0] * 10 for name in metrics}
        return r

    def problems(self, base, change):
        return compare.soundness(self.SPEC, base, change)

    def test_matching_healthy_sets_are_sound(self):
        self.assertEqual(self.problems({"w": self.runs()},
                                       {"w": self.runs()}), [])

    def test_incorrect_run_on_either_side(self):
        self.assertEqual(len(self.problems({"w": self.runs()},
                                           {"w": self.runs(incorrect=1)})), 1)
        self.assertEqual(len(self.problems({"w": self.runs(incorrect=2)},
                                           {"w": self.runs()})), 1)

    def test_more_failed_operations_in_change(self):
        self.assertEqual(len(self.problems({"w": self.runs(failed=1)},
                                           {"w": self.runs(failed=2)})), 1)
        self.assertEqual(self.problems({"w": self.runs(failed=2)},
                                       {"w": self.runs(failed=1)}), [])

    def test_workload_on_one_side(self):
        self.assertEqual(len(self.problems({"w": self.runs()}, {})), 1)
        self.assertEqual(len(self.problems({}, {"w": self.runs()})), 1)

    def test_metric_on_one_side(self):
        self.assertEqual(len(self.problems(
            {"w": self.runs()}, {"w": self.runs(metrics=("round_ms",))})), 1)


if __name__ == "__main__":
    unittest.main()
