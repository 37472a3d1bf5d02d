"""Unit tests for run.py's A/A arithmetic and result validation.

Run with: python3 loadbench/run.py --selftest
"""
import unittest

import run


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_exclusive_method(self):
        # statistics.quantiles(n=4), exclusive method, on 1..10:
        # q1 = 2.75, median = 5.5, q3 = 8.25.
        med, q1, q3, s = run.spread([float(v) for v in range(10, 0, -1)])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(s, (8.25 - 2.75) / 5.5)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(run.spread([3.0] * 10)[3], 0.0)

    def test_worsening_follows_direction(self):
        self.assertAlmostEqual(run.relative_worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(run.relative_worsening(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(run.relative_worsening(100, 90, "higher"), 0.10)


class ValidateTest(unittest.TestCase):
    def good(self):
        return {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}

    def test_accepts_well_formed(self):
        run.validate(self.good(), ["setup_s"])

    def test_rejects_missing_metric(self):
        with self.assertRaises(ValueError):
            run.validate(self.good(), ["setup_s", "samples_per_s"])

    def test_rejects_nothing_attempted(self):
        r = self.good()
        r["attempted"] = 0
        with self.assertRaises(ValueError):
            run.validate(r, ["setup_s"])

    def test_rejects_non_finite_value(self):
        r = self.good()
        r["metrics"]["setup_s"]["value"] = float("nan")
        with self.assertRaises(ValueError):
            run.validate(r, ["setup_s"])


if __name__ == "__main__":
    unittest.main()
