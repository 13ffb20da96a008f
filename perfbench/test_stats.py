"""Tests of the benchmark's summary helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


def span(layer, ts, dur, id_, parent=-1):
    return {"cat": layer, "ts": ts, "dur": dur,
            "args": {"id": id_, "parent": parent}}


class TailTest(unittest.TestCase):
    def test_p99_from_one_thousand_samples(self):
        values = list(range(1, 1001))  # 1..1000
        value, percentile, count = stats.tail(values)
        self.assertEqual(count, 1000)
        self.assertEqual(value, 990)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(percentile, 99.0)

    def test_percentile_stays_fixed_as_samples_grow(self):
        values = list(range(1, 2501))  # 1..2500
        value, percentile, _ = stats.tail(values)
        self.assertAlmostEqual(percentile, 99.0)
        self.assertEqual(value, 2475)
        self.assertEqual(sum(1 for v in values if v > value), 25)
        self.assertAlmostEqual(stats.tail(list(range(10000)))[1], 99.9)
        self.assertAlmostEqual(stats.tail(list(range(9999)))[1], 99.0)

    def test_order_of_samples_does_not_matter(self):
        values = [(7 * i) % 150 for i in range(150)]  # 0..149, shuffled
        value, percentile, _ = stats.tail(values)
        self.assertEqual(sum(1 for v in values if v > value), 15)
        self.assertEqual(value, 134)
        self.assertAlmostEqual(percentile, 90.0)

    def test_below_one_hundred_samples_p90_by_nearest_rank(self):
        self.assertEqual(stats.tail([3.0, 9.0, 1.0]), (9.0, 90.0, 3))
        self.assertEqual(stats.tail(list(range(20))), (17, 90.0, 20))
        values = list(range(99))
        self.assertEqual(stats.tail(values)[0], 89)

    def test_p90_below_one_thousand(self):
        self.assertEqual(stats.tail(list(range(100))), (89, 90.0, 100))
        self.assertEqual(stats.tail(list(range(101)))[0], 90)
        value, percentile, _ = stats.tail(list(range(999)))
        self.assertEqual((value, percentile), (899, 90.0))

    def test_empty(self):
        self.assertEqual(stats.tail([]), (0.0, 0.0, 0))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        events = [
            span("render", 0, 100, 1),
            span("io", 10, 20, 2, parent=1),
            span("io", 20, 20, 3, parent=1),  # overlaps the first child
            span("volume", 90, 30, 4, parent=1),  # runs past the parent
        ]
        self_ms = stats.self_times(events)
        # children cover [10, 40) and [90, 100) of the parent's [0, 100)
        self.assertAlmostEqual(self_ms["render"], 60.0)
        self.assertAlmostEqual(self_ms["io"], 40.0)
        self.assertAlmostEqual(self_ms["volume"], 30.0)

    def test_grandchildren_count_against_their_own_parent(self):
        events = [
            span("frame", 0, 50, 1),
            span("stream", 0, 30, 2, parent=1),
            span("io", 5, 20, 3, parent=2),
        ]
        self_ms = stats.self_times(events)
        self.assertAlmostEqual(self_ms["frame"], 20.0)
        self.assertAlmostEqual(self_ms["stream"], 10.0)
        self.assertAlmostEqual(self_ms["io"], 20.0)


class FailedFracTest(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(stats.failed_frac(1000, 0), 0.0)
        self.assertAlmostEqual(stats.failed_frac(1000, 25), 0.025)

    def test_nothing_attempted(self):
        self.assertEqual(stats.failed_frac(0, 0), 0.0)


class OverheadTest(unittest.TestCase):
    def test_median_against_median(self):
        self.assertAlmostEqual(
            stats.overhead_pct([10.0, 20.0, 30.0], [21.0, 22.0, 1000.0]), 10.0)

    def test_no_ops(self):
        self.assertEqual(stats.overhead_pct([], [1.0]), 0.0)
        self.assertEqual(stats.overhead_pct([1.0], []), 0.0)


class VerdictTest(unittest.TestCase):
    parent = {s: 100.0 + (s % 3) for s in range(10)}  # 100..102

    def test_gain_needs_nine_tenths_of_pairs_and_a_clear_margin(self):
        change = {s: 90.0 + (s % 3) for s in range(10)}
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         "gain")
        mixed = dict(change)
        mixed[0] = mixed[1] = 200.0  # change loses two of ten pairs
        self.assertNotEqual(stats.verdict(self.parent, mixed, "lower", 0.1),
                            "gain")

    def test_regression_beyond_the_bound(self):
        change = {s: 120.0 for s in range(10)}
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         "regression")
        self.assertEqual(stats.verdict(self.parent, change, "higher", 0.1),
                         "gain")

    def test_within_bound(self):
        change = {s: 104.0 for s in range(10)}
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         "within bound")

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        noisy = {s: 50.0 + 20.0 * (s % 5) for s in range(10)}
        change = {s: 95.0 + 20.0 * (s % 5) for s in range(10)}
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1),
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
