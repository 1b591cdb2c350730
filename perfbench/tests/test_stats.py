"""Nearest-rank percentiles and the ten-samples-beyond rule."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import stats  # noqa: E402


class NearestRankTest(unittest.TestCase):
    def test_nearest_rank_picks_a_sample(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 0.50), (50, 50))
        self.assertEqual(stats.nearest_rank(values, 0.90), (90, 10))
        self.assertEqual(stats.nearest_rank(values, 0.99), (99, 1))
        self.assertEqual(stats.nearest_rank([7.0], 0.5), (7.0, 0))
        self.assertEqual(stats.nearest_rank([], 0.5), (None, 0))

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(999)), 0.99))
        self.assertEqual(stats.percentile(list(range(1, 1001)), 0.99), 990)
        self.assertIsNone(stats.percentile(list(range(99)), 0.90))
        self.assertEqual(stats.percentile(list(range(1, 101)), 0.90), 90)

    def test_median_has_no_tail_rule(self):
        self.assertEqual(stats.percentile([3, 1, 2], 0.5), 2)

    def test_min_samples(self):
        self.assertEqual(stats.min_samples(0.99), 1000)
        self.assertEqual(stats.min_samples(0.90), 100)
        self.assertEqual(stats.min_samples(0.50), 1)
        for p in (0.9, 0.99):
            n = stats.min_samples(p)
            self.assertIsNotNone(stats.percentile(list(range(n)), p))
            self.assertIsNone(stats.percentile(list(range(n - 1)), p))


if __name__ == "__main__":
    unittest.main()
