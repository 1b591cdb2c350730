"""The seeded streams: the same seed gives the same stream."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import schedule  # noqa: E402

KEYS = [(i, i + 1) for i in range(50)]


def plan(seed):
    return schedule.live_plan(seed, KEYS, [(200, 1000), (400, 1000)], 2.0, 5)


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        a, b = plan(7), plan(7)
        for x, y in zip(a, b):
            self.assertEqual(x.offsets, y.offsets)
            self.assertEqual(x.keys, y.keys)
            self.assertEqual(x.traffic, y.traffic)

    def test_other_seed_other_arrivals(self):
        self.assertNotEqual(plan(7)[0].offsets, plan(8)[0].offsets)

    def test_arrivals_follow_the_rate(self):
        rung = plan(3)[0]
        self.assertEqual(len(rung.offsets), 1000)
        self.assertEqual(rung.offsets, sorted(rung.offsets))
        self.assertAlmostEqual(len(rung.offsets) / rung.span_s, 200, delta=20)

    def test_keys_continue_across_rungs(self):
        first, second = plan(3)
        self.assertEqual(first.keys[:3], KEYS[:3])
        self.assertEqual(second.keys[0], KEYS[1000 % len(KEYS)])

    def test_bursts_are_spread_through_each_rung(self):
        first, second = plan(3)
        bursts = sorted({at for at, _ in first.traffic})
        self.assertEqual(len(bursts), round(first.span_s / 2.0))
        self.assertEqual(len(first.traffic), 5 * len(bursts))
        self.assertTrue(all(0 < at < first.span_s for at in bursts))
        indices = [i for _, i in first.traffic + second.traffic]
        self.assertEqual(indices, list(range(len(indices))))

    def test_traffic_batches_rotate_and_alternate(self):
        base = [10.0, 20.0, 30.0]
        self.assertEqual(schedule.traffic_batch(0, 2, base), [(0, 12.5), (1, 25.0)])
        self.assertEqual(schedule.traffic_batch(1, 2, base), [(2, 24.0), (0, 8.0)])

    def test_stream_puts_batches_before_later_requests(self):
        rung = schedule.Rung(100, [0.1, 0.2, 0.3], [(1, 2), (3, 4), (5, 6)],
                             [(0.15, 0), (0.15, 1)])
        ops = rung.stream(lambda i: [(i, 1.0)])
        self.assertEqual([kind for kind, _ in ops], ["R", "T", "T", "R", "R"])
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s.txt")
            schedule.write_stream(path, ops)
            with open(path) as f:
                self.assertEqual(f.read().splitlines()[:3],
                                 ["R 1 2", "T 0:1.0", "T 1:1.0"])

    def test_distinct_keys(self):
        trips = [(1, 2, 0), (1, 2, 1), (3, 3, 0), (4, 5, 2)]
        self.assertEqual(schedule.distinct_keys(trips), [(1, 2), (4, 5)])


if __name__ == "__main__":
    unittest.main()
