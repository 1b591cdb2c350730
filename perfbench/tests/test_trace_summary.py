"""Self time: a span's duration minus what its children cover."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import trace_summary  # noqa: E402
from pb.trace_summary import Span  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(trace_summary.covered((0, 10), []), 0)
        self.assertEqual(trace_summary.covered((0, 10), [(1, 3), (2, 5)]), 4)
        self.assertEqual(trace_summary.covered((0, 10), [(8, 12), (-2, 1)]), 3)
        self.assertEqual(trace_summary.covered((0, 10), [(11, 12)]), 0)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [Span(0, -1, 0, "planner.plan", 0.0, 10.0),
                 Span(1, 0, 0, "score.batch", 1.0, 3.0),
                 Span(2, 0, 0, "score.batch", 2.0, 5.0),
                 Span(3, 2, 0, "inner", 2.5, 4.5),
                 Span(4, -1, 1, "traffic.apply", 11.0, 12.0)]
        selftime = trace_summary.self_times(spans)
        self.assertAlmostEqual(selftime[0], 6.0)
        self.assertAlmostEqual(selftime[1], 2.0)
        self.assertAlmostEqual(selftime[2], 1.0)
        self.assertAlmostEqual(selftime[3], 2.0)
        self.assertAlmostEqual(selftime[4], 1.0)

    def test_route_metrics_use_self_time_of_misses(self):
        spans = []
        for request in range(20):
            plan = Span(2 * request, -1, request, "planner.plan",
                        request * 10.0, request * 10.0 + 4.0)
            score = Span(2 * request + 1, plan.id, request, "score.batch",
                         request * 10.0 + 3.0, request * 10.0 + 4.0)
            spans += [plan, score]
        replay = {"miss_requests": [0, 1], "cache_hits": 18,
                  "cache_misses": 2, "enumerations": 2, "invalidations": 0,
                  "single_flight_waits": 0, "alt_fallbacks": 0,
                  "counted_misses": 2, "spur_searches": 10, "settled": 100,
                  "score_calls": 20, "score_paths": 200,
                  "score_vertices": 2000, "traced_s": 1.1, "plain_s": 1.0,
                  "ops": 20, "overhead_ops": 20}
        m = trace_summary.route_metrics(spans, replay).items
        self.assertAlmostEqual(m["routing.enumerate_p50_ms"][0], 3000.0)
        self.assertAlmostEqual(m["planner.plan_p50_ms"][0], 4000.0)
        # 20 samples < 1000: still reported, with the shortfall in its base.
        self.assertAlmostEqual(m["planner.plan_p99_ms"][0], 4000.0)
        self.assertIn("only 0 beyond p99", m["planner.plan_p99_ms"][2])
        self.assertAlmostEqual(m["planner.hit_ratio"][0], 0.9)
        self.assertAlmostEqual(m["routing.spur_searches_per_miss"][0], 5.0)
        self.assertAlmostEqual(m["trace.overhead_ratio"][0], 1.1)
        self.assertNotIn("traffic.apply_p50_ms", m)

    def test_load_spans_reads_the_replay_format(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "trace.txt")
            with open(path, "w") as f:
                f.write("0 -1 5 planner.plan 1000 4000\n1 0 5 score.batch 2000 3000\n")
            spans = trace_summary.load_spans(path)
        self.assertEqual([s.name for s in spans], ["planner.plan", "score.batch"])
        self.assertAlmostEqual(spans[0].duration, 3e-6)
        self.assertAlmostEqual(trace_summary.self_times(spans)[0], 2e-6)


if __name__ == "__main__":
    unittest.main()
