"""The output validator rejects broken routes."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import checks  # noqa: E402


def make_network(directory):
    """0 -> 1 -> 2 -> 3, plus a shortcut 0 -> 2 and the reverse 1 -> 0."""
    prefix = os.path.join(directory, "net")
    with open(prefix + "_vertices.csv", "w") as f:
        f.write("id,lat,lon\n")
        for v in range(4):
            f.write("%d,56.85,%f\n" % (v, 9.3 + 0.01 * v))
    with open(prefix + "_edges.csv", "w") as f:
        f.write("from,to,length_m,travel_time_s,category\n")
        for a, b in ((0, 1), (1, 2), (2, 3), (0, 2), (1, 0)):
            f.write("%d,%d,100,10,primary\n" % (a, b))
    return checks.Network(prefix)


def route(vertices, edges, score):
    return {"vertices": vertices, "edges": edges, "score": score}


class CheckRouteTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.net = make_network(self.dir.name)

    def tearDown(self):
        self.dir.cleanup()

    def body(self, routes, epoch=3, cache_hit=False):
        return {"routes": routes, "graph_epoch": epoch, "cache_hit": cache_hit}

    def good(self):
        return [route([0, 1, 2, 3], [0, 1, 2], 0.9), route([0, 2, 3], [3, 2], 0.4)]

    def test_accepts_a_correct_response(self):
        self.assertEqual(checks.check_route(self.body(self.good()), 0, 3, 10,
                                            self.net, 3, True), [])

    def test_rejects_an_edge_that_does_not_join_its_vertices(self):
        broken = self.good()
        broken[1]["edges"] = [1, 2]
        problems = checks.check_route(self.body(broken), 0, 3, 10, self.net, 0)
        self.assertTrue(any("does not join" in p for p in problems), problems)

    def test_rejects_a_route_to_the_wrong_destination(self):
        broken = [route([0, 1, 2], [0, 1], 0.5)]
        self.assertTrue(checks.check_route(self.body(broken), 0, 3, 10,
                                           self.net, 0))

    def test_rejects_an_unknown_edge_and_a_length_mismatch(self):
        self.assertTrue(checks.check_route(
            self.body([route([0, 2, 3], [3, 99], 0.5)]), 0, 3, 10, self.net, 0))
        self.assertTrue(checks.check_route(
            self.body([route([0, 2, 3], [3], 0.5)]), 0, 3, 10, self.net, 0))

    def test_rejects_ascending_scores_and_too_many_routes(self):
        routes = self.good()
        routes.reverse()
        self.assertTrue(checks.check_route(self.body(routes), 0, 3, 10,
                                           self.net, 0))
        self.assertTrue(checks.check_route(self.body(self.good()), 0, 3, 1,
                                           self.net, 0))

    def test_rejects_a_stale_epoch_and_a_cold_cache_hit(self):
        self.assertTrue(checks.check_route(self.body(self.good(), epoch=2),
                                           0, 3, 10, self.net, 3))
        self.assertTrue(checks.check_route(
            self.body(self.good(), cache_hit=True), 0, 3, 10, self.net, 0,
            expect_miss=True))

    def test_rejects_an_empty_answer(self):
        self.assertTrue(checks.check_route(self.body([]), 0, 3, 10, self.net, 0))

    def test_same_answer_is_bitwise(self):
        reference = {"status": "ok", "routes": self.good()}
        self.assertTrue(checks.same_answer(self.body(self.good()), reference))
        nudged = self.good()
        nudged[0]["score"] = 0.9 + 1e-16
        self.assertFalse(checks.same_answer(self.body(nudged), reference))


if __name__ == "__main__":
    unittest.main()
