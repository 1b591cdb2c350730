"""Output checks. Every failed check fails the run and counts as a
failed operation in error_rate."""

import csv
import math


class Network:
    """The generated road network as the server received it: edge i of
    <prefix>_edges.csv runs from edge_from[i] to edge_to[i]."""

    def __init__(self, prefix):
        with open(prefix + "_vertices.csv", newline="") as f:
            self.coords = [(float(row["lat"]), float(row["lon"]))
                           for row in csv.DictReader(f)]
        self.num_vertices = len(self.coords)
        self.edge_from, self.edge_to, self.travel_time_s = [], [], []
        with open(prefix + "_edges.csv", newline="") as f:
            for row in csv.DictReader(f):
                self.edge_from.append(int(row["from"]))
                self.edge_to.append(int(row["to"]))
                self.travel_time_s.append(float(row["travel_time_s"]))

    @property
    def num_edges(self):
        return len(self.edge_from)

    def distance_m(self, a, b):
        """Straight-line (equirectangular) distance between two vertices."""
        (lat1, lon1), (lat2, lon2) = self.coords[a], self.coords[b]
        x = math.radians(lon2 - lon1) * math.cos(math.radians(lat1 + lat2) / 2)
        return 6371000.0 * math.hypot(x, math.radians(lat2 - lat1))


def check_route(body, source, destination, k, network, min_epoch,
                expect_miss=False):
    """Problems with one /v1/route 200 body, as a list of strings (empty
    when the response is correct)."""
    problems = []
    routes = body.get("routes")
    if not isinstance(routes, list) or not routes:
        return ["no routes for a connected pair"]
    if len(routes) > k:
        problems.append("%d routes, more than k=%d" % (len(routes), k))
    if body.get("degraded"):
        problems.append("degraded response without a deadline")
    if expect_miss and body.get("cache_hit") is not False:
        problems.append("cache hit on a key sent once")
    epoch = body.get("graph_epoch")
    if not isinstance(epoch, int) or epoch < min_epoch:
        problems.append("graph_epoch %r below acknowledged epoch %d"
                        % (epoch, min_epoch))
    previous = math.inf
    for i, route in enumerate(routes):
        score = route.get("score")
        if not isinstance(score, float) or not math.isfinite(score):
            problems.append("route %d: score %r is not finite" % (i, score))
            continue
        if score > previous:
            problems.append("route %d: scores not in descending order" % i)
        previous = score
        problems.extend("route %d: %s" % (i, p) for p in
                        check_path(route.get("vertices"), route.get("edges"),
                                   source, destination, network))
    return problems


def check_path(vertices, edges, source, destination, network):
    """Problems with one path: it must run from source to destination
    along edges of the network, each edge joining consecutive vertices."""
    if not vertices or not isinstance(edges, list):
        return ["empty path"]
    problems = []
    if vertices[0] != source or vertices[-1] != destination:
        problems.append("runs %r -> %r, not %d -> %d"
                        % (vertices[0], vertices[-1], source, destination))
    if len(edges) != len(vertices) - 1:
        return problems + ["%d edges for %d vertices"
                           % (len(edges), len(vertices))]
    for i, edge in enumerate(edges):
        if not isinstance(edge, int) or not 0 <= edge < network.num_edges:
            problems.append("edge %r is not in the network" % (edge,))
        elif (network.edge_from[edge] != vertices[i]
              or network.edge_to[edge] != vertices[i + 1]):
            problems.append("edge %d does not join %r -> %r"
                            % (edge, vertices[i], vertices[i + 1]))
    return problems


def same_answer(body, reference):
    """Server response vs the in-process planner: same paths in the same
    order with bitwise-equal scores."""
    served = [(r["score"].hex(), r["vertices"]) for r in body["routes"]]
    expected = [(r["score"].hex(), r["vertices"])
                for r in reference["routes"]]
    return reference["status"] == "ok" and served == expected
