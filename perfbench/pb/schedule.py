"""Seeded request streams. The same seed gives the same stream, which the
load generator sends over the wire and the traced replay runs in
process."""

import random


def distinct_keys(trips):
    """(source, destination) pairs in trip order, each once."""
    seen = set()
    keys = []
    for source, destination, _driver in trips:
        if source != destination and (source, destination) not in seen:
            seen.add((source, destination))
            keys.append((source, destination))
    return keys


def read_trips(path):
    with open(path) as f:
        return [tuple(int(x) for x in line.split(",")) for line in f if line.strip()]


def poisson_offsets(rate, count, rng):
    """Due times (seconds from the start) of `count` Poisson arrivals."""
    t = 0.0
    offsets = []
    for _ in range(count):
        t += rng.expovariate(rate)
        offsets.append(t)
    return offsets


def traffic_batch(index, window, base_travel_time):
    """Batch `index` of the write stream: a window of edges rotating
    through the network, rescaled from their free-flow travel time by a
    factor alternating between 1.25 and 0.8 (so times stay bounded)."""
    num_edges = len(base_travel_time)
    factor = 1.25 if index % 2 == 0 else 0.8
    edges = [(index * window + i) % num_edges for i in range(window)]
    return [(e, base_travel_time[e] * factor) for e in edges]


class Rung:
    """One fixed-rate step: Poisson request due times and keys, plus the
    traffic batches due during it as (offset, batch index)."""

    def __init__(self, rate, offsets, keys, traffic):
        self.rate = rate
        self.offsets = offsets
        self.keys = keys
        self.traffic = traffic

    @property
    def span_s(self):
        return self.offsets[-1]

    def stream(self, batches):
        """Ops in due order: ("R", key) and ("T", updates); a batch goes
        before the first request due at or after it."""
        ops = []
        pending = list(self.traffic)
        for offset, key in zip(self.offsets, self.keys):
            while pending and pending[0][0] <= offset:
                ops.append(("T", batches(pending.pop(0)[1])))
            ops.append(("R", key))
        return ops


def live_plan(seed, keys, rungs, period_s, burst):
    """Rungs of (rate, request count) over the commute key stream `keys`
    (taken in order, wrapping around). Each rung gets one burst of
    `burst` back-to-back traffic batches per `period_s` of its span (at
    least one), spread evenly through it."""
    rng = random.Random(seed)
    plan = []
    position = 0
    batch = 0
    for rate, count in rungs:
        offsets = poisson_offsets(rate, count, rng)
        rung_keys = [keys[(position + i) % len(keys)] for i in range(count)]
        position += count
        bursts = max(1, round(offsets[-1] / period_s))
        traffic = []
        for j in range(bursts):
            at = (j + 0.5) * offsets[-1] / bursts
            traffic.extend((at, batch + i) for i in range(burst))
            batch += burst
        plan.append(Rung(rate, offsets, rung_keys, traffic))
    return plan


def write_stream(path, ops):
    """The replay's input: "R src dst" and "T edge:seconds ..." lines."""
    with open(path, "w") as f:
        for kind, payload in ops:
            if kind == "R":
                f.write("R %d %d\n" % payload)
            else:
                f.write("T " + " ".join("%d:%r" % u for u in payload) + "\n")
