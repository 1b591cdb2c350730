"""Trace summary: self time per span name, and the per-layer metrics.

A span's self time is its duration minus the part of its interval that
its child spans cover (overlapping children are counted once)."""

import collections

from pb import stats


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end")

    def __init__(self, id, parent, request, name, start, end):
        self.id, self.parent, self.request = id, parent, request
        self.name, self.start, self.end = name, start, end

    @property
    def duration(self):
        return self.end - self.start


def load_spans(path):
    """Reads the "id parent request name start_ns end_ns" lines the
    in-process replay writes; times become seconds."""
    spans = []
    with open(path) as f:
        for line in f:
            i, parent, request, name, start, end = line.split()
            spans.append(Span(int(i), int(parent), int(request), name,
                              int(start) * 1e-9, int(end) * 1e-9))
    return spans


def covered(interval, children):
    """Length of the union of `children` intervals clipped to `interval`."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if min(hi, b) > max(lo, a))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """{span id: self time in seconds}."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered((s.start, s.end), children[s.id])
            for s in spans}


def by_name(spans, selftime=None):
    """{name: [duration or self time, ...]} in span order."""
    out = collections.defaultdict(list)
    for s in spans:
        out[s.name].append(selftime[s.id] if selftime else s.duration)
    return out


def name_table(spans):
    """Lines "name count total_s self_s" for every span name."""
    selftime = self_times(spans)
    total = by_name(spans)
    own = by_name(spans, selftime)
    return ["%-16s n=%-6d total %.4f s  self %.4f s"
            % (name, len(total[name]), sum(total[name]), sum(own[name]))
            for name in sorted(total)]


class Metrics:
    """Ordered per-layer metrics: name -> (value, unit, base)."""

    def __init__(self):
        self.items = collections.OrderedDict()

    def add(self, name, value, unit, base):
        self.items[name] = (value, unit, base)

    def add_ms_percentile(self, name, seconds, p, base):
        """A tail percentile with fewer than stats.MIN_BEYOND samples
        beyond it is still reported, with that noted in its base."""
        value, beyond = stats.nearest_rank(seconds, p)
        base = "%s, n=%d" % (base, len(seconds))
        if value is not None and p > 0.5 and beyond < stats.MIN_BEYOND:
            base += ", only %d beyond p%g" % (beyond, p * 100)
        self.add(name, None if value is None else value * 1e3, "ms", base)


def route_metrics(spans, replay):
    """Per-layer metrics of a route replay (see route_replay.cpp)."""
    m = Metrics()
    selftime = self_times(spans)
    plans = [s for s in spans if s.name == "planner.plan"]
    misses = set(replay["miss_requests"])
    plan_s = [s.duration for s in plans]
    enumerate_s = [selftime[s.id] for s in plans if s.request in misses]
    score_s = [s.duration for s in spans if s.name == "score.batch"]
    apply_s = [s.duration for s in spans if s.name == "traffic.apply"]

    m.add_ms_percentile("planner.plan_p50_ms", plan_s, 0.50, "Plan calls")
    m.add_ms_percentile("planner.plan_p99_ms", plan_s, 0.99, "Plan calls")
    lookups = replay["cache_hits"] + replay["cache_misses"]
    m.add("planner.hit_ratio", replay["cache_hits"] / lookups if lookups else None,
          "ratio", "cache lookups, n=%d" % lookups)
    for key in ("enumerations", "invalidations", "single_flight_waits",
                "alt_fallbacks"):
        m.add("planner." + key, replay[key], "count", "Plan calls, n=%d" % len(plans))
    m.add_ms_percentile("routing.enumerate_p50_ms", enumerate_s, 0.50,
                        "Plan self time on misses")
    m.add_ms_percentile("routing.enumerate_p99_ms", enumerate_s, 0.99,
                        "Plan self time on misses")
    counted = replay["counted_misses"]
    base = "sampled misses, n=%d" % counted
    m.add("routing.spur_searches_per_miss",
          replay["spur_searches"] / counted if counted else None, "count", base)
    m.add("routing.settled_per_miss",
          replay["settled"] / counted if counted else None, "count", base)
    m.add_ms_percentile("score.p50_ms", score_s, 0.50, "ScoreBatch calls")
    m.add_ms_percentile("score.p99_ms", score_s, 0.99, "ScoreBatch calls")
    calls = replay["score_calls"]
    base = "ScoreBatch calls, n=%d" % calls
    m.add("score.paths_per_call", replay["score_paths"] / calls if calls else None,
          "count", base)
    m.add("score.vertices_per_call",
          replay["score_vertices"] / calls if calls else None, "count", base)
    if apply_s:
        m.add_ms_percentile("traffic.apply_p50_ms", apply_s, 0.50,
                            "ApplyTraffic calls")
        m.add_ms_percentile("traffic.apply_p90_ms", apply_s, 0.90,
                            "ApplyTraffic calls")
        base = "store's rebuild-time ring, rebuilds=%d" % replay["rebuilds"]
        m.add("preprocess.rebuild_p50_ms", replay["rebuild_p50_s"] * 1e3, "ms", base)
        m.add("preprocess.rebuild_p99_ms", replay["rebuild_p99_s"] * 1e3, "ms", base)
        m.add("preprocess.rebuilds", replay["rebuilds"], "count",
              "traffic batches, n=%d" % len(apply_s))
        m.add("preprocess.epochs_behind_max", replay["epochs_behind_max"],
              "count", "read after each batch, n=%d" % len(apply_s))
    m.add("trace.overhead_ratio", replay["traced_s"] / replay["plain_s"],
          "ratio", "untraced replays of the first %d ops" % replay["overhead_ops"])
    return m


def train_metrics(spans, result):
    """Per-layer metrics of a traced train round (see train.cpp)."""
    m = Metrics()
    names = by_name(spans)
    for metric, name in (("traj.generate_s", "traj.generate"),
                         ("data.queries_s", "data.queries"),
                         ("embed.walks_s", "embed.walks"),
                         ("embed.skipgram_s", "embed.skipgram"),
                         ("eval.s", "eval.evaluate")):
        m.add(metric, sum(names[name]), "s", "%d call(s)" % len(names[name]))
    m.add("data.candidates", result["candidates"], "count", "candidate paths")
    r = result["round"]
    m.add("train.epoch_p50_s", stats.median(r["epoch_s"]), "s",
          "epochs run, n=%d" % len(r["epoch_s"]))
    m.add("train.samples", r["samples"], "count", "epochs run x training samples")
    m.add("train.final_loss", r["losses"][-1], "loss", "last epoch")
    m.add("eval.kendall_tau", r["kendall_tau"], "tau",
          "test queries, n=%d" % r["test_queries"])
    m.add("eval.spearman_rho", r["spearman_rho"], "rho",
          "test queries, n=%d" % r["test_queries"])
    m.add("trace.overhead_ratio", result["traced_s"] / result["plain_s"], "ratio",
          "untraced round on the same corpus")
    return m
