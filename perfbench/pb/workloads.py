"""The three workloads. Each returns a Result; run.py prints it.

route_cold and route_live drive the shipped `pathrank_cli serve --http`
over loopback; train runs the training pipeline in process. Inputs are
generated from the seed and from fixed constants below. See
perfbench/README.md for why each exists."""

import http.client
import json
import math
import os
import random
import subprocess
import time

from pb import checks, loadgen, schedule, stats, trace_summary
from pb.server import Server, program_env, request

# The road network is fixed; the seed varies streams and weights.
NETWORK = {"rows": 24, "cols": 24, "net-seed": 42}
# Served as `serve --strategy dtkdi --k 10 --spur-engine alt` with the
# CLI's default similarity threshold, landmark count and route cache.
SERVE = {"k": 10, "threshold": 0.6, "landmarks": 8, "cache": 1024}
# Random-init checkpoint of the CLI's default shape (--m 64 --hidden 64).
MODEL = {"m": 64, "hidden": 64}
# PATHRANK_THREADS for the server and for the train process. One thread
# repeats within 2% run to run on a shared 4-core host; more do not.
SERVER_THREADS = 1
TRAIN_THREADS = 1
# Set-up is repeated this many times per run; setup_s is the median.
# The host's speed wanders on the scale of a second: route_cold's set-up
# lasts about 50 ms and takes eleven, route_live's about a second and
# takes five, train's about three seconds and takes three.
COLD_SETUPS = 11
LIVE_SETUPS = 5
TRAIN_SETUPS = 3
# The open-loop generator may slip this far behind a due time (p99)
# before the run is marked invalid.
GEN_LATE_BOUND_MS = 10.0

# route_cold's trips are fixed by corpus_seed: every run sends the same
# keys (the run's seed shuffles their order and draws the model's
# weights), so the enumeration work is the same in every run. A run sends
# `per_second` keys per --seconds, about what one closed-loop client gets
# through on a 4-core host, and never fewer than a p99 needs.
COLD = {"trips": 8000, "corpus_seed": 5, "per_second": 50, "warm": 16,
        "warm_pool": 200, "miss_sample": 4, "reference": 16}
# Ops of the untraced replays that trace.overhead_ratio compares against.
OVERHEAD_OPS = 300
# route_live's generator uses one thread per connection: `connections`
# for reads plus one for writes, no more than nproc. Its trips are fixed
# by corpus_seed, so set-up warms the same pooled keys in every run; the
# run's seed drives the arrival times (and the model's weights).
LIVE = {"trips": 30000, "drivers": 60, "pairs": 4, "commute": 0.9,
        "max_distance_m": 6000, "corpus_seed": 11,
        "connections": max(1, min(3, (os.cpu_count() or 1) - 1)),
        "rates": [200, 400, 800, 1600], "period_s": 6.0,
        "burst": 50, "window": 32, "miss_sample": 4}
# The train corpus is fixed by corpus-seed; the run's seed varies only
# the node2vec, model and trainer seeds.
TRAIN = {"rows": 16, "cols": 16, "net-seed": 42, "corpus-seed": 7,
         "trips": 300, "drivers": 20, "epochs": 4}


class Context:
    """One run: the built programs, the run's flags and its scratch
    directory, emptied on creation."""

    def __init__(self, bins, workload, seed, seconds, trace,
                 live_p99_limit_ms):
        self.bins, self.seed, self.seconds = bins, seed, seconds
        self.trace, self.live_p99_limit_ms = trace, live_p99_limit_ms
        self.work = os.path.join(bins["dir"], "work", workload)
        os.makedirs(self.work, exist_ok=True)
        for name in os.listdir(self.work):
            os.remove(os.path.join(self.work, name))

    def path(self, name):
        return os.path.join(self.work, name)

    def inproc(self, args, threads=SERVER_THREADS):
        """Runs perfbench_inproc; returns its stdout lines, each parsed as
        JSON."""
        out = subprocess.run([self.bins["inproc"]] + [str(a) for a in args],
                             capture_output=True, text=True,
                             env=program_env(threads), check=False)
        if out.returncode != 0:
            raise RuntimeError("perfbench_inproc %s failed: %s"
                               % (args[0], out.stderr.strip()))
        return [json.loads(line) for line in out.stdout.splitlines() if line]

    def serving_flags(self):
        return ["--dir", self.work, "--k", SERVE["k"], "--threshold",
                SERVE["threshold"], "--landmarks", SERVE["landmarks"],
                "--cache", SERVE["cache"]]


class Result:
    """End-to-end metrics (value, unit, samples), per-layer metrics,
    operation counts, and any check failures."""

    def __init__(self):
        self.metrics = {}
        self.layers = trace_summary.Metrics()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.header = []

    def add(self, name, value, unit, samples):
        self.metrics[name] = (value, unit, samples)

    def fail(self, problem):
        if len(self.problems) < 20:
            self.problems.append(problem)


def make_inputs(ctx):
    info = ctx.inproc(["inputs", "--dir", ctx.work, "--seed", ctx.seed,
                       "--rows", NETWORK["rows"], "--cols", NETWORK["cols"],
                       "--net-seed", NETWORK["net-seed"], "--m", MODEL["m"],
                       "--hidden", MODEL["hidden"], "--cold-trips",
                       COLD["trips"], "--cold-corpus-seed",
                       COLD["corpus_seed"], "--live-trips", LIVE["trips"],
                       "--live-drivers", LIVE["drivers"], "--live-pairs",
                       LIVE["pairs"], "--live-commute", LIVE["commute"],
                       "--live-max-distance", LIVE["max_distance_m"],
                       "--live-corpus-seed", LIVE["corpus_seed"]])[-1]
    return info, checks.Network(ctx.path("net"))


def server_argv(ctx):
    return [ctx.bins["cli"], "serve", "--network", ctx.path("net"),
            "--model", ctx.path("model.bin"), "--strategy", "dtkdi",
            "--k", str(SERVE["k"]), "--threshold", str(SERVE["threshold"]),
            "--spur-engine", "alt", "--landmarks", str(SERVE["landmarks"]),
            "--route-cache", str(SERVE["cache"])]


def start_server(ctx, warm_keys, setups, result):
    """Set-up, `setups` times: spawn the server, wait for /healthz,
    send the warm-up keys one after another on the connection that
    answered it. Keeps the last server; setup_s is the median."""
    times = []
    server = None
    for i in range(setups):
        start = time.perf_counter()
        server = Server(server_argv(ctx), program_env(SERVER_THREADS),
                        ctx.path("server.log"))
        try:
            conn = server.wait_ready()
            try:
                for key in warm_keys:
                    body = json.dumps({"source": key[0],
                                       "destination": key[1]}).encode()
                    status, _ = request(conn, "POST", "/v1/route", body)
                    if status != 200:
                        raise RuntimeError("warm-up request %r answered %d"
                                           % (key, status))
            finally:
                conn.close()
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - start)
        if i < setups - 1:
            server.stop()
    result.add("setup_s", stats.median(times), "s", len(times))
    return server


def statsz(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        status, body = request(conn, "GET", "/statsz")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError("/statsz answered %d" % status)
    return json.loads(body)


def check_routes(sent, network, result, expect_miss):
    """Validates every route response; returns per-request success."""
    ok = []
    for item in sent:
        result.attempted += 1
        problems = []
        if item.error:
            problems = ["transport: " + item.error]
        elif item.status != 200:
            problems = ["HTTP %d" % item.status]
        else:
            problems = checks.check_route(
                json.loads(item.body), item.key[0], item.key[1], SERVE["k"],
                network, item.min_epoch, expect_miss)
        if problems:
            result.failed += 1
            result.fail("route %r: %s" % (item.key, "; ".join(problems)))
        ok.append(not problems)
    return ok


def latencies(sent, ok):
    """Seconds from due time to answer; a failed request never meets a
    latency limit, so it counts as infinitely slow."""
    return [item.latency if good else math.inf for item, good in zip(sent, ok)]


def add_route_metrics(result, lat, cpu_s):
    """cpu_ms_per_op of a route workload's gated load (one op is one
    /v1/route request), and its client latencies. route_live's latency
    follows the host's thread wake-ups and varies more than any bound
    from run to run (README.md), so the latencies are per-layer metrics."""
    result.add("cpu_ms_per_op", cpu_s / len(lat) * 1e3, "ms", len(lat))
    for name, p in (("route_p50_ms", 0.50), ("route_p99_ms", 0.99)):
        result.layers.add_ms_percentile(name, lat, p,
                                        "due-time latency of the gated load")


def add_http_layers(result, snapshot, late_s):
    route = snapshot["endpoints"]["/v1/route"]
    ring = "server ring of recent /v1/route, requests=%d" % route["requests"]
    result.layers.add("http.server_route_p50_ms", route["latency_p50_s"] * 1e3,
                      "ms", ring)
    result.layers.add("http.server_route_p99_ms", route["latency_p99_s"] * 1e3,
                      "ms", ring)
    result.layers.add("http.requests", snapshot["requests_total"], "count",
                      "every parsed request")
    result.layers.add("http.failed",
                      sum(e["errors"] for e in snapshot["endpoints"].values()),
                      "count", "answered 4xx/5xx")
    result.layers.add("http.shed", snapshot["shed_total"], "count", "answered 429")
    result.layers.add_ms_percentile("gen.late_p99_ms", late_s, 0.99,
                                    "route sends behind their due time")


def replay(ctx, ops, miss_sample, result):
    stream = ctx.path("replay_stream.txt")
    schedule.write_stream(stream, ops)
    trace_path = ctx.path("trace.txt")
    out = ctx.inproc(["replay"] + ctx.serving_flags() +
                     ["--stream", stream, "--miss-sample", miss_sample,
                      "--overhead-ops", OVERHEAD_OPS,
                      "--trace-out", trace_path])[-1]
    if out["failures"]:
        result.failed += out["failures"]
        result.fail("in-process replay: %d failed ops" % out["failures"])
    spans = trace_summary.load_spans(trace_path)
    for name, value in trace_summary.route_metrics(spans, out).items.items():
        result.layers.add(name, *value)
    result.header.extend(("span", line)
                         for line in trace_summary.name_table(spans))


def error_rate(result):
    result.layers.add("error_rate", result.failed / max(1, result.attempted),
                      "ratio", "operations, n=%d" % result.attempted)


def route_cold(ctx):
    """One-off trips, every key distinct, one closed-loop client."""
    result = Result()
    info, network = make_inputs(ctx)
    result.header.append(("network", "%d vertices, %d edges"
                          % (info["vertices"], info["edges"])))
    keys = schedule.distinct_keys(schedule.read_trips(ctx.path("trips_cold.csv")))
    # Warm up on the shortest trips of the corpus's head: they exercise
    # every layer at a small cost, so setup_s measures mostly the
    # server's boot.
    head = sorted(keys[:COLD["warm_pool"]], key=lambda k: network.distance_m(*k))
    warm = head[:COLD["warm"]]
    warm_set = set(warm)
    count = max(stats.min_samples(0.99), int(COLD["per_second"] * ctx.seconds))
    keys = [key for key in keys if key not in warm_set][:count]
    random.Random(ctx.seed).shuffle(keys)

    server = start_server(ctx, warm, COLD_SETUPS, result)
    try:
        cpu_s = server.cpu_s()
        # Sends every key, however long that takes.
        sent, _ = loadgen.run(ctx.bins["load"], ctx.path("plan.txt"),
                              ctx.path("sent.txt"), server.port, "closed", 1,
                              0.0, [(0.0, key) for key in keys],
                              min_count=len(keys))
        cpu_s = server.cpu_s() - cpu_s
        snapshot = statsz(server.port)
        result.add("peak_rss_mb", server.peak_rss_mb(), "MiB", 1)
    finally:
        server.stop()

    ok = check_routes(sent, network, result, expect_miss=True)
    add_route_metrics(result, latencies(sent, ok), cpu_s)

    # A seeded sample must equal an in-process planner bitwise.
    rng = random.Random(ctx.seed)
    served = [item for item, good in zip(sent, ok) if good]
    sample = rng.sample(served, min(COLD["reference"], len(served)))
    stream = ctx.path("reference_stream.txt")
    schedule.write_stream(stream, [("R", item.key) for item in sample])
    reference = ctx.inproc(["reference"] + ctx.serving_flags() +
                           ["--stream", stream])
    for item, expected in zip(sample, reference):
        if not checks.same_answer(json.loads(item.body), expected):
            result.failed += 1
            result.fail("route %r differs from the in-process planner" % (item.key,))

    if ctx.trace:
        add_http_layers(result, snapshot, [item.late for item in sent])
        # Just enough for the per-layer p99s.
        replay(ctx, [("R", key) for key in keys[:stats.min_samples(0.99)]],
               COLD["miss_sample"], result)
    error_rate(result)
    return result


def live_rungs(ctx, keys):
    """The rate ladder. The first rung is the fixed rate and runs for the
    run's seconds; the others are just long enough for a p99
    (stats.min_samples(0.99) requests)."""
    first, *rest = LIVE["rates"]
    floor = stats.min_samples(0.99)
    rungs = [(first, max(floor, int(first * ctx.seconds)))]
    rungs += [(rate, floor) for rate in rest]
    return schedule.live_plan(ctx.seed, keys, rungs, LIVE["period_s"],
                              LIVE["burst"])


def route_live(ctx):
    """Commute traffic: open-loop reads at a fixed rate over warm pooled
    keys, plus periodic /v1/traffic write bursts. A traced run goes on up
    the rate ladder."""
    result = Result()
    info, network = make_inputs(ctx)
    result.header.append(("network", "%d vertices, %d edges"
                          % (info["vertices"], info["edges"])))
    trips = schedule.read_trips(ctx.path("trips_live.csv"))
    keys = [(s, d) for s, d, _ in trips if s != d]
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    pooled = [key for key in counts if counts[key] > 1]
    plan = live_rungs(ctx, keys)
    limit_s = ctx.live_p99_limit_ms / 1e3

    def batch_updates(index):
        return schedule.traffic_batch(index, LIVE["window"], network.travel_time_s)

    def batch_body(index):
        return json.dumps({"updates": [{"edge": e, "travel_time_s": t}
                                       for e, t in batch_updates(index)]}).encode()

    server = start_server(ctx, pooled, LIVE_SETUPS, result)
    runs = []
    snapshot = None
    try:
        # An untraced run sends the fixed rate only; the rest of the
        # ladder feeds route_max_rps, a per-layer metric.
        for rung in plan if ctx.trace else plan[:1]:
            cpu_s = server.cpu_s()
            routes, traffic = loadgen.run(
                ctx.bins["load"], ctx.path("plan.txt"), ctx.path("sent.txt"),
                server.port, "open", LIVE["connections"], 0.0,
                list(zip(rung.offsets, rung.keys)),
                [(offset, index, batch_body(index))
                 for offset, index in rung.traffic])
            cpu_s = server.cpu_s() - cpu_s
            ok = check_routes(routes, network, result, expect_miss=False)
            for item in traffic:
                result.attempted += 1
                if item.error or item.status != 200:
                    result.failed += 1
                    result.fail("traffic batch %d: %s"
                                % (item.key, item.error or item.status))
            lat = latencies(routes, ok)
            p99 = stats.percentile(lat, 0.99)
            tail = routes[-max(1, len(routes) // 20):]
            backlog_s = max(item.sent - item.due for item in tail)
            passed = (p99 is not None and p99 <= limit_s and all(ok)
                      and backlog_s <= limit_s)
            runs.append((rung, routes, traffic, lat, passed, cpu_s))
            if snapshot is None:  # the server's view of the fixed rate
                snapshot = statsz(server.port)
            result.header.append(("rung %d/s" % rung.rate,
                                  "p50 %.2f ms  p99 %s ms  backlog %.1f ms  %s"
                                  % (stats.percentile(lat, 0.5) * 1e3,
                                     "%.2f" % (p99 * 1e3) if p99 is not None else "n/a",
                                     backlog_s * 1e3,
                                     "meets" if passed else "misses")))
            if not passed:
                break
        result.add("peak_rss_mb", server.peak_rss_mb(), "MiB", 1)
    finally:
        server.stop()

    # The fixed rate is the gated load. Its write latencies vary more
    # than any bound from run to run on a shared host (README.md), and so
    # does the ladder's top rung, so they are per-layer metrics.
    _, _, traffic, lat, _, cpu_s = runs[0]
    add_route_metrics(result, lat, cpu_s)
    traffic_lat = [item.latency if item.status == 200 else math.inf
                   for item in traffic]
    for name, p in (("traffic_p50_ms", 0.50), ("traffic_p90_ms", 0.90)):
        result.layers.add_ms_percentile(name, traffic_lat, p,
                                        "due-time latency at the fixed rate")
    passing = [run[0] for run in runs if run[4]]
    best = passing[-1] if passing else None
    # The offered rate of the highest rung that met the limit, as
    # scheduled: its requests over the span of their due times.
    result.layers.add("route_max_rps",
                      len(best.offsets) / best.span_s if best else 0.0, "1/s",
                      "highest of %d rungs run meeting p99 <= %g ms"
                      % (len(runs), ctx.live_p99_limit_ms))

    late = [item.late for run in runs for item in run[1]]
    late_p99 = stats.percentile(late, 0.99)  # defined: rung 0 has >= 1000
    result.header.append(("generator late", "p99 %.3f ms (bound %.0f ms)"
                          % (late_p99 * 1e3, GEN_LATE_BOUND_MS)))
    if late_p99 * 1e3 > GEN_LATE_BOUND_MS:
        result.failed += 1
        result.fail("generator fell behind: late p99 %.2f ms > %.0f ms"
                    % (late_p99 * 1e3, GEN_LATE_BOUND_MS))

    if ctx.trace:
        add_http_layers(result, snapshot, late)
        ops = []
        for rung in plan:
            ops.extend(rung.stream(batch_updates))
        replay(ctx, ops, LIVE["miss_sample"], result)
    error_rate(result)
    return result


def train_flags(ctx):
    return ["--seed", ctx.seed, "--corpus-seed", TRAIN["corpus-seed"],
            "--rows", TRAIN["rows"], "--cols", TRAIN["cols"],
            "--net-seed", TRAIN["net-seed"], "--trips",
            TRAIN["trips"], "--drivers", TRAIN["drivers"], "--k", SERVE["k"],
            "--threshold", SERVE["threshold"], "--m", MODEL["m"], "--hidden",
            MODEL["hidden"], "--epochs", TRAIN["epochs"]]


def train(ctx):
    """node2vec, TrainPathRank and Evaluate in process on a simulated
    corpus, with PATHRANK_THREADS pinned."""
    result = Result()
    result.header.append(("network", "%dx%d grid (train)"
                          % (TRAIN["rows"], TRAIN["cols"])))
    out = ctx.inproc(["train", "--mode", "gated", "--setups", TRAIN_SETUPS,
                      "--seconds", ctx.seconds] + train_flags(ctx),
                     threads=TRAIN_THREADS)[-1]
    rounds = out["rounds"]
    hashes = {r["hash"] for r in rounds}
    for r in rounds:
        result.attempted += 1
        if not r["finite"] or not all(math.isfinite(x) for x in r["losses"]):
            result.failed += 1
            result.fail("round with a non-finite loss or weight")
    if len(hashes) != 1:
        result.failed += 1
        result.fail("trained-weights hash differs between rounds: %s"
                    % sorted(hashes))
    result.header.append(("weights hash", ", ".join(sorted(hashes))))
    # One op is one training sample.
    result.add("cpu_ms_per_op",
               stats.median([r["train_cpu_s"] / r["samples"] * 1e3
                             for r in rounds]), "ms", len(rounds))
    epoch_rates = [r["samples"] / len(r["epoch_s"]) / s
                   for r in rounds for s in r["epoch_s"]]
    result.layers.add("train_samples_per_s", stats.median(epoch_rates), "1/s",
                      "every epoch of every round, n=%d" % len(epoch_rates))
    result.layers.add("embed_s", stats.median([r["embed_s"] for r in rounds]),
                      "s", "TrainNode2Vec, rounds, n=%d" % len(rounds))
    result.add("setup_s", stats.median(out["setup_s"]), "s", len(out["setup_s"]))
    result.add("peak_rss_mb", out["peak_rss_mb"], "MiB", 1)

    if ctx.trace:
        trace_path = ctx.path("trace.txt")
        traced = ctx.inproc(["train", "--mode", "traced", "--trace-out",
                             trace_path] + train_flags(ctx),
                            threads=TRAIN_THREADS)[-1]
        if not traced["same_hash"] or traced["round"]["hash"] not in hashes:
            result.failed += 1
            result.fail("traced round trained different weights")
        spans = trace_summary.load_spans(trace_path)
        for name, value in trace_summary.train_metrics(spans, traced).items.items():
            result.layers.add(name, *value)
        result.header.extend(("span", line)
                             for line in trace_summary.name_table(spans))
    error_rate(result)
    return result


WORKLOADS = {"route_cold": route_cold, "route_live": route_live, "train": train}
