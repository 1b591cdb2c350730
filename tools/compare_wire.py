#!/usr/bin/env python3
"""Wire byte-identity check between two `pathrank_cli serve` builds.

Builds one small network, trip set and 1-epoch model with the first CLI,
then boots a server from each CLI in turn, once with `--spur-engine
dijkstra` and once with `alt`, and sends every server the same fixed,
seeded script over one keep-alive connection:

  - /v1/route for random vertex pairs, some with an explicit k, then the
    same requests again (cache hits);
  - /v1/score batches of random vertex sequences;
  - /v1/traffic batches (cost changes, closures, reopenings) between the
    route rounds, each followed by more routes;
  - the error taxonomy: unknown vertex, same vertex, bad JSON, bad k;
  - every other error body the server writes: a 405 for a wrong method
    on each endpoint, a 404 for an unknown endpoint, /v1/score and
    /v1/traffic validation errors, a 413 for a body over 1 MiB (the
    server then closes the connection, and the script reconnects) and a
    400 for a malformed request head (sent raw, on its own connection);
  - /healthz, and /statsz with its latency fields (keys ending in `_s`)
    removed.

Each answer's status and body must match the other CLI's byte for byte.
`--ignore a.b` removes the field at that dotted path from every JSON
body that has it before comparing, for a field one side no longer
sends. Exits 0 when every answer matches, 1 on a difference, 2 on a
usage or start-up error.

With `--spur-engine alt` the landmark tables are rebuilt in the
background after each /v1/traffic batch, and a query that runs before
the rebuild lands falls back to Dijkstra (its "algo" says so). The
script therefore polls /statsz after each batch until
`preprocessing.epochs_behind` is 0, on the same connection, and reports
`requests_total` net of those polls.

Usage: tools/compare_wire.py [--seed N] [--ignore PATH ...] CLI_A CLI_B
"""

import argparse
import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time

ROWS = 10
COLS = 10
ROUTES_PER_ROUND = 30
ROUNDS = 3
MAX_BODY_BYTES = 1 << 20  # the server's default body limit


def die(message):
    print("compare_wire: " + message, file=sys.stderr)
    sys.exit(2)


def run(argv, cwd):
    result = subprocess.run(argv, cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        die("%s failed:\n%s" % (" ".join(argv), result.stderr))


def build_inputs(cli, work):
    run([cli, "network", "--rows", str(ROWS), "--cols", str(COLS), "--seed",
         "1", "--out", "net"], work)
    run([cli, "simulate", "--network", "net", "--trips", "80", "--drivers",
         "6", "--min-distance", "500", "--out", "trips.csv"], work)
    run([cli, "train", "--network", "net", "--trips", "trips.csv", "--m", "8",
         "--hidden", "8", "--k", "4", "--epochs", "1", "--out", "model.bin"],
        work)
    with open(os.path.join(work, "net_edges.csv")) as f:
        return sum(1 for _ in f) - 1  # minus the header row


def post(path, obj):
    return ("POST", path, json.dumps(obj, separators=(",", ":")))


def make_script(seed, num_edges):
    """The fixed request list: (method, path, body or None) tuples, and
    "traffic" markers after which an ALT server is waited on."""
    rng = random.Random(seed)
    n = ROWS * COLS

    def routes():
        out = []
        for _ in range(ROUTES_PER_ROUND):
            source, destination = rng.sample(range(n), 2)
            body = {"source": source, "destination": destination}
            if rng.random() < 0.4:
                body["k"] = rng.choice([1, 2, 3, 5, 8, 12])
            out.append(post("/v1/route", body))
        return out

    def score_batch():
        paths = [[rng.randrange(n) for _ in range(rng.randint(1, 12))]
                 for _ in range(rng.randint(1, 6))]
        return post("/v1/score", {"paths": paths})

    def traffic_batch():
        updates = []
        for edge in rng.sample(range(num_edges), rng.randint(1, 8)):
            kind = rng.random()
            if kind < 0.6:
                updates.append({"edge": edge,
                                "travel_time_s": round(rng.uniform(5, 200), 3)})
            else:
                updates.append({"edge": edge, "closed": kind < 0.85})
        return post("/v1/traffic", {"updates": updates})

    script = [("GET", "/healthz", None)]
    first = routes()
    script += first
    script += first  # identical requests: cache hits
    script += [score_batch() for _ in range(5)]
    for _ in range(ROUNDS):
        script.append(traffic_batch())
        script.append("traffic")
        batch = routes()
        script += batch
        script += batch[: len(batch) // 2]
        script.append(score_batch())
    script += [
        post("/v1/route", {"source": n + 5, "destination": 0}),
        post("/v1/route", {"source": 0, "destination": n}),
        post("/v1/route", {"source": 7, "destination": 7}),
        ("POST", "/v1/route", "{not json"),
        ("POST", "/v1/score", "[1, 2"),
        post("/v1/route", {"source": 0, "destination": 9, "k": 0}),
        post("/v1/route", {"source": 0, "destination": 9, "k": -3}),
        post("/v1/route", {"source": 0, "destination": 9, "k": 1000}),
        post("/v1/route", {"source": 0, "destination": 9, "k": "five"}),
        post("/v1/score", {"paths": [[0, n + 1]]}),
        post("/v1/traffic", {"updates": [{"edge": num_edges + 3,
                                          "closed": True}]}),
        ("GET", "/v1/route", None),
        ("GET", "/v1/score", None),
        ("GET", "/v1/traffic", None),
        ("POST", "/healthz", "{}"),
        ("POST", "/statsz", "{}"),
        ("GET", "/v1/nope", None),
        post("/v1/score", {}),
        post("/v1/score", {"paths": 3}),
        post("/v1/score", {"paths": [[]]}),
        post("/v1/score", {"paths": [[0, -1]]}),
        post("/v1/score", {"paths": [[0, 1.5]]}),
        ("POST", "/v1/traffic", "{not json"),
        post("/v1/traffic", {}),
        post("/v1/traffic", {"updates": [7]}),
        post("/v1/traffic", {"updates": [{"closed": True}]}),
        post("/v1/traffic", {"updates": [{"edge": -1, "closed": True}]}),
        post("/v1/traffic", {"updates": [{"edge": 0, "travel_time_s": "x"}]}),
        post("/v1/traffic", {"updates": [{"edge": 0, "closed": "yes"}]}),
        post("/v1/traffic", {"updates": [{"edge": 0, "travel_time_s": 0}]}),
        post("/v1/traffic", {"updates": [{"edge": 0}]}),
        ("POST", "/v1/traffic", "x" * (MAX_BODY_BYTES + 1)),
        ("RAW", "malformed head", b"BOGUS\r\n\r\n"),
        ("GET", "/healthz", None),
        ("GET", "/statsz", None),
    ]
    return script


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def request(conn, method, path, body):
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def raw_request(port, data):
    """Sends `data` on a new connection and reads the answer until the
    server closes it; returns (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=60.0) as s:
        s.sendall(data)
        s.shutdown(socket.SHUT_WR)
        raw = b""
        while True:
            chunk = s.recv(4096)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), body


def connect(proc, port, timeout_s=60.0):
    """The one script connection, opened once the server listens.
    Refused attempts never reach the accept loop, so the server counts
    exactly one connection."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            die("server exited with code %d during start" % proc.returncode)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
        try:
            conn.connect()
            return conn
        except OSError:
            conn.close()
            time.sleep(0.01)
    die("server not listening after %.0f s" % timeout_s)


def strip(obj, path):
    """Removes the field at dotted `path` from `obj`; True if it was there."""
    *parents, last = path.split(".")
    for key in parents:
        if not isinstance(obj, dict) or key not in obj:
            return False
        obj = obj[key]
    if isinstance(obj, dict) and last in obj:
        del obj[last]
        return True
    return False


def strip_latency(obj):
    if isinstance(obj, dict):
        for key in [k for k in obj if k.endswith("_s")]:
            del obj[key]
        for value in obj.values():
            strip_latency(value)


def serve_script(cli, work, engine, script, ignore):
    """Runs `script` against one server; returns [(request, status, body)]."""
    port = free_port()
    log = open(os.path.join(work, "server-%s.log" % engine), "ab")
    proc = subprocess.Popen(
        [cli, "serve", "--network", "net", "--model", "model.bin",
         "--spur-engine", engine, "--http", str(port), "--http-addr",
         "127.0.0.1"],
        cwd=work, stdout=subprocess.DEVNULL, stderr=log)
    answers = []
    polls = 0
    try:
        conn = connect(proc, port)
        for item in script:
            if item == "traffic":
                while engine == "alt":
                    _, body = request(conn, "GET", "/statsz", None)
                    polls += 1
                    if json.loads(body)["preprocessing"]["epochs_behind"] == 0:
                        break
                    time.sleep(0.005)
                continue
            method, path, body = item
            if method == "RAW":
                status, raw = raw_request(port, body)
                answers.append(("RAW " + path, status, raw))
                continue
            status, raw = request(conn, method, path, body)
            obj = None
            if path == "/statsz" and status == 200:
                obj = json.loads(raw)
                strip_latency(obj)
                obj["requests_total"] -= polls
            for field in ignore:
                try:
                    candidate = obj if obj is not None else json.loads(raw)
                except ValueError:
                    continue
                if strip(candidate, field):
                    obj = candidate
            if obj is not None:
                raw = json.dumps(obj, sort_keys=True).encode()
            answers.append(("%s %s %s" % (method, path, (body or "")[:200]),
                            status, raw))
        conn.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        log.close()
    return answers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cli_a")
    parser.add_argument("cli_b")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="PATH",
                        help="dotted JSON field path to drop before diffing")
    args = parser.parse_args()
    for cli in (args.cli_a, args.cli_b):
        if not os.access(cli, os.X_OK):
            parser.error("not an executable: %s" % cli)
    cli_a = os.path.abspath(args.cli_a)
    cli_b = os.path.abspath(args.cli_b)

    differences = 0
    with tempfile.TemporaryDirectory() as work:
        num_edges = build_inputs(cli_a, work)
        script = make_script(args.seed, num_edges)
        for engine in ("dijkstra", "alt"):
            a = serve_script(cli_a, work, engine, script, args.ignore)
            b = serve_script(cli_b, work, engine, script, args.ignore)
            for (what, status_a, body_a), (_, status_b, body_b) in zip(a, b):
                if (status_a, body_a) != (status_b, body_b):
                    differences += 1
                    if differences <= 5:
                        at = next((i for i, (x, y) in
                                   enumerate(zip(body_a, body_b)) if x != y),
                                  min(len(body_a), len(body_b)))
                        start = max(0, at - 80)
                        print("DIFF [%s] %s (body byte %d)\n  A %d ...%s\n"
                              "  B %d ...%s"
                              % (engine, what[:200], at, status_a,
                                 body_a[start:at + 80], status_b,
                                 body_b[start:at + 80]))
            print("compare_wire: %s: %d answers compared" % (engine, len(a)))
    if differences:
        print("compare_wire: %d answer(s) differ" % differences)
        return 1
    print("compare_wire: every answer is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
