#!/usr/bin/env python3
"""Live-reload check for `pathrank_cli serve --watch-model/--watch-graph`.

Builds a 6x6 network, two models for it and one model for a 5x5 network
with the CLI, then boots

  serve --network net --model served.bin --watch-model 1 --watch-graph 1
        --watch-interval-ms 50

and checks, through /healthz and the server's log:

  - replacing served.bin with the second model moves `swap_count` from
    0 to 1;
  - rewriting net_edges.csv with changed travel times moves
    `graph_epoch` from 0 to 1;
  - replacing served.bin with the 5x5 model is rejected (the log says
    so), `swap_count` stays 1 and /v1/route still answers 200.

Each file is written to a temporary path, given an mtime two seconds past
the old one with os.utime (so a coarse filesystem timestamp cannot hide
the rewrite) and renamed into place, so the watcher never reads a partial
file. Every wait is bounded, and the server is stopped on every exit path.
Exits 0 when every check holds, 1 when one fails, 2 on a set-up error.

Usage: tools/check_hot_reload.py PATH/TO/pathrank_cli
"""

import csv
import http.client
import io
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

WAIT_S = 20.0


class CheckFailed(Exception):
    pass


def die(message):
    print("check_hot_reload: " + message, file=sys.stderr)
    sys.exit(2)


def run(argv, cwd):
    result = subprocess.run(argv, cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        die("%s failed:\n%s" % (" ".join(argv), result.stderr))


def build_inputs(cli, work):
    """net + models a.bin, b.bin (6x6) and other.bin (5x5)."""
    for prefix, rows in (("net", "6"), ("other", "5")):
        run([cli, "network", "--rows", rows, "--cols", rows, "--seed", "1",
             "--out", prefix], work)
        run([cli, "simulate", "--network", prefix, "--trips", "30",
             "--drivers", "4", "--min-distance", "500", "--out",
             prefix + "_trips.csv"], work)
    for model, prefix, seed in (("a.bin", "net", "1"), ("b.bin", "net", "2"),
                                ("other.bin", "other", "1")):
        run([cli, "train", "--network", prefix, "--trips",
             prefix + "_trips.csv", "--m", "4", "--hidden", "4", "--k", "3",
             "--epochs", "1", "--seed", seed, "--out", model], work)


def replace_file(path, data):
    """Writes `data` to `path` via a renamed temporary file whose mtime is
    two seconds past the old file's."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    mtime_ns = max(os.stat(path).st_mtime_ns + 2_000_000_000, time.time_ns())
    os.utime(tmp, ns=(mtime_ns, mtime_ns))
    os.replace(tmp, path)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def slower_edges(path):
    """The edges CSV with every travel time 1.5 times longer."""
    rows = list(csv.reader(io.StringIO(read(path).decode())))
    column = rows[0].index("travel_time_s")
    for row in rows[1:]:
        row[column] = "%.3f" % (float(row[column]) * 1.5)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def healthz(port):
    status, body = request(port, "GET", "/healthz")
    if status != 200:
        raise CheckFailed("/healthz answered %d" % status)
    return json.loads(body)


def wait_for(what, predicate):
    deadline = time.monotonic() + WAIT_S
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise CheckFailed("timed out after %.0f s waiting for %s" % (WAIT_S, what))


def wait_listening(proc, port):
    def listening():
        if proc.poll() is not None:
            raise CheckFailed("server exited with code %d during start"
                              % proc.returncode)
        try:
            request(port, "GET", "/healthz")
            return True
        except OSError:
            return False
    wait_for("the server to listen", listening)


def drill(port, work, log_path):
    health = healthz(port)
    if (health["swap_count"], health["graph_epoch"]) != (0, 0):
        raise CheckFailed("booted with swap_count %d, graph_epoch %d"
                          % (health["swap_count"], health["graph_epoch"]))

    replace_file(os.path.join(work, "served.bin"),
                 read(os.path.join(work, "b.bin")))
    wait_for("swap_count 1 after the model rewrite",
             lambda: healthz(port)["swap_count"] == 1)

    edges = os.path.join(work, "net_edges.csv")
    replace_file(edges, slower_edges(edges))
    wait_for("graph_epoch 1 after the edges rewrite",
             lambda: healthz(port)["graph_epoch"] == 1)

    replace_file(os.path.join(work, "served.bin"),
                 read(os.path.join(work, "other.bin")))
    wait_for("the log to report the mismatched model",
             lambda: b"no longer matches the network" in read(log_path))
    health = healthz(port)
    if health["swap_count"] != 1:
        raise CheckFailed("a mismatched model moved swap_count to %d"
                          % health["swap_count"])
    status, body = request(port, "POST", "/v1/route",
                           json.dumps({"source": 0, "destination": 35}))
    if status != 200:
        raise CheckFailed("/v1/route after the rejected model answered %d: "
                          "%s" % (status, body[:200]))


def main():
    if len(sys.argv) != 2 or not os.access(sys.argv[1], os.X_OK):
        die("usage: %s PATH/TO/pathrank_cli" % sys.argv[0])
    cli = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as work:
        build_inputs(cli, work)
        os.replace(os.path.join(work, "a.bin"),
                   os.path.join(work, "served.bin"))
        port = free_port()
        log_path = os.path.join(work, "server.log")
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [cli, "serve", "--network", "net", "--model", "served.bin",
                 "--http", str(port), "--http-addr", "127.0.0.1",
                 "--watch-model", "1", "--watch-graph", "1",
                 "--watch-interval-ms", "50"],
                cwd=work, stdout=log, stderr=subprocess.STDOUT)
            try:
                wait_listening(proc, port)
                drill(port, work, log_path)
            except (CheckFailed, OSError, ValueError, KeyError) as e:
                print("check_hot_reload: FAILED: %s" % e)
                print(read(log_path).decode(errors="replace"))
                return 1
            finally:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
    print("check_hot_reload: a model rewrite swapped once, an edges rewrite "
          "moved the graph epoch, and a mismatched model was rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
