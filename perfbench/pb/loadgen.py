"""Runs perfbench_load (load/main.cpp) and reads back what it sent.
Latency is always timed from the request's due time, so a stall also
counts against every request queued behind it."""

import json
import subprocess


class Sent:
    """One request as sent: its key (route (source, destination) or
    traffic batch index), due/send/completion times in seconds from the
    start, HTTP status (0 = connection failed), response body, the
    traffic epoch acknowledged before it was sent, and the generator's
    own lateness."""

    __slots__ = ("key", "due", "sent", "done", "status", "body", "min_epoch",
                 "late")

    @property
    def latency(self):
        return self.done - self.due

    @property
    def error(self):
        return None if self.status else "connection failed"


def run(binary, plan_path, result_path, port, mode, connections, seconds,
        routes, traffic=(), min_count=0):
    """routes: [(due_s, key)]; traffic: [(due_s, index, body bytes)].
    Closed mode sends for `seconds` but at least `min_count` routes.
    Returns (sent routes, sent traffic) in plan order."""
    with open(plan_path, "w") as f:
        f.write("port %d\nmode %s\nconnections %d\nseconds %r\nmin_count %d\n"
                % (port, mode, connections, seconds, min_count))
        for due, key in routes:
            f.write("R %r %s\n" % (due, json.dumps(
                {"source": key[0], "destination": key[1]})))
        for due, _index, body in traffic:
            f.write("T %r %s\n" % (due, body.decode()))
    out = subprocess.run([binary, plan_path, result_path],
                         capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise RuntimeError("perfbench_load failed: %s" % out.stderr.strip())
    keys = {"R": [key for _, key in routes],
            "T": [index for _, index, _ in traffic]}
    sent = {"R": [], "T": []}
    with open(result_path, "rb") as f:
        for line in f:
            head, _, body = line.rstrip(b"\n").partition(b"\t")
            kind, index, due, at, done, status, epoch, late = head.split()
            item = Sent()
            kind = kind.decode()
            item.key = keys[kind][int(index)]
            item.due, item.sent, item.done, item.late = (
                int(x) * 1e-9 for x in (due, at, done, late))
            item.status, item.min_epoch = int(status), int(epoch)
            item.body = body
            sent[kind].append(item)
    return sent["R"], sent["T"]
