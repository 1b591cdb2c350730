"""The shipped server as a child process."""

import http.client
import os
import signal
import socket
import subprocess
import time


def request(conn, method, path, body=None):
    """Sends one request on `conn`; returns (status, body bytes)."""
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """`pathrank_cli serve --http` on a free loopback port.

    Readiness is polled on /healthz rather than read from the startup
    banner: the CLI's stdout is block-buffered when it is a pipe, so the
    banner only arrives at exit."""

    def __init__(self, argv, env, log_path):
        self.port = free_port()
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv + ["--http", str(self.port), "--http-addr", "127.0.0.1"],
            stdout=subprocess.DEVNULL, stderr=self.log, env=env)

    def wait_ready(self, timeout_s=60.0):
        """Polls /healthz until it answers 200; returns the keep-alive
        connection that answered, for the caller to reuse and close."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited with code %d during start"
                                   % self.proc.returncode)
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=60.0)
            try:
                status, _ = request(conn, "GET", "/healthz")
            except (OSError, http.client.HTTPException):
                conn.close()
                time.sleep(0.001)
                continue
            if status == 200:
                return conn
            conn.close()
        raise RuntimeError("server not ready after %.0f s" % timeout_s)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def cpu_s(self):
        """CPU time (user + system, every thread) the server has used."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rpartition(")")[2].split()
        # utime and stime, fields 14 and 15 of proc(5), in clock ticks.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


# glibc malloc arenas of every measured process: one, so peak RSS does
# not depend on how many connection threads happened to allocate.
MALLOC_ARENAS = 1


def program_env(threads):
    """The environment every measured process runs in: the compute pool
    pinned to `threads` and MALLOC_ARENAS arenas."""
    env = dict(os.environ)
    env["PATHRANK_THREADS"] = str(threads)
    env["MALLOC_ARENA_MAX"] = str(MALLOC_ARENAS)
    return env
