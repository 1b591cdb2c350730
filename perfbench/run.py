#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload route_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds pathrank_cli and perfbench_inproc
into .bench_build/perfbench, generates the workload's inputs from the
seed, measures for --seconds, checks every output, and prints an
environment header, one line per metric (name, value, unit, samples) and,
last, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
Exits non-zero, printing no result, when the build or a workload fails.
See perfbench/README.md."""

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import build, envinfo, server, workloads  # noqa: E402


def read_manifest(path):
    """{"end_to_end": [(name, unit)], "per_layer": [(name, unit)]} from
    BENCHMARK.json, the list of metrics every run must print."""
    with open(path) as f:
        manifest = json.load(f)
    return {key: [(m["name"], m["unit"]) for m in manifest[key]]
            for key in ("end_to_end", "per_layer")}


def check_names(manifest, result):
    """Raises unless the workload measured every end-to-end metric and
    only per-layer metrics of the manifest, each in the manifest's unit."""
    for key, measured in (("end_to_end", result.metrics),
                          ("per_layer", result.layers.items)):
        units = dict(manifest[key])
        for name, value in measured.items():
            if units.get(name) != value[1]:
                raise RuntimeError("%s metric %s in %s is not in BENCHMARK.json"
                                   % (key, name, value[1]))
        if key == "end_to_end" and set(measured) != set(units):
            raise RuntimeError("no end-to-end metric %s"
                               % ", ".join(sorted(set(units) - set(measured))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--live-p99-limit-ms", type=float, required=True,
                        help="route_live: the p99 a rung of the rate "
                             "ladder must meet to count for route_max_rps")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        manifest = read_manifest(os.path.join(root, "BENCHMARK.json"))
        bins = build.build(root)
        ctx = workloads.Context(bins, args.workload, args.seed, args.seconds,
                                args.trace, args.live_p99_limit_ms)
        result = workloads.WORKLOADS[args.workload](ctx)
        check_names(manifest, result)
    except Exception as e:  # noqa: BLE001 - any failure means no result
        print("perfbench: %s: %s" % (args.workload, e), file=sys.stderr)
        return 1

    header = [("workload", args.workload), ("seed", args.seed),
              ("seconds", args.seconds), ("trace", args.trace),
              ("server threads", "PATHRANK_THREADS=%d" % workloads.SERVER_THREADS),
              ("train threads", "PATHRANK_THREADS=%d" % workloads.TRAIN_THREADS),
              ("malloc", "MALLOC_ARENA_MAX=%d" % server.MALLOC_ARENAS)]
    for line in envinfo.header(root, bins["dir"], header):
        print(line)
    for key, value in result.header:
        print("# %-16s %s" % (key, value))
    for problem in result.problems:
        print("# FAILED %s" % problem)

    metrics = {}
    if args.trace:
        # Every workload reports every per-layer metric; a layer the
        # workload does not run reads 0.
        for name, unit in manifest["per_layer"]:
            value, got, base = result.layers.items.get(
                name, (None, unit, "not run by this workload"))
            if value is None:
                value = 0.0
                if base != "not run by this workload":
                    base += ": no samples"
            print("%-34s %12.4f %-6s (%s)" % (name, value, got, base))
            metrics[name] = {"value": value, "unit": got}
    else:
        for name, unit in manifest["end_to_end"]:
            value, got, samples = result.metrics[name]
            print("%-34s %12.4f %-6s samples=%d" % (name, value, got, samples))
            metrics[name] = {"value": value, "unit": got}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": result.failed == 0 and finite,
                      "attempted": max(1, result.attempted),
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
