"""Builds the server and the in-process helper from the checkout."""

import os
import shutil
import subprocess


def build(root):
    """Configures (once) and builds; returns {name: path}. Raises
    RuntimeError with the build log's tail when the build fails."""
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                log, log_path)
        run(["cmake", "--build", build_dir, "--parallel",
             str(os.cpu_count() or 1), "--target", "pathrank_cli",
             "perfbench_inproc", "perfbench_load"], log, log_path)
    return {
        "dir": build_dir,
        "cli": os.path.join(build_dir, "pathrank", "pathrank_cli"),
        "inproc": os.path.join(build_dir, "perfbench_inproc"),
        "load": os.path.join(build_dir, "perfbench_load"),
    }


def run(argv, log, log_path):
    log.flush()
    if subprocess.call(argv, stdout=log, stderr=subprocess.STDOUT) != 0:
        log.flush()
        with open(log_path) as f:
            tail = f.read()[-3000:]
        raise RuntimeError("build step failed: %s\n%s" % (" ".join(argv), tail))
