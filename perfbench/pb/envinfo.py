"""The environment header printed before every result."""

import json
import os
import re
import subprocess


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler(build_dir):
    """(compiler version line, flags of the CLI's translation unit)."""
    version, flags = "unknown", "unknown"
    try:
        with open(os.path.join(build_dir, "compile_commands.json")) as f:
            commands = json.load(f)
        for entry in commands:
            if entry["file"].endswith("pathrank_cli.cpp"):
                words = entry["command"].split()
                cxx = words[0]
                flags = " ".join(w for w in words[1:]
                                 if re.match(r"-(O|march|std|f|D|g)", w))
                out = subprocess.run([cxx, "--version"], capture_output=True,
                                     text=True, check=False).stdout
                version = out.splitlines()[0] if out else cxx
                break
    except (OSError, ValueError, KeyError):
        pass
    return version, flags


def commit(root):
    """The git commit of the checkout, or "unknown" outside a repository."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def header(root, build_dir, extra):
    version, flags = compiler(build_dir)
    lines = [
        ("nproc", os.cpu_count()),
        ("cpu", cpu_model()),
        ("compiler", version),
        ("flags", flags),
        ("commit", commit(root)),
    ] + list(extra)
    return ["# %-16s %s" % (k, v) for k, v in lines]
