#!/usr/bin/env python3
"""Builds veritas-bench from source and runs one workload.

Usage (from the repository root):

    python3 vbench/run.py --workload guide|fleet|stream --seed N \
        --seconds N --trace 0|1

The library and the benchmark are configured and built in `.bench_build/`
(or `$CARGO_TARGET_DIR` when set) with the repository's default build type,
RelWithDebInfo. Build output goes to stderr; standard output carries only the
benchmark's run record, whose last line is the JSON result. Every argument is
passed to the benchmark binary unchanged, which validates it strictly.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "vbench")


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr. Returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(out):
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    if run_quiet(cmd) != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", out, "-j", jobs]) == 0


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "vbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources:" + digest.hexdigest()[:12]


def main():
    out = build_dir()
    if not build(out):
        print("veritas-bench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, VBENCH_SOURCE_REV=source_revision(),
               VBENCH_WORK_DIR=os.path.dirname(out))
    binary = os.path.join(out, "veritas_bench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
