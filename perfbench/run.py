#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench (and the engine libraries it links) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. --selftest plants each fault the
oracle must catch and checks that every planted run reports correct=false.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# (planted fault, text the run's problem report must contain)
PLANTS = [
    ("unsorted", "not sorted"),
    ("wrong-distance", "!= exact"),
    ("deleted-id", "deleted"),
    ("short-list", "entries, expected"),
    ("low-recall", "below the floor"),
]


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configure (once) and build perfbench; returns the binary's path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def run(binary, args):
    work = os.path.join(build_dir(), "run-%d" % os.getpid())
    return subprocess.run([binary] + args + ["--work-dir", work], timeout=170)


def selftest(binary):
    """Each planted fault must make a short serve-sparse run fail validation."""
    ok = True
    for plant, expect in [("none", None)] + PLANTS:
        work = os.path.join(build_dir(), "selftest-%d" % os.getpid())
        proc = subprocess.run(
            [binary, "--workload", "serve-sparse", "--seed", "1", "--seconds", "1",
             "--trace", "0", "--plant", plant, "--work-dir", work],
            capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if expect is None:
            passed = result is not None and result["correct"] and result["failed"] == 0
        else:
            passed = result is not None and not result["correct"] and expect in proc.stderr
        ok &= passed
        print("%-15s %s" % (plant, "caught" if passed and expect else
                            "clean" if passed else "NOT CAUGHT"), flush=True)
    return ok


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--selftest"]:
        return 0 if selftest(binary) else 1
    return run(binary, sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
