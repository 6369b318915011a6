#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--short]

Run it from the root of a checkout. The first run configures and builds
the perfbench package (perfbench/CMakeLists.txt, which compiles the
simulator from ../src) with CMake in Release mode under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only check that the build is up to date. Build output goes to standard
error, so the last line of standard output is always the benchmark's
JSON result.

The benchmark runs with address-space randomisation turned off for its
own process (personality(ADDR_NO_RANDOMIZE)) where the kernel allows
it: the threaded engine's speed depends on where its tables and handlers
land, and a fixed layout removes that source of run-to-run spread.

Exit status: 0 when every unit passed its checks, 1 when a check failed
or the benchmark could not run, 2 on a usage error or a missing source
tree, 3 when the benchmark overran its time limit or printed metrics
other than the ones BENCHMARK.json names.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over every file of the simulator source tree."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out: " + " ".join(cmd), 3)
        if r.returncode != 0:
            die("build failed: " + " ".join(cmd), 1)


def fixed_layout():
    """Turn off address-space randomisation for the benchmark process."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/", 2)
    if shutil.which("cmake") is None:
        die("cmake not found", 2)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", HERE, "--work-dir", work_dir,
           "--commit", commit(), "--source-digest", source_digest()]
    if args.short:
        cmd.append("--short")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout,
                           text=True)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S, 3)

    lines = r.stdout.strip().splitlines()
    if r.returncode == 0:
        want = expected_metrics(args.trace)
        got = set(json.loads(lines[-1])["metrics"]) if lines else set()
        if want is not None and got != want:
            print(r.stdout, end="", file=sys.stderr)
            die("metrics differ from BENCHMARK.json: missing %s, extra %s"
                % (sorted(want - got), sorted(got - want)), 3)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
