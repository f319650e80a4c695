#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload serve_skewed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --unit-tests

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only rebuild what changed. The binary's report goes to stdout and its last
line is the result object {"correct", "attempted", "failed", "metrics"}.
The metric names are checked against BENCHMARK.json. Any build failure,
timeout, failed correctness gate or malformed result exits non-zero.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, target)


def source_id():
    """The git commit when there is one, and a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        commit = sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return f"git:{commit} src:{h.hexdigest()[:12]}"


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not a JSON object"
    if not isinstance(res, dict) or sorted(res) != ["attempted", "correct",
                                                    "failed", "metrics"]:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = expected_metrics(trace)
    if want is not None and sorted(res["metrics"]) != sorted(want):
        return ("metric names differ from BENCHMARK.json: "
                f"{sorted(set(res['metrics']) ^ set(want))}")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--unit-tests", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    if args.unit_tests:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    binary = build("perfbench")
    # The library's metrics, flight recorder, cache and thread-count
    # environment switches stay at their defaults in every run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XAIDB_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir(), "perfbench-out"),
           "--source", source_id()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stdout or b"").decode(errors="replace")
                         if isinstance(e.stdout, bytes) else (e.stdout or ""))
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    problem = check_result(lines[-1], args.trace) if lines else "no output"
    if problem:
        sys.stderr.write(r.stdout)
        fail(problem)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
