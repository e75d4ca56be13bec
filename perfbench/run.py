#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) into $CARGO_TARGET_DIR, default .bench_build, runs the
ftdl_perfbench binary once, checks that the metrics it printed are exactly
the ones BENCHMARK.json names for the mode, checks that the deterministic
metrics read the same as on every earlier run of the same sources, and
prints the result JSON as the last line of stdout. Build output and
diagnostics go to stderr. Exits non-zero, printing no result, when the
build or the run fails.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# End-to-end metrics that depend only on the sources, never on the host or
# the seed; a difference between two runs of the same sources is a failure.
DETERMINISTIC = ("sim_cycles_per_request", "sim_fps", "model_gap")
SOURCE_DIRS = ("src", "perfbench", "examples/specs")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and (re)builds the benchmark binary; returns its path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "ftdl_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "ftdl_perfbench")


def check_metrics(result, expected):
    """The printed metrics must be exactly `expected` (name -> unit)."""
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            fail(f"result lacks '{key}'")
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got[name]
        if m.get("unit") != unit:
            fail(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            fail(f"{name}: value {m.get('value')!r} is not a finite number")


def source_digest():
    """SHA-256 over the path and content of every file the run depends on."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()


def check_determinism(result, workload, work_dir):
    """Compares the deterministic metrics with those recorded by earlier runs
    of the same sources (any seed); records them on the first run. Marks the
    result incorrect on a difference."""
    record_path = os.path.join(work_dir, f"determinism-{source_digest()[:16]}.json")
    try:
        with open(record_path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        record = {}
    now = {name: result["metrics"][name]["value"] for name in DETERMINISTIC}
    before = record.get(workload)
    if before is None:
        record[workload] = now
        with open(record_path, "w") as f:
            json.dump(record, f, indent=1)
    elif before != now:
        print(f"perfbench: CHECK FAILED: deterministic metrics differ from an "
              f"earlier run of the same sources: {before} != {now}", file=sys.stderr)
        result["correct"] = False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    work_dir = os.path.join(build_dir, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            work_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"ftdl_perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("ftdl_perfbench printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"unparseable result line: {e}")
    check_metrics(result, expected)
    if not args.trace:
        check_determinism(result, args.workload, work_dir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
