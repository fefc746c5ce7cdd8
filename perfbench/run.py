#!/usr/bin/env python3
"""Entry point of the daosim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ior-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record            # reference table for refs.inc
    python3 perfbench/run.py compare A.json B.json

The first call configures and builds perfbench/ (which compiles the daosim
library from src/) under $CARGO_TARGET_DIR, default .bench_build; later calls
rebuild incrementally. The binary's last stdout line is the result JSON;
result files with their run manifest are kept under <build dir>/out.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
RUN_TIMEOUT_S = 170
# Manifest fields that must match for two results to be comparable.
COMPARABLE = ("nproc", "workers", "build_type")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def source_digest():
    """Content hash of src/ and perfbench/, standing in for a commit id."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no daosim sources at src/ (run from the root of a checkout)")
    bdir = build_root() / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(bdir), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                die("build failed: " + " ".join(cmd))
    return bdir / "daosim_perfbench"


def run_binary(args):
    binary = build()
    cmd = [str(binary)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark binary exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc


def measure(ns):
    proc = run_binary([
        "--workload", ns.workload, "--seed", str(ns.seed),
        "--seconds", str(ns.seconds), "--trace", str(ns.trace),
        "--out", str(build_root() / "out"), "--commit", source_digest()])
    if proc.returncode != 0:
        die(f"benchmark binary exited with {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die("benchmark binary printed no result line", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result line", 1)


def compare(path_a, path_b):
    """Per-metric ratio B/A; refuses results from different set-ups."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in COMPARABLE:
        if a["manifest"].get(key) != b["manifest"].get(key):
            die(f"refusing to compare: {key} differs "
                f"({a['manifest'].get(key)} vs {b['manifest'].get(key)})", 3)
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name in mb:
            va, vb = ma[name]["value"], mb[name]["value"]
            ratio = f"{vb / va:8.3f}" if va else "       -"
            print(f"{name:40s} {va:16.6g} {vb:16.6g} {ratio} "
                  f"{ma[name]['unit']}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            die("usage: run.py compare A.json B.json")
        compare(argv[1], argv[2])
        return
    if argv in (["--self-check"], ["--record"]):
        sys.exit(run_binary(argv).returncode)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure(parser.parse_args(argv))


if __name__ == "__main__":
    main()
