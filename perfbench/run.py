#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the engine and the load generator (Release, into
.bench_build/perfbench) if needed, runs one workload, and passes its output
through: the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The second form is the self-test: it runs every
workload briefly, with and without tracing, checks that every metric named
in BENCHMARK.json is printed with its unit, and checks that a corrupted
reference makes the run fail.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-run"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return BUILD / "perfbench"


def source_id():
    """The git commit when the checkout has one, else a digest of the
    sources the benchmark builds."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return "git-" + ref_file.read_text().strip()
        else:
            return "git-" + ref
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, extra=()):
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spill-dir", str(WORK / f"spill-{tag}-{os.getpid()}"),
           "--source", source_id(), *extra]
    if trace:
        cmd += ["--trace-file", str(WORK / f"trace-{tag}.json")]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            done = run(binary, workload, 7, 1, trace)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            label = f"{workload} trace={trace}"
            if done.returncode != 0 or not result["correct"]:
                fail(f"smoke: {label} failed:\n{done.stdout}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                fail(f"smoke: {label} metrics {sorted(got.items())} != "
                     f"{sorted(want[trace].items())}")
            printed = {line.split()[1]: line.split()[3]
                       for line in lines if line.startswith("metric: ")}
            if printed != want[trace]:
                fail(f"smoke: {label} did not print every metric with its "
                     "unit")
            print(f"smoke: {label} ok ({result['attempted']} requests)")
    done = run(binary, "interactive", 7, 1, 0, ["--corrupt-reference"])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode == 0 or result["correct"] or result["failed"] == 0:
        fail("smoke: a corrupted reference did not fail the correctness gate")
    print(f"smoke: corrupted reference rejected ({result['failed']} of "
          f"{result['attempted']} requests failed)")
    print("smoke: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload or --smoke is required")
    binary = build()
    if args.smoke:
        smoke(binary)
        return 0
    done = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
