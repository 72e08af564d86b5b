#!/usr/bin/env python3
"""Compares freshly generated BENCH_*.json files against the committed
baselines and flags per-benchmark real_time regressions.

Usage:
    scripts/bench_diff.py [--threshold 0.15] [--baseline-ref HEAD]
                          [--strict] [files...]

With no files, every BENCH_*.json at the repo root is checked. The baseline
for a file is the version committed at --baseline-ref (default HEAD), read
via `git show`, so the script works after bench/run_benches.sh has
overwritten the working-tree copy with fresh numbers. Files without a
committed baseline (first run of a new suite) are reported and skipped.

A benchmark regresses when new_time > (1 + threshold) * old_time. By
default regressions are printed as warnings and the exit code stays 0 so a
noisy laptop run does not fail the whole bench script; pass --strict to
exit 1 when any regression is found (for CI).

Timings from different hosts are not comparable: when the baseline's and
the fresh file's context.num_cpus or context.library_build_type differ,
both contexts are printed and that file's timing comparison is skipped.
Under --strict such a file also makes the exit code 1.
"""

import argparse
import json
import pathlib
import subprocess
import sys


def repo_root() -> pathlib.Path:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, check=True)
    return pathlib.Path(out.stdout.strip())


def committed_json(ref: str, relpath: str):
    """The file's content at `ref`, or None when it is not committed."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:{relpath}"], capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def benchmark_times(merged: dict) -> dict:
    """Flattens a merged BENCH_*.json into {(suite, name): real_time}.

    When a benchmark ran with repetitions, google-benchmark emits both the
    per-repetition entries and aggregates; the mean aggregate is preferred
    and the raw repetitions are dropped so one stable number represents the
    benchmark.
    """
    times = {}
    preferred = {}  # keys whose value came from a mean aggregate
    for suite, benchmarks in merged.get("suites", {}).items():
        for entry in benchmarks:
            if "real_time" not in entry:
                continue
            name = entry.get("run_name", entry.get("name", ""))
            key = (suite, name)
            if entry.get("aggregate_name") == "mean":
                times[key] = float(entry["real_time"])
                preferred[key] = True
            elif entry.get("aggregate_name"):
                continue  # median/stddev/cv: not a representative time
            elif not preferred.get(key):
                times[key] = float(entry["real_time"])
    return times


# Context fields that must agree before two runs' timings are compared.
HOST_FIELDS = ("num_cpus", "library_build_type")


def host_mismatch(baseline: dict, fresh: dict) -> bool:
    old_ctx = baseline.get("context", {})
    new_ctx = fresh.get("context", {})
    return any(old_ctx.get(f) != new_ctx.get(f) for f in HOST_FIELDS)


def describe_context(merged: dict) -> str:
    ctx = merged.get("context", {})
    return ", ".join(f"{f}={ctx.get(f)}" for f in HOST_FIELDS)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Flag bench regressions vs the committed baselines.")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative slowdown that counts as a regression "
                             "(default 0.15 = +15%%)")
    parser.add_argument("--baseline-ref", default="HEAD",
                        help="git ref holding the baseline JSONs")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any regression is found")
    parser.add_argument("files", nargs="*",
                        help="BENCH_*.json files (default: repo root glob)")
    args = parser.parse_args()

    root = repo_root()
    files = ([pathlib.Path(f) for f in args.files]
             if args.files else sorted(root.glob("BENCH_*.json")))
    if not files:
        print("bench_diff: no BENCH_*.json files found", file=sys.stderr)
        return 0

    regressions = []
    mismatched = []
    for path in files:
        relpath = path.resolve().relative_to(root).as_posix()
        baseline = committed_json(args.baseline_ref, relpath)
        if baseline is None:
            print(f"{relpath}: no baseline at {args.baseline_ref} "
                  "(new suite?), skipping")
            continue
        fresh = json.loads(path.read_text())
        if host_mismatch(baseline, fresh):
            print(f"{relpath}: host context differs, timings not compared\n"
                  f"  baseline: {describe_context(baseline)}\n"
                  f"  fresh:    {describe_context(fresh)}")
            mismatched.append(relpath)
            continue
        old_times = benchmark_times(baseline)
        new_times = benchmark_times(fresh)

        for key in sorted(new_times):
            if key not in old_times or old_times[key] <= 0:
                continue
            suite, name = key
            ratio = new_times[key] / old_times[key]
            tag = "ok"
            if ratio > 1 + args.threshold:
                tag = "REGRESSION"
                regressions.append((relpath, suite, name, ratio))
            elif ratio < 1 - args.threshold:
                tag = "improved"
            print(f"{relpath}: {suite}/{name}: "
                  f"{old_times[key]:.3g} -> {new_times[key]:.3g} "
                  f"({(ratio - 1) * 100:+.1f}%) {tag}")

    if mismatched:
        print(f"\nbench_diff: {len(mismatched)} file(s) from a different "
              f"host context: {', '.join(mismatched)}", file=sys.stderr)
    if regressions:
        print(f"\nbench_diff: {len(regressions)} regression(s) over "
              f"+{args.threshold * 100:.0f}%:", file=sys.stderr)
        for relpath, suite, name, ratio in regressions:
            print(f"  {relpath}: {suite}/{name} ({(ratio - 1) * 100:+.1f}%)",
                  file=sys.stderr)
    else:
        print("bench_diff: no regressions")
    return 1 if args.strict and (regressions or mismatched) else 0


if __name__ == "__main__":
    sys.exit(main())
