#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the HiSVSIM library.

    python3 e2ebench/run.py --workload flat-n24 --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --all [--trace 1]   # every workload, one table
    python3 e2ebench/run.py --self-check        # small sizes, every metric

Run from the root of a source checkout. Builds the driver, together with
the library from the enclosing source tree, into .bench_build/ and runs
it. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). Traced runs also write Chrome traces
(one per solve) to .bench_build/traces/. See e2ebench/README.md for the metrics.
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
BUILD = ROOT / ".bench_build"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["flat-n24", "qaoa-sweep-n20"]
# Per-layer metrics that do not apply to a workload and read 0 there.
NOT_APPLICABLE = {
    "flat-n24": ("engine.sweep_", "sv.expectation_s"),
    "qaoa-sweep-n20": ("sv.flat.", "sv.hier.vs_flat", "sv.sample_s", "dist."),
}
# Per-layer metrics whose 0 is a measurement, not a missing layer.
MAY_BE_ZERO = ("trace.dropped", "opt.gates_removed")
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


class BenchError(Exception):
    pass


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (idempotent) and builds the driver; returns its path."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "e2ebench", "-j", jobs],
    ]
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return BUILD / "e2ebench"


def provenance_args():
    """The commit (when the checkout is a git repository) and a digest of
    the library sources, so results from a non-git checkout still say
    which code they measured."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*"))]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return ["--commit", commit or "unknown", "--source-digest",
            h.hexdigest()[:16]]


def spec_metrics(trace):
    """{name: unit} the benchmark declares for this mode, or None when no
    BENCHMARK.json is present."""
    if not SPEC.is_file():
        return None
    spec = json.loads(SPEC.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Runs one driver process; returns (other stdout lines, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           *provenance_args(), *extra]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / workload)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s") \
            from e
    if done.returncode != 0:
        raise BenchError(f"{workload}: driver exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: driver printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"{workload}: malformed result {lines[-1]}")
    declared = spec_metrics(trace)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            raise BenchError(
                f"{workload}: metrics {sorted(got.items())} differ from "
                f"BENCHMARK.json {sorted(declared.items())}")
    return lines[:-1], result


def self_check(binary):
    """Every workload at a small size, both modes, plus a corrupted
    reference that must register as a failed operation."""
    small = ["--n", "12", "--grid", "2"]
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            _, r = run_driver(binary, w, 7, 0, trace, small)
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
                problems.append(f"{w} trace={trace}: {json.dumps(r)}")
            if trace and r["metrics"]["trace.dropped"]["value"] != 0:
                problems.append(f"{w}: the small traced run dropped events")
            missing = [k for k, v in r["metrics"].items()
                       if v["value"] == 0 and not k.startswith(
                           NOT_APPLICABLE[w] + MAY_BE_ZERO)]
            if missing:
                problems.append(f"{w} trace={trace}: no value for {missing}")
            print(f"{w:16s} trace={trace} ok={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"metrics={len(r['metrics'])}")
        _, r = run_driver(binary, w, 7, 0, 0, small + ["--corrupt-reference"])
        if r["correct"] or r["failed"] < 1:
            problems.append(f"{w}: corrupted reference went unnoticed")
        print(f"{w:16s} corrupted reference: failed={r['failed']} "
              f"correct={r['correct']}")
    for p in problems:
        log(p)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def run_all(binary, seed, seconds, trace):
    rows = []
    for w in WORKLOADS:
        lines, r = run_driver(binary, w, seed, seconds, trace)
        for line in lines:
            print(line)
        print(json.dumps({"workload": w, **r}))
        rows.append((w, r))
    print()
    for w, r in rows:
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                          for k, v in r["metrics"].items())
        print(f"{w:16s} correct={r['correct']} failed={r['failed']}/"
              f"{r['attempted']}  {cells}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print one table")
    ap.add_argument("--self-check", action="store_true",
                    help="small sizes: every workload, metric and the "
                         "failure counter")
    args = ap.parse_args()
    if not (args.workload or args.all or args.self_check):
        ap.error("one of --workload, --all, --self-check is required")
    try:
        binary = build()
        if args.self_check:
            return self_check(binary)
        if args.all:
            return run_all(binary, args.seed, args.seconds, args.trace)
        lines, result = run_driver(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(str(e))
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
