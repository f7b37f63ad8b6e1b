#!/usr/bin/env python3
"""Run every workload over several seeds and record the result with provenance.

    python3 bench/record.py --out bench/BENCH_<label>.json

Runs `bench/run.py` once per (seed, workload) with --trace 0, seeds 1..RUNS,
interleaving the workloads so slow phases of a shared machine hit all of
them, then once per workload with --trace 1.  For each end-to-end metric it
prints the median over the seeds and the spread, the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json; a spread at or above a
third of the bound is flagged.  It also checks that the largest leaf layer of
each traced run is the one the workload was chosen for.

The output file holds the machine (CPU model, nproc, Python and numpy
versions, git SHA), each workload's reason, the layer-to-metric map and every
run's figures.  Exits 1 if a run failed its correctness gate.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from spans import COMMON, PARENTS, PARTIAL
from workloads import LAYER_MAP, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 180
RUNS = 10
LEAVES = [name for name in COMMON + PARTIAL if name not in PARENTS]
LARGEST_LEAF = {
    "shock-weno35": "weno.apply",
    "lattice-bdf2": "lattice.shifted",
    "smooth-ladder": "weno.apply",
}


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [
        sys.executable, os.path.join(ROOT, "bench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the record to this JSON file")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = list(WORKLOADS)
    seconds = bench["run_seconds"]
    runs = {w: [] for w in workloads}
    for seed in range(1, RUNS + 1):
        for w in workloads:
            runs[w].append(run_once(w, seed, seconds, 0))
    traced = {w: run_once(w, 1, seconds, 1) for w in workloads}

    ok = True
    summary = {}
    for w in workloads:
        failed = sum(r["failed"] for r in runs[w] + [traced[w]])
        ok &= failed == 0
        print(f"{w}: {failed} failed of {sum(r['attempted'] for r in runs[w] + [traced[w]])}")
        summary[w] = {}
        for m in bench["end_to_end"]:
            med, sp = spread([r["metrics"][m["name"]]["value"] for r in runs[w]])
            flag = "" if sp < m["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {m['name']:18s} {med:12.6g} {m['unit']:6s} spread {sp:6.3f} bound {m['bound']}{flag}")
            summary[w][m["name"]] = {"median": med, "spread": sp, "unit": m["unit"]}
        layers = traced[w]["metrics"]
        shares = {n: layers[f"{n}.share"]["value"] for n in LEAVES}
        top = max(shares, key=shares.get)
        rank_ok = top == LARGEST_LEAF[w]
        ok &= rank_ok
        print(f"  largest leaf layer {top} ({shares[top]:.3f} of the job)"
              f"{'' if rank_ok else '  <-- expected ' + LARGEST_LEAF[w]}")

    if args.out:
        record = {
            "machine": provenance(),
            "run_seconds": seconds,
            "seeds": list(range(1, RUNS + 1)),
            "workloads": {w: WORKLOADS[w].why for w in workloads},
            "layer_map": LAYER_MAP,
            "summary": summary,
            "runs": runs,
            "traced": traced,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
