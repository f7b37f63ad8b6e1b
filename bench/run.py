#!/usr/bin/env python3
"""bgk-sl benchmark: nanoseconds per cell-step on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  One run
repeats the workload's job for about S seconds, checks every repetition and
prints one line per metric, then a JSON object as the last line.

--trace 0 reports the end-to-end metrics, medians over the repetitions:
  ns_per_cell_step  sum of meta["wall_seconds"] / sum of steps * cells
  wall_s            time of the whole job call
  setup_s           job time minus march time (harness construction)
  peak_rss_mb       peak resident memory of the process
  err_l1_rho        L1 density error (exact Riemann solution, or finest ladder level)
The three times are given at the nominal speed of the reference block in
bench/reference.py, because a shared host's speed drifts far more than the
bounds allow, within seconds: a child process runs one block before and after
every repetition, and each repetition's times are scaled by the block's
nominal time over the mean time of the two blocks around it.  The raw medians
and the median slowdown are printed as text lines.

--trace 1 runs the job untraced for S/2 seconds, then again in a child
process whose layer functions are wrapped in spans (bench/spans.py) for S/2
seconds, and reports the per-layer metrics; trace.overhead_frac compares the
two.  The child writes its spans to .bench_out/.

A repetition fails when it raises, misses its workload's correctness gate, or
gives a final density that differs by a single byte from the first
repetition's.  Failures are counted in "failed", and failed/attempted is the
failed fraction.  --tiny runs tiny grids so a self-test can check the output;
its timings mean nothing.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from reference import NOMINAL_S
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, cell_steps, rho_digest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_REPS = 2
CHILD_TIMEOUT_S = 150
REFERENCE = os.path.join(ROOT, "bench", "reference.py")


class Reference:
    """The reference block of bench/reference.py, run in a child process of
    its own and asked for one block at a time, so that it never runs at the
    same time as the solver and never touches the solver's heap or peak RSS.
    Both processes are pinned to one CPU, so the block times the CPU the
    solver runs on."""

    def __enter__(self):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen(
            [sys.executable, REFERENCE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def block(self) -> float:
        """Seconds one reference block takes now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()  # end of input ends the child's loop
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def import_package():
    """Import bgk_sl from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bgk_sl", "__init__.py")):
        raise SystemExit(f"bench: no bgk_sl package under {SRC}")
    sys.path.insert(0, SRC)
    import bgk_sl

    return bgk_sl


def measure(bgk, workload, seed, seconds, tiny, ref, tracer=None) -> list[dict]:
    """Repeat the job for about `seconds`; one record per repetition.

    A reference block runs before the first repetition and after each one
    (after one more to warm it up); a repetition's `ref_s` is the mean time of
    the two blocks around it, the host's speed while it ran.
    """
    reps: list[dict] = []
    t_begin = time.perf_counter()
    ref.block()
    before = ref.block()
    last = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - t_begin + last <= seconds:
        job = WORKLOADS[workload].prepare(bgk, seed, tiny)
        rep = {"failure": None}
        start = time.perf_counter()
        try:
            results, rows = tracer.job(job.run) if tracer else job.run()
            rep["wall_s"] = time.perf_counter() - start
            march = sum(r.meta["wall_seconds"] for r in results)
            rep["setup_s"] = rep["wall_s"] - march
            rep["ns_per_cell_step"] = 1e9 * march / cell_steps(bgk, results)
            rep["predictor_steps"] = sum(r.meta["predictor_steps"] for r in results)
            rep["offlattice_steps"] = sum(r.meta["offlattice_steps"] for r in results)
            rep["digest"] = rho_digest(results)
            rep["err_l1_rho"], rep["failure"] = job.check(results, rows)
        except Exception:  # a failed repetition is counted, not fatal
            rep["failure"] = traceback.format_exc()
        after = ref.block()
        rep["ref_s"] = (before + after) / 2.0
        before = after
        last = time.perf_counter() - start
        reps.append(rep)
    return reps


def mark_mismatches(reps) -> None:
    """Fail every repetition whose density is not byte-identical to the first."""
    digests = [r["digest"] for r in reps if "digest" in r]
    for rep in reps:
        if rep["failure"] is None and rep["digest"] != digests[0]:
            rep["failure"] = "final density differs from the first repetition"


def median(reps, key):
    return statistics.median(r[key] for r in reps if r["failure"] is None)


def slowdown(reps) -> float:
    """How much slower than nominal the host ran: the median `ref_s` over the
    reference block's nominal time."""
    return statistics.median(r["ref_s"] for r in reps) / NOMINAL_S


def host_median(reps, key):
    """Median over the repetitions of a time at nominal host speed, each
    repetition's time divided by its `ref_s` over the nominal block time."""
    return statistics.median(
        r[key] * NOMINAL_S / r["ref_s"] for r in reps if r["failure"] is None
    )


def end_to_end(reps) -> dict:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ns_per_cell_step": (host_median(reps, "ns_per_cell_step"), "ns"),
        "wall_s": (host_median(reps, "wall_s"), "s"),
        "setup_s": (host_median(reps, "setup_s"), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "err_l1_rho": (median(reps, "err_l1_rho"), "1"),
    }


def traced_child(args) -> tuple[list[dict], list]:
    """Run the traced repetitions in a fresh process; return (reps, spans)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds / 2.0),
        "--spans-out", path,
    ] + (["--tiny"] if args.tiny else [])
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["reps"], data["spans"]


def per_layer(reps_plain, reps_traced, spans) -> dict:
    metrics = layer_metrics(spans)
    metrics["integrators.predictor_steps"] = (median(reps_traced, "predictor_steps"), "count")
    metrics["integrators.offlattice_steps"] = (median(reps_traced, "offlattice_steps"), "count")
    overhead = host_median(reps_traced, "wall_s") / host_median(reps_plain, "wall_s") - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny grids for the self-test")
    p.add_argument("--spans-out", help=argparse.SUPPRESS)  # traced child process
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bgk = import_package()

    if args.spans_out:
        tracer = Tracer()
        tracer.install(bgk)
        with Reference() as ref:
            reps = measure(bgk, args.workload, args.seed, args.seconds, args.tiny, ref, tracer)
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump({"reps": reps, "spans": tracer.spans}, fh)
        return 0

    if args.trace:
        half = args.seconds / 2.0
        with Reference() as ref:
            plain = measure(bgk, args.workload, args.seed, half, args.tiny, ref)
        traced, spans = traced_child(args)
        reps = plain + traced
    else:
        with Reference() as ref:
            reps = measure(bgk, args.workload, args.seed, args.seconds, args.tiny, ref)
    mark_mismatches(reps)

    failures = [r["failure"] for r in reps if r["failure"] is not None]
    failed = len(failures)
    if failures:
        print(f"bench: {failed} of {len(reps)} repetitions of {args.workload} failed; "
              f"first: {failures[0]}", file=sys.stderr)
    if failed == len(reps):
        raise SystemExit(f"bench: every repetition of {args.workload} failed")

    metrics = per_layer(plain, traced, spans) if args.trace else end_to_end(reps)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:42s} {value:.6g} {unit}")
    print(f"{args.workload:14s} {'failed_frac':42s} {failed / len(reps):.6g} ratio")
    if not args.trace:
        for name in ("ns_per_cell_step", "wall_s", "setup_s"):
            print(f"{args.workload:14s} {'raw ' + name:42s} {median(reps, name):.6g}")
        print(f"{args.workload:14s} {'host slowdown':42s} {slowdown(reps):.6g}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(reps),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
