"""In-memory spans around the package's layer functions, patched from outside.

Each span is [name, start, end, parent, work]: perf_counter times, the index
of the enclosing span (-1 for a root) and a work count some layers report
(points, cells or bytes).  Spans are kept in memory and written out once, at
the end of the traced run.  Only the traced process installs these layer
patches.  The one patch every run makes is smooth-ladder's recording wrapper
around `bgk_sl.harness.run_case` (see `workloads.py`), which costs one Python
call per ladder level.
"""
from __future__ import annotations

import statistics
from time import perf_counter

JOB = "bench.job"

# Layers on the path of every workload report calls, seconds and share.
COMMON = [
    "integrators.step",
    "transport.shifted",
    "weno.apply",
    "weno.plan",
    "boundaries.extend_field",
    "moments.relaxation_solve",
]
# Layers that run on some workloads only report calls and share: a layer that
# never runs has no time to report.
PARTIAL = [
    "lattice.shifted",
    "systems.moments",
    "systems.equilibrium",
    "chu.moments",
    "chu.equilibrium",
]
PARENTS = ["integrators.step", "transport.shifted"]


def _size(args, out):
    return int(out.size)


def _gather_bytes(args, out):
    """Bytes computed from array sizes: the field read plus the extension written."""
    return int(args[0].nbytes + out.nbytes)


def _targets(bgk):
    """(owner, attribute, span name, work) for every wrapped layer function.

    Module functions are patched where their caller looks them up:
    `extend_field` through `bgk_sl.transport`, `relaxation_solve` through
    `bgk_sl.integrators`.
    """
    return [
        (bgk.integrators.TimeStepper, "step", "integrators.step", None),
        (bgk.transport.InterpolatedTransport, "shifted", "transport.shifted", None),
        (bgk.weno.InterpPlan, "apply", "weno.apply", _size),
        (bgk.weno.Interpolator, "plan", "weno.plan", None),
        (bgk.transport, "extend_field", "boundaries.extend_field", _gather_bytes),
        (bgk.lattice.LatticeTransport, "shifted", "lattice.shifted", _size),
        (bgk.systems.Monatomic1V, "moments", "systems.moments", None),
        (bgk.systems.Monatomic1V, "equilibrium", "systems.equilibrium", None),
        (bgk.chu.ChuReduced3V, "moments", "chu.moments", None),
        (bgk.chu.ChuReduced3V, "equilibrium", "chu.equilibrium", None),
        (bgk.integrators, "relaxation_solve", "moments.relaxation_solve", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, bgk) -> None:
        for owner, attr, name, work in _targets(bgk):
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), work))

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if work is not None:
                rec[4] = work(args, out)
            return out

        return traced

    def job(self, fn):
        """Run fn() under a root span that groups one repetition's spans."""
        return self._wrap(JOB, fn, None)()


def per_job(spans) -> list[dict]:
    """Per repetition: {name: [calls, seconds, self seconds, work]}."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    jobs: list[dict] = []
    for i, (name, start, end, parent, work) in enumerate(spans):
        if name == JOB:
            jobs.append({})
        stat = jobs[-1].setdefault(name, [0, 0.0, 0.0, 0])
        stat[0] += 1
        stat[1] += end - start
        stat[2] += end - start - child[i]
        stat[3] += work
    return jobs


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as medians over the traced repetitions."""
    jobs = per_job(spans)
    zero = [0, 0.0, 0.0, 0]

    def med(fn):
        return statistics.median(fn(job) for job in jobs)

    def stat(name, k):
        return lambda job: job.get(name, zero)[k]

    def share(name):
        return lambda job: job.get(name, zero)[1] / job[JOB][1]

    out: dict[str, tuple[float, str]] = {}
    for name in COMMON + PARTIAL:
        out[f"{name}.calls"] = (med(stat(name, 0)), "count")
        out[f"{name}.share"] = (med(share(name)), "ratio")
    for name in COMMON:
        out[f"{name}.s"] = (med(stat(name, 1)), "s")
    for name in PARENTS:
        out[f"{name}.self_s"] = (med(stat(name, 2)), "s")
    out["weno.apply.ns_per_point"] = (
        med(lambda job: 1e9 * job["weno.apply"][1] / job["weno.apply"][3]),
        "ns",
    )
    out["lattice.shifted.cells"] = (med(stat("lattice.shifted", 3)), "count")
    out["boundaries.extend_field.bytes_computed"] = (
        med(stat("boundaries.extend_field", 3)),
        "bytes",
    )
    out["transport.plan_hit_ratio"] = (
        med(lambda job: 1.0 - job["weno.plan"][0] / job["transport.shifted"][0]),
        "ratio",
    )
    return out
