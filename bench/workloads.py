"""The three benchmark workloads: inputs from a seed, the job, the correctness gate.

A *cell* is one (component, space node, velocity node) triple, so one step of
a run covers n_components * (nx+1) * (2nv+1) cells.

Every job calls the public API (`run_case`, `convergence_study`,
`riemann_profile`, `load_scenario`) with the solver's default `threads=1`.
smooth-ladder also patches `bgk_sl.harness.run_case`, in every repetition,
traced or not, with a wrapper that keeps each level's RunResult, because
`convergence_study` returns only the errors.
Seed 0 runs the bundled scenarios exactly; for shock-weno35 any other seed
scales the density and temperature of both Riemann states by up to +-3% (a
custom scenario dict), and `riemann_profile` of the scaled states stays the
reference.  lattice-bdf2 and smooth-ladder do not depend on the seed; see
`WORKLOADS` for why lattice-bdf2 does not.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

RIEMANN_JITTER = 0.03


@dataclass(frozen=True)
class Job:
    """One prepared repetition: `run()` is timed, `check()` is not."""

    run: Callable[[], tuple[list, list]]  # -> (RunResults, convergence rows)
    check: Callable[[list, list], tuple[float, str | None]]  # -> (err_l1_rho, failure)


@dataclass(frozen=True)
class Workload:
    why: str
    prepare: Callable  # (bgk_sl, seed, tiny) -> Job


def rho_digest(results) -> str:
    """Hash of the final density of every run a job made (byte-identity gate)."""
    h = hashlib.sha256()
    for res in results:
        h.update(np.ascontiguousarray(res.rho).tobytes())
    return h.hexdigest()


def cell_steps(bgk, results) -> int:
    """Cells updated over all steps of all runs of a job."""
    total = 0
    for res in results:
        m = res.meta
        n_comp = bgk.make_system(m["model"]).n_components
        total += m["steps_taken"] * n_comp * (m["nx"] + 1) * (2 * m["nv"] + 1)
    return total


def riemann_input(bgk, name: str, seed: int):
    """(scenario spec, (left, right, x_jump), gamma) for a bundled shock tube."""
    scen = bgk.load_scenario(name)
    gamma = bgk.make_system(scen.model).gamma
    if seed == 0:
        return name, scen.riemann, gamma
    rng = np.random.default_rng(seed)
    left, right, x_jump = scen.riemann

    def jitter(state):
        rho, u, T = state
        a, b = 1.0 + rng.uniform(-RIEMANN_JITTER, RIEMANN_JITTER, 2)
        return (float(rho * a), float(u), float(T * b))

    left, right = jitter(left), jitter(right)
    spec = {
        "name": f"{name}-seed{seed}",
        "model": scen.model,
        "domain": [scen.x0, scen.x1],
        "boundary": scen.boundary.value,
        "nv": scen.nv,
        "vmax": scen.vmax,
        "cfl": scen.cfl,
        "t_final": scen.t_final,
        "initial": {"kind": "riemann", "left": list(left), "right": list(right), "x_jump": x_jump},
    }
    return spec, (left, right, x_jump), gamma


def _shock_workload(scenario, integrator, interp, sizes, seeded=True):
    """run_case on a shock tube, gated by the L1 distance to the exact solution."""

    def prepare(bgk, seed, tiny):
        size = sizes["tiny" if tiny else "full"]
        spec, (left, right, x_jump), gamma = riemann_input(bgk, scenario, seed if seeded else 0)

        def run():
            res = bgk.run_case(
                spec,
                integrator=integrator,
                interp=interp,
                eps=1e-6,
                nx=size["nx"],
                t_final=size["t_final"],
            )
            return [res], []

        def check(results, rows):
            res = results[0]
            rho_ref, _, _, _ = bgk.riemann_profile(
                left, right, gamma, res.x, res.meta["t_final"], x_jump=x_jump
            )
            err = bgk.l1_norm(res.rho - rho_ref, res.x[1] - res.x[0])
            if not err <= size["err_max"]:
                return err, f"L1 error {err:.3e} against the exact solution > {size['err_max']:.1e}"
            return err, None

        return Job(run, check)

    return prepare


def _ladder_workload(sizes):
    """convergence_study on the smooth reflective flow, gated by order and error."""

    def prepare(bgk, seed, tiny):
        size = sizes["tiny" if tiny else "full"]

        def run():
            # convergence_study returns only errors; keep each level's
            # RunResult by observing the harness's run_case binding.
            runs = []
            original = bgk.harness.run_case

            def recording(*args, **kwargs):
                res = original(*args, **kwargs)
                runs.append(res)
                return res

            bgk.harness.run_case = recording
            try:
                rows = bgk.convergence_study(
                    "smooth-chu",
                    integrator="BDF3",
                    interp="weno23",
                    eps_list=[1e-4],
                    nx_list=size["nx_list"],
                )
            finally:
                bgk.harness.run_case = original
            return runs, rows

        def check(results, rows):
            err = rows[-1]["err_l1_rho"]
            order = rows[-1]["order"]
            if not err <= size["err_max"]:
                return err, f"finest L1 error {err:.3e} > {size['err_max']:.1e}"
            if order is None or not order >= size["order_min"]:
                return err, f"observed order {order} < {size['order_min']}"
            return err, None

        return Job(run, check)

    return prepare


# Error thresholds sit about 1.5x above, and order thresholds 0.2-0.4 below,
# the values measured at seed 0 (and, for shock-weno35, every seed 1..20
# tried), so they catch a broken scheme without tripping on the +-3% jitter.
# On shock-weno35 (seeds 0..30) WENO35 stays below 3.5e-3, linear
# interpolation gives 6.8e-3 to 7.1e-3 and unmarched initial data 2.3e-2, so
# the 5e-3 gate rejects both; the tiny grid (WENO35 below 8.3e-3, linear above
# 1.4e-2, unmarched 4.7e-2) is long enough for its gate to reject them too.
WORKLOADS = {
    "shock-weno35": Workload(
        why=(
            "interpolation-bound: RK3+WENO35 on the Chu shock tube, 6 transport "
            "calls per step on large arrays; where faster WENO transport must show"
        ),
        prepare=_shock_workload(
            "riemann-chu",
            "RK3",
            "weno35",
            {
                "full": {"nx": 200, "t_final": 0.025, "err_max": 5e-3},
                "tiny": {"nx": 80, "t_final": 0.05, "err_max": 1.1e-2},
            },
        ),
    ),
    "lattice-bdf2": Workload(
        why=(
            "bypasses interpolation except the DIRK startup and last step: LatBDF2 "
            "node gathers plus moments, Maxwellian and relaxation at nx=3200"
        ),
        prepare=_shock_workload(
            "riemann",
            "LatBDF2",
            None,
            {
                "full": {"nx": 3200, "t_final": None, "err_max": 5e-3},
                "tiny": {"nx": 400, "t_final": None, "err_max": 3e-2},
            },
            # Jittered states make LatBDF2's interpolated DIRK2 startup (or its
            # off-lattice last step) go to negative temperature on most seeds,
            # a defect of the solver, not of the input; bench/test_bench.py
            # keeps a reproducer.  The workload runs the bundled states until
            # that is fixed.
            seeded=False,
        ),
    ),
    "smooth-ladder": Workload(
        why=(
            "small arrays, many plans and the reflective ghost flip: BDF3+WENO23 "
            "refinement ladder, where per-call overhead shows; also time to accuracy"
        ),
        prepare=_ladder_workload(
            {
                "full": {"nx_list": [40, 80, 160, 320], "err_max": 1e-3, "order_min": 2.4},
                "tiny": {"nx_list": [40, 80, 160], "err_max": 6e-3, "order_min": 1.2},
            }
        ),
    ),
}

# Which end-to-end metric each per-layer metric should move, on which workload.
# "none" is the prediction that a change to that layer leaves the metric alone.
LAYER_MAP = [
    {"layers": ["weno.*", "boundaries.*"], "moves": "ns_per_cell_step",
     "workloads": ["shock-weno35", "smooth-ladder"]},
    {"layers": ["weno.*", "boundaries.*"], "moves": "none",
     "workloads": ["lattice-bdf2"]},
    {"layers": ["lattice.*", "systems.*", "chu.*", "moments.*"], "moves": "ns_per_cell_step",
     "workloads": ["lattice-bdf2"]},
    {"layers": ["weno.plan", "transport.plan_hit_ratio", "integrators.predictor_steps",
                "integrators.offlattice_steps"], "moves": "wall_s",
     "workloads": ["lattice-bdf2", "smooth-ladder"]},
    {"layers": ["harness construction (outside the march)"], "moves": "setup_s",
     "workloads": ["shock-weno35", "lattice-bdf2", "smooth-ladder"]},
]
