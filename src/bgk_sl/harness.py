"""Experiment drivers: single runs, refinement studies, CFL sweeps, cost runs.

Reference-free error measurement uses successive refinement: the run on the
doubled grid is restricted back by taking every other node (node positions
coincide exactly), and errors are discrete L1/L2 norms of the density over
the interior nodes.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import (
    DEFAULT_INTERP, Boundary, Integrator, Interp, SchemeConfig, parse_choice, typed_value
)
from .errors import ConfigError, NumericalError
from .grid import PhaseGrid, TimeControl, check_step_count
from .integrators import TimeStepper
from .scenarios import make_system, with_overrides


def scheme_label(scheme: str | Integrator, interp: Interp) -> str:
    """The scheme token with an interpolation suffix."""
    suffix = {Interp.LINEAR: "Lin", Interp.WENO23: "W23", Interp.WENO35: "W35"}
    return f"{parse_choice(Integrator, scheme).value}{suffix[interp]}"


@dataclass
class RunResult:
    """Final macroscopic profiles plus run metadata."""

    x: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    T: np.ndarray
    E: np.ndarray
    meta: dict

    def rows(self):
        for i in range(self.x.size):
            yield (self.x[i], self.rho[i], self.u[i], self.T[i], self.E[i])


def run_case(
    scenario,
    *,
    integrator,
    eps: float,
    nx: int,
    interp=None,
    boundary=None,
    nv: int | None = None,
    vmax: float | None = None,
    cfl: float | None = None,
    t_final: float | None = None,
) -> RunResult:
    """March one configuration to its final time and report the moments.

    `integrator` is an `Integrator` or its token, and `eps` a positive number
    (`config.typed_value`).  The overrides `boundary` to `t_final` are
    scenario fields (see `scenarios.with_overrides`); None keeps the
    scenario's, and cfl="lattice" marches at dt = dx/dv.
    """
    scen = with_overrides(scenario, boundary=boundary, nv=nv, vmax=vmax, cfl=cfl, t_final=t_final)
    # "LatBDF2" is BDF2 at cfl="lattice", kept while bench/workloads.py and
    # bench/test_bench.py run it; it goes when a benchmark-only change moves them off it.
    alias = str(integrator).strip().lower() == "latbdf2"
    integrator = Integrator.BDF2 if alias else parse_choice(Integrator, integrator)
    cfl = "lattice" if alias else scen.cfl
    interp = DEFAULT_INTERP[integrator] if interp is None else parse_choice(Interp, interp)

    grid = scen.grid(nx)
    system = make_system(scen.model)
    scheme = SchemeConfig(integrator=integrator, interp=interp, boundary=scen.boundary, eps=eps)
    dt = grid.dt_from_cfl(cfl)
    control = TimeControl(dt=dt, t_final=scen.t_final)

    rho0, u0, T0 = scen.initial_moments(grid.x, system.dof)
    f0 = system.from_macro(rho0, u0, T0, grid)
    if scen.boundary is Boundary.PERIODIC:
        f0[:, -1, :] = f0[:, 0, :]  # node nx is the same physical point as node 0

    stepper = TimeStepper(f0, grid, system, scheme)
    del f0  # handed over: the stepper holds this array, not a copy
    meta = {
        "scenario": scen.name,
        "model": scen.model,
        "scheme": scheme_label(integrator, interp),
        "integrator": integrator.value,
        "interp": interp.value,
        "boundary": scen.boundary.value,
        "eps": scheme.eps,
        "nx": grid.nx,
        "nv": grid.nv,
        "vmax": grid.vmax,
        "cfl_requested": cfl,
        "cfl_actual": float(grid.nv) if cfl == "lattice" else cfl,
        "dt": dt,
        "t_final": scen.t_final,
        "n_steps": control.n_steps,
        "shortened_final_step": control.has_short_step,
    }
    start = time.perf_counter()
    try:
        for dt_k in control.steps():
            stepper.step(dt_k)
    except NumericalError as err:
        # Best-effort profile of the last committed state, without validation.
        with np.errstate(divide="ignore", invalid="ignore"):
            mom = system.moments(stepper.f, grid, validate=False)
        meta.update({"failed": True, "steps_taken": stepper.steps_taken, "t_reached": stepper.t})
        err.partial_result = RunResult(  # type: ignore[attr-defined]
            x=grid.x, rho=mom.rho, u=mom.u, T=mom.T, E=mom.E, meta=meta
        )
        raise
    wall = time.perf_counter() - start

    mom = system.moments(stepper.f, grid)
    meta.update(
        {
            "wall_seconds": wall,
            "steps_taken": stepper.steps_taken,
            "predictor_steps": stepper.predictor_steps,
            # a lattice run's shortened last step is its one step off the lattice
            "offlattice_steps": int(cfl == "lattice" and control.has_short_step),
        }
    )
    return RunResult(x=grid.x, rho=mom.rho, u=mom.u, T=mom.T, E=mom.E, meta=meta)


# --------------------------------------------------------------------------
# error norms and grid restriction
# --------------------------------------------------------------------------
def restrict(fine: np.ndarray, factor: int = 2) -> np.ndarray:
    """Every factor-th node of a refined profile (node positions coincide)."""
    return fine[::factor]


def l1_norm(delta: np.ndarray, dx: float) -> float:
    """Discrete L1 over interior nodes."""
    return float(dx * np.abs(delta[1:-1]).sum())


def l2_norm(delta: np.ndarray, dx: float) -> float:
    """Discrete L2 over interior nodes."""
    return float(math.sqrt(dx * np.square(delta[1:-1]).sum()))


def refinement_error(coarse: RunResult, fine: RunResult, norm=l1_norm) -> float:
    """Norm of the density difference between a run and a refined run of the
    same case restricted to the coarse nodes; the restriction factor is the
    ratio of the two runs' interval counts."""
    factor = (fine.x.size - 1) // (coarse.x.size - 1)
    return norm(coarse.rho - restrict(fine.rho, factor), coarse.x[1] - coarse.x[0])


@contextmanager
def _keeping_rows(rows):
    """On a NumericalError, attach the study rows finished so far to it."""
    try:
        yield
    except NumericalError as err:
        err.partial_rows = rows  # type: ignore[attr-defined]
        raise


def _check_doubling(nx_list):
    nx_list = [typed_value("nx", n, int) for n in nx_list]
    if len(nx_list) < 2:
        raise ConfigError("need at least two grid resolutions")
    for a, b in zip(nx_list[:-1], nx_list[1:]):
        if b != 2 * a:
            raise ConfigError(f"grid list must double at each level, got {nx_list}")
    return nx_list


# --------------------------------------------------------------------------
# studies
# --------------------------------------------------------------------------
def convergence_study(
    scenario,
    *,
    integrator,
    eps_list,
    nx_list,
    **run_kwargs,
) -> list[dict]:
    """Successive-refinement errors and observed orders of the density.

    One row per (eps, coarse nx): the error between that run and the
    restricted next-finer run; `order` is the log2 ratio of consecutive
    errors (None on the first row of each eps).
    """
    nx_list = _check_doubling(nx_list)
    rows: list[dict] = []
    with _keeping_rows(rows):
        for eps in eps_list:
            runs = (
                run_case(scenario, integrator=integrator, eps=eps, nx=nx, **run_kwargs)
                for nx in nx_list
            )
            coarse, prev_err = next(runs), None
            for fine in runs:
                err = refinement_error(coarse, fine)
                order = math.log2(prev_err / err) if prev_err not in (None, 0.0) else None
                rows.append(
                    {"eps": coarse.meta["eps"], "nx": coarse.meta["nx"], "err_l1_rho": err,
                     "order": order}
                )
                coarse, prev_err = fine, err
    return rows


def admissible_cfl(cfl_requested: float, grid: PhaseGrid, t_final: float) -> tuple[float, int]:
    """Closest CFL to the request for which dt divides t_final exactly."""
    steps_exact = t_final * grid.vmax / (cfl_requested * grid.dx)
    check_step_count(steps_exact)
    n = max(1, int(round(steps_exact)))
    return t_final * grid.vmax / (n * grid.dx), n


def cfl_sweep(
    scenario,
    *,
    integrator,
    eps: float,
    cfl_list,
    nx: int = 160,
    t_final: float | None = None,
    **run_kwargs,
) -> list[dict]:
    """L2 density error (nx vs 2*nx runs) over a grid of CFL numbers.

    Each requested CFL is adjusted to the nearest value whose time step
    divides the final time exactly (the published cfl_actual column), so
    every run finishes with uniform steps on both grids.
    """
    scen = with_overrides(
        scenario, t_final=t_final, nv=run_kwargs.pop("nv", None), vmax=run_kwargs.pop("vmax", None)
    )
    t_final = scen.t_final
    if not (0.0 <= t_final < math.inf):
        raise ConfigError(f"t_final must be >= 0 and finite, got {t_final}")
    # the runs' own grids: dt then divides t_final under an nv or vmax override too
    probe, fine = (scen.grid(n) for n in (nx, 2 * nx))
    cfl_pairs = []
    for cfl_req in cfl_list:  # every request is refused or adjusted before any run
        cfl_req = typed_value("cfl", cfl_req, float)  # the lattice step cannot be adjusted
        probe.dt_from_cfl(cfl_req)  # refuses a CFL that is not positive and finite
        cfl_act = admissible_cfl(cfl_req, probe, t_final)[0]
        # the fine run takes twice the steps; its TimeControl would refuse it
        # only after the coarse run has marched
        check_step_count(t_final / fine.dt_from_cfl(cfl_act))
        cfl_pairs.append((cfl_req, cfl_act))
    rows: list[dict] = []
    with _keeping_rows(rows):
        for cfl_req, cfl_act in cfl_pairs:
            coarse, fine = (
                run_case(scen, integrator=integrator, eps=eps, nx=n, cfl=cfl_act, **run_kwargs)
                for n in (nx, 2 * nx)
            )
            err = refinement_error(coarse, fine, l2_norm)
            rows.append({"cfl_requested": cfl_req, "cfl_actual": cfl_act, "err_l2_rho": err})
    return rows


DEFAULT_CFL_SWEEP = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)


def cost_study(
    scenario,
    *,
    schemes,
    eps: float,
    nx_list,
    **run_kwargs,
) -> list[dict]:
    """Wall time vs L1 density error for several schemes on a grid ladder.

    `schemes` is a list of (integrator, interp) pairs (interp None picks the
    scheme default).  Errors are measured against the same scheme run at
    twice the finest resolution, restricted to each grid.
    """
    nx_list = _check_doubling(nx_list)
    rows: list[dict] = []
    with _keeping_rows(rows):
        for integrator, interp in schemes:
            runs = (
                run_case(
                    scenario, integrator=integrator, interp=interp, eps=eps, nx=nx, **run_kwargs
                )
                for nx in [2 * nx_list[-1], *nx_list]
            )
            reference = next(runs)
            for result in runs:
                rows.append(
                    {
                        "scheme": result.meta["scheme"],
                        "nx": result.meta["nx"],
                        "wall_seconds": result.meta["wall_seconds"],
                        "err_l1_rho": refinement_error(result, reference),
                    }
                )
    return rows
