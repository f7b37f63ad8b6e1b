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
    Boundary,
    Integrator,
    Interp,
    SchemeConfig,
    default_interp,
    parse_boundary,
    parse_integrator,
    parse_interp,
)
from .errors import ConfigError, NumericalError
from .grid import PhaseGrid, TimeControl, check_step_count
from .integrators import TimeStepper
from .lattice import lattice_cfl, lattice_dt
from .scenarios import load_scenario, make_system


def scheme_label(integrator: Integrator, interp: Interp) -> str:
    suffix = {Interp.LINEAR: "Lin", Interp.WENO23: "W23", Interp.WENO35: "W35", Interp.NONE: ""}
    return f"{integrator.value}{suffix[interp]}"


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


def _phase_grid(scen, nx, nv=None, vmax=None) -> PhaseGrid:
    """A run's phase grid: the scenario's velocity grid unless nv or vmax is given."""
    nv = int(nv) if nv is not None else scen.nv
    vmax = float(vmax) if vmax is not None else scen.vmax
    return PhaseGrid(x0=scen.x0, x1=scen.x1, nx=int(nx), nv=nv, vmax=vmax)


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
    """March one configuration to its final time and report the moments."""
    scen = load_scenario(scenario)
    integrator = parse_integrator(integrator)
    interp = parse_interp(interp) if interp is not None else default_interp(integrator)
    boundary = parse_boundary(boundary) if boundary is not None else scen.boundary
    cfl_requested = float(cfl) if cfl is not None else scen.cfl
    t_final = float(t_final) if t_final is not None else scen.t_final

    grid = _phase_grid(scen, nx, nv, vmax)
    system = make_system(scen.model)
    scheme = SchemeConfig(
        integrator=integrator,
        interp=interp,
        boundary=boundary,
        eps=eps,
        cfl=cfl_requested,
    )
    if integrator.is_lattice:
        dt = lattice_dt(grid, integrator.lattice_stride)
        cfl_actual = lattice_cfl(grid, integrator.lattice_stride)
    else:
        dt = grid.dt_from_cfl(cfl_requested)
        cfl_actual = cfl_requested
    control = TimeControl(dt=dt, t_final=t_final)

    rho0, u0, T0 = scen.initial_moments(grid.x, system.dof)
    f0 = system.from_macro(rho0, u0, T0, grid)
    if boundary is Boundary.PERIODIC:
        f0[:, -1, :] = f0[:, 0, :]  # node nx is the same physical point as node 0

    stepper = TimeStepper(f0, grid, system, scheme)
    del f0  # handed over: the stepper holds this array, not a copy
    meta = {
        "scenario": scen.name,
        "model": scen.model,
        "scheme": scheme_label(integrator, interp),
        "integrator": integrator.value,
        "interp": interp.value,
        "boundary": boundary.value,
        "eps": eps,
        "nx": int(nx),
        "nv": grid.nv,
        "vmax": grid.vmax,
        "cfl_requested": cfl_requested,
        "cfl_actual": cfl_actual,
        "dt": dt,
        "t_final": t_final,
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
            "offlattice_steps": stepper.offlattice_steps,
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
    nx_list = [int(n) for n in nx_list]
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
    norm: str = "l1",
    **run_kwargs,
) -> list[dict]:
    """Successive-refinement errors and observed orders of the density.

    One row per (eps, coarse nx): the error between that run and the
    restricted next-finer run; `order` is the log2 ratio of consecutive
    errors (None on the first row of each eps).
    """
    nx_list = _check_doubling(nx_list)
    norm_fn = {"l1": l1_norm, "l2": l2_norm}[norm]
    rows: list[dict] = []
    with _keeping_rows(rows):
        for eps in eps_list:
            runs = (
                run_case(scenario, integrator=integrator, eps=eps, nx=nx, **run_kwargs)
                for nx in nx_list
            )
            coarse, prev_err = next(runs), None
            for fine in runs:
                err = refinement_error(coarse, fine, norm_fn)
                order = math.log2(prev_err / err) if prev_err not in (None, 0.0) else None
                rows.append(
                    {"eps": eps, "nx": coarse.meta["nx"], f"err_{norm}_rho": err, "order": order}
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
    integrator = parse_integrator(integrator)
    if integrator.is_lattice:
        raise ConfigError("the CFL of a lattice scheme is fixed; sweep needs interpolation")
    scen = load_scenario(scenario)
    t_final = float(t_final) if t_final is not None else scen.t_final
    if not (0.0 <= t_final < math.inf):
        raise ConfigError(f"t_final must be >= 0 and finite, got {t_final}")
    # the runs' own grids: dt then divides t_final under an nv or vmax override too
    probe, fine = (
        _phase_grid(scen, n, run_kwargs.get("nv"), run_kwargs.get("vmax")) for n in (nx, 2 * nx)
    )
    cfl_pairs = []
    for cfl_req in cfl_list:  # every request is refused or adjusted before any run
        if not (0.0 < cfl_req < math.inf):
            raise ConfigError(f"CFL values must be positive and finite, got {cfl_req}")
        cfl_act = admissible_cfl(float(cfl_req), probe, t_final)[0]
        # the fine run takes twice the steps; its TimeControl would refuse it
        # only after the coarse run has marched
        check_step_count(t_final / fine.dt_from_cfl(cfl_act))
        cfl_pairs.append((float(cfl_req), cfl_act))
    rows: list[dict] = []
    with _keeping_rows(rows):
        for cfl_req, cfl_act in cfl_pairs:
            coarse, fine = (
                run_case(
                    scenario,
                    integrator=integrator,
                    eps=eps,
                    nx=n,
                    cfl=cfl_act,
                    t_final=t_final,
                    **run_kwargs,
                )
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
                        "cpu_seconds": result.meta["wall_seconds"],
                        "err_l1_rho": refinement_error(result, reference),
                    }
                )
    return rows
