"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np

from bgk_sl import ChuReduced3V, Monatomic1V, PhaseGrid
from bgk_sl.moments import maxwellian
from bgk_sl.weno import GHOST_WIDTH, Workspace, _differences, _indicators


def fitted_slope(h_list, err_list) -> float:
    """Least-squares slope of log2(err) against log2(h)."""
    return float(np.polyfit(np.log2(h_list), np.log2(err_list), 1)[0])


def smoothness_indicators(kind, window) -> list[float]:
    """Smoothness indicators, left stencil first, of one window of node values
    (WENO23: nodes -1..2 of the evaluation cell; WENO35: nodes -2..3), taken
    through the difference-form indicators the interpolation kernel uses."""
    win = np.asarray(window, dtype=float).reshape(1, -1, 1)
    ws = Workspace()
    diffs = _differences(win, GHOST_WIDTH[kind], ws)
    return [float(b[0, 0, 0]) for b in _indicators(kind, diffs, 1, ws)]


def mixture_row(v: np.ndarray, parts) -> np.ndarray:
    """Sum of weighted Maxwellians over the velocity nodes.

    parts is an iterable of (weight, rho, u, T); the result is far from any
    single Maxwellian unless only one part is given.
    """
    row = np.zeros_like(v)
    for w, rho, u, T in parts:
        row = row + w * maxwellian(rho, u, T, v)
    return row


def uniform_mixture_field(system, grid: PhaseGrid, parts) -> np.ndarray:
    """Space-uniform field whose velocity profile is a Maxwellian mixture.

    For the reduced two-component system the transverse component of each
    part carries its equilibrium share 2*R*T*M1, so temperatures stay
    admissible while the state remains out of equilibrium.
    """
    row = mixture_row(grid.v, parts)
    f = np.empty((system.n_components, grid.n_space, grid.n_vel))
    f[0] = row
    if system.n_components == 2:
        row2 = np.zeros_like(grid.v)
        for w, rho, u, T in parts:
            row2 = row2 + w * 2.0 * system.R * T * maxwellian(rho, u, T, grid.v)
        f[1] = row2
    return f


def make_system(name: str):
    return Monatomic1V() if name == "1v" else ChuReduced3V()
