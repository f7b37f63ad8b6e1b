"""Shared helpers for the test suite."""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre, polynomial

from bgk_sl import Boundary, ChuReduced3V, Integrator, Interp, Monatomic1V, PhaseGrid
from bgk_sl.moments import maxwellian_rows, velocity_basis
from bgk_sl.weno import GHOST_WIDTH, Workspace, _differences, _indicators

# CLI subprocesses import the package from this checkout's src/, as the
# suite itself does through pytest's `pythonpath` setting
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# The lattice runs the suite pins, keyed by scheme label: an integrator of
# each order with the interpolation of that order, at cfl = "lattice".
LATTICE_RUNS = {
    "Euler1Lin": (Integrator.EULER1, Interp.LINEAR),
    "BDF2W23": (Integrator.BDF2, Interp.WENO23),
    "BDF3W35": (Integrator.BDF3, Interp.WENO35),
}


def fitted_slope(h_list, err_list) -> float:
    """Least-squares slope of log2(err) against log2(h)."""
    return float(np.polyfit(np.log2(h_list), np.log2(err_list), 1)[0])


def smoothness_indicators(kind, window, eps=0.0) -> list[float]:
    """Smoothness indicators plus eps, left stencil first, of one window of
    node values (WENO23: nodes -1..2 of the evaluation cell; WENO35: nodes
    -2..3), taken through the difference-form indicators the interpolation
    kernel uses."""
    win = np.asarray(window, dtype=float).reshape(1, -1, 1)
    ws = Workspace()
    diffs = _differences(win, GHOST_WIDTH[kind], ws)
    return [float(b[0, 0, 0]) for b in _indicators(kind, diffs, 1, ws, eps)]


def cells(s):
    """Points s in node units as (cell, t) rows: s = cell + t, 0 <= t < 1."""
    s = np.asarray(s, dtype=float)
    cell = np.floor(s).astype(np.int64)
    return cell, s - cell


def interpolate_at(interp, values, cell, t) -> np.ndarray:
    """The kernel's values of 1D node data at the points cell[q] + t[q] (node
    units): a one-row plan of `interp` whose every column reads the one data
    column."""
    values = np.asarray(values, dtype=float)
    source = np.repeat(np.arange(values.size)[:, None], np.size(cell), axis=1)
    plan = interp.plan((values.size, 1), cell, t, rows=1, source=source)
    return plan.apply(values.reshape(1, -1, 1))[0, 0]


# ---------------------------------------------------------------------------
# Independent interpolation reference.  Written from the definitions, it
# shares nothing with bgk_sl.weno: each candidate polynomial comes from a
# Vandermonde solve on its stencil, the linear weights are the textbook ones,
# and beta = sum_l integral_0^1 (d^l p/dt^l)^2 dt is a Gauss-Legendre sum,
# exact at these degrees.  A wrong kernel coefficient cannot pass through it.
# ---------------------------------------------------------------------------
#: node offsets, from the left node of the evaluation cell [0, 1], of each
#: candidate stencil, left to right
_STENCILS = {
    Interp.LINEAR: [(0, 1)],
    Interp.WENO23: [(-1, 0, 1), (0, 1, 2)],
    Interp.WENO35: [(-2, -1, 0, 1), (-1, 0, 1, 2), (0, 1, 2, 3)],
}


def window_offsets(kind) -> np.ndarray:
    """Node offsets, from the left node of the evaluation cell, of the window
    the reference reads: the union of the kind's stencils."""
    stencils = _STENCILS[kind]
    return np.arange(stencils[0][0], stencils[-1][-1] + 1)


def _linear_weights(kind, t) -> list:
    """Linear (optimal) weights of the candidate stencils at fraction t: with
    them the blend is the interpolant through every node of the window."""
    if kind is Interp.WENO23:
        return [(2.0 - t) / 3.0, (1.0 + t) / 3.0]
    return [
        (2.0 - t) * (3.0 - t) / 20.0,
        (2.0 + t) * (3.0 - t) / 10.0,
        (1.0 + t) * (2.0 + t) / 20.0,
    ]


def _stencil_polynomial(windows, offsets, first) -> np.ndarray:
    """Monomial coefficients in t, lowest first along axis 0, of the polynomial
    through the windows' values at the stencil's offsets."""
    vander = np.vander(np.asarray(offsets, dtype=float), increasing=True)
    vals = windows[..., np.asarray(offsets) - first]
    coef = np.linalg.solve(vander, vals.reshape(-1, len(offsets)).T)
    return coef.reshape((len(offsets),) + vals.shape[:-1])


def _beta(coef) -> np.ndarray:
    """sum over l >= 1 of the integral over [0, 1] of the squared l-th
    derivative of the polynomials `coef`, by Gauss-Legendre quadrature with as
    many nodes as coefficients (exact to degree 2m - 1 >= 2(m - 2))."""
    x, w = legendre.leggauss(coef.shape[0])
    tq, wq = 0.5 * (x + 1.0), 0.5 * w
    beta = 0.0
    for order in range(1, coef.shape[0]):
        deriv = polynomial.polyval(tq, polynomial.polyder(coef, order, axis=0))
        beta = beta + (deriv**2) @ wq
    return beta


def reference_indicators(kind, window) -> list[float]:
    """Smoothness indicators, left stencil first, of one window of node values
    (WENO23: nodes -1..2 of the evaluation cell; WENO35: nodes -2..3)."""
    window = np.asarray(window, dtype=float)
    first = _STENCILS[kind][0][0]
    return [float(_beta(_stencil_polynomial(window, st, first))) for st in _STENCILS[kind]]


def reference_interp(kind, windows, t, eps) -> np.ndarray:
    """Interpolation of node windows at the fraction t of their evaluation cell.

    windows[..., k] holds the value at node offset window_offsets(kind)[k];
    t broadcasts against windows[..., 0].  WENO blends the candidate
    polynomials with the weights d_k / (beta_k + eps)^2, normalised."""
    windows = np.asarray(windows, dtype=float)
    t = np.asarray(t, dtype=float)
    stencils = _STENCILS[kind]
    polys = [_stencil_polynomial(windows, st, stencils[0][0]) for st in stencils]
    values = [polynomial.polyval(t, c, tensor=False) for c in polys]
    if kind is Interp.LINEAR:
        return values[0]
    alphas = [d / (_beta(c) + eps) ** 2 for d, c in zip(_linear_weights(kind, t), polys)]
    return sum(a * v for a, v in zip(alphas, values)) / sum(alphas)


def mixture_row(v: np.ndarray, parts) -> np.ndarray:
    """Sum of weighted Maxwellians over the velocity nodes.

    parts is an iterable of (weight, rho, u, T); the result is far from any
    single Maxwellian unless only one part is given.
    """
    row = np.zeros_like(v)
    basis = velocity_basis(v)
    for w, rho, u, T in parts:
        row = row + w * maxwellian_rows(*np.array([rho, u, T]), basis)
    return row


def uniform_mixture_field(system, grid: PhaseGrid, parts) -> np.ndarray:
    """Space-uniform field whose velocity profile is a Maxwellian mixture.

    For the reduced two-component system the transverse component of each
    part carries its equilibrium share 2*T*M1, so temperatures stay
    admissible while the state remains out of equilibrium.
    """
    row = mixture_row(grid.v, parts)
    f = np.empty((system.n_components, grid.n_space, grid.n_vel))
    f[0] = row
    if system.n_components == 2:
        row2 = np.zeros_like(grid.v)
        basis = velocity_basis(grid.v)
        for w, rho, u, T in parts:
            row2 = row2 + w * 2.0 * T * maxwellian_rows(*np.array([rho, u, T]), basis)
        f[1] = row2
    return f


def make_system(name: str):
    return Monatomic1V() if name == "1v" else ChuReduced3V()


def free_molecular_field(scen, grid: PhaseGrid, system, t):
    """The exact field of scen at eps = inf and time t, and the mask of the
    (space, velocity) entries whose foot sits on the Riemann jump.

    Each entry is the scenario's equilibrium (the Chu pair for chu) of its
    profile at the foot x_i - v_j t: wrapped for periodic data, folded with
    v -> -v at reflective walls, and left as is for the shock tubes, whose
    profiles extend past the domain.  At the jump the initial node holds the
    average of the two states, not the profile, so the mask marks it."""
    exact = np.empty((system.n_components, grid.n_space, grid.n_vel))
    on_jump = np.zeros((grid.n_space, grid.n_vel), dtype=bool)
    length = scen.x1 - scen.x0
    for j, v in enumerate(grid.v):
        foot, flipped = grid.x - v * t, np.zeros(grid.n_space, dtype=bool)
        if scen.boundary is Boundary.PERIODIC:
            foot = scen.x0 + np.mod(foot - scen.x0, length)
        elif scen.boundary is Boundary.REFLECTIVE:
            s = np.mod(foot - scen.x0, 2.0 * length)
            flipped = s > length
            foot = scen.x0 + np.where(flipped, 2.0 * length - s, s)
        profile = (np.broadcast_to(m, foot.shape) for m in scen.profile(foot))
        eq = system.from_macro(*profile, grid)
        exact[:, :, j] = np.where(flipped, eq[:, :, grid.n_vel - 1 - j], eq[:, :, j])
        if scen.riemann is not None:
            on_jump[:, j] = np.abs(foot - scen.riemann[2]) <= 1e-9
    return exact, on_jump
