"""Velocity moments, Maxwellian equilibria and the implicit relaxation solve.

Discrete moments use the midpoint rule on the uniform velocity grid:
    rho = dv * sum_j f_j,   rho*u = dv * sum_j v_j f_j,
    energy = dv * sum_j (v_j^2 / 2) f_j.
All three are one matrix product f @ W with the per-grid weights
W = dv*[1, v, v^2/2] (`PhaseGrid.moment_weights`), which BLAS computes in a
single pass over f.  The product sums in its own order, so results differ
from numpy's pairwise row sums at round-off only: each moment lies within
the dot-product bound n * 2^-53 * sum_j |f_j W_j| of the exact sum.
The midpoint rule is spectrally accurate for velocity profiles that decay
within [-vmax, vmax], so Maxwellian moments round-trip to machine precision
on an adequately resolved grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError

GAS_CONSTANT = 1.0  # R in T = p/(rho R); all bundled scenarios use R = 1


@dataclass(frozen=True)
class Moments:
    """Macroscopic fields on the space nodes (all arrays share one shape)."""

    rho: np.ndarray
    u: np.ndarray
    T: np.ndarray
    E: np.ndarray


def validate_positive(rho: np.ndarray, T: np.ndarray) -> None:
    """Abort on non-positive density or temperature (no clamping)."""
    if rho.min() > 0.0 and T.min() > 0.0:  # a NaN propagates through min
        return
    bad = ~((rho > 0.0) & (T > 0.0))  # catches NaN too
    if np.any(bad):
        node = int(np.argmax(bad))
        raise DegenerateStateError(
            f"non-positive density or temperature at space node {node}: "
            f"rho={float(np.ravel(rho)[node]):.17g}, T={float(np.ravel(T)[node]):.17g}",
            node=node,
        )


def maxwellian(rho, u, T, v, R: float = GAS_CONSTANT, out=None) -> np.ndarray:
    """Pointwise 1D Maxwellian rho/sqrt(2 pi R T) * exp(-(v-u)^2/(2 R T)).

    rho, u, T broadcast against v; pass shapes (..., 1) and (nv,) to build
    rows over a velocity grid.  The result is built in one buffer of the
    broadcast shape, `out` if given, in the textbook expression's order.
    """
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    T = np.asarray(T, dtype=float)
    theta = R * T
    if out is None:
        out = np.empty(np.broadcast_shapes(rho.shape, u.shape, T.shape, np.shape(v)))
    np.subtract(v, u, out=out)
    np.square(out, out=out)
    out /= -(2.0 * theta)  # negation is exact: the bits of -(x^2)/(2 theta)
    np.exp(out, out=out)
    out *= rho / np.sqrt(2.0 * np.pi * theta)
    return out


def velocity_moments(f, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint-rule (rho, momentum, energy) over the trailing velocity axis.

    weights is the grid's `moment_weights`; the three moments are the columns
    of the one product f @ weights.  A C-contiguous f keeps the product on BLAS.
    """
    sums = np.matmul(f, weights)
    return sums[..., 0], sums[..., 1], sums[..., 2]


def relaxation_solve(f, m_eq, tau, out=None):
    """Exact solution of the implicit relaxation step: (f + tau*M)/(1 + tau).

    tau = a*dt/eps >= 0 is a scalar.  Limits: tau=0 returns f unchanged (bitwise);
    tau=inf returns the equilibrium M (fluid limit). L-stable for any tau.
    The result goes to `out` if given, m_eq itself allowed, else to a new
    array; f and m_eq are not touched unless passed as `out`.
    """
    if math.isinf(tau):
        if out is None:
            return np.array(m_eq, dtype=float, copy=True)
        np.copyto(out, m_eq)
        return out
    out = np.multiply(m_eq, float(tau), out=out)
    out += f
    out /= 1.0 + tau
    return out
