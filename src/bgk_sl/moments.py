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

The Maxwellian goes the other way on the same idea.  Temperature is in
units where the gas constant is 1 (T = p/rho), and its logarithm is a
quadratic in v,
    ln(rho/sqrt(2 pi T)) - (v-u)^2/(2 T) = a + b*v + c*v^2,
so the rows of every node are exp(C @ B): one product of the per-node
coefficients C = [a, b, c] with the per-grid basis B = [1; v; v^2]
(`PhaseGrid.velocity_basis`), then one exp over the contiguous result.
This is not the textbook expression's operation order, so values differ
from it at round-off.  Near the peak v = u the three terms are each as large
as u^2/(2 T) while their sum is O(1), so a value's relative error grows
like ulp * (1 + u^2/T): the textbook expression's accuracy at low Mach,
and at high Mach the digit loss that a raw-moment temperature has (see
`chu.py`).  Where a value is above 1e-6 of its row's peak, the error stays
within 32 ulp * (1 + u^2/T) of an extended-precision evaluation
(tests/test_moments.py); measured 6e-14 over |u| <= 5, T >= 0.035.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError


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


def velocity_basis(v) -> np.ndarray:
    """Quadratic basis [1; v; v^2] of velocity nodes v, shape (3, nv), C-contiguous."""
    v = np.asarray(v, dtype=float)
    return np.stack([np.ones_like(v), v, v * v])


def maxwellian_rows(rho, u, T, basis, out=None) -> np.ndarray:
    """Maxwellian rows exp(C @ basis) of nodes with parameters rho, u, T.

    rho, u, T are float arrays of one shape S; basis is `velocity_basis` of
    the nodes (`PhaseGrid.velocity_basis`).  C, of shape S + (3,), holds each node's
    exponent coefficients a = ln(rho/sqrt(2 pi T)) - u^2/(2 T), b = u/T and
    c = -1/(2 T).  The result, of shape S + (nv,), goes to `out` if given.
    A value's relative error grows like ulp * (1 + u^2/T); see the module
    docstring.
    """
    coeffs = np.empty(np.shape(T) + (3,))
    a, b, c = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    np.divide(u, T, out=b)
    np.divide(-0.5, T, out=c)
    np.multiply(b, u, out=a)
    a *= -0.5
    a += np.log(rho / np.sqrt(2.0 * np.pi * T))
    out = np.matmul(coeffs, basis, out=out)
    np.exp(out, out=out)
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
