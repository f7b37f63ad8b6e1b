"""Velocity moments, Maxwellian equilibria and the implicit relaxation solve.

Discrete moments use the midpoint rule on the uniform velocity grid:
    rho = dv * sum_j f_j,   rho*u = dv * sum_j v_j f_j,
    energy = dv * sum_j (v_j^2 / 2) f_j.
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
    np.negative(out, out=out)
    out /= 2.0 * theta
    np.exp(out, out=out)
    out *= rho / np.sqrt(2.0 * np.pi * theta)
    return out


def velocity_moments(f, v, dv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint-rule sums (rho, momentum, energy) over the trailing velocity axis."""
    f = np.asarray(f)
    rho = dv * f.sum(axis=-1)
    fv = f * v
    mom = dv * fv.sum(axis=-1)
    fv *= v
    energy = 0.5 * dv * fv.sum(axis=-1)
    return rho, mom, energy


def relaxation_solve(f, m_eq, tau):
    """Exact solution of the implicit relaxation step: (f + tau*M)/(1 + tau).

    tau = a*dt/eps >= 0 is a scalar.  Limits: tau=0 returns f unchanged (bitwise);
    tau=inf returns the equilibrium M (fluid limit). L-stable for any tau.
    """
    if math.isinf(tau):
        return np.array(m_eq, dtype=float, copy=True)
    out = np.multiply(m_eq, float(tau))  # f and m_eq stay untouched
    out += f
    out /= 1.0 + tau
    return out
