"""Chu reduction: 3D velocity space collapsed to a pair of 1D distributions.

For slab-symmetric flows f(t, x, v, w) with v the transported direction and
w the two transverse velocities, the pair

    g1(t, x, v) = integral of f over w,
    g2(t, x, v) = integral of |w|^2 f over w,

closes the BGK dynamics exactly: both components are transported along the
same 1D characteristics and relax towards the reduced equilibria
(M1, 2 T M1), where M1 is the 1D Maxwellian of (rho, u, T) and T = p/rho.

Moments:  rho = dv*sum g1,  rho u = dv*sum v g1,
          3 rho T = dv*sum (v - u)^2 g1 + dv*sum g2,
          E = rho u^2/2 + (3/2) rho T       (fluid limit gamma = 5/3).
rho, rho u and dv*sum g2 come from one product of both components with the
grid's moment weights.  The longitudinal thermal energy stays a separate pass
over the peculiar velocity v - u: the raw-moment form
dv*sum v^2 g1 - rho u^2 subtracts two terms of size rho u^2 to leave one of
size rho T, so it loses about log10(u^2/T) digits as the Mach number grows.
"""
from __future__ import annotations

import numpy as np

from .grid import PhaseGrid
from .moments import Moments, maxwellian_rows, validate_positive, velocity_moments
from .systems import KineticSystem


class ChuReduced3V(KineticSystem):
    """Reduced two-component system for 1D space x 3D velocity slab flows."""

    n_components = 2
    gamma = 5.0 / 3.0
    dof = 3
    name = "chu"

    def moments(self, field: np.ndarray, grid: PhaseGrid, validate: bool = True) -> Moments:
        field = self.check_field(field, grid)
        # One product for both components; the mass of g2 is dv*sum g2.
        mass, momentum, _ = velocity_moments(field, grid.moment_weights)
        rho = mass[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = momentum[0] / rho
            # Peculiar velocity is measured against the local u of each node.
            pec2 = np.subtract(grid.v[None, :], u[:, None])
            np.square(pec2, out=pec2)
            trT = grid.dv * np.einsum("ij,ij->i", pec2, field[0]) + mass[1]
            T = trT / (3.0 * rho)
        if validate:
            validate_positive(rho, T)
        E = 0.5 * rho * u**2 + 1.5 * rho * T
        return Moments(rho=rho, u=u, T=T, E=E)

    def equilibrium(self, mom: Moments, grid: PhaseGrid) -> np.ndarray:
        """(M1, 2 T M1): the 1D Maxwellian rows (`maxwellian_rows`), then one scaling."""
        eq = np.empty((2, grid.n_space, grid.n_vel))
        m1 = maxwellian_rows(mom.rho, mom.u, mom.T, grid.velocity_basis, out=eq[0])
        np.multiply(2.0 * mom.T[:, None], m1, out=eq[1])
        return eq
