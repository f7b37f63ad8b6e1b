"""Kinetic-system abstraction.

A system defines how macroscopic moments are extracted from the distribution
components and how the equilibrium (Maxwellian) components are rebuilt from
them.  Distribution fields are arrays of shape (n_components, nx+1, 2*nv+1).

`Monatomic1V` is the plain 1D-velocity BGK gas (fluid limit gamma = 3).
The reduced 3D-velocity system lives in `bgk_sl.chu`.
"""
from __future__ import annotations

import numpy as np

from .grid import PhaseGrid
from .moments import Moments, maxwellian_rows, validate_positive, velocity_moments


class KineticSystem:
    """Interface: subclasses set n_components/gamma/dof and implement the hooks."""

    n_components: int
    gamma: float
    dof: int  # velocity-space degrees of freedom N in E = rho*u^2/2 + (N/2) rho T
    name: str

    def moments(self, field: np.ndarray, grid: PhaseGrid, validate: bool = True) -> Moments:
        """Moments of a field; validate=True raises on non-positive rho or T."""
        raise NotImplementedError

    def equilibrium(self, mom: Moments, grid: PhaseGrid) -> np.ndarray:
        raise NotImplementedError

    def from_macro(self, rho, u, T, grid: PhaseGrid) -> np.ndarray:
        """Equilibrium field with the given macroscopic profiles at the nodes."""
        rho = np.broadcast_to(np.asarray(rho, dtype=float), (grid.n_space,))
        u = np.broadcast_to(np.asarray(u, dtype=float), (grid.n_space,))
        T = np.broadcast_to(np.asarray(T, dtype=float), (grid.n_space,))
        validate_positive(rho, T)
        E = 0.5 * rho * u**2 + 0.5 * self.dof * rho * T
        mom = Moments(rho=rho, u=u, T=T, E=E)
        return self.equilibrium(mom, grid)

    def check_field(self, field: np.ndarray, grid: PhaseGrid) -> np.ndarray:
        field = np.asarray(field, dtype=float)
        expected = (self.n_components, grid.n_space, grid.n_vel)
        if field.shape != expected:
            raise ValueError(f"field shape {field.shape} != expected {expected}")
        return field


class Monatomic1V(KineticSystem):
    """One scalar distribution over a 1D velocity grid; E = rho u^2/2 + rho T/2."""

    n_components = 1
    gamma = 3.0
    dof = 1
    name = "1v"

    def moments(self, field: np.ndarray, grid: PhaseGrid, validate: bool = True) -> Moments:
        field = self.check_field(field, grid)
        rho, mom, energy = velocity_moments(field[0], grid.moment_weights)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = mom / rho
            T = 2.0 * energy / rho - u**2
        if validate:
            validate_positive(rho, T)
        return Moments(rho=rho, u=u, T=T, E=energy)

    def equilibrium(self, mom: Moments, grid: PhaseGrid) -> np.ndarray:
        """Maxwellian rows of every node: one product and one exp (`maxwellian_rows`)."""
        return maxwellian_rows(mom.rho, mom.u, mom.T, grid.velocity_basis)[None]
