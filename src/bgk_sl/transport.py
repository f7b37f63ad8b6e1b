"""Characteristic transport by interpolation at the departure points.

One transport application evaluates every component of the field at the
characteristic feet x_i - v_j * tau, after extending the field with enough
ghost nodes to cover both the interpolation stencil and the largest
characteristic overhang (large CFL steps may sweep past several domain
widths; the boundary maps fold arbitrarily deep extensions back).

On the uniform grid the feet of velocity column j are the nodes shifted
rigidly upstream by r_j = j * (dv*tau/dx) nodes: an integer part floor(-r_j)
and a fraction t_j common to the whole column.  A shift within the lattice
tolerance of an integer is snapped to it, so node-aligned feet return node
values exactly.  The plan (per-column shift, fraction and one window index
into the extended field) is built once per distinct tau and reused; every
component is then gathered and blended in one call, with the scratch arrays
of a single workspace that the transport keeps for all its plans.
"""
from __future__ import annotations

import math

import numpy as np

from .boundaries import extend_field
from .config import Boundary
from .grid import PhaseGrid
from .lattice import snap_to_integers
from .weno import Interpolator, InterpPlan, Workspace


class InterpolatedTransport:
    """Shift fields along characteristics using WENO or linear interpolation."""

    _PLAN_CACHE_MAX = 16

    def __init__(self, grid: PhaseGrid, interpolator: Interpolator, bc: Boundary):
        self.grid = grid
        self.interpolator = interpolator
        self.bc = bc
        self._plans: dict[float, tuple[int, InterpPlan]] = {}
        self._workspace = Workspace()

    def shifted(self, field: np.ndarray, tau: float) -> np.ndarray:
        """Field values at the feet x_i - v_j*tau, shape preserved; a new array."""
        field = np.asarray(field)
        if tau == 0.0:
            return field.copy()
        nghost, plan = self._plan_for(float(tau))
        ext = extend_field(field, self.bc, nghost)
        return plan.apply(ext, self._workspace)

    # -- internals ---------------------------------------------------------
    def _plan_for(self, tau: float) -> tuple[int, InterpPlan]:
        entry = self._plans.get(tau)
        if entry is None:
            grid = self.grid
            overhang = int(math.ceil(abs(tau) * grid.vmax / grid.dx))
            nghost = self.interpolator.ghost + overhang + 1
            r = snap_to_integers(grid.jv * (grid.dv * tau / grid.dx))
            shift = np.floor(-r)
            plan = self.interpolator.plan(
                (grid.nx + 1 + 2 * nghost, grid.n_vel),
                nghost + shift.astype(np.int64),
                -r - shift,
                rows=grid.nx + 1,
            )
            if len(self._plans) >= self._PLAN_CACHE_MAX:
                self._plans.pop(next(iter(self._plans)))
            entry = (nghost, plan)
            self._plans[tau] = entry
        return entry
