"""Characteristic transport: the field at the departure points.

One transport application evaluates every component of the field at the
characteristic feet x_i - v_j * tau.  It is the one transport of every time
stepper, at any step size.  When dv*tau/dx is an integer every foot is a
grid node, and the call is the exact gather of `LatticeTransport`.  Any
other tau interpolates; the stencils reach past the domain by the
interpolation width plus the largest characteristic overhang (large CFL
steps may sweep past several domain widths; the boundary maps fold
arbitrarily deep extensions back).

On the uniform grid the feet of velocity column j are the nodes shifted
rigidly upstream by r_j = j * (dv*tau/dx) nodes: an integer part floor(-r_j)
and a fraction t_j common to the whole column.  A shift within the lattice
tolerance of an integer is snapped to it, so node-aligned columns return
node values exactly.  Which of the two serves a tau, and the plan
(per-column shift, fraction and one window index), are settled once per
distinct tau and reused.  Plans live for one step size: a time stepper
calls `clear` when its step size changes, so a plan of the old size, as
large as a field, is not held through the steps of the new one (the cache
bound is only a backstop).  To build the plan, `extend_field` extends the
field's flat index plane, not the field: the result maps every
ghost-extended node onto the field value it copies, boundary map and
reflective velocity flip included, and is folded into the window index.  A
call then gathers every window of every component straight from the field,
with no ghost copy, and blends them with the scratch of the WENO pool.
"""
from __future__ import annotations

import math

import numpy as np

from .boundaries import extend_field
from .config import Boundary
from .grid import PhaseGrid
from .lattice import LatticeTransport, node_shift, snap_to_integers
from .weno import Interpolator, InterpPlan


class InterpolatedTransport:
    """Shift fields along characteristics: a node gather on node-aligned feet,
    WENO or linear interpolation elsewhere."""

    _PLAN_CACHE_MAX = 16

    def __init__(self, grid: PhaseGrid, interpolator: Interpolator, bc: Boundary):
        self.grid = grid
        self.interpolator = interpolator
        self.bc = bc
        self._lattice = LatticeTransport(grid, bc)
        # None marks a node-aligned tau, served by the lattice gather
        self._plans: dict[float, InterpPlan | None] = {}

    def shifted(self, field: np.ndarray, tau: float) -> np.ndarray:
        """Field values at the feet x_i - v_j*tau, shape preserved; a new array."""
        plan = self._plan_for(float(tau))
        if plan is None:
            return self._lattice.shifted(field, tau)
        return plan.apply(np.asarray(field))

    def clear(self) -> None:
        """Forget every plan and lattice edge index built so far."""
        self._plans.clear()
        self._lattice.clear()

    # -- internals ---------------------------------------------------------
    def _plan_for(self, tau: float) -> InterpPlan | None:
        if tau in self._plans:
            return self._plans[tau]
        plan = None
        if node_shift(self.grid, tau) is None:
            grid = self.grid
            overhang = int(math.ceil(abs(tau) * grid.vmax / grid.dx))
            nghost = self.interpolator.ghost + overhang + 1
            # node n, column c of the extended field copies field value source[n, c]
            plane = np.arange(grid.n_space * grid.n_vel).reshape(1, grid.n_space, grid.n_vel)
            source = extend_field(plane, self.bc, nghost)[0]
            del plane
            r = snap_to_integers(grid.jv * (grid.dv * tau / grid.dx))
            shift = np.floor(-r)
            plan = self.interpolator.plan(
                (grid.n_space, grid.n_vel),
                nghost + shift.astype(np.int64),
                -r - shift,
                rows=grid.n_space,
                source=source,
            )
        if len(self._plans) >= self._PLAN_CACHE_MAX:
            self._plans.pop(next(iter(self._plans)))
        self._plans[tau] = plan
        return plan
