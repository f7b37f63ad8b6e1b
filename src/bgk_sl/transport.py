"""Characteristic transport: the field at the departure points.

One transport application evaluates every component of the field at the
characteristic feet x_i - v_j * tau.  It is the one transport of every time
stepper, at any step size.  When dv*tau/dx is an integer every foot is a
grid node, and the call is the exact gather of a `LatticeTransport`.  Any
other tau interpolates; the stencils reach past the domain by the
interpolation width plus the largest characteristic overhang (large CFL
steps may sweep past several domain widths; the boundary maps fold
arbitrarily deep extensions back).

On the uniform grid the feet of velocity column j are the nodes shifted
rigidly upstream by r_j = j * (dv*tau/dx) nodes: an integer part floor(-r_j),
the column's anchor, and a fraction t_j common to the whole column.  A shift
within the lattice tolerance of an integer is snapped to it, so node-aligned
columns return node values exactly.  Each distinct tau is classified once
(`node_shift`) and gets one plan in one cache: the lattice gather of its
shift, or the interpolation plan (per-column fraction over a window).
Windows are cached by their anchor row, so the plans of every tau whose
feet fall in the same cells share one window index; at CFL <= 1 every tau
between 0 and dt has the same anchors.  `windows` groups a list of taus by
the window their feet read, and `shifted` takes a tuple of the taus of one
group: one gather of the field's window then serves them all, and the
result stacks the field at each (see `weno`).  Plans and windows live for
one step size: a time stepper calls `clear` when its step size changes, so
the plans of the old size are not held through the steps of the new one
(the cache bounds are only a backstop).  To build a window, `extend_field`
extends the field's flat index plane, not the field: the result, an int32
plane for any field of fewer than 2**31 values, maps every ghost-extended
node onto the field value it copies, boundary map and reflective velocity
flip included, and is folded into the window index.  A window of a field
larger than one WENO block keeps only the edge rows of that index and one
block's pattern of its interior rows, so no plan holds an index as large as
a field (see `weno`).  A call then gathers every window of every component
straight from the field, with no ghost copy, and blends them with the
scratch of the WENO pool, into the caller's `out` or a new array.
"""
from __future__ import annotations

import math

import numpy as np

from .boundaries import extend_field
from .config import Boundary
from .errors import ConfigError
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
        self._plans: dict[float | tuple[float, ...], LatticeTransport | InterpPlan] = {}
        self._windows: dict[bytes, InterpPlan] = {}  # anchor row -> its first plan

    def shifted(self, field: np.ndarray, tau, out=None) -> np.ndarray:
        """Field values at the feet x_i - v_j*tau, shape preserved, written into
        `out` if given, which must not overlap the field, else into a new array.

        tau may also be a tuple of times whose feet share one window
        (`windows`); the result then stacks the field at each, in order, shape
        (len(tau),) + field.shape, from one gather of the window."""
        plan = self._plan_for(tau)
        if isinstance(plan, LatticeTransport):
            return plan.shifted(field, out=out)
        return plan.apply(np.asarray(field), out=out)

    def windows(self, taus) -> list[tuple[int, ...]]:
        """The positions in `taus` grouped by the interpolation window their
        feet read, each group in order and the groups in order of their first
        position: a tuple of the taus of one group is one `shifted` call.  A
        node-aligned tau reads no window and is a group of its own."""
        groups: dict[object, list[int]] = {}
        for i, tau in enumerate(taus):
            plan = self._plan_for(tau)
            groups.setdefault(plan.window if isinstance(plan, InterpPlan) else i, []).append(i)
        return [tuple(group) for group in groups.values()]

    def clear(self) -> None:
        """Forget every plan and window built so far."""
        self._plans.clear()
        self._windows.clear()

    # -- internals ---------------------------------------------------------
    def _plan_for(self, tau) -> LatticeTransport | InterpPlan:
        key = tuple(map(float, tau)) if isinstance(tau, tuple) else float(tau)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        if isinstance(key, tuple):
            plan = self._stacked_plan(key)
        elif not math.isfinite(key):
            raise ConfigError(f"transport time must be finite, got {tau!r}")
        else:
            plan = self._single_plan(key)
        _remember(self._plans, key, plan, self._PLAN_CACHE_MAX)
        return plan

    def _stacked_plan(self, taus) -> InterpPlan:
        plans = [self._plan_for(tau) for tau in taus]
        if not plans or not all(
            isinstance(p, InterpPlan) and p.window is plans[0].window for p in plans
        ):
            raise ConfigError(f"the feet of the times {taus} share no interpolation window")
        return plans[0].at(np.stack([p.t for p in plans]))

    def _single_plan(self, tau: float) -> LatticeTransport | InterpPlan:
        grid = self.grid
        shift = node_shift(grid, tau)
        if shift is not None:
            return LatticeTransport(grid, self.bc, shift)
        r = snap_to_integers(grid.jv * (grid.dv * tau / grid.dx))
        shift = np.floor(-r)
        anchor = shift.tobytes()
        first = self._windows.get(anchor)
        if first is not None:  # share its window
            return first.at(-r - shift)
        overhang = int(math.ceil(abs(tau) * grid.vmax / grid.dx))
        nghost = self.interpolator.ghost + overhang + 1
        # node n, column c of the extended field copies field value source[n, c]
        size = grid.n_space * grid.n_vel
        plane = np.arange(size, dtype=np.int32 if size < 2**31 else np.int64)
        source = extend_field(plane.reshape(1, grid.n_space, grid.n_vel), self.bc, nghost)[0]
        del plane
        plan = self.interpolator.plan(
            (grid.n_space, grid.n_vel),
            nghost + shift.astype(np.int64),
            -r - shift,
            rows=grid.n_space,
            source=source,
        )
        _remember(self._windows, anchor, plan, self._PLAN_CACHE_MAX)
        return plan


def _remember(cache: dict, key, value, most: int) -> None:
    """cache[key] = value, first evicting the oldest entry of a full cache."""
    if len(cache) >= most:
        cache.pop(next(iter(cache)))
    cache[key] = value
