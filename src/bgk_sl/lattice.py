"""Exact transport of node-aligned characteristic feet: an integer gather.

When the time step satisfies dv*dt = dx, every characteristic foot
x_i - v_j*m*dt with integer m lands exactly on a grid node: the foot of
velocity index j is j*m nodes away.  Transport then becomes an exact integer
gather (no interpolation, no numerical diffusion), at the price of tying the
time step to the grids: the effective CFL number is nv.  cfl = "lattice"
marches any integrator at this step (`PhaseGrid.dt_from_cfl`).

A `LatticeTransport` is the gather of one shift s, built once by the
transport's per-tau plan cache (`transport`).  Row i of velocity column j
reads node i - jv_j*s, whose offset in the field's flat (node, velocity)
plane, (i - jv_j*s)*n_vel + j, is affine in (i, j).  The interior rows
nv*|s| <= i < n_space - nv*|s|, whose feet all lie inside the domain, are
therefore one read-only strided view of the C-contiguous field, copied into
the result.  Only the 2*nv*|s| edge rows go through the boundary map: the
gather keeps one int64 index of them into the flat plane (source node times
n_vel plus source column, reflective velocity flip folded in) and takes them
with it.  When the edges cover the whole field that index covers every row
and one take serves.  The result goes to the caller's `out`, or else to a
new array; either way it shares no memory with the field or the index.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .boundaries import map_nodes
from .config import Boundary
from .errors import ConfigError
from .grid import PhaseGrid
from .weno import check_shapes

_INT_TOL = 1e-9


def snap_to_integers(r):
    """r with every entry within the lattice tolerance of an integer set to it."""
    r = np.asarray(r, dtype=float)
    nearest = np.round(r)
    return np.where(np.abs(r - nearest) <= _INT_TOL * np.maximum(1.0, np.abs(r)), nearest, r)


def node_shift(grid: PhaseGrid, tau: float) -> int | None:
    """Nodes per unit velocity index swept in time tau, or None if off-lattice.

    Aligned means every column's shift jv*r snaps to an integer, not only r:
    the absolute tolerance near zero would otherwise call a tiny tau aligned
    while the fastest columns' shifts stay off-lattice."""
    r = float(snap_to_integers(tau * grid.dv / grid.dx))
    if not r.is_integer():
        return None
    columns = snap_to_integers(grid.jv * (grid.dv * tau / grid.dx))
    return int(r) if np.array_equal(columns, grid.jv * r) else None


class LatticeTransport:
    """The exact gather of one integer shift: the field at the feet
    x_i - v_j*shift*dx/dv, shape preserved."""

    def __init__(self, grid: PhaseGrid, bc: Boundary, shift: int):
        if not float(shift).is_integer():
            raise ConfigError(f"a lattice gather needs an integer node shift, got {shift!r}")
        self.grid = grid
        self.shift = shift = int(shift)
        self.edge = edge = grid.nv * abs(shift)
        # flat source index src*n_vel + col of the first and last `edge` rows,
        # or of every row when those overlap
        rows = np.arange(grid.n_space)
        if 2 * edge < grid.n_space:
            rows = np.concatenate([rows[:edge], rows[grid.n_space - edge :]])
        src, flip = map_nodes(rows[:, None] - grid.jv[None, :] * shift, grid.nx, bc)
        jj = np.arange(grid.n_vel)[None, :]
        self.index = src * grid.n_vel  # int64, so take never casts it
        self.index += np.where(flip, grid.n_vel - 1 - jj, jj)

    def shifted(self, field: np.ndarray, out=None) -> np.ndarray:
        """The gathered field, written into `out` if given, which must not
        overlap the field, else into a new array."""
        field = np.asarray(field)
        grid, shift, edge = self.grid, self.shift, self.edge
        check_shapes(field, (grid.n_space, grid.n_vel), out, (grid.n_space, grid.n_vel))
        flat = np.ascontiguousarray(field).reshape(field.shape[0], -1)
        if out is None:
            out = np.empty(field.shape, dtype=flat.dtype)
        if 2 * edge >= grid.n_space:
            return np.take(flat, self.index, axis=1, out=out, mode="clip")
        # interior row i, column j: flat offset (i + nv*shift)*n_vel + j*(1 - shift*n_vel)
        step = flat.itemsize
        interior = as_strided(
            flat[:, (edge + grid.nv * shift) * grid.n_vel :],
            shape=(field.shape[0], grid.n_space - 2 * edge, grid.n_vel),
            strides=(flat.strides[0], grid.n_vel * step, (1 - shift * grid.n_vel) * step),
            writeable=False,
        )
        last = grid.n_space - edge
        out[:, edge:last] = interior
        edges = np.take(flat, self.index, axis=1)
        out[:, :edge] = edges[:, :edge]
        out[:, last:] = edges[:, edge:]
        return out
