"""Exact transport of node-aligned characteristic feet: an integer gather.

When the time step satisfies dv*dt = stride*dx for an integer stride, every
characteristic foot x_i - v_j*(m*dt/stride) with integer m lands exactly on a
grid node: the foot of velocity index j is j*m nodes away.  Transport then
becomes an exact integer gather (no interpolation, no numerical diffusion),
at the price of tying the time step to the grids: the effective CFL number is
stride*nv.  The Lat* scheme tokens march at this step (`config.SCHEMES`):
stride 1, or 3 for LatRK2, whose stage offsets dt/3 and 2*dt/3 are then also
node-aligned.

Under a shift s, row i of velocity column j reads node i - jv_j*s, whose
offset in the field's flat (node, velocity) plane, (i - jv_j*s)*n_vel + j, is
affine in (i, j).  The interior rows nv*|s| <= i < n_space - nv*|s|, whose
feet all lie inside the domain, are therefore one read-only strided view of
the C-contiguous field, copied into the result.  Only the 2*nv*|s| edge rows
go through the boundary map: a scheme sweeps the same few shifts every step
(1 and 2 for BDF2), so the transport keeps, per shift and until `clear`, one
int64 index of the edge rows into the flat plane (source node times n_vel
plus source column, reflective velocity flip folded in) and takes them with
it.  When the edges cover the whole field that index covers every row and
one take serves.  The shift of each tau is found once, until `clear`.  The
result goes to the caller's `out`, or else to a new array; either way it
shares no memory with the field or the index.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .boundaries import map_nodes
from .config import Boundary
from .errors import ConfigError
from .grid import PhaseGrid

_INT_TOL = 1e-9


def lattice_dt(grid: PhaseGrid, stride: int = 1) -> float:
    """The unique time step with dv*dt = stride*dx."""
    if stride < 1:
        raise ConfigError(f"lattice stride must be >= 1, got {stride}")
    return stride * grid.dx / grid.dv


def lattice_cfl(grid: PhaseGrid, stride: int = 1) -> float:
    """Effective CFL number of the lattice step: stride * nv."""
    return float(stride * grid.nv)


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
    """Shift fields along characteristics by exact integer node gathers."""

    _INDEX_CACHE_MAX = 16

    def __init__(self, grid: PhaseGrid, bc: Boundary):
        self.grid = grid
        self.bc = bc
        self._indices: dict[int, np.ndarray] = {}
        self._shifts: dict[float, int | None] = {}

    def shifted(self, field: np.ndarray, tau: float, out=None) -> np.ndarray:
        """Field values at the feet x_i - v_j*tau, shape preserved, written into
        `out` if given, which must not overlap the field, else into a new array."""
        field = np.asarray(field)
        shift = self._shift_for(tau)
        if shift is None:
            raise ConfigError(
                f"transport over tau={tau!r} is not node-aligned "
                f"(dv*tau/dx = {tau * self.grid.dv / self.grid.dx!r})"
            )
        if shift == 0:
            if out is None:
                return field.copy()
            np.copyto(out, field)
            return out
        if field.shape[1:] != (self.grid.n_space, self.grid.n_vel):
            raise ValueError(
                f"field shape {field.shape} != (ncomp, {self.grid.n_space}, {self.grid.n_vel})"
            )
        grid = self.grid
        edge = grid.nv * abs(shift)
        index = self._index_for(shift)
        flat = np.ascontiguousarray(field).reshape(field.shape[0], -1)
        if out is None:
            out = np.empty(field.shape, dtype=flat.dtype)
        if 2 * edge >= grid.n_space:
            return np.take(flat, index, axis=1, out=out, mode="clip")
        # interior row i, column j: flat offset (i + nv*shift)*n_vel + j*(1 - shift*n_vel)
        step = flat.itemsize
        interior = as_strided(
            flat[:, (edge + grid.nv * shift) * grid.n_vel :],
            shape=(field.shape[0], grid.n_space - 2 * edge, grid.n_vel),
            strides=(flat.strides[0], grid.n_vel * step, (1 - shift * grid.n_vel) * step),
            writeable=False,
        )
        out[:, edge:-edge] = interior
        edges = np.take(flat, index, axis=1)
        out[:, :edge] = edges[:, :edge]
        out[:, -edge:] = edges[:, edge:]
        return out

    def clear(self) -> None:
        """Forget every edge index and node shift found so far."""
        self._indices.clear()
        self._shifts.clear()

    def _shift_for(self, tau: float) -> int | None:
        """`node_shift` of tau, found once per tau until `clear`."""
        tau = float(tau)
        if tau not in self._shifts:
            if len(self._shifts) >= self._INDEX_CACHE_MAX:
                self._shifts.pop(next(iter(self._shifts)))
            self._shifts[tau] = node_shift(self.grid, tau)
        return self._shifts[tau]

    def _index_for(self, shift: int) -> np.ndarray:
        """Flat source index src*n_vel + col of one shift's edge rows: the first
        and last nv*|shift| rows, or every row when those overlap."""
        index = self._indices.get(shift)
        if index is None:
            grid = self.grid
            edge = grid.nv * abs(shift)
            rows = np.arange(grid.n_space)
            if 2 * edge < grid.n_space:
                rows = np.concatenate([rows[:edge], rows[-edge:]])
            p = rows[:, None] - grid.jv[None, :] * shift
            src, flip = map_nodes(p, grid.nx, self.bc)
            jj = np.arange(grid.n_vel)[None, :]
            index = src * grid.n_vel  # int64, so take never casts it
            index += np.where(flip, grid.n_vel - 1 - jj, jj)
            if len(self._indices) >= self._INDEX_CACHE_MAX:
                self._indices.pop(next(iter(self._indices)))
            self._indices[shift] = index
        return index
