"""Interpolation on uniform grids: linear, WENO23 and WENO35.

Evaluation points are anchored to the cell [x_j, x_j+dx] that contains them,
with local coordinate t = (x - x_j)/dx in [0, 1].

WENO23 blends the two quadratics built on nodes (j-1, j, j+1) and (j, j+1, j+2);
with the smooth-data (linear) weights the blend reproduces the full cubic
through all four nodes.  WENO35 blends the three cubics on (j-2..j+1),
(j-1..j+2) and (j..j+3); the smooth-data blend reproduces the degree-5
interpolant through all six nodes.

Difference form.  With node values v_o (o counted from the anchor node j),
first differences D_o = v_{o+1} - v_o, d0 = D_0, and second differences
S_o = D_o - D_{o-1}, every candidate polynomial is written in Newton form
from the cell's two nodes outwards, q = t(t-1)/2:

    linear          v0 + t d0
    quadratics      v0 + t d0 + q S_0          (left)
                    v0 + t d0 + q S_1          (right)
    cubics          v0 + t d0 + q S_0 + q(t+1)/3 (S_0 - S_-1)   (left)
                    v0 + t d0 + q S_0 + q(t+1)/3 (S_1 - S_0)    (centre)
                    v0 + t d0 + q S_1 + q(t-2)/3 (S_2 - S_1)    (right)

so a result is v0 + t d0 plus weighted corrections that all carry the factor
q: at t = 0 it is the node value, bit for bit.  The smoothness indicators,
beta = sum_l integral_0^1 (d^l p/dt^l)^2 dt over the evaluation cell, become
sums of squares of the same differences (checked symbolically against the
quadratic forms in the node values, and in the tests against a quadrature
of the definition):

    quadratics      d0^2 + 13/12 S_0^2,  d0^2 + 13/12 S_1^2
    cubic, right    d0^2 + 13/48 (3 S_1 - S_2)^2  + 781/720 (S_2 - S_1)^2
    cubic, centre   d0^2 + 13/48 (S_0 + S_1)^2    + 781/720 (S_1 - S_0)^2
    cubic, left     d0^2 + 13/48 (3 S_0 - S_-1)^2 + 781/720 (S_0 - S_-1)^2

Rigid shift.  The characteristic feet x_i - v_j*tau of one velocity column
are that column's nodes shifted by one common amount, so an InterpPlan
evaluates, in every column q, the points cell_q + t_q + i (node units),
i = 0..rows-1.  The fraction t_q, and with it every Newton coefficient and
linear weight, is then a per-column constant, stored as a (ncols,) row, and
the stencils of all rows are slices of one window of rows + width
consecutive nodes per column, gathered with a single take.

Source map.  A plan reads its node plane through a `source` index: node n of
column c is element source[n, c] of the flat (node, column) plane of each
component of the field apply() receives.  Transport plans address the
ghost-extended field this way, with the boundary map and the reflective
velocity flip folded into the window index, so every window is gathered
straight from the field; the identity index np.arange(n*c).reshape(n, c)
reads the field's own plane.

Window index.  A plan whose rows fit one block of one component keeps the
whole window index and gathers each block with one take of its rows.  A
larger plan keeps no field-sized index.  Most of its window rows are
regular: each column reads the node row below the one it read in the row
before, index[w + 1] = index[w] + ncols, so the regular rows of a block at
row `start` read one block's index pattern from the field shifted by `start`
node rows.  The plan keeps that pattern and the irregular rows, in transport
plans the edge rows whose stencils reach the ghost region, and the gather
overwrites those rows with their own entries.  The regular rows are found from the index
itself, so a plan is correct for any source.

Workspace.  The differences, indicators and weights live in scratch arrays
drawn from one process-wide Workspace, POOL.  apply() evaluates its rows in
blocks of at most BLOCK_POINTS points, all of one shape, and each block is
one cycle of the pool, which keeps the arrays of its last cycle only: the
scratch is sized by the block, not by the field, and stays in cache.
Consecutive blocks, applies, steps and runs of one configuration reuse the
same arrays, and an apply of another configuration (another grid, say)
replaces them.  Each array is an anonymous memory map of its own, outside
the malloc heap.  The result goes to the caller's `out`, or else is
allocated once per apply, and each block's blend writes straight into its
rows, so it never aliases the pool.  The pool is not for concurrent
solvers: two threads applying plans at once would share its arrays.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .config import Interp
from .errors import ConfigError

WENO_EPS_DEFAULT = 1e-6

#: nodes needed on each side of the anchor cell, per interpolation kind.  A
#: kind of width g reads the window of nodes j-g+1 .. j+g around the cell
#: [x_j, x_j+dx] and uses the window's differences up to order g.
GHOST_WIDTH = {Interp.LINEAR: 1, Interp.WENO23: 2, Interp.WENO35: 3}

#: the most points (components x rows x columns) one pass of apply()
#: evaluates, but at least one row: the 8 (WENO23) to 12 (WENO35) scratch
#: arrays of a block take 2-3 MB, about one L2 cache, while fields of up to
#: about 26k points (2 x 201 x 61 for the Chu shock tube at nx=200, 2 x 321 x
#: 41 for the smooth ladder at nx=320) still take one pass and pay the fixed
#: cost of a pass once
BLOCK_POINTS = 2**15

#: the points of window index a plan of many blocks examines at a time
CHUNK_POINTS = 2**14


def _mapped(shape, dtype=float) -> np.ndarray:
    """An array in an anonymous memory map of its own.

    Scratch that outlives a run must not sit in the malloc heap: the arrays
    of later runs would be placed around it, and the heap, with the peak
    resident memory, would grow."""
    n = int(np.prod(shape))
    buf = mmap.mmap(-1, max(n, 1) * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype, count=n).reshape(shape)


class Workspace:
    """Scratch arrays kept between calls, each in its own memory map.

    reset() starts a cycle: the k-th get() of a cycle returns the k-th array,
    allocated afresh only when the last cycle had no k-th array or one of
    another shape or dtype, so the arrays a cycle gets are distinct.
    reset() also drops every array beyond the last cycle's count: the
    workspace holds the scratch of its last cycle only.
    """

    def __init__(self):
        self._arrays: list[np.ndarray] = []
        self._next = 0

    def reset(self) -> None:
        del self._arrays[self._next :]
        self._next = 0

    def get(self, shape, dtype=float) -> np.ndarray:
        k = self._next
        self._next = k + 1
        if k == len(self._arrays):
            self._arrays.append(_mapped(shape, dtype))
        elif self._arrays[k].shape != shape or self._arrays[k].dtype != dtype:
            self._arrays[k] = _mapped(shape, dtype)
        return self._arrays[k]


#: the scratch every InterpPlan.apply() draws from
POOL = Workspace()


def _differences(win, order, ws):
    """The first `order` differences [D, S, ...] of a window along its node axis."""
    diffs = []
    a = win
    for _ in range(order):
        a = np.subtract(a[:, 1:], a[:, :-1], out=ws.get(a[:, 1:].shape))
        diffs.append(a)
    return diffs


def _indicators(kind, diffs, rows, ws):
    """Smoothness indicators of the candidate stencils, left to right.

    `diffs` are the window's differences from _differences(win, 2 or 3, ws);
    d0^2 and the squared highest differences are formed once and shared.
    """
    lo = len(diffs) - 1
    d = diffs[0]
    d0 = d[:, lo : lo + rows]
    d0sq = np.multiply(d0, d0, out=ws.get(d0.shape))
    if kind is Interp.WENO23:
        s = diffs[1]  # s[:, k] = S_k
        ssq = np.multiply(s, s, out=ws.get(s.shape))
        ssq *= 13.0 / 12.0
        return [np.add(d0sq, ssq[:, k : k + rows], out=ws.get(d0.shape)) for k in (0, 1)]
    s, t3 = diffs[1], diffs[2]  # s[:, k] = S_{k-1}; t3[:, k] = S_k - S_{k-1}
    t3sq = np.multiply(t3, t3, out=ws.get(t3.shape))
    t3sq *= 781.0 / 720.0
    s_m1, s_0, s_1, s_2 = (s[:, k : k + rows] for k in range(4))
    left = np.multiply(s_0, 3.0, out=ws.get(d0.shape))
    left -= s_m1
    centre = np.add(s_0, s_1, out=ws.get(d0.shape))
    right = np.multiply(s_1, 3.0, out=ws.get(d0.shape))
    right -= s_2
    betas = [left, centre, right]
    for k, beta in enumerate(betas):
        beta *= beta
        beta *= 13.0 / 48.0
        beta += d0sq
        beta += t3sq[:, k : k + rows]
    return betas


def _weno23_correction(alphas, diffs, coef, rows, ws):
    """q * (a_l S_0 + a_r S_1) / (a_l + a_r); consumes the alphas."""
    a_l, a_r = alphas
    s = diffs[1]
    (q,) = coef
    num = np.multiply(a_l, s[:, :rows], out=ws.get(a_l.shape))
    a_l += a_r
    a_r *= s[:, 1 : rows + 1]
    num += a_r
    num /= a_l
    num *= q
    return num


def _weno35_correction(alphas, diffs, coef, rows, ws):
    """Weighted cubic corrections over the weight sum; consumes the alphas."""
    a_l, a_c, a_r = alphas
    s, t3 = diffs[1], diffs[2]
    q, c_lc, c_r = coef
    den = np.add(a_l, a_c, out=ws.get(a_l.shape))
    # quadratic terms: left and centre share S_0, right has S_1
    num = np.multiply(den, s[:, 1 : rows + 1], out=ws.get(a_l.shape))
    tmp = np.multiply(a_r, s[:, 2 : rows + 2], out=ws.get(a_l.shape))
    num += tmp
    num *= q
    # cubic terms
    a_l *= t3[:, :rows]
    np.multiply(a_c, t3[:, 1 : rows + 1], out=tmp)
    a_l += tmp
    a_l *= c_lc
    num += a_l
    den += a_r
    a_r *= t3[:, 2 : rows + 2]
    a_r *= c_r
    num += a_r
    num /= den
    return num


_CORRECTION = {Interp.WENO23: _weno23_correction, Interp.WENO35: _weno35_correction}


def _window_index(source, first, w0, w1):
    """Window rows w0..w1-1 as an int64 index: entry [w, q] is source[first[q] + w, q]."""
    rows = np.arange(w0, w1)[:, None]
    return np.take_along_axis(source, first + rows, axis=0).astype(np.int64, copy=False)


def _window_pattern(source, first, wrows, stride):
    """(base, rows, entries): the regular pattern of a window index and the
    rows that break it.

    Window row w is regular when index[w] = base + w * stride: every column
    reads the node row below the one it read in row w - 1.  base is read
    from the middle row; the irregular rows and their own entries are found
    a chunk of rows at a time, so that no field-sized index is ever formed.
    """
    mid = wrows // 2
    base = _window_index(source, first, mid, mid + 1) - mid * stride
    chunk = max(1, CHUNK_POINTS // base.shape[1])
    rows, entries = [], []
    for w0 in range(0, wrows, chunk):
        w1 = min(w0 + chunk, wrows)
        index = _window_index(source, first, w0, w1)
        odd = np.flatnonzero((index != base + np.arange(w0, w1)[:, None] * stride).any(axis=1))
        rows.append(odd + w0)
        entries.append(index[odd])
    return base, np.concatenate(rows), np.concatenate(entries)


class InterpPlan:
    """The evaluation of a field at one rigid shift of rows, frozen for reuse.

    Column q of the result holds the `rows` points cell[q] + t[q] + i
    (i = 0..rows-1, node units) of column q of the node plane `source`, whose
    entry [n, c] is the flat index, into each component's (n_nodes, ncols)
    plane, of the value node n of column c reads.  Built once per shift
    pattern; apply() then gathers one window of node values and blends it.
    """

    def __init__(self, kind: Interp, eps: float, data_shape, cell, t, rows: int, source):
        hi = GHOST_WIDTH[kind]
        lo = hi - 1
        self.kind = kind
        self._width = hi
        self._correction = _CORRECTION.get(kind)
        self.eps = float(eps)
        self.data_shape = (int(data_shape[0]), int(data_shape[1]))
        self.rows = int(rows)
        source = np.asarray(source)
        size = self.data_shape[0] * self.data_shape[1]
        if (
            source.ndim != 2
            or not np.issubdtype(source.dtype, np.integer)
            or (source.size and (source.min() < 0 or source.max() >= size))
        ):
            raise ValueError(f"source must be a 2D integer index into the {size} data values")
        n_nodes, ncols = source.shape
        cell = np.asarray(cell, dtype=np.int64)
        t = np.asarray(t, dtype=float)
        if cell.shape != (ncols,) or t.shape != cell.shape:
            raise ValueError(
                f"cell and t must be 1D rows of one entry per source column, got "
                f"shapes {cell.shape} and {t.shape} for {ncols} columns"
            )
        if ncols and (cell.min() < lo or cell.max() + self.rows - 1 + hi >= n_nodes):
            raise ValueError(f"stencil windows reach outside the {n_nodes} source nodes")
        first = (cell - lo)[None, :]  # window row w of column q reads source node first[q] + w
        wrows = self.rows + lo + hi
        most = max(1, BLOCK_POINTS // max(1, ncols))  # rows of a block of one component
        self._low = 0
        self._edge_rows = self._edges = None
        if self.rows <= most:
            self._index = _window_index(source, first, 0, wrows)
        else:
            stride = self.data_shape[1]
            base, self._edge_rows, self._edges = _window_pattern(source, first, wrows, stride)
            block = -(-self.rows // -(-self.rows // most))
            # one block's pattern, lowered by `low` so that every entry is an index
            self._low = min(0, int(base.min()))
            self._index = base - self._low + np.arange(block + lo + hi)[:, None] * stride
        self.t = t
        q = 0.5 * t * (t - 1.0)
        if kind is Interp.LINEAR:
            self._coef, self._linear = (), ()
        elif kind is Interp.WENO23:
            self._coef = (q,)
            self._linear = ((2.0 - t) / 3.0, (1.0 + t) / 3.0)
        elif kind is Interp.WENO35:
            self._coef = (q, q * (t + 1.0) / 3.0, q * (t - 2.0) / 3.0)
            self._linear = (
                (t - 2.0) * (t - 3.0) / 20.0,
                -(t + 2.0) * (t - 3.0) / 10.0,
                (t + 2.0) * (t + 1.0) / 20.0,
            )

    def apply(self, field, out=None) -> np.ndarray:
        """Interpolate a field of shape (ncomp, n_nodes, ncols) at the planned
        points; the result, of shape (ncomp, rows, ncols), goes to `out` if
        given, which must not overlap the field, else to a new array.

        The rows are evaluated in the fewest blocks of at most BLOCK_POINTS
        points (components x rows x columns) each, but at least one row, and
        each block is one cycle of POOL, so the scratch is sized by the block,
        not by the field.  All blocks have one shape: the rows are split as
        evenly as that allows, and the last block is shifted back to overlap
        its neighbour.  Rows are independent, so the blocks write the very
        values one pass over all rows would."""
        field = np.asarray(field, dtype=float)
        if field.ndim != 3 or field.shape[1:] != self.data_shape:
            raise ValueError(
                f"field shape {field.shape} does not match plan (ncomp, "
                f"{self.data_shape[0]}, {self.data_shape[1]})"
            )
        flat = field.reshape(field.shape[0], -1)
        rows, halo = self.rows, 2 * self._width - 1
        ncomp, ncols = flat.shape[0], len(self.t)
        if out is None:
            out = np.empty((ncomp, rows, ncols))
        elif out.shape != (ncomp, rows, ncols):
            raise ValueError(f"out shape {out.shape} != result shape {(ncomp, rows, ncols)}")
        most = max(1, BLOCK_POINTS // max(1, ncomp * ncols))  # rows a block may hold
        nblocks = -(-rows // most)
        block = -(-rows // nblocks) if nblocks else 0  # overlaps of under a row each
        for k in range(nblocks):
            start = min(k * block, rows - block)
            POOL.reset()
            win = POOL.get((ncomp, block + halo, ncols))
            self._gather(flat, start, win, POOL)
            self._blend(win, POOL, out[:, start : start + block])
        return out

    def _gather(self, flat, start, win, ws):
        """Take the window rows start, start+1, ... of every column into win."""
        n = win.shape[1]
        if self._edges is None:  # the whole window index
            flat.take(self._index[start : start + n], axis=1, out=win, mode="clip")
            return
        # regular rows: the pattern, read from the data shifted by `start` node rows
        index, offset = self._index[:n], start * self.data_shape[1] + self._low
        scratch = ws.get(index.shape, np.int64)  # got by every block: one cycle layout
        if offset < 0:  # a block at the top: shift the index, not the data
            index, offset = np.add(index, offset, out=scratch), 0
        flat[:, offset:].take(index, axis=1, out=win, mode="clip")  # irregular rows replaced below
        j0, j1 = np.searchsorted(self._edge_rows, (start, start + n))
        if j0 < j1:
            win[:, self._edge_rows[j0:j1] - start] = flat.take(self._edges[j0:j1], axis=1)

    def _blend(self, win, ws, out):
        """Blend the windows `win` into `out`, whose rows they cover."""
        rows, lo = out.shape[1], self._width - 1
        diffs = _differences(win, self._width, ws)
        np.multiply(diffs[0][:, lo : lo + rows], self.t, out=out)
        out += win[:, lo : lo + rows]
        if self._correction is None:
            return
        alphas = _indicators(self.kind, diffs, rows, ws)
        for alpha, linear in zip(alphas, self._linear):
            alpha += self.eps
            alpha *= alpha
            np.divide(linear, alpha, out=alpha)
        out += self._correction(alphas, diffs, self._coef, rows, ws)


@dataclass(frozen=True)
class Interpolator:
    """Configured interpolation with its ghost-width requirement."""

    kind: Interp
    eps: float = WENO_EPS_DEFAULT

    def __post_init__(self):
        if self.kind not in GHOST_WIDTH:
            raise ConfigError(f"no interpolator for kind {self.kind!r}")

    @property
    def ghost(self) -> int:
        return GHOST_WIDTH[self.kind]

    def plan(self, data_shape, cell, t, rows: int, source) -> InterpPlan:
        """Freeze the evaluation of (ncomp, n_nodes, ncols) fields, data_shape =
        (n_nodes, ncols), at the points cell[q] + t[q] + i, i = 0..rows-1, of
        column q of `source`, an integer plane whose entry [n, c] is the flat
        (n_nodes, ncols) index node n of column c reads; cell and t are 1D
        rows of one entry per source column."""
        return InterpPlan(self.kind, self.eps, data_shape, cell, t, rows, source)
