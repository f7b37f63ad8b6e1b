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

Weights.  The Jiang-Shu weights are alpha_k = gamma_k / (beta_k + eps)^2,
normalised, with the linear weights gamma_k of the smooth-data blend.  eps
is added once, to the shared d0^2 term, so every indicator comes out as
beta_k + eps.  Normalised weights need only their ratios, so neither kind
divides by a per-column weight: a division by a (ncols,) row runs one row
at a time, several times slower than a multiplication by it.  With
i_k = (beta_k + eps)^2, WENO23 takes the per-column ratio
rho = gamma_r / gamma_l = (1 + t)/(2 - t); its weights are
i_r / (i_r + rho i_l) and rho i_l / (i_r + rho i_l), so its correction is

    q (i_r S_0 + rho i_l S_1) / (i_r + rho i_l).

WENO35 weighs each stencil against the centre one.  A window's two ratios
R_l = i_c / i_l and R_r = i_c / i_r are formed once, for all its
fractions; with the per-column ratios rho_l = gamma_l / gamma_c =
(2 - t)/(2 (2 + t)) and rho_r = gamma_r / gamma_c = (1 + t)/(2 (3 - t)) the
weights are a_l = rho_l R_l, 1 and a_r = rho_r R_r, and the correction is

    q [(a_l + 1) S_0 + a_r S_1 + (t+1)/3 (a_l T_l + T_c) + (t-2)/3 a_r T_r]
      / (a_l + 1 + a_r),

T_l, T_c, T_r = S_0 - S_-1, S_1 - S_0, S_2 - S_1.  So the one division per
fraction is the normalisation, and WENO35 adds two per window.

The products i_k S grow like the fifth power of the data, so WENO23 stays
finite for |data| up to about 1e61.  Where a flat stencil meets a jump of
height h, a WENO35 ratio is about h^4 / eps^2, so WENO35 stays finite up to
about 1e73.  eps bounds i_k below, so small data never underflow.

Rigid shift.  The characteristic feet x_i - v_j*tau of one velocity column
are that column's nodes shifted by one common amount, so an InterpPlan
evaluates, in every column q, the points cell_q + t_q + i (node units),
i = 0..rows-1.  The fraction t_q, and with it every Newton coefficient and
every ratio rho of linear weights, is then a per-column constant, stored as
a (ncols,) row, and the stencils of all rows are slices of one Window of
rows + 2*width - 1 consecutive nodes per column, gathered with a single
take.  The window depends on the anchor cells only, and the differences
and the indicators on the window only: t enters through the coefficients
and weights alone.  So a plan may carry a stack of k fraction rows over one
window (`at` makes one from another plan, sharing its window index);
apply() then gathers each block's window, forms its differences and what
its blends share of the indicators once, and blends them k times, into a
(k, ncomp, rows, ncols) result, bit for bit the k results of one-row plans.
A one-row plan is the case k = 1.

Source map.  A plan reads its node plane through a `source` index: node n of
column c is element source[n, c] of the flat (node, column) plane of each
component of the field apply() receives.  Transport plans address the
ghost-extended field this way, with the boundary map and the reflective
velocity flip folded into the window index, so every window is gathered
straight from the field; the identity index np.arange(n*c).reshape(n, c)
reads the field's own plane.

Window index.  A Window whose rows fit one block of one component keeps the
whole window index and gathers each block with one take of its rows.  A
larger one keeps no field-sized index.  Most of its window rows are
regular: each column reads the node row below the one it read in the row
before, index[w + 1] = index[w] + ncols, so the regular rows of a block at
row `start` read one block's index pattern from the field shifted by `start`
node rows.  The window keeps that pattern and the irregular rows, in
transport plans the edge rows whose stencils reach the ghost region, and the
gather overwrites those rows with their own entries.  The regular rows are
found from the index itself, so a window is correct for any source.  Plans
of one anchor row share one Window, and with it one index.

Workspace.  The differences, indicators and weights live in scratch arrays
drawn from one process-wide Workspace, POOL.  apply() evaluates its rows in
blocks of at most BLOCK_POINTS points, all of one shape, and each block is
one cycle of the pool, which keeps the arrays of its last cycle only: the
scratch is sized by the block, not by the field, and stays in cache.  A
block takes the same arrays for any number of fraction rows: every blend
but the last writes its weights into arrays no later blend reads (the
window and the indicators' spent scratch), and the last consumes the
indicators in place.  Consecutive blocks, applies, steps and runs of one
configuration reuse the same arrays, and an apply of another configuration
(another grid, say) replaces them.  Each array is an anonymous memory map
of its own, outside the malloc heap.  The result goes to the caller's `out`,
or else is allocated once per apply, and each block's blends write straight
into its rows, so it never aliases the pool.  The pool is not for
concurrent solvers: two threads applying plans at once would share its
arrays.
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
#: evaluates, but at least one row: the 6 (WENO23) to 9 (WENO35) scratch
#: arrays of a block take 1.5-2.3 MB, about one L2 cache, while fields of up to
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


def _indicators(kind, diffs, rows, ws, eps, dead=None):
    """Smoothness indicators plus eps, beta_k + eps, of the candidate stencils,
    left to right.

    `diffs` are the window's differences from _differences(win, 2 or 3, ws);
    d0^2 + eps and the squared highest differences are formed once and shared.
    The list `dead`, if given, receives a rows-sized view of each scratch
    array the indicators leave unread.
    """
    lo = len(diffs) - 1
    d = diffs[0]
    d0 = d[:, lo : lo + rows]
    d0sq = np.multiply(d0, d0, out=ws.get(d0.shape))
    d0sq += eps
    if kind is Interp.WENO23:
        s = diffs[1]  # s[:, k] = S_k
        ssq = np.multiply(s, s, out=ws.get(s.shape))
        ssq *= 13.0 / 12.0
        b_l = np.add(d0sq, ssq[:, :rows], out=ws.get(d0.shape))
        if dead is not None:
            dead.append(ssq[:, :rows])
        return [b_l, np.add(d0sq, ssq[:, 1:], out=d0sq)]  # one scratch array fewer
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
    if dead is not None:
        dead.append(d0sq)
    return betas


def _squares(ind):
    """The squared indicators i_k = (beta_k + eps)^2 of WENO23, in place."""
    for i_k in ind:
        i_k *= i_k


def _ratios(ind):
    """The ratios R_l = i_c / i_l and R_r = i_c / i_r of the squared WENO35
    indicators i_k = (beta_k + eps)^2, in place of beta_l + eps and
    beta_r + eps: the two divisions of a window, shared by all its blends.
    The centre indicator is left spent, for the blends' weight sum."""
    b_l, b_c, b_r = ind
    for b in (b_l, b_r):
        np.divide(b_c, b, out=b)
        b *= b


def _weno23_blend(ind, diffs, coef, weights, rows, spare):
    """q (i_r S_0 + rho i_l S_1) / (i_r + rho i_l), from the squared
    indicators i_k = (beta_k + eps)^2 and rho = gamma_r / gamma_l.

    With spare=None the blend consumes the indicators; else it writes rho i_l
    and the weight sum into the two `spare` arrays and leaves the indicators
    intact.  Either way the result overwrites the first differences, all read by then:
    fewer scratch arrays keep more of a block in cache."""
    i_l, i_r = ind
    rho_l, den = ind if spare is None else spare
    s = diffs[1]
    (q,), (ratio,) = coef, weights
    num = np.multiply(i_r, s[:, :rows], out=diffs[0][:, :rows])
    np.multiply(i_l, ratio, out=rho_l)
    np.add(i_r, rho_l, out=den)
    rho_l *= s[:, 1 : rows + 1]
    num += rho_l
    num /= den
    num *= q
    return num


def _weno35_blend(ind, diffs, coef, weights, rows, spare):
    """q [(a_l + 1) S_0 + a_r S_1 + (t+1)/3 (a_l T_l + T_c) + (t-2)/3 a_r T_r]
    / (a_l + 1 + a_r), T the third differences of the stencils, from the
    window's ratios R_k of _ratios and the per-column ratios rho_k =
    gamma_k / gamma_c: the weights a_l = rho_l R_l, 1 and a_r = rho_r R_r are
    the Jiang-Shu weights gamma_k / i_k over gamma_c / i_c.

    With spare=None a_l and a_r overwrite the ratios; else they go to the two
    `spare` arrays and the ratios stay intact.  Either way the weight sum
    overwrites the spent centre indicator and the result the first
    differences, all read by then."""
    r_l, den, r_r = ind
    a_l, a_r = (r_l, r_r) if spare is None else spare
    s, t3 = diffs[1], diffs[2]
    q, k_lc, k_r = coef
    rho_l, rho_r = weights
    np.multiply(r_l, rho_l, out=a_l)
    np.multiply(r_r, rho_r, out=a_r)
    np.add(a_l, 1.0, out=den)
    # quadratic terms: left and centre share S_0
    num = np.multiply(den, s[:, 1 : rows + 1], out=diffs[0][:, :rows])
    den += a_r
    # cubic terms of the left and centre stencils
    a_l *= t3[:, :rows]
    a_l += t3[:, 1 : rows + 1]
    a_l *= k_lc
    num += a_l
    # the right stencil's terms, a_r (S_1 + (t-2)/3 T_r)
    np.multiply(t3[:, 2 : rows + 2], k_r, out=a_l)
    a_l += s[:, 2 : rows + 2]
    a_l *= a_r
    num += a_l
    num /= den
    num *= q
    return num


#: per kind: what a window's blends share, formed in place of the
#: indicators, and the blend
_BLEND = {Interp.WENO23: (_squares, _weno23_blend), Interp.WENO35: (_ratios, _weno35_blend)}


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


def check_shapes(field, data_shape, out, result_shape, lead=()) -> None:
    """Raise ValueError unless field is (ncomp,) + data_shape and `out`, if
    given, is lead + (ncomp,) + result_shape."""
    if field.ndim != 3 or field.shape[1:] != data_shape:
        raise ValueError(
            f"field shape {field.shape} does not match (ncomp, {data_shape[0]}, {data_shape[1]})"
        )
    result_shape = lead + (field.shape[0],) + result_shape
    if out is not None and out.shape != result_shape:
        raise ValueError(f"out shape {out.shape} != result shape {result_shape}")


class Window:
    """Which node values the stencils of one anchor row read.

    For kind width `width`, the points cell[q] + t + i (i = 0..rows-1, node
    units, any fraction t in [0, 1)) of column q read the window of rows +
    2*width - 1 consecutive nodes from cell[q] - width + 1 of column q of the
    node plane `source`, whose entry [n, c] is the flat index, into each
    component's (n_nodes, ncols) plane, of the value node n of column c
    reads.  The window depends on the anchor cells, not on the fractions, so
    every plan of one anchor row can share it (`InterpPlan.at`).
    """

    def __init__(self, width: int, data_shape, cell, rows: int, source):
        hi = width
        lo = hi - 1
        self.width = width
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
        if cell.shape != (ncols,):
            raise ValueError(
                f"cell must be a 1D row of one entry per source column, got shape "
                f"{cell.shape} for {ncols} columns"
            )
        self.ncols = ncols
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

    def gather(self, flat, start, win, ws):
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


class InterpPlan:
    """The evaluation of a field at the points of one window, at one fraction
    row or at several, frozen for reuse.

    Column q of a result holds the `rows` points cell[q] + t[q] + i
    (i = 0..rows-1, node units) of the window's anchor row `cell`.  A row t of
    one fraction per column gives one result; a (k, ncols) stack of rows
    gives k results, stacked, from one gather of the window.  Built once per
    shift pattern; apply() then gathers one window of node values and blends
    it at each fraction row.
    """

    def __init__(self, kind: Interp, eps: float, window: Window, t):
        self.kind = kind
        self.eps = float(eps)
        self.window = window
        t = np.asarray(t, dtype=float)
        if t.ndim not in (1, 2) or t.shape[-1] != window.ncols or 0 in t.shape[:-1]:
            raise ValueError(
                f"t must be a row, or a stack of rows, of one entry per source column, "
                f"got shape {t.shape} for {window.ncols} columns"
            )
        self.t = t
        self._lead = t.shape[:-1]  # () for one row, (k,) for a stack of k
        self._shared, self._weno = _BLEND.get(kind, (None, None))
        t = t.reshape(-1, window.ncols)
        q = 0.5 * t * (t - 1.0)
        # the Newton coefficients, and the ratios of the linear weights gamma_k:
        # gamma_r / gamma_l for WENO23; gamma_l / gamma_c and gamma_r / gamma_c,
        # with gamma_l, gamma_c, gamma_r = (2-t)(3-t)/20, (2+t)(3-t)/10,
        # (1+t)(2+t)/20, for WENO35
        if kind is Interp.LINEAR:
            coef, weights = (), ()
        elif kind is Interp.WENO23:
            coef, weights = (q,), ((1.0 + t) / (2.0 - t),)
        elif kind is Interp.WENO35:
            coef = (q, (t + 1.0) / 3.0, (t - 2.0) / 3.0)
            weights = ((2.0 - t) / (2.0 * (2.0 + t)), (1.0 + t) / (2.0 * (3.0 - t)))
        # per fraction row: (t, Newton coefficients, weights)
        self._fractions = [
            (row, tuple(c[k] for c in coef), tuple(w[k] for w in weights))
            for k, row in enumerate(t)
        ]

    def at(self, t) -> InterpPlan:
        """The plan of the points at fractions t, a row or a stack of rows, in
        this plan's window, whose index it shares."""
        return InterpPlan(self.kind, self.eps, self.window, t)

    def apply(self, field, out=None) -> np.ndarray:
        """Interpolate a field of shape (ncomp, n_nodes, ncols) at the planned
        points; the result, of shape (ncomp, rows, ncols), or (k, ncomp, rows,
        ncols) for a stack of k fraction rows, goes to `out` if given, which
        must not overlap the field, else to a new array.

        The rows are evaluated in the fewest blocks of at most BLOCK_POINTS
        points (components x rows x columns) each, but at least one row, and
        each block is one cycle of POOL, so the scratch is sized by the block,
        not by the field.  All blocks have one shape: the rows are split as
        evenly as that allows, and the last block is shifted back to overlap
        its neighbour.  Rows are independent, so the blocks write the very
        values one pass over all rows would.  Each block gathers its window
        once and blends it at every fraction row."""
        field = np.asarray(field, dtype=float)
        window = self.window
        rows, halo = window.rows, 2 * window.width - 1
        ncomp, ncols = field.shape[0], window.ncols
        check_shapes(field, window.data_shape, out, (rows, ncols), self._lead)
        flat = field.reshape(ncomp, -1)
        if out is None:
            out = np.empty(self._lead + (ncomp, rows, ncols))
        outs = tuple(out) if self._lead else (out,)
        most = max(1, BLOCK_POINTS // max(1, ncomp * ncols))  # rows a block may hold
        nblocks = -(-rows // most)
        block = -(-rows // nblocks) if nblocks else 0  # overlaps of under a row each
        for k in range(nblocks):
            start = min(k * block, rows - block)
            POOL.reset()
            win = POOL.get((ncomp, block + halo, ncols))
            window.gather(flat, start, win, POOL)
            if nblocks > 1:  # the block's rows of each result
                self._blend(win, POOL, [o[:, start : start + block] for o in outs])
            else:
                self._blend(win, POOL, outs)
        return out

    def _blend(self, win, ws, outs):
        """Blend the windows `win` at each fraction row k into outs[k], a
        (ncomp, rows, ncols) array whose rows they cover.

        The differences and, from the indicators, the squares i_k =
        (beta_k + eps)^2 (WENO23) or the ratios R_k = i_c / i_k (WENO35) are
        formed once for all fractions.  Every blend but the last writes its
        weights into arrays no later blend reads (the window and the
        indicators' spent scratch); the last consumes the indicators in
        place, as the one blend of a one-row plan does."""
        width = self.window.width
        rows, lo = outs[0].shape[1], width - 1
        diffs = _differences(win, width, ws)
        d0, v0 = diffs[0][:, lo : lo + rows], win[:, lo : lo + rows]
        for out, (t, _, _) in zip(outs, self._fractions):
            np.multiply(d0, t, out=out)
            out += v0
        if self._weno is None:
            return
        kept = len(outs) - 1  # the blends that leave the indicators intact
        dead = [win[:, :rows]] if kept else None
        ind = _indicators(self.kind, diffs, rows, ws, self.eps, dead)
        self._shared(ind)
        for k, (out, (_, coef, weights)) in enumerate(zip(outs, self._fractions)):
            out += self._weno(ind, diffs, coef, weights, rows, dead if k < kept else None)


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
        (n_nodes, ncols) index node n of column c reads; cell is a 1D row of
        one entry per source column, t such a row or a (k, ncols) stack of
        them, whose k results apply() stacks."""
        window = Window(self.ghost, data_shape, cell, rows, source)
        return InterpPlan(self.kind, self.eps, window, t)
