"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent within seconds, as other tenants come and go.  `measure` in
run.py runs one reference block before and after every repetition and scales
the repetition's times by `NOMINAL_S` over the mean time of the two blocks.
A change of host speed cancels; a change to the solver does not, because the
reference uses NumPy and Python only, never `bgk_sl`, and never changes.

One block mixes the kinds of work the workloads do: a WENO-like stencil on
one component of shock-weno35's field (about half the block), a shifted
gather and an exponential over an array the size of lattice-bdf2's field, and
many NumPy calls on small arrays with Python arithmetic between them, as
smooth-ladder's small levels make.

The blocks run in a process of their own (`Reference` in run.py), which the
benchmark asks for one block at a time, so the reference's arrays and page
faults never touch the solver's heap, its allocator thresholds or its peak
resident memory.

    python3 bench/reference.py    # one block per line read; prints its seconds
"""
from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

# About one block's time inside a benchmark run on the machine the baseline
# was recorded on (see BENCH_baseline.json); scaled times read as if measured
# at that speed.
NOMINAL_S = 1.0

_rng = np.random.default_rng(12345)
# Every array a block makes is about 100 KiB, below glibc's initial mmap
# threshold, as the solver's temporaries on shock-weno35 and smooth-ladder
# are: the block allocates, fills and frees them, and takes the page faults of
# the heap growing and shrinking, as the solver does.  The larger arrays below
# are built in place, so that no chunk above the threshold is ever freed,
# which would raise the threshold for good.
_FIELD = _rng.random((61, 210))  # one component of shock-weno35's field
_FIELD += 0.5
_LATTICE = _rng.random((60, 3201))  # lattice-bdf2: velocities x (nx+1)
_LATTICE += 0.5
_SHIFT = np.empty(_LATTICE.shape, dtype=np.intp)
for _k in range(_SHIFT.shape[0]):
    _SHIFT[_k] = (np.arange(3201) + _k - 30) % 3201
_ROWS = 4  # the gather runs on blocks of rows, 100 KiB each
_SMALL = _rng.random((41, 44)) + 0.5  # smooth-ladder's coarsest level

_STENCIL_REPS = 520
_GATHER_REPS = 136
_SMALL_REPS = 1280


def _stencil(f):
    """WENO5-like: three candidate stencils weighted by 1/(eps + beta)^2."""
    a, b, c, d, e = f[..., :-4], f[..., 1:-3], f[..., 2:-2], f[..., 3:-1], f[..., 4:]
    b0 = (a - 2 * b + c) ** 2 + 0.25 * (a - 4 * b + 3 * c) ** 2
    b1 = (b - 2 * c + d) ** 2 + 0.25 * (b - d) ** 2
    b2 = (c - 2 * d + e) ** 2 + 0.25 * (3 * c - 4 * d + e) ** 2
    w0, w1, w2 = 0.1 / (1e-6 + b0) ** 2, 0.6 / (1e-6 + b1) ** 2, 0.3 / (1e-6 + b2) ** 2
    num = w0 * (2 * a - 7 * b + 11 * c) + w1 * (-b + 5 * c + 2 * d) + w2 * (2 * c + 5 * d - e)
    return num / (6 * (w0 + w1 + w2))


def _gather(g):
    """Shifted gather, then a Gaussian of the gathered values."""
    for j in range(0, g.shape[0], _ROWS):
        shifted = np.take_along_axis(g[j : j + _ROWS], _SHIFT[j : j + _ROWS], axis=1)
        shifted += np.exp(-0.5 * shifted * shifted)


def _small(h):
    """Row by row: a tiny NumPy expression and some Python arithmetic."""
    acc = 0.0
    for j in range(h.shape[0]):
        row = h[j]
        acc += float(np.dot(row[1:-1], row[2:] - row[:-2])) * 0.5
        acc += sum(k * 0.25 for k in range(8))
    return acc


def block() -> float:
    """Seconds one reference block takes now."""
    start = perf_counter()
    for _ in range(_STENCIL_REPS):
        _stencil(_FIELD)
    for _ in range(_GATHER_REPS):
        _gather(_LATTICE)
    for _ in range(_SMALL_REPS):
        _small(_SMALL)
    return perf_counter() - start


def serve(inp, out) -> None:
    """Run one block per line read from `inp` and write its seconds to `out`."""
    for _ in inp:
        out.write(f"{block()!r}\n")
        out.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
