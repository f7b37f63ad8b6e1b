"""Ghost-node extension of distribution fields.

All three boundary types reduce to an index map plus, for reflective walls,
a flip of the velocity axis:

- periodic:    f(x_{-k}, v) = f(x_{nx-k}, v); node nx is identified with node 0.
- reflective:  specular walls at both ends, f(x_{-k}, v) = f(x_k, -v) and
               f(x_{nx+k}, v) = f(x_{nx-k}, -v).  Valid because the velocity
               grid is symmetric: reversing v is reversing the velocity axis.
- freeflow:    zeroth-order extrapolation of the edge node.

The maps are closed under arbitrarily deep extension (ghost regions wider
than the domain fold back consistently), which large-CFL characteristic feet
require.
"""
from __future__ import annotations

import numpy as np

from .config import Boundary
from .errors import ConfigError


def map_nodes(p, nx: int, bc: Boundary):
    """Map (possibly out-of-range) node indices p onto source nodes in [0, nx].

    Returns (src, flip): source node indices and a boolean mask marking
    entries whose velocity axis must be reversed (reflective walls only).
    Interior indices map to themselves, including the periodic node nx.
    """
    p = np.asarray(p, dtype=np.int64)
    if bc is Boundary.PERIODIC:
        src = np.where((p >= 0) & (p <= nx), p, p % nx)
        flip = np.zeros(p.shape, dtype=bool)
    elif bc is Boundary.REFLECTIVE:
        q = p % (2 * nx)
        flip = q > nx
        src = np.where(flip, 2 * nx - q, q)
    elif bc is Boundary.FREEFLOW:
        src = np.clip(p, 0, nx)
        flip = np.zeros(p.shape, dtype=bool)
    else:
        raise ConfigError(f"unknown boundary condition {bc!r}")
    return src, flip


def extend_field(field: np.ndarray, bc: Boundary, nghost: int) -> np.ndarray:
    """Pad a (ncomp, nx+1, nvel) field with nghost nodes on each side."""
    if nghost < 0:
        raise ValueError(f"nghost must be >= 0, got {nghost}")
    field = np.asarray(field)
    nx = field.shape[1] - 1
    p = np.arange(-nghost, nx + nghost + 1)
    src, flip = map_nodes(p, nx, bc)
    out = np.take(field, src, axis=1)  # C-contiguous, unlike field[:, src, :]
    if flip.any():
        out[:, flip, :] = out[:, flip, ::-1]
    return out
