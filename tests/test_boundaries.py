"""Ghost-node index maps and field extension for all boundary types."""
import numpy as np
import pytest

from bgk_sl import Boundary, extend_field, map_nodes


def test_map_nodes_periodic_matches_reference():
    nx = 7
    p = np.arange(-40, 48)
    src, flip = map_nodes(p, nx, Boundary.PERIODIC)
    for k, pk in enumerate(p):
        expect = int(pk) if 0 <= pk <= nx else int(pk) % nx
        assert src[k] == expect, pk
    assert not flip.any()


def test_map_nodes_freeflow_clamps():
    nx = 7
    p = np.arange(-40, 48)
    src, flip = map_nodes(p, nx, Boundary.FREEFLOW)
    assert np.array_equal(src, np.clip(p, 0, nx))
    assert not flip.any()


def test_map_nodes_reflective_single_fold():
    """One reflection depth on each side: ghost -k mirrors node k, ghost
    nx + k mirrors node nx - k, both with a velocity flip."""
    nx = 7
    for k in range(1, nx):
        src, flip = map_nodes(np.array([-k, nx + k]), nx, Boundary.REFLECTIVE)
        assert list(src) == [k, nx - k]
        assert flip.all()


def test_map_nodes_interior_identity():
    p = np.arange(0, 9)
    for bc in Boundary:
        src, flip = map_nodes(p, 8, bc)
        assert np.array_equal(src, p)
        assert not flip.any()


def test_map_nodes_reflective_deep_extension_on_wall_even_data():
    """A field that is even in v at both wall nodes has a unique reflective
    extension; the folded map must reproduce it at any depth."""
    rng = np.random.default_rng(11)
    nx, nvel = 5, 7
    f = rng.normal(size=(nx + 1, nvel))
    f[0] = f[0] + f[0][::-1]  # wall nodes even in v
    f[nx] = f[nx] + f[nx][::-1]

    # unfolded reference: reflect the physical strip repeatedly in both
    # directions, flipping the velocity axis with each reflection
    def value(p):
        flip = False
        while not (0 <= p <= nx):
            p = -p if p < 0 else 2 * nx - p
            flip = not flip
        return f[p, ::-1] if flip else f[p]

    p = np.arange(-3 * nx, 4 * nx + 1)
    src, flip = map_nodes(p, nx, Boundary.REFLECTIVE)
    for k, pk in enumerate(p):
        got = f[src[k], ::-1] if flip[k] else f[src[k]]
        assert np.array_equal(got, value(int(pk))), pk


def test_extend_field_periodic():
    rng = np.random.default_rng(1)
    nx, nvel = 6, 5
    f = rng.normal(size=(1, nx + 1, nvel))
    f[:, -1, :] = f[:, 0, :]  # periodic identification
    ext = extend_field(f, Boundary.PERIODIC, nghost=4)
    assert ext.shape == (1, nx + 1 + 8, nvel)
    assert np.array_equal(ext[:, 4:-4, :], f)
    for k in range(1, 5):
        assert np.array_equal(ext[:, 4 - k, :], f[:, nx - k, :])
        assert np.array_equal(ext[:, 4 + nx + k, :], f[:, k, :])


def test_extend_field_reflective_flips_velocity():
    rng = np.random.default_rng(2)
    nx, nvel = 6, 5
    f = rng.normal(size=(2, nx + 1, nvel))
    ext = extend_field(f, Boundary.REFLECTIVE, nghost=3)
    for k in range(1, 4):
        assert np.array_equal(ext[:, 3 - k, :], f[:, k, ::-1])
        assert np.array_equal(ext[:, 3 + nx + k, :], f[:, nx - k, ::-1])


def test_extend_field_reflective_preserves_wall_mass():
    """Specular reflection conserves the node mass of each mirrored copy:
    every ghost row is a permutation of its source row."""
    rng = np.random.default_rng(9)
    f = rng.uniform(0.1, 1.0, size=(1, 9, 11))
    ext = extend_field(f, Boundary.REFLECTIVE, nghost=20)
    p = np.arange(-20, 8 + 21)
    src, _ = map_nodes(p, 8, Boundary.REFLECTIVE)
    assert np.allclose(ext.sum(axis=-1), f[:, src, :].sum(axis=-1))


def test_extend_field_freeflow_repeats_edges():
    f = np.arange(14, dtype=float).reshape(1, 7, 2)
    ext = extend_field(f, Boundary.FREEFLOW, nghost=2)
    assert np.array_equal(ext[:, 0, :], f[:, 0, :])
    assert np.array_equal(ext[:, 1, :], f[:, 0, :])
    assert np.array_equal(ext[:, -1, :], f[:, -1, :])
    assert np.array_equal(ext[:, -2, :], f[:, -1, :])


def test_extend_field_rejects_negative_ghost():
    with pytest.raises(ValueError):
        extend_field(np.zeros((1, 5, 3)), Boundary.PERIODIC, nghost=-1)


@pytest.mark.parametrize("bc", list(Boundary))
def test_extend_field_is_c_contiguous(bc):
    """The padded field is C-contiguous, so the flat reshape of the window
    gather in the WENO plan is a view, not a second copy."""
    f = np.random.default_rng(3).normal(size=(2, 9, 5))
    ext = extend_field(f, bc, nghost=4)
    assert ext.flags.c_contiguous
    assert np.shares_memory(ext.reshape(2, -1), ext)
    src, flip = map_nodes(np.arange(-4, 13), 8, bc)
    expect = f[:, src, :]
    expect[:, flip, :] = expect[:, flip, ::-1]
    assert np.array_equal(ext, expect)
