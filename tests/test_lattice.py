"""Node-aligned transport (the exact gather) and its step arithmetic."""
import numpy as np
import pytest

from bgk_sl import (
    BDF2_TABLEAU,
    BDF3_TABLEAU,
    EULER_TABLEAU,
    RK2_TABLEAU,
    RK3_TABLEAU,
    Boundary,
    ConfigError,
    Interp,
    InterpolatedTransport,
    Interpolator,
    LatticeTransport,
    PhaseGrid,
)
from bgk_sl.boundaries import map_nodes
from bgk_sl.lattice import node_shift


GRID = PhaseGrid(0.0, 1.0, 20, 5, 2.5)  # dx = 0.05, dv = 0.5


def test_lattice_dt_satisfies_alignment_identity():
    dt = GRID.dt_from_cfl("lattice")
    assert dt == GRID.dx / GRID.dv
    assert dt * GRID.dv == pytest.approx(GRID.dx, rel=1e-15)
    # the CFL a lattice run records, nv, is consistent with the generic definition
    cfl = dt * GRID.vmax / GRID.dx
    assert cfl == pytest.approx(float(GRID.nv), rel=1e-12)


def test_node_shift_detects_alignment():
    dt = GRID.dt_from_cfl("lattice")
    assert node_shift(GRID, dt) == 1
    assert node_shift(GRID, 3 * dt) == 3
    assert node_shift(GRID, -2 * dt) == -2
    assert node_shift(GRID, 0.0) == 0
    assert node_shift(GRID, 0.5 * dt) is None
    assert node_shift(GRID, dt * (1 + 1e-6)) is None
    # tiny float noise on an aligned step is forgiven
    assert node_shift(GRID, dt * (1 + 1e-12)) == 1
    # a shift inside the tolerance of zero at jv = 1 but not at jv = nv
    assert node_shift(GRID, 1e-9 * dt) is None
    assert node_shift(GRID, 1e-11 * dt) == 0


def _foot_offsets(tab):
    """Every foot offset, in steps, that `tableau_step` transports over."""
    offsets = []
    for l, row in enumerate(tab.a):
        offsets += [tab.c[l] + k for k in range(len(tab.history))]
        offsets += [tab.c[l] - tab.c[k] for k in range(l) if row[k] != 0.0]
    return offsets


def test_conforming_dt_checks_stage_offsets():
    """At the lattice step every foot of the one-stage tableaus (backward
    Euler, BDF2, BDF3) is node-aligned, so their started steps are pure
    gathers; the inner stage offsets of the RK2 and RK3 DIRKs, which start
    the BDF histories, are not."""
    dt = GRID.dt_from_cfl("lattice")
    shifts = {
        name: [node_shift(GRID, c * dt) for c in _foot_offsets(tab)]
        for name, tab in [("Euler", EULER_TABLEAU), ("BDF2", BDF2_TABLEAU),
                          ("BDF3", BDF3_TABLEAU), ("RK2", RK2_TABLEAU), ("RK3", RK3_TABLEAU)]
    }
    assert shifts["Euler"] == [1]
    assert shifts["BDF2"] == [1, 2]
    assert shifts["BDF3"] == [1, 2, 3]
    # only the last stage's foot of f^n, a whole step upstream, is aligned
    assert shifts["RK2"] == [None, 1, None]
    assert shifts["RK3"] == [None, None, None, 1, None, None]
    assert node_shift(GRID, dt / 3) is None


def _rand_field(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(1, grid.n_space, grid.n_vel))


def test_periodic_gather_matches_roll():
    tr = LatticeTransport(GRID, Boundary.PERIODIC, 1)
    f = _rand_field(GRID, 21)
    f[:, -1, :] = f[:, 0, :]  # seam-consistent
    out = tr.shifted(f)
    for j, jv in enumerate(GRID.jv):
        src = (np.arange(GRID.n_space) - jv) % GRID.nx
        assert np.array_equal(out[0][:, j], f[0][src, j])


def test_zero_shift_copies():
    tr = LatticeTransport(GRID, Boundary.PERIODIC, 0)
    f = _rand_field(GRID, 22)
    out = tr.shifted(f)
    assert np.array_equal(out, f) and not np.shares_memory(out, f)


@pytest.mark.parametrize("shift", [0.5, -1.37, float("nan"), float("inf")])
def test_non_integer_shift_raises(shift):
    """A shift that is not a whole number of nodes has no exact gather: it is
    refused, not truncated to the gather of int(shift)."""
    with pytest.raises(ConfigError, match="integer node shift"):
        LatticeTransport(GRID, Boundary.PERIODIC, shift)
    assert LatticeTransport(GRID, Boundary.PERIODIC, 2.0).shift == 2


def test_reflective_gather_flips_velocity_column():
    """A departure point folded at a wall must read the opposite velocity."""
    grid = PhaseGrid(0.0, 1.0, 8, 2, 1.0)
    tr = LatticeTransport(grid, Boundary.REFLECTIVE, 2)  # 2 nodes per unit jv
    f = _rand_field(grid, 24)
    out = tr.shifted(f)
    p = np.arange(grid.n_space)[:, None] - grid.jv[None, :] * 2
    src, flip = map_nodes(p, grid.nx, Boundary.REFLECTIVE)
    jj = np.arange(grid.n_vel)[None, :]
    expect_col = np.where(flip, grid.n_vel - 1 - jj, jj)
    assert np.array_equal(out[0], f[0][src, expect_col])
    assert flip.any() and (~flip).any()  # the case exercises both branches
    # hand-checked fold: node 0 at jv=+2 departs from p=-4, which reflects
    # at the left wall to node 4 with the velocity sign reversed (jv=-2)
    assert out[0][0, 4] == f[0][4, 0]


def test_freeflow_gather_clamps_to_edges():
    grid = PhaseGrid(0.0, 1.0, 8, 2, 1.0)
    tr = LatticeTransport(grid, Boundary.FREEFLOW, 1)
    f = _rand_field(grid, 25)
    out = tr.shifted(f)
    for j, jv in enumerate(grid.jv):
        src = np.clip(np.arange(grid.n_space) - jv, 0, grid.nx)
        assert np.array_equal(out[0][:, j], f[0][src, j])


def test_double_step_equals_two_single_steps_periodic():
    one = LatticeTransport(GRID, Boundary.PERIODIC, 1)
    two = LatticeTransport(GRID, Boundary.PERIODIC, 2)
    f = _rand_field(GRID, 26)
    f[:, -1, :] = f[:, 0, :]
    once = one.shifted(one.shifted(f))
    twice = two.shifted(f)
    # exact gathers compose exactly away from the duplicated seam node
    assert np.array_equal(once[:, :-1, :], twice[:, :-1, :])

def _uncached_gather(grid, bc, field, shift):
    """The gather spelled out with map_nodes and a 2-D fancy index."""
    p = np.arange(grid.n_space)[:, None] - grid.jv[None, :] * shift
    src, flip = map_nodes(p, grid.nx, bc)
    jj = np.arange(grid.n_vel)[None, :]
    return field[:, src, np.where(flip, grid.n_vel - 1 - jj, jj)]


@pytest.mark.parametrize("bc", list(Boundary))
def test_cached_gather_matches_uncached_gather(bc):
    grid = PhaseGrid(0.0, 1.0, 8, 3, 1.5)  # shifts up to 3*3 nodes fold past the domain
    f = _rand_field(grid, 27)
    for shift in range(-3, 4):
        out = LatticeTransport(grid, bc, shift).shifted(f)
        assert np.array_equal(out, _uncached_gather(grid, bc, f, shift))
        assert out.flags.c_contiguous


def test_alternating_shifts_on_one_transport():
    """One transport serves a sweep of shifts, each from its own cached gather."""
    tr = InterpolatedTransport(GRID, Interpolator(Interp.WENO23), Boundary.REFLECTIVE)
    f = _rand_field(GRID, 28)
    dt = GRID.dt_from_cfl("lattice")
    for shift in (1, 2, 1, -1, 2, 1, 3, 1):
        assert np.array_equal(
            tr.shifted(f, shift * dt), _uncached_gather(GRID, Boundary.REFLECTIVE, f, shift)
        )


def test_one_transport_serves_1v_and_chu_fields():
    tr = LatticeTransport(GRID, Boundary.FREEFLOW, 2)
    rng = np.random.default_rng(29)
    f1 = rng.normal(size=(1, GRID.n_space, GRID.n_vel))
    f2 = rng.normal(size=(2, GRID.n_space, GRID.n_vel))
    for f in (f1, f2, f1, f2):
        fresh = LatticeTransport(GRID, Boundary.FREEFLOW, 2).shifted(f)
        out = tr.shifted(f)
        assert out.shape == f.shape and np.array_equal(out, fresh)


def test_gather_result_shares_no_memory():
    tr = LatticeTransport(GRID, Boundary.PERIODIC, 1)
    f = _rand_field(GRID, 30)
    first = tr.shifted(f)
    saved = first.copy()
    second = tr.shifted(f)
    for out in (first, second):
        assert not np.shares_memory(out, f)
        assert not np.shares_memory(out, tr.index)
    assert not np.shares_memory(first, second)
    second[...] = np.nan  # the caller may modify a result
    assert np.array_equal(first, saved)
    assert np.array_equal(tr.shifted(f), saved)


def test_gather_rejects_mismatched_field():
    tr = LatticeTransport(GRID, Boundary.PERIODIC, 1)
    f = _rand_field(GRID, 31)
    with pytest.raises(ValueError):
        tr.shifted(f[:, :-1, :])


@pytest.mark.parametrize("nodes", [0, 1, 5], ids=["copy", "interior", "all-edge"])
def test_gather_checks_field_and_out_shapes_on_every_path(nodes):
    """The zero shift (a copy), a shift with interior rows and one whose edges
    cover the field reject a field of another grid's shape and an `out` of
    another component count, as a plan's apply does, rather than copying
    the field as it is or broadcasting into `out`."""
    grid = PhaseGrid(0.0, 1.0, 16, 6, 3.0)  # 17 x 13
    tr = LatticeTransport(grid, Boundary.PERIODIC, nodes)
    f = _rand_field(grid, 32)
    with pytest.raises(ValueError):
        tr.shifted(np.zeros((1, 5, 4)))
    with pytest.raises(ValueError):
        tr.shifted(f[0])  # no component axis
    with pytest.raises(ValueError):
        tr.shifted(f, out=np.empty((2, grid.n_space, grid.n_vel)))
    out = np.empty_like(f)
    assert tr.shifted(f, out=out) is out


@pytest.mark.parametrize("bc", list(Boundary))
@pytest.mark.parametrize(
    "grid",
    [
        PhaseGrid(0.0, 1.0, 40, 3, 1.5),  # every shift -3..3 has interior rows
        PhaseGrid(0.0, 1.0, 12, 2, 1.0),  # |shift| >= 3: the edges cover the field
        PhaseGrid(0.0, 1.0, 8, 2, 1.0),  # |shift| = 2 leaves one interior row
    ],
    ids=["interior", "edges-cover", "one-row"],
)
def test_strided_gather_matches_map_nodes_gather(grid, bc):
    """Interior rows read through a strided view, edge rows through the
    gather's index: together the map_nodes gather, bit for bit, in a fresh
    C-contiguous array that shares no memory with the field, for 1v and Chu
    fields."""
    rng = np.random.default_rng(32)
    for ncomp in (1, 2):
        f = rng.normal(size=(ncomp, grid.n_space, grid.n_vel))
        for shift in range(-3, 4):
            out = LatticeTransport(grid, bc, shift).shifted(f)
            assert np.array_equal(out, _uncached_gather(grid, bc, f, shift)), (ncomp, shift)
            assert out.flags.c_contiguous and out.flags.writeable
            assert not np.shares_memory(out, f)


def test_cached_index_covers_only_the_edge_rows():
    """A gather of shift s holds at most 2*nv*|s|*n_vel int64 entries."""
    grid = PhaseGrid(0.0, 1.0, 40, 3, 1.5)
    for shift in (0, 1, -2, 3, 7):
        index = LatticeTransport(grid, Boundary.REFLECTIVE, shift).index
        assert index.dtype == np.int64
        assert index.size <= 2 * grid.nv * abs(shift) * grid.n_vel
        assert index.size <= grid.n_space * grid.n_vel
