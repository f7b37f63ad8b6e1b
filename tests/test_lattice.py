"""Node-aligned transport (the exact gather) and its step arithmetic."""
import numpy as np
import pytest

from bgk_sl import Boundary, ConfigError, LatticeTransport, PhaseGrid, lattice_cfl, lattice_dt
from bgk_sl import lattice
from bgk_sl.boundaries import map_nodes
from bgk_sl.lattice import node_shift


GRID = PhaseGrid(0.0, 1.0, 20, 5, 2.5)  # dx = 0.05, dv = 0.5


def test_lattice_dt_satisfies_alignment_identity():
    for stride in (1, 2, 3):
        dt = lattice_dt(GRID, stride)
        assert dt * GRID.dv == pytest.approx(stride * GRID.dx, rel=1e-15)
        assert lattice_cfl(GRID, stride) == stride * GRID.nv
        # the advertised CFL is consistent with the generic definition
        cfl = dt * GRID.vmax / GRID.dx
        assert cfl == pytest.approx(lattice_cfl(GRID, stride), rel=1e-12)


def test_lattice_dt_rejects_bad_stride():
    with pytest.raises(ConfigError):
        lattice_dt(GRID, 0)
    with pytest.raises(ConfigError):
        lattice_dt(GRID, -2)


def test_node_shift_detects_alignment():
    dt = lattice_dt(GRID)
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


def test_conforming_dt_checks_stage_offsets():
    """The stage offsets dt/3 and 2*dt/3 of the stride-3 lattice step are
    node-aligned; those of the stride-1 step are not."""
    dt = lattice_dt(GRID)
    dt3 = lattice_dt(GRID, 3)
    assert [node_shift(GRID, c * dt3) for c in (1 / 3, 2 / 3, 1)] == [1, 2, 3]
    assert node_shift(GRID, dt / 3) is None


def _rand_field(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(1, grid.n_space, grid.n_vel))


def test_each_tau_is_classified_once(monkeypatch):
    """Repeated gathers over one tau call node_shift once, an off-lattice tau
    still raises on every call, and clear() forgets the shifts."""
    calls = []
    original = lattice.node_shift
    monkeypatch.setattr(
        lattice, "node_shift", lambda grid, tau: calls.append(tau) or original(grid, tau)
    )
    tr = LatticeTransport(GRID, Boundary.PERIODIC)
    f = _rand_field(GRID, 40)
    dt = lattice_dt(GRID)
    first = tr.shifted(f, dt)
    for _ in range(3):
        assert np.array_equal(tr.shifted(f, dt), first)
    for _ in range(2):
        with pytest.raises(ConfigError):
            tr.shifted(f, 0.5 * dt)
    assert calls == [dt, 0.5 * dt]
    tr.clear()
    assert np.array_equal(tr.shifted(f, dt), first)
    assert calls == [dt, 0.5 * dt, dt]


def test_periodic_gather_matches_roll():
    tr = LatticeTransport(GRID, Boundary.PERIODIC)
    f = _rand_field(GRID, 21)
    f[:, -1, :] = f[:, 0, :]  # seam-consistent
    out = tr.shifted(f, lattice_dt(GRID))
    for j, jv in enumerate(GRID.jv):
        src = (np.arange(GRID.n_space) - jv) % GRID.nx
        assert np.array_equal(out[0][:, j], f[0][src, j])


def test_zero_shift_copies():
    tr = LatticeTransport(GRID, Boundary.PERIODIC)
    f = _rand_field(GRID, 22)
    out = tr.shifted(f, 0.0)
    assert np.array_equal(out, f) and not np.shares_memory(out, f)


def test_off_lattice_tau_raises():
    tr = LatticeTransport(GRID, Boundary.PERIODIC)
    f = _rand_field(GRID, 23)
    with pytest.raises(ConfigError):
        tr.shifted(f, 0.37 * lattice_dt(GRID))


def test_reflective_gather_flips_velocity_column():
    """A departure point folded at a wall must read the opposite velocity."""
    grid = PhaseGrid(0.0, 1.0, 8, 2, 1.0)
    tr = LatticeTransport(grid, Boundary.REFLECTIVE)
    f = _rand_field(grid, 24)
    out = tr.shifted(f, lattice_dt(grid, 2))  # shift = 2 nodes per unit jv
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
    tr = LatticeTransport(grid, Boundary.FREEFLOW)
    f = _rand_field(grid, 25)
    out = tr.shifted(f, lattice_dt(grid))
    for j, jv in enumerate(grid.jv):
        src = np.clip(np.arange(grid.n_space) - jv, 0, grid.nx)
        assert np.array_equal(out[0][:, j], f[0][src, j])


def test_double_step_equals_two_single_steps_periodic():
    tr = LatticeTransport(GRID, Boundary.PERIODIC)
    f = _rand_field(GRID, 26)
    f[:, -1, :] = f[:, 0, :]
    dt = lattice_dt(GRID)
    once = tr.shifted(tr.shifted(f, dt), dt)
    twice = tr.shifted(f, 2 * dt)
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
    tr = LatticeTransport(grid, bc)
    f = _rand_field(grid, 27)
    dt = lattice_dt(grid)
    for shift in range(-3, 4):
        out = tr.shifted(f, shift * dt)
        assert np.array_equal(out, _uncached_gather(grid, bc, f, shift))
        assert out.flags.c_contiguous


def test_alternating_shifts_on_one_transport():
    tr = LatticeTransport(GRID, Boundary.REFLECTIVE)
    f = _rand_field(GRID, 28)
    dt = lattice_dt(GRID)
    for shift in (1, 2, 1, -1, 2, 1, 3, 1):
        assert np.array_equal(
            tr.shifted(f, shift * dt), _uncached_gather(GRID, Boundary.REFLECTIVE, f, shift)
        )


def test_one_transport_serves_1v_and_chu_fields():
    tr = LatticeTransport(GRID, Boundary.FREEFLOW)
    dt = lattice_dt(GRID)
    rng = np.random.default_rng(29)
    f1 = rng.normal(size=(1, GRID.n_space, GRID.n_vel))
    f2 = rng.normal(size=(2, GRID.n_space, GRID.n_vel))
    for f in (f1, f2, f1, f2):
        fresh = LatticeTransport(GRID, Boundary.FREEFLOW).shifted(f, 2 * dt)
        out = tr.shifted(f, 2 * dt)
        assert out.shape == f.shape and np.array_equal(out, fresh)


def test_gather_result_shares_no_memory():
    tr = LatticeTransport(GRID, Boundary.PERIODIC)
    f = _rand_field(GRID, 30)
    dt = lattice_dt(GRID)
    first = tr.shifted(f, dt)
    saved = first.copy()
    second = tr.shifted(f, dt)
    for out in (first, second):
        assert not np.shares_memory(out, f)
        assert not any(np.shares_memory(out, index) for index in tr._indices.values())
    assert not np.shares_memory(first, second)
    second[...] = np.nan  # the caller may modify a result
    assert np.array_equal(first, saved)
    assert np.array_equal(tr.shifted(f, dt), saved)


def test_gather_rejects_mismatched_field():
    tr = LatticeTransport(GRID, Boundary.PERIODIC)
    f = _rand_field(GRID, 31)
    with pytest.raises(ValueError):
        tr.shifted(f[:, :-1, :], lattice_dt(GRID))


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
    """Interior rows read through a strided view, edge rows through the cached
    index: together the map_nodes gather, bit for bit, in a fresh C-contiguous
    array that shares no memory with the field, for 1v and Chu fields."""
    tr = LatticeTransport(grid, bc)
    dt = lattice_dt(grid)
    rng = np.random.default_rng(32)
    for ncomp in (1, 2):
        f = rng.normal(size=(ncomp, grid.n_space, grid.n_vel))
        for shift in range(-3, 4):
            out = tr.shifted(f, shift * dt)
            assert np.array_equal(out, _uncached_gather(grid, bc, f, shift)), (ncomp, shift)
            assert out.flags.c_contiguous and out.flags.writeable
            assert not np.shares_memory(out, f)


def test_cached_index_covers_only_the_edge_rows():
    """Per shift the cache holds at most 2*nv*|shift|*n_vel int64 entries."""
    grid = PhaseGrid(0.0, 1.0, 40, 3, 1.5)
    tr = LatticeTransport(grid, Boundary.REFLECTIVE)
    f = _rand_field(grid, 33)
    for shift in (1, -2, 3, 7):
        tr.shifted(f, shift * lattice_dt(grid))
    for shift, index in tr._indices.items():
        assert index.dtype == np.int64
        assert index.size <= 2 * grid.nv * abs(shift) * grid.n_vel
        assert index.size <= grid.n_space * grid.n_vel
