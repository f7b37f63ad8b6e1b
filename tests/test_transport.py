"""Characteristic transport: shifts, plan caching, workspace, boundaries."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bgk_sl import Boundary, Interp, Interpolator, PhaseGrid
from bgk_sl import transport, weno
from bgk_sl.boundaries import extend_field
from bgk_sl.lattice import LatticeTransport, snap_to_integers
from bgk_sl.transport import InterpolatedTransport

from conftest import cells, reference_interp, window_offsets

KINDS = (Interp.LINEAR, Interp.WENO23, Interp.WENO35)
BOUNDARIES = (Boundary.PERIODIC, Boundary.REFLECTIVE, Boundary.FREEFLOW)


def _field(grid, ncomp=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(ncomp, grid.nx + 1, grid.v.size))


def _transport(grid, kind=Interp.WENO23, bc=Boundary.PERIODIC):
    return InterpolatedTransport(grid, Interpolator(kind), bc)


def _reference_shift(grid, kind, bc, f, tau):
    """Reference: the independent interpolation of conftest, at the departure
    points x - v*tau of the ghost-extended field, each foot in the extended
    cell that contains it."""
    # the widest window reaches 3 nodes past its cell; one more for rounding
    nghost = 4 + int(math.ceil(abs(tau) * grid.vmax / grid.dx))
    ext = extend_field(f, bc, nghost)
    feet = grid.x[:, None] - grid.v[None, :] * tau
    cell, t = cells((feet - (grid.x[0] - nghost * grid.dx)) / grid.dx)
    cols = np.arange(grid.n_vel)[:, None]
    windows = ext[:, cell[..., None] + window_offsets(kind), cols]
    return reference_interp(kind, windows, t, Interpolator(kind).eps)


def test_zero_shift_returns_copy_not_alias():
    grid = PhaseGrid(0.0, 1.0, 16, 6, 4.0)
    tr = _transport(grid)
    f = _field(grid)
    out = tr.shifted(f, 0.0)
    assert np.array_equal(out, f)
    assert out is not f and not np.shares_memory(out, f)


def test_shift_matches_direct_interpolation_on_extended_field():
    """shifted() is interpolation of the ghost-extended field at the departure
    points x - v*tau, for each interpolation kind, up to round-off: the
    transport takes each column's fraction from j*(dv*tau/dx) and blends in
    difference form, the reference takes it from each foot and blends
    Vandermonde polynomials, and the two round differently."""
    grid = PhaseGrid(-1.0, 1.0, 24, 8, 5.0)
    tau = 0.023
    f = _field(grid, ncomp=2, seed=1)
    for kind in KINDS:
        got = _transport(grid, kind).shifted(f, tau)
        expect = _reference_shift(grid, kind, Boundary.PERIODIC, f, tau)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(f))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    bc=st.sampled_from(BOUNDARIES),
    nodes=st.one_of(
        st.floats(-200.0, 200.0, allow_nan=False),  # up to ~6 domain widths
        st.integers(-200, 200).map(float),  # node-aligned shifts
    ),
    seed=st.integers(0, 2**16),
)
def test_shift_matches_pointwise_interpolation_property(kind, bc, nodes, seed):
    """For any kind, boundary and tau (negative, node-aligned, or several
    domain widths long) transport agrees with the independent pointwise
    reference."""
    grid = PhaseGrid(0.0, 1.0, 32, 3, 1.5)
    tau = nodes * grid.dx / grid.dv  # column j moves j*nodes nodes
    # shifts within the lattice tolerance of an integer are snapped to it by
    # design, which the pointwise reference does not do
    off = [abs(j * nodes - round(j * nodes)) for j in (1, 2, 3)]
    assume(tau != 0.0 and all(d == 0.0 or d > 1e-7 for d in off))
    f = _field(grid, ncomp=2, seed=seed)
    got = _transport(grid, kind, bc).shifted(f, tau)
    expect = _reference_shift(grid, kind, bc, f, tau)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(f))


def _extended_shift(grid, kind, bc, f, tau):
    """Reference: the ghost-extended field, built by extend_field, and a plan in
    its coordinates (the transport's shifts and fractions)."""
    interp = Interpolator(kind)
    nghost = interp.ghost + int(math.ceil(abs(tau) * grid.vmax / grid.dx)) + 1
    ext = extend_field(f, bc, nghost)
    r = snap_to_integers(grid.jv * (grid.dv * tau / grid.dx))
    shift = np.floor(-r)
    n, ncols = ext.shape[1:]
    plan = interp.plan(
        (n, ncols),
        nghost + shift.astype(np.int64),
        -r - shift,
        rows=grid.n_space,
        source=np.arange(n * ncols).reshape(n, ncols),
    )
    return plan.apply(ext)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    bc=st.sampled_from(BOUNDARIES),
    ncomp=st.sampled_from((1, 2)),
    nodes=st.one_of(
        st.floats(-200.0, 200.0, allow_nan=False),  # up to ~19 domain widths
        st.integers(-200, 200).map(float),  # node-aligned shifts
    ),
    seed=st.integers(0, 2**16),
)
def test_shift_gathers_what_the_extended_field_holds_bitwise(kind, bc, ncomp, nodes, seed):
    """Gathering straight from the field through the folded window index is
    the gather from the ghost-extended field, bit for bit: every kind and
    boundary, 1v and Chu fields, negative tau, overhangs of many domain widths."""
    grid = PhaseGrid(0.0, 1.0, 32, 3, 1.5)
    tau = nodes * grid.dx / grid.dv
    assume(tau != 0.0)
    f = _field(grid, ncomp=ncomp, seed=seed)
    got = _transport(grid, kind, bc).shifted(f, tau)
    assert np.array_equal(got, _extended_shift(grid, kind, bc, f, tau))


def test_extend_field_runs_once_per_plan_build(monkeypatch):
    """extend_field, looked up through bgk_sl.transport, extends the index
    plane once per plan; calls that reuse a plan never extend anything."""
    calls = []

    def counting(field, bc, nghost):
        calls.append(np.asarray(field).dtype)
        return extend_field(field, bc, nghost)

    monkeypatch.setattr(transport, "extend_field", counting)
    grid = PhaseGrid(0.0, 1.0, 24, 5, 3.0)
    tr = _transport(grid, Interp.WENO35, Boundary.REFLECTIVE)
    f = _field(grid, ncomp=2, seed=8)
    for tau in (0.01, 0.01, -0.02, 0.01, -0.02):
        tr.shifted(f, tau)
    assert len(calls) == 2 and all(np.issubdtype(d, np.integer) for d in calls)


def test_pool_keeps_one_configuration_of_scratch():
    """Consecutive shifts of one configuration reuse the pool's arrays; a shift
    on another grid replaces them, and one that needs fewer drops the rest."""
    small, large = PhaseGrid(0.0, 1.0, 24, 5, 3.0), PhaseGrid(0.0, 1.0, 48, 5, 3.0)
    tr_small = _transport(small, Interp.WENO35)
    tr_large = _transport(large, Interp.WENO35)
    f_small, f_large = _field(small, ncomp=2), _field(large, ncomp=2)

    def held():
        return {id(a): a for a in weno.POOL._arrays}

    tr_small.shifted(f_small, 0.01)
    first = held()
    assert first and all(a.shape[-2] >= small.n_space for a in first.values())
    tr_small.shifted(f_small, -0.03)  # another plan, same configuration
    assert held().keys() == first.keys()
    tr_large.shifted(f_large, 0.01)
    after = held()
    assert not after.keys() & first.keys()
    assert all(a.shape[-2] >= large.n_space for a in after.values())
    linear = _transport(large, Interp.LINEAR)
    linear.shifted(f_large, 0.01)
    linear.shifted(f_large, 0.01)  # starts by dropping what the last cycle left unused
    assert 0 < len(held()) < len(after)


@pytest.mark.parametrize("ncomp", (1, 2))
@pytest.mark.parametrize("bc", BOUNDARIES)
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_apply_equals_one_pass_bitwise(monkeypatch, kind, bc, ncomp):
    """Rows evaluated in blocks, the last one shifted back to overlap its
    neighbour, give the one-pass result bit for bit, at either sign of tau."""
    grid = PhaseGrid(0.0, 1.0, 33, 3, 1.5)  # 34 rows: 12-row blocks at rows 0, 12, 22
    f = _field(grid, ncomp=ncomp, seed=ncomp)
    taus = [nodes * grid.dx / grid.dv for nodes in (0.37, -2.6, 41.2)]
    one_pass = [_transport(grid, kind, bc).shifted(f, tau) for tau in taus]
    passes = []
    reset = weno.POOL.reset
    monkeypatch.setattr(weno, "BLOCK_POINTS", 12 * ncomp * grid.n_vel)
    monkeypatch.setattr(weno.POOL, "reset", lambda: passes.append(1) or reset())
    tr = _transport(grid, kind, bc)
    for tau, expect in zip(taus, one_pass):
        passes.clear()
        assert np.array_equal(tr.shifted(f, tau), expect), tau
        assert len(passes) == 3


def test_pool_scratch_is_sized_by_the_block():
    """A field of many blocks leaves the pool holding about 12 block-sized
    arrays (WENO35's scratch), not field-sized ones, and the result, allocated
    once, shares no memory with them.  The rows are split evenly, so the
    blocks repeat almost no work."""
    grid = PhaseGrid(0.0, 1.0, 2000, 30, 8.0)
    f = _field(grid, ncomp=2, seed=9)
    assert f.size >= 200_000
    out = _transport(grid, Interp.WENO35).shifted(f, 0.37 * grid.dx / grid.dv)
    held = weno.POOL._arrays
    assert held and sum(a.nbytes for a in held) <= 12.5 * weno.BLOCK_POINTS * f.itemsize
    assert not any(np.shares_memory(out, a) for a in held)
    block = held[0].shape[1] - 5  # the window: a block's rows and WENO35's 5 halo rows
    nblocks = -(-grid.n_space // block)
    assert f[:, :block].size <= weno.BLOCK_POINTS
    assert nblocks * block < grid.n_space + nblocks  # even blocks: overlaps under a row each


@pytest.mark.parametrize("bc", BOUNDARIES)
@pytest.mark.parametrize("kind", KINDS)
def test_node_aligned_shift_reproduces_node_values_bitwise(kind, bc):
    """With dv*tau/dx = m + 1/2 the interpolation plan runs, and the feet of
    every even velocity column j are nodes, j*(m + 1/2) nodes upstream: every
    kind returns those node values of the ghost-extended field exactly."""
    grid = PhaseGrid(-1.0, 1.0, 40, 10, 5.0)
    f = _field(grid, ncomp=2, seed=7)
    tr = _transport(grid, kind, bc)
    even = np.flatnonzero(grid.jv % 2 == 0)
    for m in (0, 1, -1, 2, 7, -13):
        nodes = m + 0.5
        shift = (grid.jv[even] * nodes).astype(np.int64)  # exact: j is even
        nghost = int(np.abs(shift).max())
        ext = extend_field(f, bc, nghost)
        rows = nghost + np.arange(grid.n_space)[:, None] - shift[None, :]
        got = tr.shifted(f, nodes * grid.dx / grid.dv)
        assert np.array_equal(got[:, :, even], ext[:, rows, even[None, :]]), m


@pytest.mark.parametrize("bc", BOUNDARIES)
def test_node_aligned_tau_takes_the_lattice_gather(monkeypatch, bc):
    """With dv*tau/dx an integer every foot is a node: the transport builds
    no interpolation plan and returns the lattice gather, a fresh array each
    call."""

    def no_plan(*args, **kwargs):
        raise AssertionError("a node-aligned tau built an interpolation plan")

    monkeypatch.setattr(weno.Interpolator, "plan", no_plan)
    grid = PhaseGrid(-1.0, 1.0, 40, 10, 5.0)
    f = _field(grid, ncomp=2, seed=7)
    tr = _transport(grid, Interp.WENO35, bc)
    lattice = LatticeTransport(grid, bc)
    for m in (0, 1, -1, 2, 7, -13):
        tau = m * grid.dx / grid.dv
        first, second = tr.shifted(f, tau), tr.shifted(f, tau)
        assert np.array_equal(first, lattice.shifted(f, tau)), m
        assert not np.shares_memory(first, f) and not np.shares_memory(first, second)


def test_periodic_shift_by_whole_domain_is_identity():
    """tau = (domain length)/v moves every characteristic one full period."""
    grid = PhaseGrid(0.0, 1.0, 20, 4, 2.0)
    tr = _transport(grid, Interp.WENO35)
    f = _field(grid, seed=2)
    f[:, -1, :] = f[:, 0, :]  # periodic-consistent node values
    # pick tau so that v_max * tau = 1 exactly: nodes with other speeds move
    # rational fractions; check only the fastest columns
    tau = 1.0 / grid.vmax
    out = tr.shifted(f, tau)
    assert np.allclose(out[0][:, -1], f[0][:, -1], atol=1e-9)
    assert np.allclose(out[0][:, 0], f[0][:, 0], atol=1e-9)


def test_negative_tau_shifts_opposite_direction():
    """Shifting by -tau then +tau with linear interpolation on a linear
    profile is exact, and a positive-v column samples upstream values."""
    grid = PhaseGrid(0.0, 1.0, 32, 3, 3.0)
    tr = _transport(grid, Interp.LINEAR, bc=Boundary.FREEFLOW)
    prof = 2.0 + 0.5 * grid.x
    f = np.broadcast_to(prof[:, None], (1, grid.nx + 1, grid.v.size)).copy()
    tau = 0.01
    out = tr.shifted(f, tau)
    out_neg = tr.shifted(f, -tau)
    # column with velocity v sees f(x - v*tau) = 2 + 0.5 x - 0.5 v tau (interior)
    for j, v in enumerate(grid.v):
        expect = 2.0 + 0.5 * np.clip(grid.x - v * tau, 0.0, 1.0)
        assert np.allclose(out[0][:, j], expect, atol=1e-13)
        expect_neg = 2.0 + 0.5 * np.clip(grid.x + v * tau, 0.0, 1.0)
        assert np.allclose(out_neg[0][:, j], expect_neg, atol=1e-13)


def test_successive_shifts_share_no_memory():
    """The transport reuses one workspace, but every result is a new array:
    a later shift neither overwrites nor aliases an earlier result."""
    grid = PhaseGrid(0.0, 1.0, 24, 5, 3.0)
    f = _field(grid, ncomp=2, seed=4)
    for kind in KINDS:
        tr = _transport(grid, kind)
        first = tr.shifted(f, 0.013)
        kept = first.copy()
        second = tr.shifted(f, -0.029)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.array_equal(first, second)


def test_one_transport_serves_fields_of_every_component_count():
    """A 1v field (one component) and a Chu field (two) through one transport
    give the results of fresh transports, in either order."""
    grid = PhaseGrid(0.0, 1.0, 24, 5, 3.0)
    one, two = _field(grid, ncomp=1, seed=5), _field(grid, ncomp=2, seed=6)
    for kind in KINDS:
        shared = _transport(grid, kind, Boundary.REFLECTIVE)
        for f, tau in ((one, 0.02), (two, 0.02), (one, -0.05), (two, 0.02), (one, 0.02)):
            fresh = _transport(grid, kind, Boundary.REFLECTIVE).shifted(f, tau)
            assert np.array_equal(shared.shifted(f, tau), fresh)


def test_plan_cache_reuse_and_eviction():
    grid = PhaseGrid(0.0, 1.0, 16, 4, 2.0)
    tr = _transport(grid)
    f = _field(grid)
    first = tr.shifted(f, 0.01)
    plan_obj = tr._plans[0.01]
    tr.shifted(f, 0.01)
    assert tr._plans[0.01] is plan_obj  # reused, not rebuilt
    # flood the cache with distinct shifts; the oldest entry gets evicted
    for k in range(1, tr._PLAN_CACHE_MAX + 1):
        tr.shifted(f, 0.01 + 1e-4 * k)
    assert len(tr._plans) <= tr._PLAN_CACHE_MAX
    assert 0.01 not in tr._plans
    # results are unaffected by eviction (plan is rebuilt on demand)
    assert np.array_equal(tr.shifted(f, 0.01), first)


def test_large_cfl_shift_covers_multiple_domains():
    """Departure points several domain widths away still fold back correctly
    under periodic wrap: compare with an exactly-resolvable profile."""
    grid = PhaseGrid(0.0, 1.0, 64, 2, 2.0)
    tr = _transport(grid, Interp.WENO35)
    xg = grid.x
    prof = np.sin(2 * np.pi * xg)
    f = np.broadcast_to(prof[:, None], (1, grid.nx + 1, grid.v.size)).copy()
    tau = 1.856  # v=2 -> shift 3.712 domain widths
    out = tr.shifted(f, tau)
    for j, v in enumerate(grid.v):
        expect = np.sin(2 * np.pi * (xg - v * tau))
        assert np.allclose(out[0][:, j], expect, atol=5e-7)


def test_reflective_shift_preserves_symmetric_profile():
    """An even profile with a symmetric velocity grid is invariant under the
    reflective fold; transporting it keeps the x-reflection/v-flip symmetry."""
    grid = PhaseGrid(-1.0, 1.0, 32, 6, 3.0)
    tr = _transport(grid, Interp.WENO23, bc=Boundary.REFLECTIVE)
    prof = np.cos(np.pi * grid.x)  # even about both walls' mirror images
    gauss = np.exp(-grid.v**2)
    f = (prof[:, None] * gauss[None, :])[None, ...]
    out = tr.shifted(f, 0.04)
    # x -> -x, v -> -v symmetry of the data survives transport
    assert np.allclose(out[0], out[0][::-1, ::-1], atol=1e-12)


@pytest.mark.parametrize("ncomp", (1, 2))
@pytest.mark.parametrize("bc", BOUNDARIES)
@pytest.mark.parametrize("kind", KINDS)
def test_shift_into_out_equals_a_new_result_bitwise(monkeypatch, kind, bc, ncomp):
    """shifted(f, tau, out=buf) writes into buf and returns it, with the bits
    of shifted(f, tau): node-aligned (a copy, edge rows plus the strided
    interior, and all edges), interpolated, and overhangs of a whole domain,
    on fields of one block and, through the plans' shifted index, of three."""
    grid = PhaseGrid(0.0, 1.0, 33, 3, 1.5)  # 34 rows; 2*edge = 6*|shift| rows
    f = _field(grid, ncomp=ncomp, seed=ncomp + 20)
    taus = [nodes * grid.dx / grid.dv for nodes in (0.0, 1.0, -2.0, 6.0, 0.37, -2.6, 41.2)]
    one_block = [_transport(grid, kind, bc).shifted(f, tau) for tau in taus]
    monkeypatch.setattr(weno, "BLOCK_POINTS", 12 * ncomp * grid.n_vel)
    tr = _transport(grid, kind, bc)
    buf = np.full_like(f, np.nan)
    for tau, expect in zip(taus, one_block):
        assert tr.shifted(f, tau, out=buf) is buf
        assert np.array_equal(buf, expect), tau
        assert np.array_equal(tr.shifted(f, tau), expect), tau
        if float(tau * grid.dv / grid.dx).is_integer():
            lattice = LatticeTransport(grid, bc)
            assert lattice.shifted(f, tau, out=buf) is buf
            assert np.array_equal(buf, expect), tau


def test_plan_build_holds_no_field_sized_index():
    """Building the plan of one off-lattice tau on a field of many blocks
    (nx = 3200, 61 columns) peaks below 1.5 field-sizes of traced memory and
    keeps below 0.25: the ghost map is an int32 plane, and the plan keeps one
    block's window index and the edge rows (3.06 and 1.00 when the plan
    kept a window index as large as the field)."""
    grid = PhaseGrid(0.0, 1.0, 3200, 30, 10.0)
    size = grid.n_space * grid.n_vel * np.dtype(float).itemsize
    tr = _transport(grid, Interp.WENO23, Boundary.FREEFLOW)
    tau = (1.0 - math.sqrt(2.0) / 2.0) * grid.dx / grid.dv  # the DIRK2 stage of LatBDF2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr._plan_for(tau)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * size, f"peak {(peak - before) / size:.2f} field-sizes"
    assert kept - before < 0.25 * size, f"kept {(kept - before) / size:.2f} field-sizes"
