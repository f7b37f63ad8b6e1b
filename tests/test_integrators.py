"""Tableaus, single-step building blocks and TimeStepper bookkeeping."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgk_sl import (
    Boundary,
    ChuReduced3V,
    ConfigError,
    DegenerateStateError,
    EULER_TABLEAU,
    Integrator,
    Interp,
    Interpolator,
    LATTICE_RK2_TABLEAU,
    Monatomic1V,
    NumericalError,
    PhaseGrid,
    RK2_TABLEAU,
    RK3_TABLEAU,
    SCHEMES,
    SchemeConfig,
    StepContext,
    Tableau,
    TimeControl,
    TimeStepper,
    bdf_step,
    dirk_step,
    load_scenario,
    make_system,
)
from bgk_sl import integrators
from bgk_sl.integrators import RK2_ALPHA, RK3_GAMMA
from bgk_sl.lattice import lattice_dt
from bgk_sl.transport import InterpolatedTransport


GRID = PhaseGrid(0.0, 1.0, 16, 6, 3.0)
SYSTEM = Monatomic1V()


def _ctx(eps, kind=Interp.WENO23, bc=Boundary.PERIODIC):
    transport = InterpolatedTransport(GRID, Interpolator(kind), bc)
    return StepContext(grid=GRID, system=SYSTEM, transport=transport, eps=eps)


def _maxwellian_field(rho=1.0, u=0.0, T=1.0):
    return SYSTEM.from_macro(
        np.full(GRID.nx + 1, rho), np.full(GRID.nx + 1, u), np.full(GRID.nx + 1, T), GRID
    )


def stability_at_infinity(tab: Tableau) -> float:
    """R(inf) = 1 - b A^{-1} 1 of a DIRK tableau, whose weights b are the last
    row of A; zero means L-stable."""
    a = np.array(tab.a)
    return float(1.0 - np.array(tab.a[-1]) @ np.linalg.solve(a, np.ones(tab.stages)))


# ---------------------------------------------------------------------------
# tableau constants and validation
# ---------------------------------------------------------------------------
def test_tableau_constants():
    assert RK2_ALPHA == pytest.approx(1.0 - math.sqrt(2.0) / 2.0, rel=1e-15)
    # middle root of 6 x^3 - 18 x^2 + 9 x - 1
    assert RK3_GAMMA == pytest.approx(0.435866521508459, abs=1e-12)
    residual = ((6.0 * RK3_GAMMA - 18.0) * RK3_GAMMA + 9.0) * RK3_GAMMA - 1.0
    assert abs(residual) < 1e-14


@pytest.mark.parametrize("tab", [EULER_TABLEAU, RK2_TABLEAU, RK3_TABLEAU, LATTICE_RK2_TABLEAU])
def test_tableaus_are_strongly_damped_at_infinity(tab):
    """All DIRK tableaus are stiffly accurate with R(inf) = 0 (L-stable)."""
    assert abs(stability_at_infinity(tab)) < 1e-12
    assert tab.c[-1] == 1.0


def test_tableau_validation_errors():
    with pytest.raises(ConfigError):  # shape mismatch
        Tableau(a=((1.0,),), c=(1.0, 1.0))
    with pytest.raises(ConfigError):  # upper-triangular entry
        Tableau(a=((0.5, 0.5), (0.5, 0.5)), c=(1.0, 1.0))
    with pytest.raises(ConfigError):  # zero diagonal
        Tableau(a=((0.0, 0.0), (1.0, 0.0)), c=(0.0, 1.0))
    with pytest.raises(ConfigError):  # row sum != c
        Tableau(a=((0.5, 0.0), (0.5, 0.5)), c=(0.3, 1.0))
    with pytest.raises(ConfigError):  # must end at c = 1
        Tableau(a=((0.5, 0.0), (0.25, 0.25)), c=(0.5, 0.5))


# ---------------------------------------------------------------------------
# single-step building blocks
# ---------------------------------------------------------------------------
def test_relax_without_collisions_is_identity():
    """eps = inf disables relaxation entirely; no moments are formed, so the
    data may be arbitrary (even negative, where a Maxwellian fit would fail)."""
    ctx = _ctx(math.inf)
    rng = np.random.default_rng(31)
    g = rng.normal(size=(1, GRID.nx + 1, GRID.v.size))  # has negative values
    assert ctx.relax(g, 0.123) is g


def test_dirk_without_collisions_reduces_to_transport():
    """With relaxation off every stage flux vanishes, so DIRK steps of any
    order equal one transport over the full step."""
    ctx = _ctx(math.inf, kind=Interp.WENO35)
    rng = np.random.default_rng(32)
    f = rng.normal(size=(1, GRID.nx + 1, GRID.v.size))
    dt = 0.07
    pure = ctx.transport.shifted(f, dt)
    assert np.array_equal(dirk_step(ctx, f, dt, EULER_TABLEAU), pure)
    assert np.array_equal(dirk_step(ctx, f, dt, RK2_TABLEAU), pure)
    assert np.array_equal(dirk_step(ctx, f, dt, RK3_TABLEAU), pure)


def test_equilibrium_is_fixed_point_of_every_step():
    """A uniform Maxwellian is stationary: transport is exact on constants
    and relaxation returns data already at equilibrium.  The velocity grid
    must be wide enough (here 10 thermal widths) that the discrete moments
    of the sampled Maxwellian are the sampling parameters to roundoff."""
    grid = PhaseGrid(0.0, 1.0, 16, 20, 10.0)
    transport = InterpolatedTransport(grid, Interpolator(Interp.WENO23), Boundary.PERIODIC)
    ctx = StepContext(grid=grid, system=SYSTEM, transport=transport, eps=0.01)
    f = SYSTEM.from_macro(1.0, 0.0, 1.0, grid)
    dt = 0.2
    for out in (
        dirk_step(ctx, f, dt, EULER_TABLEAU),
        dirk_step(ctx, f, dt, RK2_TABLEAU),
        dirk_step(ctx, f, dt, RK3_TABLEAU),
        bdf_step(ctx, [f, f], dt, 2),
        bdf_step(ctx, [f, f, f], dt, 3),
    ):
        assert np.allclose(out, f, atol=1e-13)


def test_strong_relaxation_drives_toward_equilibrium():
    """One implicit Euler step with dt/eps >> 1 lands almost on the local
    Maxwellian of the transported state (L-stable limit, no overshoot)."""
    ctx = _ctx(1e-8)
    rng = np.random.default_rng(33)
    f = _maxwellian_field()
    f *= 1.0 + 0.2 * rng.random(f.shape)  # perturb off equilibrium
    dt = 0.1
    out = dirk_step(ctx, f, dt, EULER_TABLEAU)
    g = ctx.transport.shifted(f, dt)
    m_eq = SYSTEM.equilibrium(SYSTEM.moments(g, GRID), GRID)
    assert np.allclose(out, m_eq, atol=1e-7)


def test_bdf_step_validation():
    ctx = _ctx(1.0)
    f = _maxwellian_field()
    with pytest.raises(ConfigError):
        bdf_step(ctx, [f, f, f, f], 0.1, 4)  # unsupported order
    with pytest.raises(ConfigError):
        bdf_step(ctx, [f], 0.1, 2)  # missing history


@pytest.mark.parametrize("lattice", [False, True])
def test_euler_tableau_is_foot_then_relaxation_bitwise(lattice):
    """Backward Euler as the one-stage DIRK is transport over dt followed by
    one relaxation over dt, on interpolated and node-aligned transport."""
    rng = np.random.default_rng(35)
    f = _maxwellian_field(1.1, 0.2, 0.9) * rng.uniform(0.9, 1.1, (1, GRID.n_space, GRID.n_vel))
    ctx = _ctx(0.05, kind=Interp.WENO35)
    dt = lattice_dt(GRID) if lattice else 0.03
    expect = ctx.relax(ctx.transport.shifted(f, dt), dt)
    assert np.array_equal(dirk_step(ctx, f, dt, EULER_TABLEAU), expect)


# ---------------------------------------------------------------------------
# TimeStepper bookkeeping
# ---------------------------------------------------------------------------
def _scheme(integrator, interp=Interp.WENO23, eps=0.5):
    return SchemeConfig(integrator=integrator, interp=interp, boundary=Boundary.PERIODIC, eps=eps)


def test_stepper_rejects_nonpositive_dt_and_nonfinite_start():
    f = _maxwellian_field()
    stepper = TimeStepper(f, GRID, SYSTEM, _scheme(Integrator.RK2))
    with pytest.raises(ConfigError):
        stepper.step(0.0)
    with pytest.raises(ConfigError):
        stepper.step(-0.1)
    bad = f.copy()
    bad[0, 3, 4] = np.nan
    with pytest.raises(NumericalError):
        TimeStepper(bad, GRID, SYSTEM, _scheme(Integrator.RK2))


def test_bdf2_history_lifecycle():
    """First step (and any step after a dt change) runs the one-step
    predictor; equal-spaced continuation uses the true multistep update."""
    f = _maxwellian_field(rho=1.2, u=0.1, T=1.1)
    stepper = TimeStepper(f, GRID, SYSTEM, _scheme(Integrator.BDF2))
    stepper.step(0.05)
    assert stepper.predictor_steps == 1
    stepper.step(0.05)
    assert stepper.predictor_steps == 1  # history valid: real BDF step
    stepper.step(0.02)  # step-size change invalidates the history
    assert stepper.predictor_steps == 2
    stepper.step(0.02)
    assert stepper.predictor_steps == 2
    assert stepper.steps_taken == 4
    assert stepper.t == pytest.approx(0.14)


def test_bdf3_needs_two_equal_spaced_predecessors():
    f = _maxwellian_field(rho=1.2, u=0.1, T=1.1)
    stepper = TimeStepper(f, GRID, SYSTEM, _scheme(Integrator.BDF3))
    stepper.step(0.05)
    stepper.step(0.05)
    assert stepper.predictor_steps == 2  # history of one state is not enough
    stepper.step(0.05)
    assert stepper.predictor_steps == 2  # now a real BDF3 step
    assert len(stepper._history) == 2  # never keeps more than order-1 states


@pytest.mark.parametrize(
    "integrator, tab",
    [(Integrator.BDF2, RK2_TABLEAU), (Integrator.BDF3, RK3_TABLEAU)],
    ids=["BDF2", "BDF3"],
)
def test_bdf_continuation_matches_manual_composition(integrator, tab):
    """TimeStepper's BDF path is order-1 same-order DIRK startup steps, then
    bdf_step on the equally spaced history, newest state first."""
    f = _maxwellian_field(rho=1.2, u=-0.1, T=0.95)
    stepper = TimeStepper(f, GRID, SYSTEM, _scheme(integrator, eps=0.3))
    dt, order = 0.04, integrator.order
    for _ in range(order + 1):
        stepper.step(dt)
    assert stepper.predictor_steps == order - 1
    ctx = _ctx(0.3)
    states = [f]
    for _ in range(order - 1):
        states.insert(0, dirk_step(ctx, states[0], dt, tab))
    for _ in range(2):
        states = [bdf_step(ctx, states, dt, order)] + states[: order - 1]
    assert np.array_equal(stepper.f, states[0])


def _textbook_dirk(ctx, f, dt, tab):
    """dirk_step with every stage sum and flux formed out of place."""
    a, c = tab.a, tab.c
    flux = [None] * tab.stages
    out = None
    for l in range(tab.stages):
        g = ctx.transport.shifted(f, c[l] * dt)
        for k in range(l):
            if a[l][k] != 0.0:
                g = g + (dt * a[l][k]) * ctx.transport.shifted(flux[k], (c[l] - c[k]) * dt)
        out = ctx.relax(g, a[l][l] * dt)
        flux[l] = (out - g) / (a[l][l] * dt)
    return out


@pytest.mark.parametrize("eps", [0.05, math.inf])
def test_steps_equal_textbook_arithmetic_bitwise(eps):
    """The in-place stage and history sums keep the operation order of the
    out-of-place expressions, and never modify the states they read."""
    rng = np.random.default_rng(33)
    shape = (1, GRID.n_space, GRID.n_vel)
    states = [_maxwellian_field(1.1, 0.2, 0.9) * rng.uniform(0.9, 1.1, shape) for _ in range(3)]
    saved = [s.copy() for s in states]
    ctx = _ctx(eps, kind=Interp.WENO35)
    dt = 0.03
    for tab in (RK2_TABLEAU, RK3_TABLEAU):
        expect = _textbook_dirk(ctx, states[0], dt, tab)
        assert np.array_equal(dirk_step(ctx, states[0], dt, tab), expect)
    w2 = (4.0 / 3.0, -1.0 / 3.0)
    shifted = ctx.transport.shifted
    g = w2[0] * shifted(states[0], dt) + w2[1] * shifted(states[1], 2 * dt)
    assert np.array_equal(bdf_step(ctx, states[:2], dt, 2), ctx.relax(g, 2.0 / 3.0 * dt))
    w3 = (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)
    g = w3[0] * shifted(states[0], dt)
    g = g + w3[1] * shifted(states[1], 2 * dt)
    g = g + w3[2] * shifted(states[2], 3 * dt)
    assert np.array_equal(bdf_step(ctx, states, dt, 3), ctx.relax(g, 6.0 / 11.0 * dt))
    assert all(np.array_equal(s, k) for s, k in zip(states, saved))


@pytest.mark.parametrize(
    "integrator, interp",
    [
        (Integrator.EULER1, Interp.LINEAR),
        (Integrator.RK3, Interp.WENO35),
        (Integrator.BDF3, Interp.WENO35),
        SCHEMES["LatBDF2"][:2],
    ],
    ids=["Euler1", "RK3", "BDF3", "LatBDF2"],
)
def test_read_only_start_field_marches_and_is_never_written(integrator, interp):
    """The stepper holds field0 without a copy, and no step, the shortened
    last one included, writes into it or into a field it has returned."""
    f = _maxwellian_field(rho=1.1, u=0.2, T=0.9)
    f.flags.writeable = False
    before = f.copy()
    stepper = TimeStepper(f, GRID, SYSTEM, _scheme(integrator, interp=interp))
    assert stepper.f is f
    dt = lattice_dt(GRID)
    returned = []
    for dt_k in [dt] * 4 + [0.4 * dt]:
        stepper.step(dt_k)
        returned.append((stepper.f, stepper.f.copy()))
    assert np.array_equal(f, before)
    assert all(np.array_equal(field, copy) for field, copy in returned)


@pytest.mark.parametrize("integrator", [Integrator.RK3, Integrator.BDF2, Integrator.BDF3])
def test_collisionless_steps_never_return_a_step_buffer(integrator):
    """With eps = inf the relaxation returns the stage sum itself, which
    lives in a step buffer: the step returns a copy, so no returned field is
    a buffer or is written by a later step."""
    rng = np.random.default_rng(37)
    f = rng.normal(size=(1, GRID.n_space, GRID.n_vel))
    stepper = TimeStepper(f, GRID, SYSTEM, _scheme(integrator, eps=math.inf))
    returned = []
    for dt in [0.03] * 4 + [0.012]:
        stepper.step(dt)
        buffers = stepper.ctx._buffers.values()
        assert buffers and not any(np.shares_memory(stepper.f, b) for b in buffers)
        returned.append((stepper.f, stepper.f.copy()))
    assert all(np.array_equal(field, copy) for field, copy in returned)


def test_bdf2_step_allocates_only_its_new_field():
    """After the startup a LatBDF2 step at nx = 3200 transports into the step
    context's two buffers, so it peaks at most 1.25 field-sizes of traced
    memory above the fields it holds: the relaxed field it returns and its
    row-sized moments (2.15 when every transport allocated its result)."""
    grid = PhaseGrid(0.0, 1.0, 3200, 30, 10.0)
    integrator, interp, stride = SCHEMES["LatBDF2"]
    scheme = SchemeConfig(
        integrator=integrator, interp=interp, boundary=Boundary.FREEFLOW, eps=1e-6
    )
    f = SYSTEM.from_macro(1.0 + 0.1 * np.sin(2.0 * np.pi * grid.x), 0.2, 1.0, grid)
    stepper = TimeStepper(f, grid, SYSTEM, scheme)
    dt = lattice_dt(grid, stride)
    for _ in range(3):
        stepper.step(dt)
    assert stepper.predictor_steps == 1
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stepper.step(dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stepper.predictor_steps == 1
    assert peak - before <= 1.25 * f.nbytes, f"step peak {(peak - before) / f.nbytes:.2f}"


@pytest.mark.parametrize(
    "token, kind, tab",
    [
        ("LatEuler", Interp.LINEAR, EULER_TABLEAU),
        ("LatBDF2", Interp.WENO23, RK2_TABLEAU),
        ("LatBDF3", Interp.WENO35, RK3_TABLEAU),
        ("LatRK2", Interp.WENO23, LATTICE_RK2_TABLEAU),
    ],
    ids=["LatEuler", "LatBDF2", "LatBDF3", "LatRK2"],
)
def test_offlattice_step_is_order_matched_interpolated_dirk(token, kind, tab):
    """A lattice token's step that is not node-aligned is the DIRK of its
    integrator (a BDF history's same-order startup; LatRK2's thirds tableau)
    on the interpolation of matching order, bit for bit."""
    integrator, interp, stride = SCHEMES[token]
    assert interp is kind
    rng = np.random.default_rng(36)
    f = _maxwellian_field(1.1, 0.05, 1.0) * rng.uniform(0.9, 1.1, (1, GRID.n_space, GRID.n_vel))
    stepper = TimeStepper(f, GRID, SYSTEM, _scheme(integrator, interp=interp, eps=0.2))
    dt = 0.37 * lattice_dt(GRID, stride)
    stepper.step(dt)
    assert stepper.predictor_steps == int(integrator.is_multistep)
    assert np.array_equal(stepper.f, dirk_step(_ctx(0.2, kind=kind), f, dt, tab))


def test_lattice_bdf_startup_borrows_interpolation():
    f = _maxwellian_field(rho=1.1, u=0.05, T=1.0)
    integrator, interp, stride = SCHEMES["LatBDF2"]
    stepper = TimeStepper(f, GRID, SYSTEM, _scheme(integrator, interp=interp))
    dt = lattice_dt(GRID, stride)
    stepper.step(dt)  # startup predictor (interpolated DIRK2)
    assert stepper.predictor_steps == 1
    stepper.step(dt)  # true lattice BDF2 step
    assert stepper.predictor_steps == 1


def test_degenerate_state_reports_step_context():
    """A distribution whose moments have zero temperature fails inside the
    relaxation with a message locating the failing step."""
    f = np.zeros((1, GRID.nx + 1, GRID.v.size))
    f[0, :, GRID.nv] = 1.0  # all mass at v = 0: T = 0
    scheme = _scheme(Integrator.EULER1, interp=Interp.LINEAR, eps=1.0)
    stepper = TimeStepper(f, GRID, SYSTEM, scheme)
    with pytest.raises(DegenerateStateError) as excinfo:
        stepper.step(0.05)
    assert "step 1" in str(excinfo.value)


def test_collisionless_stepper_accepts_signed_data():
    """With collisions disabled the stepper transports arbitrary data."""
    rng = np.random.default_rng(34)
    f = rng.normal(size=(1, GRID.nx + 1, GRID.v.size))
    scheme = _scheme(Integrator.RK3, interp=Interp.WENO35, eps=math.inf)
    stepper = TimeStepper(f, GRID, SYSTEM, scheme)
    stepper.step(0.03)
    stepper.step(0.03)
    assert np.all(np.isfinite(stepper.f))
    assert stepper.steps_taken == 2


# ---------------------------------------------------------------------------
# the relaxation of a stage: StepContext.relax
# ---------------------------------------------------------------------------
# dv = 1/3 resolves every T >= 0.4 to round-off, and vmax = 16 holds the
# Maxwellian tails of |u| <= 1.3, T <= 2.5 below round-off.
RELAX_GRID = PhaseGrid(0.0, 1.0, 4, 48, 16.0)
ROW = st.tuples(st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0))


def _conserved(system, field, grid):
    mom = system.moments(field, grid)
    return mom.rho, mom.rho * mom.u, mom.E


@settings(max_examples=60, deadline=None)
@given(
    system=st.sampled_from((Monatomic1V(), ChuReduced3V())),
    rows=st.lists(ROW, min_size=RELAX_GRID.n_space, max_size=RELAX_GRID.n_space),
    bump=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**16),
    tau=st.one_of(st.floats(0.0, 1e8), st.floats(-12.0, 8.0).map(lambda e: 10.0**e)),
)
def test_relax_conserves_the_moments_of_g(system, rows, bump, seed, tau):
    """On admissible rows (rho, u, T) perturbed upwards cell by cell, the
    relaxed field has the mass, momentum and energy of g to 1e-12 relative,
    for tau from 0 to 1e8, and g itself is left untouched."""
    rho, u, T = (np.array(col) for col in zip(*rows))
    g = system.from_macro(rho, u, T, RELAX_GRID)
    g *= 1.0 + bump * np.random.default_rng(seed).random(g.shape)
    saved = g.copy()
    ctx = StepContext(grid=RELAX_GRID, system=system, transport=None, eps=1.0)
    out = ctx.relax(g, tau)
    assert np.array_equal(g, saved) and not np.shares_memory(out, g)
    mass, momentum, energy = _conserved(system, g, RELAX_GRID)
    after = _conserved(system, out, RELAX_GRID)
    # |rho u| <= sqrt(2 rho E): the momentum's scale where u is near zero
    for got, want, scale in zip(after, (mass, momentum, energy),
                                (mass, np.sqrt(2.0 * mass * energy), energy)):
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("system", [Monatomic1V(), ChuReduced3V()])
def test_relax_allocates_one_field_and_solves_in_place(system):
    """One relaxation of a (n_components, 3201, 61) field peaks at 1.25
    field-sizes of traced memory: the equilibrium, which the solve
    overwrites, plus row-sized moments and the Chu pair's half-field
    peculiar-velocity pass, freed before the equilibrium is built."""
    grid = PhaseGrid(0.0, 1.0, 3200, 30, 10.0)
    g = system.from_macro(1.0 + 0.1 * np.sin(2.0 * np.pi * grid.x), 0.2, 1.0, grid)
    ctx = StepContext(grid=grid, system=system, transport=None, eps=1e-3)
    expect = ctx.relax(g, 0.01)  # also fills the grid's cached properties
    tracemalloc.start()
    try:
        out = ctx.relax(g, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, expect)
    assert peak <= 1.25 * g.nbytes, f"peak {peak / g.nbytes:.2f} field-sizes"


def _march_peak(scenario, integrator, interp, stride, nx, t_final=None):
    """Traced peak of building a TimeStepper on a scenario's start field and
    marching it to t_final at eps = 1e-6, in sizes of that field; a lattice
    stride marches at the lattice step."""
    scen = load_scenario(scenario)
    system = make_system(scen.model)
    grid = PhaseGrid(scen.x0, scen.x1, nx, scen.nv, scen.vmax)
    scheme = SchemeConfig(integrator=integrator, interp=interp, boundary=scen.boundary, eps=1e-6)
    dt = lattice_dt(grid, stride) if stride else grid.dt_from_cfl(scen.cfl)
    control = TimeControl(dt=dt, t_final=scen.t_final if t_final is None else t_final)
    assert control.has_short_step
    f0 = system.from_macro(*scen.initial_moments(grid.x, system.dof), grid)
    size = f0.nbytes
    tracemalloc.start()
    try:
        stepper = TimeStepper(f0, grid, system, scheme)
        del f0
        for dt_k in control.steps():
            stepper.step(dt_k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / size


@pytest.mark.parametrize(
    "scenario, integrator, interp, stride, nx, t_final, bound",
    [
        # Measured 6.74 (8.32 when every plan kept a field-sized window
        # index and every step allocated its transported fields; 12.57 when
        # the stepper also copied field0 and kept the history and plans of
        # the old dt through the shortened last step)
        ("riemann", *SCHEMES["LatBDF2"], 800, None, 7.05),
        # Measured 9.33 (9.67 when each DIRK flux was a new array and lived
        # through the last stage; 14.11 when the step also held each stage's
        # g and relaxed value through the next stage's transports)
        ("riemann-chu", Integrator.RK3, Interp.WENO35, None, 100, 0.0251, 9.8),
    ],
    ids=["LatBDF2", "RK3-weno35"],
)
def test_march_peak_holds_only_the_live_fields(
    scenario, integrator, interp, stride, nx, t_final, bound
):
    """Whole-march traced peak, shortened last step included, in field-sizes."""
    peak = _march_peak(scenario, integrator, interp, stride, nx, t_final)
    assert peak <= bound, f"march peak {peak:.2f} field-sizes > {bound}"


def test_relax_solves_through_the_module_binding(monkeypatch):
    """The solve is looked up as `bgk_sl.integrators.relaxation_solve`, where
    the benchmark's traced mode wraps it, and writes into the equilibrium."""
    calls = []
    original = integrators.relaxation_solve

    def spy(f, m_eq, tau, out=None):
        calls.append(out is m_eq)
        return original(f, m_eq, tau, out=out)

    monkeypatch.setattr(integrators, "relaxation_solve", spy)
    f = _maxwellian_field(1.1, 0.2, 0.9)
    _ctx(1e-2).relax(f, 0.1)
    assert calls == [True]
