"""Acceptance gate: end-to-end solver properties with pinned tolerances.

Each test pins one externally visible guarantee of the solver.  The suite is
deterministic (fixed RNG seeds, no timing dependence) and runs in roughly
two to three minutes on one CPU; the two heavyweight tests are the smooth
convergence study (~30 s) and the optimal-CFL sweep (~80 s).
"""
from __future__ import annotations

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from bgk_sl import (
    Boundary,
    ChuReduced3V,
    DEFAULT_INTERP,
    Integrator,
    Interp,
    Interpolator,
    Monatomic1V,
    PhaseGrid,
    SchemeConfig,
    TimeControl,
    TimeStepper,
    cfl_sweep,
    convergence_study,
    l1_norm,
    load_scenario,
    make_system,
    riemann_profile,
    run_case,
)
from bgk_sl import harness
from bgk_sl import transport as transport_module
from bgk_sl.moments import maxwellian_rows, relaxation_solve, velocity_basis

from conftest import (
    LATTICE_RUNS,
    cells,
    fitted_slope,
    free_molecular_field,
    interpolate_at,
    smoothness_indicators,
    uniform_mixture_field,
)

MACHINE_EPS = np.finfo(float).eps


def _all_scheme_combos(grid):
    """(integrator, interpolation, dt) of every scheme token with every
    interpolation at CFL 4, and of each lattice run at cfl = "lattice"."""
    combos = [(integ, ip, grid.dt_from_cfl(4.0)) for integ in Integrator for ip in Interp]
    combos += [(integ, ip, grid.dt_from_cfl("lattice")) for integ, ip in LATTICE_RUNS.values()]
    return combos


# ---------------------------------------------------------------------------
# 1. a global Maxwellian is a fixed point of every scheme
# ---------------------------------------------------------------------------
def test_equilibrium_preservation():
    """100 steps on a uniform global Maxwellian leave (rho, u, T) unchanged
    to 1e-12, for every scheme token x interpolation and every lattice run,
    x kinetic system and for eps in {1, 1e-6}."""
    grid = PhaseGrid(-1.0, 1.0, 16, 20, 10.0)
    worst = 0.0
    for (integ, ip, dt), eps, system in itertools.product(
        _all_scheme_combos(grid), (1.0, 1e-6), (Monatomic1V(), ChuReduced3V())
    ):
        scheme = SchemeConfig(integrator=integ, interp=ip, boundary=Boundary.PERIODIC, eps=eps)
        f0 = system.from_macro(1.0, 0.0, 1.0, grid)
        stepper = TimeStepper(f0, grid, system, scheme)
        for _ in range(100):
            stepper.step(dt)
        mom = system.moments(stepper.f, grid)
        drift = max(
            np.abs(mom.rho - 1.0).max(),
            np.abs(mom.u).max(),
            np.abs(mom.T - 1.0).max(),
        )
        worst = max(worst, drift)
        assert drift <= 1e-12, (
            f"{integ.value}+{ip.value} {system.name} eps={eps}: drift {drift:.3e}"
        )
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 2. the implicit relaxation solve conserves the discrete moments exactly
# ---------------------------------------------------------------------------
def test_relaxation_solve_conserves_moments():
    """For random admissible fields (grid-resolved Maxwellian mixtures) and
    tau in {0, 1, 1e6}, the moments before and after the relaxation solve
    agree to 10 * machine-epsilon * scale, for both kinetic systems.  The
    two-component system's temperature uses the paired second-moment
    identity, so its conservation checks that identity as well."""
    rng = np.random.default_rng(123)
    grid = PhaseGrid(0.0, 1.0, 24, 20, 10.0)
    for system in (Monatomic1V(), ChuReduced3V()):
        f = np.zeros((system.n_components, grid.n_space, grid.n_vel))
        for _ in range(3):
            rho = rng.uniform(0.5, 2.0, grid.n_space)
            u = rng.uniform(-0.3, 0.3, grid.n_space)
            T = rng.uniform(0.75, 1.1, grid.n_space)
            m1 = maxwellian_rows(rho, u, T, velocity_basis(grid.v))
            f[0] += m1
            if system.n_components == 2:
                f[1] += 2.0 * T[:, None] * m1
        for tau in (0.0, 1.0, 1e6):
            before = system.moments(f, grid)
            m_eq = system.equilibrium(before, grid)
            g = relaxation_solve(f, m_eq, tau)
            after = system.moments(g, grid)
            scale = max(
                np.abs(before.rho).max(),
                np.abs(before.rho * before.u).max(),
                np.abs(before.E).max(),
            )
            tol = 10.0 * MACHINE_EPS * scale
            for name in ("rho", "u", "T", "E"):
                diff = np.abs(getattr(after, name) - getattr(before, name)).max()
                assert diff <= tol, f"{system.name} tau={tau} {name}: {diff:.3e} > {tol:.3e}"
            diff_m = np.abs(after.rho * after.u - before.rho * before.u).max()
            assert diff_m <= tol
        # tau = 0 must return the field bitwise unchanged
        assert np.array_equal(relaxation_solve(f, system.equilibrium(system.moments(f, grid), grid), 0.0), f)


# ---------------------------------------------------------------------------
# 3. time integrators hit their design orders on the relaxation ODE
# ---------------------------------------------------------------------------
def test_time_integrator_ode_orders():
    """On a space-uniform out-of-equilibrium state the transport is exact, so
    stepping reduces to the relaxation ODE with the analytic solution
    M + exp(-t/eps) (f0 - M).  Fitted error slopes over 4 step halvings must
    match the design orders within +/-0.2."""
    eps = 0.8
    parts = ((0.6, 1.0, 1.0, 0.9), (0.4, 1.0, -1.0, 1.1))

    def slope_for(integrator, grid, dts, t_final):
        system = Monatomic1V()
        f0 = uniform_mixture_field(system, grid, parts)
        m_eq = system.equilibrium(system.moments(f0, grid), grid)
        errs = []
        for dt in dts:
            scheme = SchemeConfig(integrator=integrator, interp=Interp.WENO23,
                                  boundary=Boundary.PERIODIC, eps=eps)
            stepper = TimeStepper(f0, grid, system, scheme)
            for _ in range(int(round(t_final / dt))):
                stepper.step(dt)
            f_exact = m_eq + math.exp(-t_final / eps) * (f0 - m_eq)
            errs.append(float(np.max(np.abs(stepper.f - f_exact))))
        return fitted_slope(dts, errs), errs

    grid = PhaseGrid(0.0, 1.0, 8, 20, 10.0)
    t_final = 1.6
    dts = [t_final / n for n in (5, 10, 20, 40, 80)]
    for integrator, design in (
        (Integrator.EULER1, 1),
        (Integrator.RK2, 2),
        (Integrator.BDF2, 2),
        (Integrator.RK3, 3),
        (Integrator.BDF3, 3),
    ):
        slope, errs = slope_for(integrator, grid, dts, t_final)
        assert abs(slope - design) <= 0.2, f"{integrator.value}: slope {slope:.3f}, errs {errs}"


# ---------------------------------------------------------------------------
# 4. smooth-flow convergence orders (successive refinement of the density)
# ---------------------------------------------------------------------------
# Successive-refinement orders on this test approach the design order from
# below as the ladder refines (the coarse pairs under-report; see the
# refinement data in test_output.txt).  Orders are therefore asserted on the
# finest pair of each ladder, which is inside the asymptotic range.
SMOOTH_LADDER = [40, 80, 160, 320, 640, 1280]
SMOOTH_LADDER_DEEP = SMOOTH_LADDER + [2560]  # first-order scheme is slowest to settle


@pytest.mark.slow
@pytest.mark.parametrize(
    "integrator,interp,eps,ladder,lo,hi",
    [
        ("Euler1", "linear", 1e-4, SMOOTH_LADDER_DEEP, 0.8, None),
        ("RK2", "weno23", 1e-4, SMOOTH_LADDER, 1.7, None),
        ("BDF2", "weno23", 1e-4, SMOOTH_LADDER, 1.7, None),
        ("BDF3", "weno23", 1e-4, SMOOTH_LADDER, 2.6, None),
        # the 3-stage DIRK loses one order in the stiff limit: expect ~2
        ("RK3", "weno23", 1e-6, SMOOTH_LADDER, 1.6, 2.6),
    ],
)
def test_smooth_convergence_orders(integrator, interp, eps, ladder, lo, hi):
    """L1(rho) successive-refinement orders on the smooth periodic flow reach
    the scheme's asymptotic order on the finest refinement pair."""
    rows = convergence_study(
        "smooth", integrator=integrator, interp=interp, eps_list=[eps], nx_list=ladder
    )
    errs = [r["err_l1_rho"] for r in rows]
    orders = [r["order"] for r in rows if r["order"] is not None]
    # sanity: errors must decrease monotonically along the ladder
    assert all(a > b for a, b in zip(errs[:-1], errs[1:])), errs
    finest = orders[-1]
    label = f"{integrator}+{interp} eps={eps}: orders {[f'{o:.3f}' for o in orders]}"
    assert finest >= lo, label
    if hi is not None:
        assert finest <= hi, label


# ---------------------------------------------------------------------------
# 5./6. fluid-dynamic limit against the exact Euler solution
# ---------------------------------------------------------------------------
def _fluid_limit_case(scenario, gamma, integrator):
    from bgk_sl import SCENARIOS

    left, right, x_jump = SCENARIOS[scenario].riemann
    jump = abs(left[0] - right[0])
    errs = []
    for nx in (100, 200, 400):
        res = run_case(scenario, integrator=integrator, interp="weno35", eps=1e-6, nx=nx)
        rho_ref, _, _, _ = riemann_profile(
            left, right, gamma, res.x, res.meta["t_final"], x_jump=x_jump
        )
        dx = res.x[1] - res.x[0]
        errs.append(l1_norm(res.rho - rho_ref, dx))
        lo, hi = rho_ref.min(), rho_ref.max()
        assert res.rho.min() >= lo - 0.01 * jump, (
            f"{integrator} nx={nx}: density undershoot {res.rho.min():.4f} < {lo:.4f}"
        )
        assert res.rho.max() <= hi + 0.01 * jump, (
            f"{integrator} nx={nx}: density overshoot {res.rho.max():.4f} > {hi:.4f}"
        )
    assert errs[0] > errs[1] > errs[2], f"{integrator}: L1 errors not decreasing: {errs}"


@pytest.mark.slow
@pytest.mark.parametrize("integrator", ["RK3", "BDF3"])
def test_riemann_fluid_limit(integrator):
    """At eps = 1e-6 the shock-tube density converges to the exact Euler
    solution of the monatomic 1V gas (gamma = 3): L1 distance decreases over
    nx in {100, 200, 400} and stays inside the exact min/max envelope within
    1% of the initial jump."""
    _fluid_limit_case("riemann", 3.0, integrator)


@pytest.mark.slow
@pytest.mark.parametrize("integrator", ["RK3", "BDF3"])
def test_chu_riemann_fluid_limit(integrator):
    """Same fluid-limit properties for the reduced 3D-velocity gas, whose
    Euler limit has gamma = 5/3."""
    _fluid_limit_case("riemann-chu", 5.0 / 3.0, integrator)


# ---------------------------------------------------------------------------
# 7. interpolation kernels: exactness, smoothness indicators, refinement slope
# ---------------------------------------------------------------------------
def test_weno_polynomial_exactness():
    """The 4-node blend is exact on quadratics and the 6-node blend on cubics
    (every candidate stencil reproduces them), to 1e-12 at 1000 random points."""
    rng = np.random.default_rng(2024)
    n, dx = 50, 0.02
    nodes = np.arange(n + 1) * dx
    pts = rng.uniform(nodes[3], nodes[-4], 1000)

    c2 = rng.uniform(-2.0, 2.0, 3)
    quad = np.polynomial.polynomial.polyval(nodes, c2)
    exact2 = np.polynomial.polynomial.polyval(pts, c2)
    got23 = interpolate_at(Interpolator(Interp.WENO23), quad, *cells(pts / dx))
    err23 = np.max(np.abs(got23 - exact2))
    assert err23 <= 1e-12, err23

    c3 = rng.uniform(-2.0, 2.0, 4)
    cubic = np.polynomial.polynomial.polyval(nodes, c3)
    exact3 = np.polynomial.polynomial.polyval(pts, c3)
    got35 = interpolate_at(Interpolator(Interp.WENO35), cubic, *cells(pts / dx))
    err35 = np.max(np.abs(got35 - exact3))
    assert err35 <= 1e-12, err35


def test_smoothness_indicators_vanish_on_constants():
    """Both smoothness-indicator families vanish on constant data to 1e-14 at
    unit scale; for large constants the floating-point cancellation floor
    stays below 1e-13 relative to c^2 (the difference form has none: every
    difference of constant data is exactly zero)."""
    for c in (1.0, -1.0, 0.37, -0.91):
        for beta in smoothness_indicators(Interp.WENO23, [c] * 4):
            assert abs(beta) <= 1e-14
        for beta in smoothness_indicators(Interp.WENO35, [c] * 6):
            assert abs(beta) <= 1e-14
    for c in (3.7, 1e3, 1e6):
        for beta in smoothness_indicators(Interp.WENO23, [c] * 4):
            assert abs(beta) <= 1e-13 * c * c
        for beta in smoothness_indicators(Interp.WENO35, [c] * 6):
            assert abs(beta) <= 1e-13 * c * c


def test_weno35_transport_refinement_slope():
    """Accumulated interpolation error of the 6-node blend under refinement.

    With collisions disabled the solver is pure characteristic transport and
    the exact solution is the shifted initial condition.  One interpolation
    per step over ~1/dx steps turns the pointwise stencil error into a global
    O(dx^5) error: the fitted slope must be 5 +/- 0.4."""
    scen = load_scenario("smooth")
    system = Monatomic1V()
    scheme = SchemeConfig(
        integrator=Integrator.EULER1, interp=Interp.WENO35, boundary=scen.boundary, eps=math.inf
    )
    ns = [80, 160, 320, 640]
    errs = []
    for nx in ns:
        grid = scen.grid(nx)
        f0 = system.from_macro(*scen.initial_moments(grid.x, system.dof), grid)
        f0[:, -1, :] = f0[:, 0, :]  # periodic: node nx is node 0
        stepper = TimeStepper(f0, grid, system, scheme)
        for dt in TimeControl(dt=grid.dt_from_cfl(scen.cfl), t_final=scen.t_final).steps():
            stepper.step(dt)
        exact, _ = free_molecular_field(scen, grid, system, scen.t_final)
        diff = stepper.f[0] - exact[0]
        errs.append(float(np.abs(diff[:-1]).sum() * grid.dx * grid.dv))
    slope = -fitted_slope(ns, errs)
    assert abs(slope - 5.0) <= 0.4, f"slope {slope:.3f}, errs {errs}"


# ---------------------------------------------------------------------------
# 8. lattice transport is the exact limit of interpolated transport
# ---------------------------------------------------------------------------
def test_lattice_matches_interpolated_on_aligned_steps(monkeypatch):
    """When dv*dt = dx every characteristic foot is a grid node, so the
    lattice first-order scheme (exact gathers) and the same scheme with every
    foot interpolated linearly agree to 1e-13 at every step.

    And cfl = "lattice" is the scheme at dt = dx/dv: Euler1 + linear, BDF2 +
    weno23 and BDF3 + weno35 run by `run_case` at cfl = "lattice" end on the
    field of the same scheme marched at dt = dx/dv, bit for bit, on the four
    non-trivial bundled scenarios at eps 1e-2 and 1e-6 and nx = 80, shortened
    last steps included (24 cases)."""
    grid = PhaseGrid(-1.0, 1.0, 64, 12, 6.0)
    system = Monatomic1V()
    x = grid.x
    f0 = system.from_macro(
        1.0 + 0.2 * np.sin(np.pi * x), 0.3 * np.exp(-8 * x**2), 1.0 + 0.1 * np.cos(np.pi * x), grid
    )
    f0[:, -1, :] = f0[:, 0, :]
    integ, ip = LATTICE_RUNS["Euler1Lin"]
    dt = grid.dt_from_cfl("lattice")
    scheme = SchemeConfig(integrator=integ, interp=ip, boundary=Boundary.PERIODIC, eps=0.01)
    lattice, interpolated = (TimeStepper(f0, grid, system, scheme) for _ in range(2))
    for _ in range(5):
        lattice.step(dt)
        with monkeypatch.context() as patch:  # no foot counts as node-aligned
            patch.setattr(transport_module, "node_shift", lambda grid, tau: None)
            interpolated.step(dt)
        diff = np.max(np.abs(lattice.f - interpolated.f))
        assert diff <= 1e-13, diff

    marched = []

    class Recording(TimeStepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            marched.append(self)

    monkeypatch.setattr(harness, "TimeStepper", Recording)
    shortened = 0
    for name, eps, (label, (integ, ip)) in itertools.product(
        ("smooth", "riemann", "riemann-chu", "smooth-chu"), (1e-2, 1e-6), LATTICE_RUNS.items()
    ):
        res = run_case(name, integrator=integ, interp=ip, eps=eps, nx=80, cfl="lattice")
        scen = load_scenario(name)
        system = make_system(scen.model)
        grid = PhaseGrid(scen.x0, scen.x1, 80, scen.nv, scen.vmax)
        f0 = system.from_macro(*scen.initial_moments(grid.x, system.dof), grid)
        if scen.boundary is Boundary.PERIODIC:
            f0[:, -1, :] = f0[:, 0, :]
        scheme = SchemeConfig(integrator=integ, interp=ip, boundary=scen.boundary, eps=eps)
        stepper = TimeStepper(f0, grid, system, scheme)
        for dt in TimeControl(dt=grid.dx / grid.dv, t_final=scen.t_final).steps():
            stepper.step(dt)
        assert res.meta["dt"] == grid.dx / grid.dv
        assert np.array_equal(marched[-1].f, stepper.f), (name, eps, label)
        shortened += res.meta["shortened_final_step"]
    assert len(marched) == 24 and shortened > 0


def test_lattice_pure_transport_is_exact_index_shift():
    """With collisions disabled, one lattice step is a bitwise-exact gather:
    node i at velocity index j reads node i - j (periodically folded)."""
    grid = PhaseGrid(-1.0, 1.0, 64, 12, 6.0)
    rng = np.random.default_rng(7)
    f0 = rng.uniform(0.5, 2.0, size=(1, grid.n_space, grid.n_vel))
    f0[:, -1, :] = f0[:, 0, :]
    integ, ip = LATTICE_RUNS["Euler1Lin"]
    scheme = SchemeConfig(integrator=integ, interp=ip, boundary=Boundary.PERIODIC, eps=math.inf)
    stepper = TimeStepper(f0, grid, Monatomic1V(), scheme)
    stepper.step(grid.dt_from_cfl("lattice"))
    expect = np.empty_like(f0)
    for j, jv in enumerate(grid.jv):
        src = (np.arange(grid.n_space) - jv) % grid.nx
        expect[0, :, j] = f0[0, src, j]
    assert np.array_equal(stepper.f, expect)


@pytest.mark.parametrize("integrator", list(DEFAULT_INTERP), ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["riemann", "riemann-chu", "smooth-chu"])
def test_free_molecular_lattice_march_is_exact(name, integrator):
    """With collisions disabled, every scheme at its default interpolation
    marches 12 lattice steps to the exact free-molecular field: the initial
    equilibrium carried along the characteristics, through freeflow and
    reflective boundaries, to round-off."""
    scen = load_scenario(name)
    grid = scen.grid(80)
    system = make_system(scen.model)
    scheme = SchemeConfig(integrator=integrator, interp=DEFAULT_INTERP[integrator],
                          boundary=scen.boundary, eps=math.inf)
    f0 = system.from_macro(*scen.initial_moments(grid.x, system.dof), grid)
    stepper = TimeStepper(f0, grid, system, scheme)
    dt = grid.dt_from_cfl("lattice")
    for _ in range(12):
        stepper.step(dt)
    exact, on_jump = free_molecular_field(scen, grid, system, 12 * dt)
    assert np.abs(stepper.f - exact)[:, ~on_jump].max() <= 1e-14 * np.abs(exact).max()


# ---------------------------------------------------------------------------
# 9. an interior optimal CFL exists, and better interpolation shifts it down
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_optimal_cfl_interior_minimum():
    """Sweeping the CFL number at eps = 1e-4 (smooth flow, t = 0.3, nx 160 vs
    320) gives an interior error minimum: the errors at the smallest and
    largest CFL exceed the minimum by at least 20%.  (~40 s: the CFL = 0.05
    runs take ~5000 steps.)"""
    rows = cfl_sweep("smooth", integrator="RK2", interp="weno23", eps=1e-4,
                     cfl_list=(0.05, 2.0, 4.0, 8.0, 20.0), nx=160, t_final=0.3)
    errs = [r["err_l2_rho"] for r in rows]
    e_min = min(errs)
    assert errs[0] >= 1.2 * e_min, f"low-CFL margin: {errs[0] / e_min:.3f}"
    assert errs[-1] >= 1.2 * e_min, f"high-CFL margin: {errs[-1] / e_min:.3f}"
    assert min(errs[0], errs[-1]) > e_min  # the minimum is interior


@pytest.mark.slow
def test_optimal_cfl_decreases_with_interpolation_order():
    """The more accurate 6-node interpolation moves the optimal CFL of the
    3-stage DIRK scheme to a value no larger than with the 4-node one."""
    grid_cfl = (1.0, 2.0, 4.0, 8.0)
    argmins = {}
    for interp in ("weno23", "weno35"):
        rows = cfl_sweep("smooth", integrator="RK3", interp=interp, eps=1e-4,
                         cfl_list=grid_cfl, nx=160, t_final=0.3)
        errs = [r["err_l2_rho"] for r in rows]
        argmins[interp] = grid_cfl[int(np.argmin(errs))]
    assert argmins["weno35"] <= argmins["weno23"], argmins


# ---------------------------------------------------------------------------
# 10. L-stability: one hugely stiff step lands on the Maxwellian
# ---------------------------------------------------------------------------
def test_l_stability_probe():
    """One step with dt/eps = 1e6 from a far-from-equilibrium state ends
    within 1e-5 relative moment-weighted distance of the target Maxwellian,
    for every scheme token and every lattice run."""
    grid = PhaseGrid(0.0, 1.0, 16, 20, 10.0)
    system = Monatomic1V()
    f0 = uniform_mixture_field(
        system, grid, ((0.5, 1.0, 1.5, 0.6), (0.5, 1.0, -1.5, 0.6))
    )
    target = system.equilibrium(system.moments(f0, grid), grid)
    weight = 1.0 + grid.v**2
    wnorm = float((np.abs(target[0]) * weight).sum())
    runs = [(integ.value, integ, Interp.WENO23, 1.0) for integ in Integrator]
    lattice_dt = grid.dt_from_cfl("lattice")
    runs += [(label, integ, ip, lattice_dt) for label, (integ, ip) in LATTICE_RUNS.items()]
    for token, integ, ip, dt in runs:
        scheme = SchemeConfig(integrator=integ, interp=ip,
                              boundary=Boundary.PERIODIC, eps=dt / 1e6)
        stepper = TimeStepper(f0, grid, system, scheme)
        stepper.step(dt)
        dist = float((np.abs(stepper.f[0] - target[0]) * weight).sum()) / wnorm
        assert dist <= 1e-5, f"{token}: distance {dist:.3e}"


# ---------------------------------------------------------------------------
# 11. reproducibility of the command-line output
# ---------------------------------------------------------------------------
def _run_cli(args, out_path):
    cmd = [sys.executable, "-m", "bgk_sl.cli", *args, "--out", str(out_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out_path, "rb") as fh:
        return fh.read()


def test_deterministic_csv_output(tmp_path):
    """Identical configurations produce bit-identical CSV files in separate
    processes."""
    base = ["run", "--scenario", "smooth", "--scheme", "RK3", "--interp", "weno35",
            "--eps", "1e-4", "--nx", "40", "--tfinal", "0.08"]
    first = _run_cli(base, tmp_path / "a.csv")
    second = _run_cli(base, tmp_path / "b.csv")
    assert first == second
