"""Velocity moments, Maxwellians and the implicit relaxation solve."""
import math

import numpy as np
import pytest

from bgk_sl import DegenerateStateError, PhaseGrid
from bgk_sl.moments import (
    maxwellian_rows,
    relaxation_solve,
    validate_positive,
    velocity_basis,
    velocity_moments,
)


@pytest.fixture
def grid():
    return PhaseGrid(0.0, 1.0, 8, 20, 10.0)


def test_maxwellian_moments_round_trip(grid):
    """Midpoint-rule moments of a resolved Maxwellian reproduce (rho, u, E)
    to near machine precision (spectral accuracy of the midpoint rule)."""
    rho0, u0, T0 = 1.3, 0.4, 0.9
    f = maxwellian_rows(*np.array([rho0, u0, T0]), velocity_basis(grid.v))
    rho, mom, energy = velocity_moments(f, grid.moment_weights)
    assert rho == pytest.approx(rho0, abs=1e-14)
    assert mom == pytest.approx(rho0 * u0, abs=1e-14)
    assert energy == pytest.approx(0.5 * rho0 * u0**2 + 0.5 * rho0 * T0, abs=1e-14)


def test_maxwellian_broadcasting(grid):
    rho = np.array([1.0, 2.0])
    u = np.array([0.0, 0.3])
    T = np.array([1.0, 0.8])
    basis = velocity_basis(grid.v)
    rows = maxwellian_rows(rho, u, T, basis)
    assert rows.shape == (2, grid.n_vel)
    assert np.allclose(rows[0], maxwellian_rows(*np.array([1.0, 0.0, 1.0]), basis))
    assert np.allclose(rows[1], maxwellian_rows(*np.array([2.0, 0.3, 0.8]), basis))


def test_velocity_moments_constant_data():
    grid = PhaseGrid(0.0, 1.0, 4, 3, 3.0)  # v = -3..3, dv = 1
    v = grid.v
    f = np.ones_like(v)
    rho, mom, energy = velocity_moments(f, grid.moment_weights)
    assert rho == pytest.approx(7.0)
    assert mom == pytest.approx(0.0)  # symmetric grid
    assert energy == pytest.approx(0.5 * np.sum(v**2))


def test_relaxation_solve_limits():
    f = np.array([1.0, 2.0, 3.0])
    m = np.array([2.0, 2.0, 2.0])
    # tau = 0: identity, bitwise
    assert np.array_equal(relaxation_solve(f, m, 0.0), f)
    # tau = 1: exact midpoint of the implicit formula
    assert np.allclose(relaxation_solve(f, m, 1.0), (f + m) / 2.0)
    # tau = inf: projection onto the equilibrium
    assert np.array_equal(relaxation_solve(f, m, np.inf), m)


def test_relaxation_solve_is_contraction():
    rng = np.random.default_rng(5)
    f = rng.uniform(0.1, 2.0, 32)
    m = rng.uniform(0.1, 2.0, 32)
    for tau in (0.1, 1.0, 1e3):
        out = relaxation_solve(f, m, tau)
        assert np.all(np.abs(out - m) <= np.abs(f - m) + 1e-15)


def test_validate_positive_reports_node():
    rho = np.array([1.0, 1.0, -0.5, 1.0])
    T = np.ones(4)
    with pytest.raises(DegenerateStateError) as err:
        validate_positive(rho, T)
    assert err.value.node == 2
    with pytest.raises(DegenerateStateError):
        validate_positive(np.ones(3), np.array([1.0, np.nan, 1.0]))


@pytest.mark.parametrize("bad", (np.nan, 0.0, -0.0, -0.5, -np.inf))
@pytest.mark.parametrize("which", ("rho", "T"))
def test_validate_positive_names_the_first_bad_node(which, bad):
    """NaN, zero and negative values in rho or T raise, naming the first bad
    node, alone and when a later node is bad in the other quantity."""
    state = {"rho": np.linspace(0.5, 2.0, 6), "T": np.linspace(1.0, 3.0, 6)}
    state[which][3] = bad
    for other in (None, "T" if which == "rho" else "rho"):
        if other is not None:
            state[other][5] = -1.0
        with pytest.raises(DegenerateStateError) as err:
            validate_positive(state["rho"], state["T"])
        assert err.value.node == 3 and "space node 3" in str(err.value)
    validate_positive(np.linspace(0.5, 2.0, 6), np.full(6, 5e-324))  # positive passes


def _nonequilibrium_rows(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.n_space
    rho = rng.uniform(0.5, 2.0, (n, 1))
    u = rng.uniform(-1.0, 1.0, (n, 1))
    T = rng.uniform(0.3, 2.0, (n, 1))
    f = rng.uniform(0.0, 1.0, (n, grid.n_vel))
    return rho, u, T, f


def test_maxwellian_agrees_with_textbook_expression(grid):
    """The product form exp(C @ [1; v; v^2]) agrees with the textbook
    expression to 32 ulp * (1 + u^2/T) relative where the row is above
    1e-6 of its peak (measured: 16.7 ulp), and to 4 ulp * (1 + u^2/T)
    of the row's peak everywhere (measured: 0.9 ulp); both forms carry
    round-off.  The temperatures scaled by 0.7 reach down to T = 0.21."""
    rho, u, T, _ = _nonequilibrium_rows(grid, 41)
    v = grid.v[None, :]
    basis = velocity_basis(grid.v)
    eps = np.finfo(float).eps
    for scale in (1.0, 0.7):
        theta = scale * T
        expect = rho / np.sqrt(2.0 * np.pi * theta) * np.exp(-((v - u) ** 2) / (2.0 * theta))
        got = maxwellian_rows(rho[:, 0], u[:, 0], theta[:, 0], basis)
        ulps = eps * (1.0 + u**2 / theta)
        peak = expect.max(axis=-1, keepdims=True)
        bulk = expect > 1e-6 * peak
        assert np.all((np.abs(got - expect) <= 32.0 * ulps * expect)[bulk])
        assert np.all(np.abs(got - expect) <= 4.0 * ulps * peak)
        out = np.empty(expect.shape)
        assert maxwellian_rows(rho[:, 0], u[:, 0], theta[:, 0], basis, out=out) is out
        assert np.array_equal(out, got)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs extended precision"
)
@pytest.mark.parametrize(
    "umax, Tmin, Tmax, k_bulk, k_moment",
    [
        pytest.param(0.3, 0.5, 2.0, 32.0, 8.0, id="low-mach"),
        pytest.param(1.5, 1.0 / 6.0, 2.0, 32.0, 8.0, id="shock-tube"),
        pytest.param(5.0, 0.05, 1.0, 32.0, 8.0, id="high-mach"),
    ],
)
def test_maxwellian_round_off_against_extended_precision(umax, Tmin, Tmax, k_bulk, k_moment):
    """Against the textbook expression in np.longdouble, a value above 1e-6
    of its row's peak is within k_bulk ulp * (1 + u^2/(R T)) relative, and
    each discrete moment dv*sum W_k M within k_moment ulp * (1 + u^2/(R T))
    of dv*sum |W_k| M.  Measured over 401 rows (in units of
    ulp * (1 + u^2/(R T)), low / shock-tube / high Mach): values
    13.3 / 11.2 / 11.5, moments 2.1 / 1.8 / 1.8; the textbook form in
    float64 reads 20.1 / 20.8 / 10.4 on the values.  In absolute terms the
    high-Mach rows lose about one digit to the product form: bulk 6.0e-14
    relative against 4.2e-15, moment error over rho 2.4e-13 against 2.3e-15."""
    grid = PhaseGrid(0.0, 1.0, 400, 48, 12.0)
    rng = np.random.default_rng(7)
    n = grid.n_space
    R = 0.7  # the rows are at temperature R T, as for a gas constant R
    rho = rng.uniform(0.1, 2.0, (n, 1))
    u = rng.uniform(-umax, umax, (n, 1))
    T = rng.uniform(Tmin, Tmax, (n, 1))
    got = maxwellian_rows(rho[:, 0], u[:, 0], (R * T)[:, 0], velocity_basis(grid.v))
    L = np.longdouble
    theta = L(R) * T.astype(L)
    pec = grid.v.astype(L)[None, :] - u.astype(L)
    ref = rho.astype(L) / np.sqrt(2 * L(np.pi) * theta) * np.exp(-(pec**2) / (2 * theta))
    eps = np.finfo(float).eps
    mach = 1.0 + u**2 / (R * T)
    bulk = ref > 1e-6 * ref.max(axis=-1, keepdims=True)
    rel = np.abs(got.astype(L) - ref) / ref
    assert np.all((rel <= k_bulk * eps * mach)[bulk])
    W = grid.moment_weights.astype(L)
    moment_err = np.abs(got.astype(L) @ W - ref @ W)
    assert np.all(moment_err <= k_moment * eps * mach * (ref @ np.abs(W)))


def test_velocity_moments_equal_textbook_sums_bitwise(grid):
    """Small-integer f on a dyadic dv: every product and partial sum is exact,
    so the one-product moments equal the textbook sums in any summation order."""
    assert grid.dv == 0.5
    f = np.random.default_rng(42).integers(-7, 8, (grid.n_space, grid.n_vel)).astype(float)
    v, dv = grid.v, grid.dv
    rho, mom, energy = velocity_moments(f, grid.moment_weights)
    assert np.array_equal(rho, dv * f.sum(axis=-1))
    assert np.array_equal(mom, dv * (f * v).sum(axis=-1))
    assert np.array_equal(energy, 0.5 * dv * (f * v * v).sum(axis=-1))


def test_velocity_moments_within_dot_product_bound_of_exact_sums(grid):
    """On random data each moment is within the dot-product bound
    n*u*sum_j |f_j w_j| (u = 2^-53, the unit round-off) of the exact sum,
    taken by math.fsum.  Two more units of u cover the reference's own
    rounded products and its final rounding."""
    # Two signed components, as the Chu pair passes them: momentum sums cancel.
    f = np.random.default_rng(42).uniform(-0.5, 1.0, (2, grid.n_space, grid.n_vel))
    w = grid.moment_weights
    assert w.flags.c_contiguous and w.shape == (grid.n_vel, 3)
    got = np.stack(velocity_moments(f, w), axis=-1)
    bound = (grid.n_vel + 2) * np.finfo(float).eps / 2.0
    for row, sums in zip(f.reshape(-1, grid.n_vel), got.reshape(-1, 3)):
        for k in range(3):
            terms = row * w[:, k]
            assert abs(sums[k] - math.fsum(terms)) <= bound * np.abs(terms).sum()


def test_relaxation_solve_equals_textbook_and_keeps_inputs(grid):
    """The solve is (f + tau*M) times the scalar 1/(1 + tau), bit for bit, in
    a new array, and touches neither input."""
    _, _, _, f = _nonequilibrium_rows(grid, 43)
    m = np.flip(f, axis=-1).copy()
    f_saved, m_saved = f.copy(), m.copy()
    for tau in (0.0, 1e-3, 0.6, 7.0, 1e8, np.float64(2.5), 3):
        out = relaxation_solve(f, m, tau)
        assert np.array_equal(out, (f + tau * m) * (1.0 / (1.0 + tau)))
        assert not np.shares_memory(out, f) and not np.shares_memory(out, m)
    out = relaxation_solve(f, m, np.inf)
    assert np.array_equal(out, m) and not np.shares_memory(out, m)
    assert np.array_equal(f, f_saved) and np.array_equal(m, m_saved)


def test_relaxation_solve_into_out_equals_a_new_result_bitwise(grid):
    """out= writes the same bits as a new result, into a separate buffer or
    over the equilibrium itself, and leaves f untouched."""
    _, _, _, f = _nonequilibrium_rows(grid, 46)
    m = np.flip(f, axis=-1).copy()
    f_saved = f.copy()
    for tau in (0.0, 0.6, 1e8, np.inf):
        expect = relaxation_solve(f, m, tau)
        buf = np.empty_like(m)
        assert relaxation_solve(f, m, tau, out=buf) is buf
        assert np.array_equal(buf, expect)
        m_eq = m.copy()
        assert relaxation_solve(f, m_eq, tau, out=m_eq) is m_eq
        assert np.array_equal(m_eq, expect)
    assert np.array_equal(f, f_saved)
