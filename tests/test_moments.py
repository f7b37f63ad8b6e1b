"""Velocity moments, Maxwellians and the implicit relaxation solve."""
import math

import numpy as np
import pytest

from bgk_sl import DegenerateStateError, PhaseGrid
from bgk_sl.moments import (
    maxwellian,
    relaxation_solve,
    validate_positive,
    velocity_moments,
)


@pytest.fixture
def grid():
    return PhaseGrid(0.0, 1.0, 8, 20, 10.0)


def test_maxwellian_moments_round_trip(grid):
    """Midpoint-rule moments of a resolved Maxwellian reproduce (rho, u, E)
    to near machine precision (spectral accuracy of the midpoint rule)."""
    rho0, u0, T0 = 1.3, 0.4, 0.9
    f = maxwellian(rho0, u0, T0, grid.v)
    rho, mom, energy = velocity_moments(f, grid.moment_weights)
    assert rho == pytest.approx(rho0, abs=1e-14)
    assert mom == pytest.approx(rho0 * u0, abs=1e-14)
    assert energy == pytest.approx(0.5 * rho0 * u0**2 + 0.5 * rho0 * T0, abs=1e-14)


def test_maxwellian_broadcasting(grid):
    rho = np.array([1.0, 2.0])[:, None]
    u = np.array([0.0, 0.3])[:, None]
    T = np.array([1.0, 0.8])[:, None]
    rows = maxwellian(rho, u, T, grid.v[None, :])
    assert rows.shape == (2, grid.n_vel)
    assert np.allclose(rows[0], maxwellian(1.0, 0.0, 1.0, grid.v))
    assert np.allclose(rows[1], maxwellian(2.0, 0.3, 0.8, grid.v))


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


def test_maxwellian_equals_textbook_expression_bitwise(grid):
    rho, u, T, _ = _nonequilibrium_rows(grid, 41)
    v = grid.v[None, :]
    for R in (1.0, 0.7):
        theta = R * T
        expect = rho / np.sqrt(2.0 * np.pi * theta) * np.exp(-((v - u) ** 2) / (2.0 * theta))
        assert np.array_equal(maxwellian(rho, u, T, v, R), expect)
        out = np.empty(expect.shape)
        assert maxwellian(rho, u, T, v, R, out=out) is out
        assert np.array_equal(out, expect)
    # rho broadcasting wider than v - u still gets a buffer of the full shape
    assert maxwellian(rho, 0.0, 1.0, grid.v).shape == (grid.n_space, grid.n_vel)


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
    _, _, _, f = _nonequilibrium_rows(grid, 43)
    m = np.flip(f, axis=-1).copy()
    f_saved, m_saved = f.copy(), m.copy()
    for tau in (0.0, 1e-3, 0.6, 7.0, 1e8, np.float64(2.5), 3):
        out = relaxation_solve(f, m, tau)
        assert np.array_equal(out, (f + tau * m) / (1.0 + tau))
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
