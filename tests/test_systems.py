"""Kinetic systems: the plain 1V gas and the reduced two-component 3V gas."""
import numpy as np
import pytest

from bgk_sl import ChuReduced3V, DegenerateStateError, Monatomic1V, PhaseGrid
from bgk_sl.moments import maxwellian_rows, velocity_basis


@pytest.fixture
def grid():
    return PhaseGrid(-1.0, 1.0, 12, 20, 10.0)


@pytest.mark.parametrize("system", [Monatomic1V(), ChuReduced3V()])
def test_from_macro_moments_round_trip(system, grid):
    rho0 = 1.0 + 0.3 * np.sin(np.pi * grid.x)
    u0 = 0.2 * np.cos(np.pi * grid.x)
    T0 = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
    f = system.from_macro(rho0, u0, T0, grid)
    assert f.shape == (system.n_components, grid.n_space, grid.n_vel)
    mom = system.moments(f, grid)
    assert np.allclose(mom.rho, rho0, atol=1e-12)
    assert np.allclose(mom.u, u0, atol=1e-12)
    assert np.allclose(mom.T, T0, atol=1e-12)
    # total energy carries dof/2 * rho * T of internal energy
    expected_E = 0.5 * rho0 * u0**2 + 0.5 * system.dof * rho0 * T0
    assert np.allclose(mom.E, expected_E, atol=1e-12)


def test_gamma_and_dof():
    assert Monatomic1V().gamma == 3.0
    assert Monatomic1V().dof == 1
    assert ChuReduced3V().gamma == pytest.approx(5.0 / 3.0)
    assert ChuReduced3V().dof == 3


def test_chu_equilibrium_pair_identity(grid):
    """The transverse equilibrium component is 2 T times the longitudinal
    Maxwellian, which makes the paired temperature identity exact."""
    system = ChuReduced3V()
    f = system.from_macro(1.2, 0.3, 0.9, grid)
    assert np.allclose(f[1], 2.0 * 0.9 * f[0], rtol=1e-14)
    # second-component mass supplies the transverse thermal energy: 2 rho T
    assert grid.dv * f[1].sum(axis=-1) == pytest.approx(2.0 * 1.2 * 0.9, abs=1e-12)


def test_chu_temperature_splits_longitudinal_and_transverse(grid):
    """Scaling only the transverse component shifts T by exactly 2/3 of the
    scaling of its mass (the longitudinal part contributes the other third)."""
    system = ChuReduced3V()
    f = system.from_macro(1.0, 0.0, 1.0, grid)
    base = system.moments(f, grid)
    f2 = f.copy()
    f2[1] *= 1.3
    warmed = system.moments(f2, grid)
    assert np.allclose(warmed.rho, base.rho)
    assert np.allclose(warmed.u, base.u)
    assert np.allclose(warmed.T, (1.0 + 2.0 * 0.3 / 3.0) * base.T, rtol=1e-12)


def test_check_field_shape(grid):
    with pytest.raises(ValueError):
        Monatomic1V().check_field(np.zeros((1, 3, 3)), grid)
    with pytest.raises(ValueError):
        ChuReduced3V().check_field(np.zeros((1, grid.n_space, grid.n_vel)), grid)


def test_moments_uniform_velocity_shift(grid):
    """A bulk-velocity shift that lands on velocity nodes moves u exactly and
    leaves rho and T unchanged (Galilean shift on the discrete grid)."""
    system = Monatomic1V()
    f = system.from_macro(1.0, 0.0, 1.0, grid)
    shifted = np.roll(f, 2, axis=-1)  # +2 velocity nodes = +2*dv bulk shift
    shifted[..., :2] = 0.0
    mom = system.moments(shifted, grid)
    assert np.allclose(mom.u, 2 * grid.dv, atol=1e-12)
    assert np.allclose(mom.rho, 1.0, atol=1e-12)
    assert np.allclose(mom.T, 1.0, atol=1e-10)


def _exact_chu_field(grid, seed):
    """Small-integer components on a dyadic dv whose g1 rows sum to 128, so
    u is dyadic too: every product and partial sum of the moments is exact."""
    assert grid.dv == 0.5
    rng = np.random.default_rng(seed)
    f = rng.integers(1, 4, (2, grid.n_space, grid.n_vel)).astype(float)
    f[0, :, grid.nv] += 128.0 - f[0].sum(axis=-1)
    return f


def test_chu_moments_and_equilibrium_equal_textbook_expressions_bitwise(grid):
    """On exact data the one-product Chu moments equal the textbook
    expressions bit for bit in any summation order, and the equilibrium pair
    is the 1D Maxwellian rows g1 and g2 = 2 R T g1, bit for bit."""
    system = ChuReduced3V()
    f = _exact_chu_field(grid, 44)
    g1, g2 = f
    v, dv = grid.v, grid.dv
    rho = dv * g1.sum(axis=-1)
    u = dv * (g1 * v).sum(axis=-1) / rho
    pec2 = (v[None, :] - u[:, None]) ** 2
    T = (dv * (pec2 * g1).sum(axis=-1) + dv * g2.sum(axis=-1)) / (3.0 * rho)
    mom = system.moments(f, grid)
    assert np.array_equal(mom.rho, rho) and np.array_equal(mom.u, u)
    assert np.array_equal(mom.T, T)
    m1 = maxwellian_rows(rho, u, T, velocity_basis(v))
    eq = system.equilibrium(mom, grid)
    assert np.array_equal(eq, np.stack([m1, 2.0 * T[:, None] * m1]))


@pytest.mark.parametrize("system", [Monatomic1V(), ChuReduced3V()])
def test_moments_without_validation_return_negative_temperature(system, grid):
    """validate=False reports the moments of a degenerate field (negative
    energy content, so T < 0) where validation raises."""
    f = np.zeros((system.n_components, grid.n_space, grid.n_vel))
    f[0, :, grid.nv] = 1.0  # unit density at rest
    if system.n_components == 2:
        f[1, :, grid.nv] = -1.0  # negative transverse energy
    else:
        f[0, :, grid.nv - 1] = f[0, :, grid.nv + 1] = -0.1  # negative energy
    with pytest.raises(DegenerateStateError):
        system.moments(f, grid)
    mom = system.moments(f, grid, validate=False)
    rho = grid.dv * f[0].sum(axis=-1)
    assert np.all(rho > 0.0) and np.allclose(mom.rho, rho)
    assert np.all(mom.T < 0.0)
    assert np.allclose(mom.u, 0.0)
