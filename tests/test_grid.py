"""Phase-space grid and time-control bookkeeping."""
import math

import numpy as np
import pytest

from bgk_sl import ConfigError, PhaseGrid, TimeControl
from bgk_sl.grid import MAX_STEPS


def test_space_nodes_span_domain():
    grid = PhaseGrid(-1.0, 1.0, 40, 20, 10.0)
    assert grid.n_space == 41
    assert grid.dx == pytest.approx(0.05)
    assert grid.x[0] == -1.0
    assert grid.x[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(grid.x), grid.dx)


def test_velocity_nodes_symmetric_with_zero():
    grid = PhaseGrid(0.0, 1.0, 8, 5, 10.0)
    assert grid.n_vel == 11
    assert grid.dv == pytest.approx(2.0)
    assert grid.v[grid.nv] == 0.0
    # exact antisymmetry (integer indices times dv)
    assert np.array_equal(grid.v, -grid.v[::-1])
    assert grid.v[-1] == 10.0 and grid.v[0] == -10.0
    assert np.array_equal(grid.jv, np.arange(-5, 6))


def test_cfl_dt_round_trip():
    grid = PhaseGrid(-1.0, 1.0, 40, 20, 10.0)
    dt = grid.dt_from_cfl(4.0)
    assert dt == pytest.approx(4.0 * grid.dx / grid.vmax)
    assert dt * grid.vmax / grid.dx == pytest.approx(4.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x0=0.0, x1=1.0, nx=3, nv=5, vmax=1.0),   # nx too small
        dict(x0=0.0, x1=1.0, nx=8, nv=0, vmax=1.0),   # nv too small
        dict(x0=0.0, x1=1.0, nx=8, nv=5, vmax=0.0),   # vmax not positive
        dict(x0=1.0, x1=0.0, nx=8, nv=5, vmax=1.0),   # reversed domain
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ConfigError):
        PhaseGrid(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(x0=0.0, x1=1.0, vmax=math.inf), "vmax"),
        (dict(x0=0.0, x1=1.0, vmax=math.nan), "vmax"),
        (dict(x0=0.0, x1=math.inf, vmax=1.0), "x1"),
        (dict(x0=-math.inf, x1=1.0, vmax=1.0), "x0"),
        (dict(x0=math.nan, x1=1.0, vmax=1.0), "x0"),
    ],
)
def test_grid_refuses_non_finite_bounds(kwargs, field):
    """An infinite vmax or domain end would give dx or dv of inf or 0, and a
    step-size error that names neither."""
    with pytest.raises(ConfigError, match=f"{field}.*finite"):
        PhaseGrid(nx=8, nv=5, **kwargs)


def test_time_control_exact_multiple():
    tc = TimeControl(dt=0.1, t_final=0.5)
    assert tc.n_full == 5
    assert not tc.has_short_step
    assert tc.n_steps == 5
    assert sum(tc.steps()) == pytest.approx(0.5)


def test_time_control_computed_dt_reproduces_step_count():
    # dt = t_final / n carries rounding; the splitter must still see n steps
    n = 7
    tc = TimeControl(dt=0.32 / n, t_final=0.32)
    assert tc.n_steps == n
    assert not tc.has_short_step


def test_time_control_short_final_step():
    tc = TimeControl(dt=0.15, t_final=0.4)
    assert tc.n_full == 2
    assert tc.has_short_step
    assert tc.dt_last == pytest.approx(0.1)
    steps = list(tc.steps())
    assert len(steps) == tc.n_steps == 3
    assert sum(steps) == pytest.approx(0.4)


def test_time_control_validation():
    with pytest.raises(ConfigError):
        TimeControl(dt=0.0, t_final=1.0)
    with pytest.raises(ConfigError):
        TimeControl(dt=0.1, t_final=-1.0)
    for dt, t_final in ((np.inf, 1.0), (np.nan, 1.0), (0.1, np.inf), (0.1, np.nan)):
        with pytest.raises(ConfigError):
            TimeControl(dt=dt, t_final=t_final)


@pytest.mark.parametrize(
    "dt, t_final",
    [
        (1e-300, 1e300),  # t_final/dt overflows to inf: int(round(inf)) would raise
        (1e-3, 1e300),  # finite, but a march without end
        (1.0, 2.0 * MAX_STEPS),
    ],
)
def test_time_control_refuses_step_counts_above_the_bound(dt, t_final):
    with pytest.raises(ConfigError, match="steps"):
        TimeControl(dt=dt, t_final=t_final)


def test_time_control_accepts_the_step_bound_itself():
    tc = TimeControl(dt=1.0, t_final=float(MAX_STEPS))
    assert tc.n_steps == MAX_STEPS and not tc.has_short_step
