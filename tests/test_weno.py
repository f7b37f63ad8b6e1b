"""Pointwise interpolation kernels: exactness, indicators, plans, robustness."""
import numpy as np
import pytest

from bgk_sl import ConfigError, Interp
from bgk_sl.weno import (
    GHOST_WIDTH,
    Interpolator,
    linear_interp,
    weno23_interp,
    weno35_interp,
)

from conftest import fitted_slope, smoothness_indicators as _betas


# ---------------------------------------------------------------------------
# smoothness indicators: frozen values of the defining Sobolev-seminorm
# integrals (sum over derivative orders of the squared stencil-polynomial
# derivatives over the evaluation cell), computed symbolically
# ---------------------------------------------------------------------------
def test_beta_quadratic_oracle_values():
    # left stencil nodes (-1, 0, 1) with values (1, 3, 2)
    assert _betas(Interp.WENO23, [1.0, 3.0, 2.0, 9.0])[0] == pytest.approx(43.0 / 4.0, rel=1e-15)
    # right stencil nodes (0, 1, 2) with values (1, 3, 2)
    assert _betas(Interp.WENO23, [9.0, 1.0, 3.0, 2.0])[1] == pytest.approx(55.0 / 4.0, rel=1e-15)


def test_beta_cubic_oracle_values():
    left, centre, right = range(3)
    # right-biased stencil nodes (0, 1, 2, 3) with values (1, 2, 5, 3)
    assert _betas(Interp.WENO35, [7.0, -4.0, 1.0, 2.0, 5.0, 3.0])[right] == pytest.approx(
        7823.0 / 90.0, rel=1e-14
    )
    # left-biased stencil nodes (-2, -1, 0, 1) with values (1, 2, 5, 3)
    assert _betas(Interp.WENO35, [1.0, 2.0, 5.0, 3.0, 7.0, -4.0])[left] == pytest.approx(
        6094.0 / 45.0, rel=1e-14
    )
    # centered stencil nodes (-1, 0, 1, 2) with values (1, 2, 5, 3)
    assert _betas(Interp.WENO35, [7.0, 1.0, 2.0, 5.0, 3.0, -4.0])[centre] == pytest.approx(
        5813.0 / 90.0, rel=1e-14
    )
    # second data set, (-2, 0, 1, 7) on each stencil's nodes
    assert _betas(Interp.WENO35, [0.0, 0.0, -2.0, 0.0, 1.0, 7.0])[right] == pytest.approx(
        3623.0 / 60.0, rel=1e-14
    )
    assert _betas(Interp.WENO35, [-2.0, 0.0, 1.0, 7.0, 0.0, 0.0])[left] == pytest.approx(
        8663.0 / 60.0, rel=1e-14
    )
    assert _betas(Interp.WENO35, [0.0, -2.0, 0.0, 1.0, 7.0, 0.0])[centre] == pytest.approx(
        2663.0 / 60.0, rel=1e-14
    )


def test_beta_center_is_palindromic():
    """Mirroring the data across the evaluation cell leaves the centered
    indicator unchanged (the stencil is symmetric about the cell) and swaps
    the left and right ones."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c, d, e, f = rng.normal(size=6)
        left, centre, right = _betas(Interp.WENO35, [a, b, c, d, e, f])
        m_left, m_centre, m_right = _betas(Interp.WENO35, [f, e, d, c, b, a])
        assert centre == m_centre
        assert (left, right) == (m_right, m_left)


# ---------------------------------------------------------------------------
# smooth-data blends reproduce the full-stencil interpolants
# ---------------------------------------------------------------------------
def _lagrange_eval(xs, ys, x):
    out = np.zeros_like(np.asarray(x, dtype=float))
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        li = np.ones_like(out)
        for j, xj in enumerate(xs):
            if j != i:
                li *= (x - xj) / (xi - xj)
        out += yi * li
    return out


def test_weno23_smooth_blend_is_cubic():
    """With the indicators flattened by a huge eps the 4-node blend equals
    the cubic interpolant through all four nodes."""
    rng = np.random.default_rng(4)
    vals = rng.normal(size=8)
    pts = rng.uniform(2.0, 3.0, 50)  # anchor cell [2, 3]
    got = weno23_interp(vals, pts, x0=0.0, dx=1.0, eps=1e15)
    expect = _lagrange_eval([1.0, 2.0, 3.0, 4.0], vals[1:5], pts)
    assert np.allclose(got, expect, atol=1e-10)


def test_weno35_smooth_blend_is_quintic():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=9)
    pts = rng.uniform(3.0, 4.0, 50)  # anchor cell [3, 4]
    got = weno35_interp(vals, pts, x0=0.0, dx=1.0, eps=1e15)
    expect = _lagrange_eval([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vals[1:7], pts)
    assert np.allclose(got, expect, atol=1e-10)


def test_linear_interp_exact_on_lines():
    vals = 3.0 - 2.0 * np.arange(6) * 0.5
    pts = np.array([0.1, 0.6, 1.45, 2.3])
    got = linear_interp(vals, pts, x0=0.0, dx=0.5)
    assert np.allclose(got, 3.0 - 2.0 * pts, atol=1e-14)


def test_node_values_reproduced_exactly():
    """Evaluating at the nodes themselves returns the node data for every
    kind (all candidate stencil polynomials pass through the shared nodes)."""
    rng = np.random.default_rng(6)
    vals = rng.normal(size=12)
    nodes = np.arange(12, dtype=float)
    inner = nodes[3:-4]
    for fn in (linear_interp, weno23_interp, weno35_interp):
        got = fn(vals, inner, 0.0, 1.0)
        assert np.allclose(got, vals[3:-4], atol=1e-12)


# ---------------------------------------------------------------------------
# non-oscillation near discontinuities
# ---------------------------------------------------------------------------
def test_weno_step_data_overshoot_is_tiny():
    """Interpolating a step stays essentially inside the data range, unlike
    the smooth-blend (high-order linear-weight) interpolants."""
    n, dx = 40, 0.025
    nodes = np.arange(n + 1) * dx
    step = (nodes > 0.5).astype(float)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.3, 0.7, 1000)
    for fn in (weno23_interp, weno35_interp):
        vals = fn(step, pts, 0.0, dx)
        overshoot = max(vals.max() - 1.0, -vals.min())
        assert overshoot <= 1e-10, overshoot
    # the flattened-indicator (pure high-order) blend does overshoot
    smooth = weno35_interp(step, pts, 0.0, dx, eps=1e12)
    assert max(smooth.max() - 1.0, -smooth.min()) > 1e-2


# ---------------------------------------------------------------------------
# refinement slopes of single applications
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "fn,design",
    [(linear_interp, 2.0), (weno23_interp, 4.0), (weno35_interp, 6.0)],
)
def test_single_application_refinement_slopes(fn, design):
    """One interpolation pass converges at the order of the full stencil
    (smooth data activates the smooth-limit weights): 2, 4 and 6 nodes."""
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.2, 0.8, 400)
    f = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
    errs = []
    ns = [16, 32, 64, 128, 256]
    for n in ns:
        dx = 1.0 / n
        vals = f(np.arange(n + 1) * dx)
        errs.append(np.max(np.abs(fn(vals, pts, 0.0, dx) - f(pts))))
    slope = -fitted_slope(ns, errs)
    assert abs(slope - design) <= 0.75, (slope, errs)


# ---------------------------------------------------------------------------
# plans, batching and input validation
# ---------------------------------------------------------------------------
def test_plan_matches_one_shot_evaluation():
    """A plan for rigidly shifted rows of points gives, bit for bit, the
    one-shot pointwise values at those points (one kernel serves both), for
    every component of a stacked field and on repeated application."""
    rng = np.random.default_rng(10)
    n_nodes, ncols, rows = 30, 7, 11
    data = rng.normal(size=(2, n_nodes, ncols))
    cell = rng.integers(3, 15, ncols)
    t = rng.integers(0, 64, ncols) / 64.0  # dyadic: cell + t + i is exact
    pts = cell[None, :] + t[None, :] + np.arange(rows)[:, None]
    for kind in (Interp.LINEAR, Interp.WENO23, Interp.WENO35):
        interp = Interpolator(kind)
        plan = interp.plan((n_nodes, ncols), cell, t, rows=rows)
        got = plan.apply(data)
        assert got.shape == (2, rows, ncols)
        for comp in range(2):
            assert np.array_equal(got[comp], interp(data[comp], pts, x0=0.0, dx=1.0))
        assert np.array_equal(plan.apply(data), got)
        assert np.array_equal(plan.apply(data[1]), got[1])


def test_batch_columns_match_single_columns():
    rng = np.random.default_rng(12)
    data = rng.normal(size=(20, 4))
    pts = rng.uniform(3.0, 16.0, size=(9, 4))
    batched = weno35_interp(data, pts, 0.0, 1.0)
    for c in range(4):
        single = weno35_interp(data[:, c], pts[:, c], 0.0, 1.0)
        assert np.allclose(batched[:, c], single, atol=1e-15)


def test_plan_shape_validation():
    interp = Interpolator(Interp.WENO23)
    plan = interp.plan((20, 2), np.array([10, 10]), np.array([0.5, 0.5]), rows=3)
    with pytest.raises(ValueError):
        plan.apply(np.zeros((20, 3)))  # wrong column count
    with pytest.raises(ValueError):
        interp.plan((20, 2), np.array([10, 16]), np.array([0.5, 0.5]), rows=3)  # past the end
    with pytest.raises(ValueError):
        interp.plan((20, 2), np.array([0, 10]), np.array([0.5, 0.5]))  # before the start
    with pytest.raises(ValueError):
        interp.plan((20, 2), np.array([10, 10]), np.array([0.5]))  # rows of unequal length
    source = np.arange(40).reshape(20, 2)
    with pytest.raises(ValueError):  # a source index past the data
        interp.plan((20, 2), np.array([10, 10]), np.array([0.5, 0.5]), rows=3, source=source + 1)
    with pytest.raises(ValueError):  # windows past the source plane's nodes
        interp.plan((20, 2), np.array([10, 16]), np.array([0.5, 0.5]), rows=3, source=source)


def test_out_of_range_points_rejected():
    vals = np.zeros(10)
    for fn in (linear_interp, weno23_interp, weno35_interp):
        # beyond the last stencil-reachable cell
        with pytest.raises(ValueError):
            fn(vals, np.array([11.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            fn(vals, np.array([-2.0]), 0.0, 1.0)


def test_ghost_width_per_kind():
    assert GHOST_WIDTH[Interp.LINEAR] == 1
    assert GHOST_WIDTH[Interp.WENO23] == 2
    assert GHOST_WIDTH[Interp.WENO35] == 3
    with pytest.raises(ConfigError):
        Interpolator(Interp.NONE)
