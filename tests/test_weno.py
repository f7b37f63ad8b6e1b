"""Interpolation kernel: indicators and values against an independent
reference, exactness, non-oscillation, plans and their validation.

Points are given to the kernel as (cell, t) rows of a plan; the reference of
conftest (Vandermonde stencils, textbook weights, quadrature indicators)
shares no code with it."""
import numpy as np
import pytest

from bgk_sl import ConfigError, Interp, weno
from bgk_sl.weno import GHOST_WIDTH, Interpolator

from conftest import (
    cells,
    fitted_slope,
    interpolate_at,
    reference_indicators,
    reference_interp,
    smoothness_indicators as _betas,
    window_offsets,
)

KINDS = (Interp.LINEAR, Interp.WENO23, Interp.WENO35)


# ---------------------------------------------------------------------------
# smoothness indicators: frozen values of the defining Sobolev-seminorm
# integrals (sum over derivative orders of the squared stencil-polynomial
# derivatives over the evaluation cell), computed symbolically
# ---------------------------------------------------------------------------
def test_beta_quadratic_oracle_values():
    """The kernel's difference-form indicators and the reference's quadrature
    both give the exact rationals."""
    for betas in (_betas, reference_indicators):
        _check_quadratic_betas(betas)


def test_beta_cubic_oracle_values():
    for betas in (_betas, reference_indicators):
        _check_cubic_betas(betas)


def _check_quadratic_betas(betas):
    # left stencil nodes (-1, 0, 1) with values (1, 3, 2)
    assert betas(Interp.WENO23, [1.0, 3.0, 2.0, 9.0])[0] == pytest.approx(43.0 / 4.0, rel=1e-15)
    # right stencil nodes (0, 1, 2) with values (1, 3, 2)
    assert betas(Interp.WENO23, [9.0, 1.0, 3.0, 2.0])[1] == pytest.approx(55.0 / 4.0, rel=1e-15)


def _check_cubic_betas(betas):
    left, centre, right = range(3)
    # right-biased stencil nodes (0, 1, 2, 3) with values (1, 2, 5, 3)
    assert betas(Interp.WENO35, [7.0, -4.0, 1.0, 2.0, 5.0, 3.0])[right] == pytest.approx(
        7823.0 / 90.0, rel=1e-14
    )
    # left-biased stencil nodes (-2, -1, 0, 1) with values (1, 2, 5, 3)
    assert betas(Interp.WENO35, [1.0, 2.0, 5.0, 3.0, 7.0, -4.0])[left] == pytest.approx(
        6094.0 / 45.0, rel=1e-14
    )
    # centered stencil nodes (-1, 0, 1, 2) with values (1, 2, 5, 3)
    assert betas(Interp.WENO35, [7.0, 1.0, 2.0, 5.0, 3.0, -4.0])[centre] == pytest.approx(
        5813.0 / 90.0, rel=1e-14
    )
    # second data set, (-2, 0, 1, 7) on each stencil's nodes
    assert betas(Interp.WENO35, [0.0, 0.0, -2.0, 0.0, 1.0, 7.0])[right] == pytest.approx(
        3623.0 / 60.0, rel=1e-14
    )
    assert betas(Interp.WENO35, [-2.0, 0.0, 1.0, 7.0, 0.0, 0.0])[left] == pytest.approx(
        8663.0 / 60.0, rel=1e-14
    )
    assert betas(Interp.WENO35, [0.0, -2.0, 0.0, 1.0, 7.0, 0.0])[centre] == pytest.approx(
        2663.0 / 60.0, rel=1e-14
    )


def test_indicators_add_eps_once():
    """The kernel folds eps into the shared d0^2 term: every indicator it
    returns is beta_k + eps, not beta_k + k * eps."""
    eps = 1e-6
    assert _betas(Interp.WENO23, [1.0, 3.0, 2.0, 9.0], eps)[0] == pytest.approx(
        43.0 / 4.0 + eps, rel=1e-15
    )
    plain = _betas(Interp.WENO35, [0.0, -2.0, 0.0, 1.0, 7.0, 0.0])
    shifted = _betas(Interp.WENO35, [0.0, -2.0, 0.0, 1.0, 7.0, 0.0], eps)
    assert shifted[1] == pytest.approx(2663.0 / 60.0 + eps, rel=1e-15)
    assert shifted == pytest.approx([b + eps for b in plain], rel=1e-15)


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
    got = interpolate_at(Interpolator(Interp.WENO23, 1e15), vals, *cells(pts))
    expect = _lagrange_eval([1.0, 2.0, 3.0, 4.0], vals[1:5], pts)
    assert np.allclose(got, expect, atol=1e-10)


def test_weno35_smooth_blend_is_quintic():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=9)
    pts = rng.uniform(3.0, 4.0, 50)  # anchor cell [3, 4]
    got = interpolate_at(Interpolator(Interp.WENO35, 1e15), vals, *cells(pts))
    expect = _lagrange_eval([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vals[1:7], pts)
    assert np.allclose(got, expect, atol=1e-10)


@pytest.mark.parametrize("kind", (Interp.WENO23, Interp.WENO35))
def test_reference_smooth_blend_is_the_window_interpolant(kind):
    """The reference checks itself: with the indicators flattened, its linear
    weights blend the candidate polynomials into the interpolant through every
    node of the window."""
    rng = np.random.default_rng(14)
    offsets = window_offsets(kind)
    windows = rng.normal(size=(50, offsets.size))
    t = rng.uniform(0.0, 1.0, 50)
    got = reference_interp(kind, windows, t, 1e15)
    expect = [_lagrange_eval(offsets, w, x) for w, x in zip(windows, t)]
    assert np.allclose(got, expect, atol=1e-10)


def test_linear_interp_exact_on_lines():
    vals = 3.0 - 2.0 * np.arange(6) * 0.5
    pts = np.array([0.1, 0.6, 1.45, 2.3])
    got = interpolate_at(Interpolator(Interp.LINEAR), vals, *cells(pts / 0.5))
    assert np.allclose(got, 3.0 - 2.0 * pts, atol=1e-14)


def test_node_values_reproduced_exactly():
    """Evaluating at the nodes themselves returns the node data for every
    kind (all candidate stencil polynomials pass through the shared nodes)."""
    rng = np.random.default_rng(6)
    vals = rng.normal(size=12)
    inner = np.arange(12)[3:-4]
    for kind in KINDS:
        got = interpolate_at(Interpolator(kind), vals, inner, np.zeros(inner.size))
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
    for kind in (Interp.WENO23, Interp.WENO35):
        vals = interpolate_at(Interpolator(kind), step, *cells(pts / dx))
        overshoot = max(vals.max() - 1.0, -vals.min())
        assert overshoot <= 1e-10, overshoot
    # the flattened-indicator (pure high-order) blend does overshoot
    smooth = interpolate_at(Interpolator(Interp.WENO35, 1e12), step, *cells(pts / dx))
    assert max(smooth.max() - 1.0, -smooth.min()) > 1e-2


@pytest.mark.parametrize("kind", (Interp.WENO23, Interp.WENO35))
@pytest.mark.parametrize("height", (1e50, 1e-50))
def test_weno_is_finite_over_the_documented_magnitude_range(kind, height):
    """A jump of height 1e50 (the WENO23 blend's products grow like the fifth
    power of the data) or 1e-50 (indicators far below eps) interpolates to
    finite values in every cell whose window holds the jump, and inside the
    data bounds in the jump cell, where every candidate straddles the jump.
    The suite turns an overflow warning into a failure."""
    vals = height * (np.arange(12) >= 6)  # the jump is in the cell [5, 6]
    t = np.linspace(0.0, 1.0, 33)[:-1]
    width = GHOST_WIDTH[kind]
    anchors = np.arange(6 - width, 5 + width)  # the cells whose windows hold the jump
    got = interpolate_at(
        Interpolator(kind), vals, np.repeat(anchors, t.size), np.tile(t, anchors.size)
    ).reshape(anchors.size, t.size)
    assert np.all(np.isfinite(got))
    jump_cell = got[anchors == 5]
    assert np.all((jump_cell >= 0.0) & (jump_cell <= height))


# ---------------------------------------------------------------------------
# refinement slopes of single applications
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind,design",
    [(Interp.LINEAR, 2.0), (Interp.WENO23, 4.0), (Interp.WENO35, 6.0)],
)
def test_single_application_refinement_slopes(kind, design):
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
        got = interpolate_at(Interpolator(kind), vals, *cells(pts / dx))
        errs.append(np.max(np.abs(got - f(pts))))
    slope = -fitted_slope(ns, errs)
    assert abs(slope - design) <= 0.75, (slope, errs)


# ---------------------------------------------------------------------------
# plans, batching and input validation
# ---------------------------------------------------------------------------
def _identity(n_nodes, ncols):
    """The source plane of a field's own (n_nodes, ncols) nodes."""
    return np.arange(n_nodes * ncols).reshape(n_nodes, ncols)


def test_plan_matches_one_shot_evaluation():
    """A plan for rigidly shifted rows of points gives, bit for bit, the values
    of one-row plans at each row's cells (rows are independent), for every
    component of a stacked field and on repeated application; and it matches
    the independent reference at those points."""
    rng = np.random.default_rng(10)
    n_nodes, ncols, rows = 30, 7, 11
    data = rng.normal(size=(2, n_nodes, ncols))
    source = _identity(n_nodes, ncols)
    cell = rng.integers(3, 15, ncols)
    t = rng.integers(0, 64, ncols) / 64.0  # dyadic: cell + t + i is exact
    nodes = cell[None, :] + np.arange(rows)[:, None]  # (rows, ncols) anchor nodes
    for kind in KINDS:
        interp = Interpolator(kind)
        plan = interp.plan((n_nodes, ncols), cell, t, rows=rows, source=source)
        got = plan.apply(data)
        assert got.shape == (2, rows, ncols)
        for i in range(rows):
            one = interp.plan((n_nodes, ncols), cell + i, t, rows=1, source=source)
            assert np.array_equal(got[:, i : i + 1], one.apply(data))
        assert np.array_equal(plan.apply(data), got)
        windows = data[:, nodes[..., None] + window_offsets(kind), np.arange(ncols)[:, None]]
        expect = reference_interp(kind, windows, t, interp.eps)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(data))


@pytest.mark.parametrize("height", (None, 1e50, 1e-50), ids=["random", "jump1e50", "jump1e-50"])
def test_weno35_ratio_weights_equal_the_jiang_shu_weights(height):
    """WENO35 weighs its stencils by rho_k R_k, the ratios of the Jiang-Shu
    weights to the centre stencil's, with R_k = i_c / i_k formed once per
    window for all its fractions.  On random non-smooth windows and on jumps
    of 1e50 and 1e-50 at each inner node, a plan of three fraction rows
    matches the reference's weights gamma_k / (beta_k + eps)^2, formed from
    their definition, to round-off: measured at most 4.0 ulp of the window's
    largest value over twenty seeds of random windows, 1.9 ulp on the jumps."""
    kind = Interp.WENO35
    offsets = window_offsets(kind)
    rng = np.random.default_rng(16)
    if height is None:
        n = 400
        windows = rng.normal(size=(n, offsets.size)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        step = offsets >= rng.integers(offsets[1], offsets[-1] + 1, (n, 1))
        windows += step * rng.normal(size=(n, 1)) * 10.0 ** rng.uniform(-2, 4, (n, 1))
    else:
        windows = np.repeat(height * (offsets >= offsets[1:, None]), 32, axis=0)
    ncols = windows.shape[0]
    t = rng.uniform(0.0, 1.0, (3, ncols))
    interp = Interpolator(kind)
    data = windows.T[None]  # column q holds window q
    plan = interp.plan(
        (offsets.size, ncols), np.full(ncols, -offsets[0]), t, rows=1,
        source=_identity(offsets.size, ncols),
    )
    got = plan.apply(data)[:, 0, 0]
    expect = reference_interp(kind, windows, t, interp.eps)
    err = np.abs(got - expect) / np.abs(windows).max(axis=1)
    assert err.max() <= 8 * 2.0**-52


def test_batch_columns_match_single_columns():
    """A plan whose columns read different data columns through its source
    plane gives each data column's one-column values."""
    rng = np.random.default_rng(12)
    data = rng.normal(size=(20, 4))
    pts = rng.uniform(3.0, 16.0, size=(9, 4))
    interp = Interpolator(Interp.WENO35)
    col = np.broadcast_to(np.arange(4), pts.shape).ravel()  # data column of each point
    source = np.arange(20)[:, None] * 4 + col[None, :]
    plan = interp.plan((20, 4), *cells(pts.ravel()), rows=1, source=source)
    batched = plan.apply(data[None])[0, 0].reshape(pts.shape)
    for c in range(4):
        single = interpolate_at(interp, data[:, c], *cells(pts[:, c]))
        assert np.allclose(batched[:, c], single, atol=1e-15)


@pytest.mark.parametrize("kind", KINDS)
def test_plan_of_many_blocks_reads_any_source(monkeypatch, kind):
    """A plan of many blocks keeps one block's window index, shifted block by
    block, plus the rows that break the shift: it gives the one-block result
    bit for bit on any source plane, an identity plane, one whose rows repeat,
    jump and fold, and one of random indices (no regular row at all)."""
    rng = np.random.default_rng(14)
    n_nodes, ncols, rows = 40, 3, 30
    data = rng.normal(size=(2, n_nodes, ncols))
    folded = _identity(n_nodes, ncols)
    folded[:5] = folded[5]  # clamped
    folded[12:15] = folded[30:33]  # a jump inside the plane
    folded[-6:] = folded[-7:-13:-1, ::-1]  # a fold with the columns reversed
    planes = [_identity(n_nodes, ncols), folded, rng.integers(0, n_nodes * ncols, (n_nodes, ncols))]
    cell, t = np.array([3, 5, 4]), np.array([0.0, 0.25, 0.75])
    interp = Interpolator(kind)
    for source in planes:
        whole = interp.plan((n_nodes, ncols), cell, t, rows=rows, source=source).apply(data)
        with monkeypatch.context() as patch:
            patch.setattr(weno, "BLOCK_POINTS", 7 * ncols)  # 7 rows of one component
            plan = interp.plan((n_nodes, ncols), cell, t, rows=rows, source=source)
            assert plan.window._index.shape[0] < rows  # one block's pattern, shifted per block
            assert np.array_equal(plan.apply(data), whole)
            assert np.array_equal(plan.apply(data[:1]), whole[:1])


def test_plan_shape_validation():
    interp = Interpolator(Interp.WENO23)
    source = _identity(20, 2)
    half = np.array([0.5, 0.5])
    plan = interp.plan((20, 2), np.array([10, 10]), half, rows=3, source=source)
    with pytest.raises(ValueError):
        plan.apply(np.zeros((1, 20, 3)))  # wrong column count
    with pytest.raises(ValueError):
        plan.apply(np.zeros((20, 2)))  # no component axis
    with pytest.raises(ValueError):
        interp.plan((20, 2), np.array([10, 16]), half, rows=3, source=source)  # past the end
    with pytest.raises(ValueError):
        interp.plan((20, 2), np.array([0, 10]), half, rows=1, source=source)  # before the start
    with pytest.raises(ValueError):
        interp.plan((20, 2), np.array([10, 10]), np.array([0.5]), rows=3, source=source)  # unequal
    with pytest.raises(ValueError):  # fewer row entries than source columns
        interp.plan((20, 2), np.array([10]), np.array([0.5]), rows=3, source=source)
    with pytest.raises(ValueError):  # a source index past the data
        interp.plan((20, 2), np.array([10, 10]), half, rows=3, source=source + 1)
    with pytest.raises(ValueError):  # windows past the source plane's nodes, not the data's
        interp.plan((20, 2), np.array([10, 14]), half, rows=3, source=source[:18])


def test_ghost_width_per_kind():
    assert GHOST_WIDTH[Interp.LINEAR] == 1
    assert GHOST_WIDTH[Interp.WENO23] == 2
    assert GHOST_WIDTH[Interp.WENO35] == 3
    with pytest.raises(ConfigError):
        Interpolator("weno23")  # a token, not an Interp
