"""Experiment drivers: run_case metadata, norms, studies, sweeps."""
import math

import numpy as np
import pytest

from bgk_sl import (
    Boundary,
    ConfigError,
    Integrator,
    Interp,
    PhaseGrid,
    RunResult,
    SchemeConfig,
    cfl_sweep,
    convergence_study,
    cost_study,
    l1_norm,
    l2_norm,
    refinement_error,
    restrict,
    run_case,
    scheme_label,
)
from bgk_sl import harness
from bgk_sl.harness import DEFAULT_CFL_SWEEP, _check_doubling, admissible_cfl

from conftest import LATTICE_RUNS


def test_restrict_takes_every_other_node():
    fine = np.arange(9.0)
    assert np.array_equal(restrict(fine), [0.0, 2.0, 4.0, 6.0, 8.0])
    assert np.array_equal(restrict(np.arange(13.0), 4), [0.0, 4.0, 8.0, 12.0])


def test_norms_over_interior_nodes():
    delta = np.array([100.0, 1.0, -2.0, 3.0, 100.0])  # edge nodes excluded
    assert l1_norm(delta, 0.5) == pytest.approx(0.5 * 6.0)
    assert l2_norm(delta, 0.5) == pytest.approx(math.sqrt(0.5 * 14.0))


def test_refinement_error_infers_restriction_factor():
    def result(nx, rho):
        x = np.linspace(0.0, 1.0, nx + 1)
        return RunResult(x=x, rho=rho, u=x, T=x, E=x, meta={})

    rng = np.random.default_rng(3)
    coarse, fine = result(8, rng.normal(size=9)), result(32, rng.normal(size=33))
    delta = coarse.rho - fine.rho[::4]
    assert refinement_error(coarse, fine) == l1_norm(delta, 0.125)
    assert refinement_error(coarse, fine, l2_norm) == l2_norm(delta, 0.125)


def test_check_doubling():
    assert _check_doubling([10, 20, 40]) == [10, 20, 40]
    with pytest.raises(ConfigError):
        _check_doubling([10])
    with pytest.raises(ConfigError):
        _check_doubling([10, 20, 30])


def test_admissible_cfl_divides_t_final():
    grid = PhaseGrid(0.0, 1.0, 100, 10, 5.0)
    for cfl_req in (0.3, 1.0, 3.7, 16.0):
        cfl_act, n = admissible_cfl(cfl_req, grid, t_final=0.3)
        dt = grid.dt_from_cfl(cfl_act)
        assert n * dt == pytest.approx(0.3, rel=1e-12)
        assert abs(cfl_act - cfl_req) / cfl_req < 0.5
    # an exactly dividing request is returned unchanged
    dt0 = 0.3 / 25
    cfl_exact = dt0 * grid.vmax / grid.dx
    cfl_act, n = admissible_cfl(cfl_exact, grid, 0.3)
    assert n == 25 and cfl_act == pytest.approx(cfl_exact, rel=1e-12)


@pytest.mark.parametrize("cfl_req, t_final", [(1e-300, 0.3), (1e-320, 0.3), (1e-9, 1e300)])
def test_admissible_cfl_refuses_a_step_count_without_end(cfl_req, t_final):
    """t_final/dt overflowing to inf, or far above MAX_STEPS, is refused
    before it is rounded."""
    grid = PhaseGrid(0.0, 1.0, 100, 10, 5.0)
    with pytest.raises(ConfigError, match="steps"):
        admissible_cfl(cfl_req, grid, t_final)


def test_scheme_labels():
    assert scheme_label(Integrator.RK2, Interp.WENO23) == "RK2W23"
    assert scheme_label(Integrator.BDF3, Interp.WENO35) == "BDF3W35"
    assert scheme_label(Integrator.EULER1, Interp.LINEAR) == "Euler1Lin"
    assert list(LATTICE_RUNS) == [scheme_label(*run) for run in LATTICE_RUNS.values()]


def test_run_case_metadata_and_profiles():
    res = run_case(
        "smooth", integrator="RK2", eps=1e-2, nx=32, t_final=0.04, cfl=4.0
    )
    meta = res.meta
    assert meta["scenario"] == "smooth" and meta["model"] == "1v"
    assert meta["scheme"] == "RK2W23"  # default interp for RK2 is weno23
    assert meta["nx"] == 32 and meta["boundary"] == "periodic"
    assert meta["cfl_actual"] == 4.0
    assert meta["t_final"] == 0.04
    assert meta["steps_taken"] == meta["n_steps"]
    assert meta["wall_seconds"] > 0.0
    assert res.x.size == 33 and res.rho.shape == (33,)
    assert np.all(res.rho > 0) and np.all(res.T > 0)
    # E consistent with the 1V closure E = rho u^2/2 + rho R T/2
    assert np.allclose(res.E, 0.5 * res.rho * res.u**2 + 0.5 * res.rho * res.T, atol=1e-12)


def test_run_case_shortened_final_step_flag():
    # dt = cfl*dx/vmax = 4*(2/32)/10 = 0.025; t_final = 0.06 needs 2 full + 0.01
    res = run_case("smooth", integrator="Euler1", eps=1e-2, nx=32, t_final=0.06, cfl=4.0)
    assert res.meta["shortened_final_step"] is True
    assert res.meta["n_steps"] == 3
    res2 = run_case("smooth", integrator="Euler1", eps=1e-2, nx=32, t_final=0.05, cfl=4.0)
    assert res2.meta["shortened_final_step"] is False
    assert res2.meta["n_steps"] == 2


def test_run_case_lattice_overrides_cfl():
    res = run_case("smooth", integrator="Euler1", eps=1e-2, nx=100, t_final=0.1, cfl="lattice")
    # lattice CFL is nv regardless of the scenario's requested CFL
    assert res.meta["cfl_requested"] == "lattice" and res.meta["cfl_actual"] == 20.0
    assert res.meta["dt"] == pytest.approx(res.meta["cfl_actual"] * 0.02 / 10.0)
    assert res.meta["interp"] == "linear" and res.meta["scheme"] == "Euler1Lin"


@pytest.mark.parametrize(
    "token, cfl, t_final, steps",
    [
        ("Euler1", "lattice", 0.1, (0, 1)),  # dt = dx/dv = 0.04: two steps and a shortened one
        ("BDF2", "lattice", 0.1, (2, 1)),  # the shortened step is also a BDF restart
        ("BDF2", "lattice", 0.08, (1, 0)),
        ("BDF2", None, 0.1, (2, 0)),  # dt = 4*dx/vmax = 0.008 at cfl 4: 12 steps and a short one
    ],
    ids=["Euler1-lattice", "BDF2-lattice", "BDF2-lattice-aligned", "BDF2"],
)
def test_run_case_books_a_lattice_runs_shortened_step_as_offlattice(token, cfl, t_final, steps):
    """meta counts (predictor_steps, offlattice_steps): the shortened last
    step of a run at cfl = "lattice" is its one step off the lattice."""
    res = run_case("smooth", integrator=token, eps=1e-2, nx=100, t_final=t_final, cfl=cfl)
    assert (res.meta["predictor_steps"], res.meta["offlattice_steps"]) == steps


def _assert_same_march(a, b):
    """Two runs took the same steps, a shortened last one included, and end
    on the same profiles, bit for bit."""
    assert a.meta["dt"] == b.meta["dt"] and a.meta["cfl_actual"] == b.meta["cfl_actual"]
    assert a.meta["shortened_final_step"] and b.meta["shortened_final_step"]
    for name in ("rho", "u", "T"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("label", list(LATTICE_RUNS))
def test_lattice_cfl_is_cfl_nv_on_a_dyadic_grid(label):
    """cfl = "lattice" means one thing: dt = dx/dv. On a dyadic grid
    (dx = 1/32, dv = 1/2) CFL nv gives that dt exactly, and the two runs
    agree bit for bit, shortened last step included."""
    integrator, interp = LATTICE_RUNS[label]
    kw = dict(integrator=integrator, interp=interp, eps=1e-2, nx=64, t_final=0.3)
    lat = run_case("smooth", cfl="lattice", **kw)
    nv = run_case("smooth", cfl=20.0, **kw)
    assert lat.meta["dt"] == 1.0 / 16.0 and lat.meta["cfl_actual"] == 20.0
    _assert_same_march(lat, nv)


def test_latbdf2_is_bdf2_at_the_lattice_step():
    """The token LatBDF2 is an alias of BDF2 at cfl = "lattice", whatever
    cfl is asked for."""
    kw = dict(eps=1e-2, nx=64, t_final=0.3)
    alias = run_case("smooth", integrator="LatBDF2", cfl=2.0, **kw)
    base = run_case("smooth", integrator="BDF2", cfl="lattice", **kw)
    assert alias.meta["scheme"] == base.meta["scheme"] == "BDF2W23"
    assert alias.meta["offlattice_steps"] == base.meta["offlattice_steps"] == 1
    _assert_same_march(alias, base)


def test_run_case_rejects_bad_tokens():
    with pytest.raises(ConfigError):
        run_case("smooth", integrator="RK7", eps=1e-2, nx=16)
    with pytest.raises(ConfigError):
        run_case("smooth", integrator="RK2", interp="cubic", eps=1e-2, nx=16)
    with pytest.raises(ConfigError):
        run_case("nowhere", integrator="RK2", eps=1e-2, nx=16)
    with pytest.raises(ConfigError, match="unknown interpolation"):
        run_case("smooth", integrator="Euler1", interp="none", eps=1e-2, nx=16)
    with pytest.raises(ConfigError, match="unknown integrator 'LatEuler'"):
        run_case("smooth", integrator="LatEuler", eps=1e-2, nx=16)


@pytest.mark.parametrize(
    "call, bad",
    [
        (run_case, {"nx": 8.7}),
        (run_case, {"nv": 20.7}),
        (run_case, {"cfl": "abc"}),
        (run_case, {"cfl": np.array([1.0, 2.0])}),
        (run_case, {"vmax": "x"}),
        (run_case, {"t_final": "y"}),
        (cfl_sweep, {"nv": 20.7}),
    ],
    ids=["nx", "nv", "cfl", "cfl-array", "vmax", "t_final", "cfl_sweep-nv"],
)
def test_bad_overrides_are_config_errors(call, bad):
    """An override is a scenario field: a value that is not of its type, or an
    integer that would be truncated, is refused before any run."""
    kwargs = {"integrator": "RK2", "eps": 1.0, "nx": 16, "t_final": 0.02}
    if call is cfl_sweep:
        kwargs["cfl_list"] = [2.0]
    with pytest.raises(ConfigError, match=f"'{next(iter(bad))}' expects"):
        call("smooth", **{**kwargs, **bad})


@pytest.mark.parametrize(
    "call, kwargs, match",
    [
        (cost_study, {"schemes": [("RK2", None)], "nx_list": [16.7, 32.2]}, "'nx' expects int"),
        (convergence_study, {"integrator": "RK2", "eps_list": [1.0], "nx_list": [16.7, 32.2]},
         "'nx' expects int"),
        (cfl_sweep, {"integrator": "RK2", "cfl_list": ["abc"]}, "'cfl' expects float"),
        (cfl_sweep, {"integrator": "RK2", "cfl_list": ["lattice"]}, "'cfl' expects float"),
        (run_case, {"integrator": "RK2", "nx": 16, "eps": "x"}, "'eps' expects float, got 'x'"),
    ],
    ids=["cost_study-nx", "convergence_study-nx", "cfl_sweep-abc", "cfl_sweep-lattice",
         "run_case-eps"],
)
def test_non_numeric_study_inputs_are_config_errors(call, kwargs, match):
    """A grid size that would be truncated, a CFL that is not a number (the
    lattice step cannot be adjusted to divide t_final) and a non-numeric eps
    are refused before any run."""
    kwargs.setdefault("eps", 1.0)
    with pytest.raises(ConfigError, match=match):
        call("smooth", t_final=0.02, **kwargs)


@pytest.mark.parametrize("bad", [True, False, "x", 0.0, -1.0, math.nan])
def test_eps_is_refused_unless_a_positive_number(bad):
    """eps goes through the one converter, which never takes a boolean for a
    number, and must be > 0, in a SchemeConfig as in a run."""
    with pytest.raises(ConfigError, match="eps"):
        SchemeConfig(Integrator.RK2, Interp.WENO23, Boundary.PERIODIC, eps=bad)
    with pytest.raises(ConfigError, match="eps"):
        run_case("smooth", integrator="Euler1", eps=bad, nx=8, t_final=0.0)


def test_eps_as_a_numeric_string_runs_as_the_number():
    text, number = (
        run_case("smooth", integrator="RK2", eps=eps, nx=16, t_final=0.02) for eps in ("0.01", 0.01)
    )
    assert text.rho.tobytes() == number.rho.tobytes()
    assert text.meta["eps"] == 0.01 and type(text.meta["eps"]) is float
    (row,) = convergence_study(
        "smooth", integrator="Euler1", eps_list=["0.01"], nx_list=[8, 16], t_final=0.02
    )
    assert row["eps"] == 0.01 and type(row["eps"]) is float


def test_lattice_token_with_interp_runs_its_integrator_at_the_lattice_step():
    """At cfl = "lattice" the interpolation serves the feet that are not
    node-aligned: Euler1 + weno23 marches at dt = dx/dv."""
    res = run_case("smooth", integrator="Euler1", interp="weno23", eps=1e-2, nx=16,
                   t_final=0.3, cfl="lattice")
    grid = PhaseGrid(-1.0, 1.0, 16, 20, 10.0)
    assert res.meta["dt"] == grid.dx / grid.dv
    assert res.meta["interp"] == "weno23" and res.meta["scheme"] == "Euler1W23"
    assert res.meta["offlattice_steps"] == 1 and res.meta["shortened_final_step"]
    assert np.all(res.rho > 0) and np.all(res.T > 0)


def test_convergence_study_row_structure():
    rows = convergence_study(
        "smooth",
        integrator="Euler1",
        interp="linear",
        eps_list=[math.inf, 1.0],
        nx_list=[16, 32, 64],
        t_final=0.04,
    )
    assert len(rows) == 4  # two eps values x two coarse levels
    for eps in (math.inf, 1.0):
        sub = [r for r in rows if r["eps"] == eps]
        assert [r["nx"] for r in sub] == [16, 32]
        assert sub[0]["order"] is None
        assert sub[1]["order"] == pytest.approx(
            math.log2(sub[0]["err_l1_rho"] / sub[1]["err_l1_rho"])
        )
        assert all(r["err_l1_rho"] > 0 for r in sub)


def test_convergence_study_calls_module_run_case_per_level(monkeypatch):
    """convergence_study looks run_case up through the module at call time and
    runs each nx once per eps, coarsest first: a benchmark records every
    level's RunResult by patching bgk_sl.harness.run_case this way."""
    calls = []
    original = harness.run_case

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((kwargs["eps"], result.meta["nx"]))
        return result

    monkeypatch.setattr(harness, "run_case", recording)
    convergence_study(
        "smooth",
        integrator="Euler1",
        interp="linear",
        eps_list=[1.0, math.inf],
        nx_list=[16, 32, 64],
        t_final=0.02,
    )
    assert calls == [(eps, nx) for eps in (1.0, math.inf) for nx in (16, 32, 64)]


def test_convergence_study_rejects_non_doubling_ladder():
    with pytest.raises(ConfigError):
        convergence_study(
            "smooth", integrator="Euler1", eps_list=[1.0], nx_list=[16, 24], t_final=0.02
        )


def test_cfl_sweep_rows_and_lattice_rejection():
    rows = cfl_sweep(
        "smooth",
        integrator="RK2",
        interp="weno23",
        eps=1.0,
        cfl_list=(2.0, 8.0),
        nx=16,
        t_final=0.04,
    )
    assert len(rows) == 2
    for row, cfl_req in zip(rows, (2.0, 8.0)):
        assert row["cfl_requested"] == cfl_req
        assert row["err_l2_rho"] > 0
        # actual CFL divides t_final into whole steps
        grid = PhaseGrid(-1.0, 1.0, 16, 20, 10.0)
        dt = grid.dt_from_cfl(row["cfl_actual"])
        assert abs(0.04 / dt - round(0.04 / dt)) < 1e-9
    with pytest.raises(ConfigError, match="'cfl' expects float"):
        cfl_sweep(
            "smooth", integrator="Euler1", eps=1.0, cfl_list=("lattice",), nx=16, t_final=0.04
        )
    for cfl_list, t_final in (((0.0,), 0.04), ((math.inf,), 0.04), ((2.0,), math.nan)):
        with pytest.raises(ConfigError):
            cfl_sweep(
                "smooth", integrator="RK2", interp="weno23", eps=1.0,
                cfl_list=cfl_list, nx=16, t_final=t_final,
            )


def test_cfl_sweep_probes_the_grid_of_its_runs(monkeypatch):
    """A vmax override reaches the grid that picks cfl_actual: both runs take
    uniform steps and report the published CFL."""
    runs = []
    original = harness.run_case

    def recording(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(harness, "run_case", recording)
    (row,) = cfl_sweep(
        "smooth", integrator="RK2", eps=1.0, cfl_list=[2.0], nx=16, t_final=0.04, vmax=12.0
    )
    assert [r.meta["nx"] for r in runs] == [16, 32]
    for r in runs:
        assert r.meta["vmax"] == 12.0
        assert r.meta["shortened_final_step"] is False
        assert r.meta["cfl_actual"] == row["cfl_actual"]


# smooth at nx = 160 and t_final = 0.32: 6e6 steps, under MAX_STEPS = 1e7 on
# the coarse grid; the run at 2*nx takes 1.2e7
FINE_RUN_TOO_LONG = 4.2667e-5


def test_cfl_sweep_refuses_a_fine_run_above_the_step_bound_before_any_run(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["nx"])
        raise AssertionError("run_case called")

    monkeypatch.setattr(harness, "run_case", counting)
    # and a request that is not positive and finite (`PhaseGrid.dt_from_cfl`)
    for cfl_list, match in (
        ([2.0, FINE_RUN_TOO_LONG], "steps"),
        ([2.0, -1.0], "positive and finite"),
        ([float("nan")], "positive and finite"),
    ):
        with pytest.raises(ConfigError, match=match):
            cfl_sweep(
                "smooth", integrator="RK3", eps=1e-4, cfl_list=cfl_list, nx=160, t_final=0.32
            )
    assert calls == []


def test_cost_study_rows():
    rows = cost_study(
        "smooth",
        schemes=[("Euler1", "linear"), ("RK2", None)],
        eps=1.0,
        nx_list=[16, 32],
        t_final=0.04,
    )
    assert [r["scheme"] for r in rows] == ["Euler1Lin", "Euler1Lin", "RK2W23", "RK2W23"]
    assert [r["nx"] for r in rows] == [16, 32, 16, 32]
    for r in rows:
        assert r["wall_seconds"] > 0
        assert r["err_l1_rho"] > 0
    # refinement shrinks the error against the common reference
    assert rows[1]["err_l1_rho"] < rows[0]["err_l1_rho"]
    assert rows[3]["err_l1_rho"] < rows[2]["err_l1_rho"]