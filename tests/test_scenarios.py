"""Bundled scenarios and the custom-scenario loader."""
import json
import math

import numpy as np
import pytest

from bgk_sl import ConfigError, SCENARIOS, Scenario, load_scenario, make_system
from bgk_sl.config import Boundary


def test_bundled_catalog():
    assert set(SCENARIOS) == {"smooth", "smooth-chu", "riemann", "riemann-chu", "equilibrium"}
    for name, sc in SCENARIOS.items():
        assert sc.name == name
        assert sc.model in ("1v", "chu")
        assert sc.x1 > sc.x0 and sc.t_final > 0 and sc.vmax > 0 and sc.nv >= 1


def test_smooth_scenario_profile():
    sc = SCENARIOS["smooth"]
    assert (sc.x0, sc.x1) == (-1.0, 1.0)
    assert sc.boundary is Boundary.PERIODIC
    assert (sc.nv, sc.vmax, sc.cfl, sc.t_final) == (20, 10.0, 4.0, 0.32)
    x = np.linspace(-1.0, 1.0, 201)
    rho, u, T = sc.profile(x)
    assert np.all(rho == 1.0) and np.all(T == 1.0)
    # two Gaussian bumps: positive one near x = 0.1, negative near x = -0.3
    assert u[np.argmin(np.abs(x - 0.1))] == pytest.approx(0.1, abs=1e-3)
    assert u[np.argmin(np.abs(x + 0.3))] == pytest.approx(-0.2, abs=1e-3)
    assert np.max(np.abs(u)) < 0.25  # subsonic everywhere


def test_riemann_scenarios_states():
    sc = SCENARIOS["riemann"]
    left, right, x_jump = sc.riemann
    assert left == (2.25, 0.0, 1.125)
    assert right == pytest.approx((3.0 / 7.0, 0.0, 1.0 / 6.0))
    assert x_jump == 0.5
    assert sc.model == "1v" and sc.boundary is Boundary.FREEFLOW
    assert (sc.nv, sc.vmax, sc.cfl, sc.t_final) == (30, 10.0, 0.5, 0.16)
    chu = SCENARIOS["riemann-chu"]
    assert chu.model == "chu"
    assert chu.riemann[0] == pytest.approx((1.0, 0.0, 5.0 / 3.0))
    assert chu.riemann[1] == pytest.approx((0.125, 0.0, 4.0 / 3.0))
    assert chu.t_final == 0.25


def test_riemann_profile_is_sharp_jump():
    sc = SCENARIOS["riemann"]
    x = np.array([0.0, 0.49, 0.5, 0.51, 1.0])
    rho, u, T = sc.profile(x)
    assert rho[0] == 2.25 and rho[1] == 2.25
    assert rho[2] == pytest.approx(3.0 / 7.0)  # x >= x_jump is the right state
    assert rho[-1] == pytest.approx(3.0 / 7.0)


def test_jump_node_receives_conserved_average():
    """A node exactly on the jump is initialized with averaged conserved
    variables (mass, momentum, energy), not averaged primitives."""
    sc = SCENARIOS["riemann"]
    left, right, x_jump = sc.riemann
    x = np.linspace(0.0, 1.0, 11)  # node 5 sits exactly on x_jump = 0.5
    dof = 1
    rho, u, T = sc.initial_moments(x, dof)
    rho_avg = 0.5 * (left[0] + right[0])
    e_l = 0.5 * left[0] * left[1] ** 2 + 0.5 * dof * left[0] * left[2]
    e_r = 0.5 * right[0] * right[1] ** 2 + 0.5 * dof * right[0] * right[2]
    assert rho[5] == pytest.approx(rho_avg, rel=1e-14)
    assert u[5] == pytest.approx(0.0, abs=1e-14)
    assert T[5] == pytest.approx(2.0 * 0.5 * (e_l + e_r) / rho_avg / dof, rel=1e-13)
    # neighbors keep their pure one-sided states
    assert rho[4] == left[0] and rho[6] == pytest.approx(right[0])


def test_no_jump_averaging_when_nodes_miss_the_jump():
    sc = SCENARIOS["riemann"]
    x = np.linspace(0.0, 1.0, 10)  # no node at 0.5
    rho, _, _ = sc.initial_moments(x, 1)
    assert set(np.unique(rho)) == {2.25, 3.0 / 7.0}


def test_load_scenario_passthrough_and_names():
    sc = SCENARIOS["smooth"]
    assert load_scenario(sc) is sc
    assert load_scenario("smooth") is sc
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_scenario("no-such-scenario")
    with pytest.raises(ConfigError):
        load_scenario(42)


def test_load_scenario_base_overrides():
    sc = load_scenario({"base": "smooth", "cfl": 2.5, "t_final": 0.1, "name": "tweaked"})
    assert sc.name == "tweaked"
    assert sc.cfl == 2.5 and sc.t_final == 0.1
    assert sc.boundary is Boundary.PERIODIC  # inherited
    sc2 = load_scenario({"base": "smooth", "boundary": "reflective", "domain": [0.0, 2.0]})
    assert sc2.boundary is Boundary.REFLECTIVE
    assert (sc2.x0, sc2.x1) == (0.0, 2.0)
    assert load_scenario({"base": "riemann", "cfl": "lattice"}).cfl == "lattice"


def test_load_scenario_rejects_unknown_keys_and_base():
    with pytest.raises(ConfigError, match="unknown scenario keys"):
        load_scenario({"base": "smooth", "cffl": 2.5})
    with pytest.raises(ConfigError, match="unknown base"):
        load_scenario({"base": "smoooth"})


def test_load_scenario_standalone_riemann(tmp_path):
    spec = {
        "name": "custom-tube",
        "model": "chu",
        "domain": [0.0, 2.0],
        "boundary": "freeflow",
        "nv": 12,
        "vmax": 6.0,
        "cfl": 1.0,
        "t_final": 0.1,
        "initial": {"kind": "riemann", "left": [1.0, 0.0, 1.0], "right": [0.5, 0.0, 0.8]},
    }
    sc = load_scenario(spec)
    assert sc.name == "custom-tube" and sc.model == "chu"
    assert sc.riemann[2] == 1.0  # default x_jump is the domain midpoint
    rho, _, _ = sc.profile(np.array([0.5, 1.5]))
    assert rho[0] == 1.0 and rho[1] == 0.5
    # same spec through a JSON file
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    sc_file = load_scenario(str(path))
    assert sc_file.name == sc.name and sc_file.riemann == sc.riemann


def test_load_scenario_standalone_uniform():
    spec = {
        "name": "flat",
        "model": "1v",
        "domain": [-1.0, 1.0],
        "boundary": "periodic",
        "nv": 8,
        "vmax": 4.0,
        "cfl": 2.0,
        "t_final": 0.5,
        "initial": {"kind": "uniform", "rho": 1.5, "u": 0.25, "T": 0.9},
    }
    sc = load_scenario(spec)
    rho, u, T = sc.profile(np.zeros(3))
    assert np.all(rho == 1.5) and np.all(u == 0.25) and np.all(T == 0.9)
    assert sc.riemann is None


def test_load_scenario_standalone_validation():
    good = {
        "name": "x",
        "model": "1v",
        "domain": [0.0, 1.0],
        "boundary": "periodic",
        "nv": 4,
        "vmax": 2.0,
        "cfl": 1.0,
        "t_final": 0.1,
        "initial": {"kind": "uniform", "rho": 1.0, "u": 0.0, "T": 1.0},
    }
    missing = {k: v for k, v in good.items() if k != "t_final"}
    with pytest.raises(ConfigError, match="missing keys"):
        load_scenario(missing)
    bad_initial = dict(good, initial={"kind": "sinusoid"})
    with pytest.raises(ConfigError, match="unknown initial kind"):
        load_scenario(bad_initial)
    bad_states = dict(good, initial={"kind": "riemann", "left": [1.0, 0.0], "right": [1, 0, 1]})
    with pytest.raises(ConfigError, match="triples"):
        load_scenario(bad_states)
    bad_model = dict(good, model="2v")
    with pytest.raises(ConfigError, match="unknown kinetic model"):
        load_scenario(bad_model)
    bad_domain = dict(good, domain="wide")
    with pytest.raises(ConfigError, match="domain"):
        load_scenario(bad_domain)
    with pytest.raises(ConfigError, match="initial"):
        load_scenario(dict(good, initial="maxwellian"))


_STANDALONE = {
    "name": "x",
    "model": "1v",
    "domain": [0.0, 1.0],
    "boundary": "freeflow",
    "nv": 4,
    "vmax": 2.0,
    "cfl": 1.0,
    "t_final": 0.1,
    "initial": {"kind": "riemann", "left": [1.0, 0.0, 1.0], "right": [0.5, 0.0, 0.8]},
}


@pytest.mark.parametrize(
    "change, match",
    [
        ({"nx": 999}, r"unknown scenario keys \['nx'\]"),
        ({"initial": dict(_STANDALONE["initial"], bogus=1)}, r"unknown keys \['bogus'\]"),
        ({"initial": {"kind": "uniform", "rho": 1.0, "u": 0.0, "T": 1.0, "left": [1, 0, 1]}},
         r"unknown keys \['left'\] in the initial 'uniform'"),
        ({"nv": 30.7}, "'nv' expects int"),
        ({"nv": math.inf}, "'nv' expects int"),
        ({"domain": [0.0, math.inf]}, "domain must be finite"),
        ({"domain": [math.nan, 1.0]}, "domain must be finite"),
    ],
)
def test_load_scenario_refuses_malformed_standalone_input(change, match):
    """A standalone file is held to the same key check as one with 'base',
    an integer key is not truncated, and the domain must be finite."""
    with pytest.raises(ConfigError, match=match):
        load_scenario(dict(_STANDALONE, **change))
    assert load_scenario(dict(_STANDALONE, nv=30.0, description="d")).nv == 30


@pytest.mark.parametrize(
    "change, match",
    [
        ({"nv": 30.5}, "'nv' expects int"),
        ({"domain": [0, "inf"]}, "domain must be finite"),
        ({"cfl": None}, "'cfl' expects float"),  # only keyword overrides drop None
        ({"cfl": "Lattice"}, "'cfl' expects float"),
        ({"name": None}, "'name' expects str"),
        ({"model": 1}, "'model' expects str"),
        ({"description": ["d"]}, "'description' expects str"),
    ],
)
def test_load_scenario_refuses_malformed_base_overrides(change, match):
    with pytest.raises(ConfigError, match=match):
        load_scenario({"base": "smooth", **change})


@pytest.mark.parametrize("x_jump", [math.nan, math.inf, -math.inf])
def test_load_scenario_refuses_a_non_finite_jump(x_jump):
    """A NaN jump would put the right state at every node (x < NaN is False)."""
    initial = {"kind": "riemann", "left": [1.0, 0.0, 1.0], "right": [0.5, 0.0, 0.8]}
    spec = {
        "name": "bad-jump",
        "model": "1v",
        "domain": [0.0, 1.0],
        "boundary": "freeflow",
        "nv": 8,
        "vmax": 6.0,
        "cfl": 1.0,
        "t_final": 0.1,
        "initial": dict(initial, x_jump=x_jump),
    }
    with pytest.raises(ConfigError, match="finite x_jump"):
        load_scenario(spec)


def test_load_scenario_bad_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="cannot read scenario file"):
        load_scenario(str(path))


def test_make_system():
    assert make_system("1v").gamma == 3.0
    assert make_system("chu").gamma == pytest.approx(5.0 / 3.0)
    with pytest.raises(ConfigError):
        make_system("quantum")