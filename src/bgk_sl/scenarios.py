"""Bundled test scenarios and the custom-scenario JSON loader.

A scenario packages the initial macroscopic profiles, the domain, the kinetic
model and default numerics (boundary, nv, vmax, CFL, final time).  Explicit
run options always override the defaults (`with_overrides`).

Custom scenarios come from JSON files, either deriving from a bundled one:

    {"base": "smooth", "boundary": "reflective", "cfl": 2.0, "t_final": 0.4}

or standalone with an initial-condition block:

    {"name": "my-shock", "model": "chu", "domain": [0.0, 1.0],
     "boundary": "freeflow", "nv": 30, "vmax": 10.0, "cfl": 0.5,
     "t_final": 0.25,
     "initial": {"kind": "riemann", "left": [1.0, 0.0, 1.6667],
                  "right": [0.125, 0.0, 1.3333], "x_jump": 0.5}}

The "initial" kinds are "riemann" (two (rho, u, T) states) and "uniform"
(constant rho/u/T).  Initial distributions are always the Maxwellian (or the
reduced Maxwellian pair) of the macroscopic profiles sampled at the nodes.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chu import ChuReduced3V
from .config import Boundary, parse_choice, typed_value
from .errors import ConfigError
from .grid import PhaseGrid
from .systems import KineticSystem, Monatomic1V

_JUMP_NODE_TOL = 1e-9


def make_system(model: str) -> KineticSystem:
    if model == "1v":
        return Monatomic1V()
    if model == "chu":
        return ChuReduced3V()
    raise ConfigError(f"unknown kinetic model {model!r} (choose 1v|chu)")


@dataclass(frozen=True)
class Scenario:
    name: str
    model: str  # "1v" | "chu"
    x0: float
    x1: float
    boundary: Boundary
    nv: int
    vmax: float
    cfl: float | str  # a CFL number, or "lattice" (`PhaseGrid.dt_from_cfl`)
    t_final: float
    profile: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    riemann: tuple | None = None  # ((rho,u,T)_L, (rho,u,T)_R, x_jump)
    description: str = ""

    def grid(self, nx) -> PhaseGrid:
        """The scenario's phase grid with nx space intervals."""
        nx = typed_value("nx", nx, int)
        return PhaseGrid(x0=self.x0, x1=self.x1, nx=nx, nv=self.nv, vmax=self.vmax)

    def initial_moments(self, x: np.ndarray, dof: int):
        """(rho, u, T) at the nodes; a node sitting exactly on a Riemann jump
        receives the average of the conserved variables of the two states."""
        rho, u, T = self.profile(np.asarray(x, dtype=float))
        rho = np.broadcast_to(np.asarray(rho, float), x.shape).copy()
        u = np.broadcast_to(np.asarray(u, float), x.shape).copy()
        T = np.broadcast_to(np.asarray(T, float), x.shape).copy()
        if self.riemann is not None:
            left, right, x_jump = self.riemann
            node = int(np.argmin(np.abs(x - x_jump)))
            if abs(x[node] - x_jump) <= _JUMP_NODE_TOL * max(1.0, abs(x_jump)):
                rho[node], u[node], T[node] = _mean_conserved(left, right, dof)
        return rho, u, T


def _mean_conserved(left, right, dof: int):
    """Average (rho, rho u, E) of two (rho, u, T) states; back to (rho, u, T)."""

    def conserved(rho, u, T):
        return rho, rho * u, 0.5 * rho * u**2 + 0.5 * dof * rho * T

    rho_l, m_l, e_l = conserved(*left)
    rho_r, m_r, e_r = conserved(*right)
    rho = 0.5 * (rho_l + rho_r)
    m = 0.5 * (m_l + m_r)
    e = 0.5 * (e_l + e_r)
    u = m / rho
    T = (2.0 * e / rho - u**2) / dof
    return rho, u, T


def _smooth_profile(x):
    """Uniform density/temperature with two Gaussian velocity bumps.

    The amplitudes keep the flow subsonic (sound speed sqrt(3)), so the
    solution stays smooth until shortly after t = 0.32; convergence studies
    must stop there."""
    u = 0.1 * np.exp(-((10.0 * x - 1.0) ** 2)) - 0.2 * np.exp(-((10.0 * x + 3.0) ** 2))
    return np.ones_like(x), u, np.ones_like(x)


def _uniform_profile(rho, u, T):
    def profile(x):
        ones = np.ones_like(x)
        return rho * ones, u * ones, T * ones

    return profile


def _riemann_scenario_profile(left, right, x_jump):
    def profile(x):
        on_left = x < x_jump
        rho = np.where(on_left, left[0], right[0])
        u = np.where(on_left, left[1], right[1])
        T = np.where(on_left, left[2], right[2])
        return rho, u, T

    return profile


def _builtin_scenarios() -> dict[str, Scenario]:
    smooth = Scenario(
        name="smooth",
        model="1v",
        x0=-1.0,
        x1=1.0,
        boundary=Boundary.PERIODIC,
        nv=20,
        vmax=10.0,
        cfl=4.0,
        t_final=0.32,
        profile=_smooth_profile,
        description="smooth velocity perturbation of a uniform gas (accuracy study)",
    )
    smooth_chu = dataclasses.replace(
        smooth,
        name="smooth-chu",
        model="chu",
        boundary=Boundary.REFLECTIVE,
        cfl=2.0,
        t_final=0.4,
        description="smooth velocity perturbation, reduced 3D-velocity gas",
    )
    riemann_left = (2.25, 0.0, 1.125)
    riemann_right = (3.0 / 7.0, 0.0, 1.0 / 6.0)
    riemann = Scenario(
        name="riemann",
        model="1v",
        x0=0.0,
        x1=1.0,
        boundary=Boundary.FREEFLOW,
        nv=30,
        vmax=10.0,
        cfl=0.5,
        t_final=0.16,
        profile=_riemann_scenario_profile(riemann_left, riemann_right, 0.5),
        riemann=(riemann_left, riemann_right, 0.5),
        description="shock tube for the 1V gas (fluid limit gamma = 3)",
    )
    chu_left = (1.0, 0.0, 5.0 / 3.0)
    chu_right = (0.125, 0.0, 4.0 / 3.0)
    riemann_chu = dataclasses.replace(
        riemann,
        name="riemann-chu",
        model="chu",
        t_final=0.25,
        profile=_riemann_scenario_profile(chu_left, chu_right, 0.5),
        riemann=(chu_left, chu_right, 0.5),
        description="shock tube for the reduced 3V gas (fluid limit gamma = 5/3)",
    )
    equilibrium = dataclasses.replace(
        smooth,
        name="equilibrium",
        profile=_uniform_profile(1.0, 0.0, 1.0),
        description="global Maxwellian; any scheme must hold it steady",
    )
    return {
        s.name: s for s in (smooth, smooth_chu, riemann, riemann_chu, equilibrium)
    }


SCENARIOS = _builtin_scenarios()


def load_scenario(spec) -> Scenario:
    """Resolve a Scenario from an instance, a bundled name, or a JSON file."""
    if isinstance(spec, Scenario):
        return spec
    if not isinstance(spec, (str, os.PathLike, dict)):
        raise ConfigError(f"cannot interpret scenario spec {spec!r}")
    if isinstance(spec, (str, os.PathLike)):
        name = str(spec)
        if name in SCENARIOS:
            return SCENARIOS[name]
        if not os.path.exists(name):
            known = ", ".join(sorted(SCENARIOS))
            raise ConfigError(
                f"unknown scenario {name!r}: not a bundled name ({known}) "
                "and no such file"
            )
        try:
            with open(name, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read scenario file {name!r}: {err}") from err
    else:
        data = spec
    return _scenario_from_dict(data)


# Scalar scenario keys and the type each converts to.
_SCALAR_KEYS = {
    "name": str,
    "model": str,
    "nv": int,
    "vmax": float,
    "cfl": float,
    "t_final": float,
    "description": str,
}


def _scenario_fields(data: dict) -> dict:
    """The Scenario fields that scenario-file keys set: "domain" sets x0 and
    x1, "boundary" and the scalar keys set their own; an unknown key is refused."""
    unknown = sorted(data.keys() - {"domain", "boundary", *_SCALAR_KEYS})
    if unknown:
        raise ConfigError(f"unknown scenario keys {unknown}")
    fields = {}
    for key, value in data.items():
        if key == "domain":
            fields["x0"], fields["x1"] = _parse_domain(value)
        elif key == "boundary":
            fields["boundary"] = parse_choice(Boundary, value)
        elif key == "cfl" and isinstance(value, str) and value == "lattice":
            fields["cfl"] = value
        else:
            fields[key] = typed_value(key, value, _SCALAR_KEYS[key])
    if "model" in fields:
        make_system(fields["model"])  # validates
    return fields


def with_overrides(spec, **overrides) -> Scenario:
    """The scenario of spec with scenario-file keys overridden; a None
    override keeps the scenario's value."""
    scen = load_scenario(spec)
    fields = _scenario_fields({k: v for k, v in overrides.items() if v is not None})
    return dataclasses.replace(scen, **fields) if fields else scen


def _scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario JSON must be an object")
    data = dict(data)
    base_name = data.pop("base", None)
    if base_name is not None:
        if base_name not in SCENARIOS:
            raise ConfigError(f"unknown base scenario {base_name!r}")
        return dataclasses.replace(SCENARIOS[base_name], **_scenario_fields(data))

    required = ("name", "model", "domain", "boundary", "nv", "vmax", "cfl", "t_final", "initial")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigError(f"scenario JSON missing keys: {missing}")
    initial = data.pop("initial")
    fields = _scenario_fields(data)
    if not isinstance(initial, dict) or "kind" not in initial:
        raise ConfigError("scenario 'initial' must be an object with a 'kind'")
    profile, riemann = _parse_initial(initial, fields["x0"], fields["x1"])
    fields.setdefault("description", "custom scenario")
    return Scenario(profile=profile, riemann=riemann, **fields)


def _parse_initial(initial: dict, x0: float, x1: float):
    """(profile, riemann triple or None) of an 'initial' block."""
    kind = initial["kind"]
    allowed = {"riemann": {"kind", "left", "right", "x_jump"}, "uniform": {"kind", "rho", "u", "T"}}
    if kind not in ("riemann", "uniform"):
        raise ConfigError(f"unknown initial kind {kind!r} (riemann|uniform)")
    unknown = sorted(initial.keys() - allowed[kind])
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in the initial {kind!r} block")
    try:
        if kind == "uniform":
            state = tuple(typed_value(key, initial[key], float) for key in ("rho", "u", "T"))
        else:
            left = tuple(typed_value("left", v, float) for v in initial["left"])
            right = tuple(typed_value("right", v, float) for v in initial["right"])
            x_jump = typed_value("x_jump", initial.get("x_jump", 0.5 * (x0 + x1)), float)
    except KeyError as err:
        raise ConfigError(f"initial {kind!r} block is missing key {err.args[0]!r}") from None
    except (TypeError, ConfigError) as err:
        raise ConfigError(f"initial {kind!r} block has a bad value: {err}") from None
    if kind == "uniform":
        _check_state(kind, *state)
        return _uniform_profile(*state), None
    if len(left) != 3 or len(right) != 3:
        raise ConfigError("riemann states must be [rho, u, T] triples")
    _check_state("riemann", *left)
    _check_state("riemann", *right)
    if not math.isfinite(x_jump):
        raise ConfigError(f"initial 'riemann' block needs a finite x_jump, got x_jump={x_jump}")
    return _riemann_scenario_profile(left, right, x_jump), (left, right, x_jump)


def _check_state(kind, rho, u, T):
    """Reject an initial state that is not finite or has rho <= 0 or T <= 0."""
    if not (math.isfinite(u) and 0.0 < rho < math.inf and 0.0 < T < math.inf):
        raise ConfigError(
            f"initial {kind!r} state needs finite values with rho > 0 and T > 0, "
            f"got rho={rho}, u={u}, T={T}"
        )


def _parse_domain(domain):
    try:
        x0, x1 = (typed_value("domain", v, float) for v in domain)
    except (TypeError, ValueError, ConfigError) as err:
        raise ConfigError(f"domain must be [x0, x1], got {domain!r}") from err
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ConfigError(f"domain must be finite, got {domain!r}")
    return x0, x1
