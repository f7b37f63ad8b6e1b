"""Scheme configuration: integrator / interpolation / boundary selectors.

The string values of the enums, and the keys of `SCHEMES`, are the tokens
accepted on the command line.
"""
from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

from .errors import ConfigError


class Integrator(enum.Enum):
    """Characteristic time integrators: one-step DIRKs and BDF multistep methods;
    each is a tableau of `integrators.TABLEAUS`."""

    EULER1 = "Euler1"
    RK2 = "RK2"
    RK3 = "RK3"
    BDF2 = "BDF2"
    BDF3 = "BDF3"


class Interp(enum.Enum):
    """Spatial interpolation used to evaluate characteristic feet."""

    LINEAR = "linear"
    WENO23 = "weno23"
    WENO35 = "weno35"


class Boundary(enum.Enum):
    """Boundary treatment for ghost nodes / off-grid characteristic feet."""

    PERIODIC = "periodic"
    REFLECTIVE = "reflective"
    FREEFLOW = "freeflow"


# Per --scheme token: (integrator, default interpolation).  Any of them marches
# at dt = dx/dv under cfl="lattice" (`PhaseGrid.dt_from_cfl`).
SCHEMES = {
    "Euler1": (Integrator.EULER1, Interp.LINEAR),
    "RK2": (Integrator.RK2, Interp.WENO23),
    "RK3": (Integrator.RK3, Interp.WENO23),
    "BDF2": (Integrator.BDF2, Interp.WENO23),
    "BDF3": (Integrator.BDF3, Interp.WENO23),
}


def _match(token, choices, what: str) -> str:
    """The choice equal to token, ignoring case and surrounding blanks."""
    for choice in choices:
        if choice.lower() == str(token).strip().lower():
            return choice
    raise ConfigError(f"unknown {what} {token!r} (choose one of {'|'.join(choices)})")


def parse_scheme(token: str | Integrator) -> str:
    """The `SCHEMES` key a token names; an integrator names its own token."""
    if isinstance(token, Integrator):
        return token.value
    return _match(token, SCHEMES, "integrator")


def parse_interp(token: str | Interp) -> Interp:
    if isinstance(token, Interp):
        return token
    return Interp(_match(token, [m.value for m in Interp], "interpolation"))


def parse_boundary(token: str | Boundary) -> Boundary:
    if isinstance(token, Boundary):
        return token
    return Boundary(_match(token, [m.value for m in Boundary], "boundary condition"))


@dataclass(frozen=True)
class SchemeConfig:
    """Fully resolved numerical-scheme choice for one run."""

    integrator: Integrator
    interp: Interp
    boundary: Boundary
    eps: float  # relaxation time (Knudsen number); math.inf disables collisions

    def __post_init__(self):
        if not (isinstance(self.eps, numbers.Real) and self.eps > 0.0):  # also rejects NaN
            raise ConfigError(f"eps must be a positive number, got {self.eps!r}")
