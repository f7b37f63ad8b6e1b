"""Run-option vocabulary: integrator / interpolation / boundary selectors and
the one converter of option values.

The string values of the enums are the tokens accepted on the command line.
"""
from __future__ import annotations

import enum
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


# Each integrator's interpolation when none is given.  Any of them marches at
# dt = dx/dv under cfl="lattice" (`PhaseGrid.dt_from_cfl`).
DEFAULT_INTERP = {
    Integrator.EULER1: Interp.LINEAR,
    Integrator.RK2: Interp.WENO23,
    Integrator.RK3: Interp.WENO23,
    Integrator.BDF2: Interp.WENO23,
    Integrator.BDF3: Interp.WENO23,
}

_CHOICE_NAMES = {Integrator: "integrator", Interp: "interpolation", Boundary: "boundary condition"}


def parse_choice(kind, token):
    """The member of the enum kind whose value equals token, ignoring case and
    surrounding blanks; a member of kind names itself."""
    if isinstance(token, kind):
        return token
    for member in kind:
        if member.value.lower() == str(token).strip().lower():
            return member
    choices = "|".join(member.value for member in kind)
    raise ConfigError(f"unknown {_CHOICE_NAMES[kind]} {token!r} (choose one of {choices})")


def typed_value(key, value, kind):
    """value converted to kind (a str must be one, a bool is never a number),
    or a ConfigError naming the key: the one converter of option values."""
    try:
        if isinstance(value, bool) != (kind is bool) or kind is str and not isinstance(value, str):
            raise TypeError
        typed = kind(value)
        if kind is int and typed != float(value):  # refuse a truncation
            raise ValueError
        return typed
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} expects {kind.__name__}, got {value!r}") from None


@dataclass(frozen=True)
class SchemeConfig:
    """Fully resolved numerical-scheme choice for one run."""

    integrator: Integrator
    interp: Interp
    boundary: Boundary
    eps: float  # relaxation time (Knudsen number); math.inf disables collisions

    def __post_init__(self):
        eps = typed_value("eps", self.eps, float)
        if not eps > 0.0:  # also rejects NaN
            raise ConfigError(f"eps must be a positive number, got {eps!r}")
        object.__setattr__(self, "eps", eps)
