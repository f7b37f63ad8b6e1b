"""Scheme configuration: integrator / interpolation / boundary selectors.

The string values of the enums are the tokens accepted on the command line.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError


class Integrator(enum.Enum):
    """Characteristic time integrators (Lat* variants are interpolation-free)."""

    EULER1 = "Euler1"
    RK2 = "RK2"
    RK3 = "RK3"
    BDF2 = "BDF2"
    BDF3 = "BDF3"
    LATTICE_EULER = "LatEuler"
    LATTICE_BDF2 = "LatBDF2"
    LATTICE_BDF3 = "LatBDF3"
    LATTICE_RK2 = "LatRK2"

    @property
    def is_lattice(self) -> bool:
        return _TRAITS[self][1] > 0

    @property
    def is_multistep(self) -> bool:
        """BDF schemes, whose step reads the fields of earlier steps."""
        return _TRAITS[self][2]

    @property
    def order(self) -> int:
        return _TRAITS[self][0]

    @property
    def lattice_stride(self) -> int:
        """Nodes swept per unit velocity index per step (lattice schemes only)."""
        if not self.is_lattice:
            raise ConfigError(f"{self.value} is not a lattice integrator")
        return _TRAITS[self][1]


# Per integrator: (order, lattice stride or 0 off the lattice, is multistep).
_TRAITS = {
    Integrator.EULER1: (1, 0, False),
    Integrator.RK2: (2, 0, False),
    Integrator.RK3: (3, 0, False),
    Integrator.BDF2: (2, 0, True),
    Integrator.BDF3: (3, 0, True),
    Integrator.LATTICE_EULER: (1, 1, False),
    Integrator.LATTICE_BDF2: (2, 1, True),
    Integrator.LATTICE_BDF3: (3, 1, True),
    Integrator.LATTICE_RK2: (2, 3, False),
}


class Interp(enum.Enum):
    """Spatial interpolation used to evaluate characteristic feet."""

    LINEAR = "linear"
    WENO23 = "weno23"
    WENO35 = "weno35"
    NONE = "none"


class Boundary(enum.Enum):
    """Boundary treatment for ghost nodes / off-grid characteristic feet."""

    PERIODIC = "periodic"
    REFLECTIVE = "reflective"
    FREEFLOW = "freeflow"


def _parse_enum(cls, token, what):
    for member in cls:
        if member.value.lower() == str(token).strip().lower():
            return member
    choices = "|".join(m.value for m in cls)
    raise ConfigError(f"unknown {what} {token!r} (choose one of {choices})")


def parse_integrator(token: str | Integrator) -> Integrator:
    if isinstance(token, Integrator):
        return token
    return _parse_enum(Integrator, token, "integrator")


def parse_interp(token: str | Interp) -> Interp:
    if isinstance(token, Interp):
        return token
    return _parse_enum(Interp, token, "interpolation")


def parse_boundary(token: str | Boundary) -> Boundary:
    if isinstance(token, Boundary):
        return token
    return _parse_enum(Boundary, token, "boundary condition")


def default_interp(integrator: Integrator) -> Interp:
    """Natural pairing when the user does not pick an interpolation."""
    if integrator.is_lattice:
        return Interp.NONE
    if integrator is Integrator.EULER1:
        return Interp.LINEAR
    return Interp.WENO23


@dataclass(frozen=True)
class SchemeConfig:
    """Fully resolved numerical-scheme choice for one run."""

    integrator: Integrator
    interp: Interp
    boundary: Boundary
    eps: float  # relaxation time (Knudsen number); math.inf disables collisions
    cfl: float = 4.0

    def __post_init__(self):
        if not (self.eps > 0.0):  # also rejects NaN
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if not (0.0 < self.cfl < math.inf) and not self.integrator.is_lattice:
            raise ConfigError(f"cfl must be positive and finite, got {self.cfl}")
        if self.integrator.is_lattice:
            if self.interp is not Interp.NONE:
                raise ConfigError(
                    f"{self.integrator.value} is interpolation-free; "
                    f"use --interp none (got {self.interp.value})"
                )
        elif self.interp is Interp.NONE:
            raise ConfigError(
                f"{self.integrator.value} needs an interpolation "
                "(linear|weno23|weno35)"
            )
