"""Phase-space grid and time-step bookkeeping.

Space nodes x_i = x0 + i*dx, i = 0..nx (nx+1 nodes spanning [x0, x0+nx*dx]).
Velocity nodes v_j = j*dv, j = -nv..nv (2*nv+1 nodes, symmetric, v=0 included).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .moments import velocity_basis


@dataclass(frozen=True)
class PhaseGrid:
    x0: float
    x1: float
    nx: int
    nv: int
    vmax: float

    def __post_init__(self):
        if self.nx < 4:
            raise ConfigError(f"nx must be >= 4, got {self.nx}")
        if self.nv < 1:
            raise ConfigError(f"nv must be >= 1, got {self.nv}")
        if not (0.0 < self.vmax < np.inf):
            raise ConfigError(f"vmax must be positive and finite, got {self.vmax}")
        if not (np.isfinite(self.x0) and np.isfinite(self.x1)):
            raise ConfigError(f"x0 and x1 must be finite, got [{self.x0}, {self.x1}]")
        if not (self.x1 > self.x0):
            raise ConfigError(f"need x1 > x0, got [{self.x0}, {self.x1}]")

    @cached_property
    def dx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @cached_property
    def dv(self) -> float:
        return self.vmax / self.nv

    @cached_property
    def x(self) -> np.ndarray:
        """Space nodes, shape (nx+1,). Spans exactly nx*dx."""
        return self.x0 + np.arange(self.nx + 1) * self.dx

    @cached_property
    def jv(self) -> np.ndarray:
        """Integer velocity indices j = -nv..nv, shape (2*nv+1,)."""
        return np.arange(-self.nv, self.nv + 1)

    @cached_property
    def v(self) -> np.ndarray:
        """Velocity nodes j*dv, shape (2*nv+1,). Exactly antisymmetric."""
        return self.jv * self.dv

    @cached_property
    def moment_weights(self) -> np.ndarray:
        """Midpoint-rule weights dv*[1, v, v^2/2], shape (2*nv+1, 3), C-contiguous.

        One product f @ moment_weights gives (rho, rho*u, energy) of every
        velocity row of f.
        """
        v = self.v
        return np.stack([np.ones_like(v), v, 0.5 * v * v], axis=-1) * self.dv

    @cached_property
    def velocity_basis(self) -> np.ndarray:
        """Quadratic basis [1; v; v^2], shape (3, 2*nv+1), C-contiguous.

        One product C @ velocity_basis gives the Maxwellian exponent of every
        node from its coefficients (see `moments.maxwellian_rows`).
        """
        return velocity_basis(self.v)

    @property
    def n_space(self) -> int:
        return self.nx + 1

    @property
    def n_vel(self) -> int:
        return 2 * self.nv + 1

    def dt_from_cfl(self, cfl: float | str) -> float:
        """The step of CFL number cfl; cfl = "lattice" gives dx/dv, whose feet
        over any multiple of it land on nodes (effective CFL nv)."""
        if cfl == "lattice":
            return self.dx / self.dv
        if not (0.0 < cfl < np.inf):  # also refuses NaN
            raise ConfigError(f"cfl must be positive and finite, got {cfl}")
        return cfl * self.dx / self.vmax


# Refusal bound on t_final/dt: far above any run of the tests, the bench or the
# README (the largest takes about 1e4 steps), far below a march without end.
MAX_STEPS = 10**7


def check_step_count(ratio: float) -> None:
    """Refuse a step count t_final/dt that is not finite or above MAX_STEPS."""
    if not ratio <= MAX_STEPS:  # also refuses NaN
        raise ConfigError(f"t_final/dt = {ratio:.6g} steps; at most {MAX_STEPS} are allowed")


@dataclass(frozen=True)
class TimeControl:
    """Splits [0, t_final] into n_full steps of dt plus an optional shorter last step.

    Exact multiples are detected with a small relative tolerance so that dt
    computed as t_final/n reproduces exactly n steps.
    """

    dt: float
    t_final: float
    n_full: int = field(init=False)
    dt_last: float = field(init=False)

    _REL_TOL = 1e-9

    def __post_init__(self):
        if not (0.0 < self.dt < np.inf):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (0.0 <= self.t_final < np.inf):
            raise ConfigError(f"t_final must be >= 0 and finite, got {self.t_final}")
        ratio = self.t_final / self.dt
        check_step_count(ratio)
        n_round = int(round(ratio))
        if n_round >= 1 and abs(self.t_final - n_round * self.dt) <= self._REL_TOL * self.dt:
            n_full, dt_last = n_round, 0.0
        else:
            n_full = int(np.floor(ratio))
            dt_last = self.t_final - n_full * self.dt
            if dt_last <= self._REL_TOL * self.dt:
                dt_last = 0.0
        object.__setattr__(self, "n_full", n_full)
        object.__setattr__(self, "dt_last", dt_last)

    @property
    def has_short_step(self) -> bool:
        return self.dt_last > 0.0

    @property
    def n_steps(self) -> int:
        return self.n_full + (1 if self.has_short_step else 0)

    def steps(self):
        """Yield the sequence of step sizes covering [0, t_final]."""
        for _ in range(self.n_full):
            yield self.dt
        if self.has_short_step:
            yield self.dt_last
