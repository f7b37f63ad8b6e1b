"""Exact Riemann solver for the 1D compressible Euler equations.

Classic exact solution (two nonlinear waves around a contact): the star
pressure solves f_L(p) + f_R(p) + (u_R - u_L) = 0 where each side function
is the shock (Rankine-Hugoniot) or rarefaction (isentrope) relation.  Newton
iteration with a positivity-guarded update converges for any gamma > 1
whenever the data do not generate vacuum.

Used as the fluid-dynamic reference for the kinetic solver: gamma = 3 for
the plain 1V gas, gamma = 5/3 for the reduced 3V gas.  Self-similar
sampling is by xi = (x - x_jump)/t with left-closed intervals: a point
exactly on a wave speed takes the state on the right of that wave.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

_P_FLOOR = 1e-14
_NEWTON_RTOL = 1e-12
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class GasState:
    """Primitive gas state (density, velocity, pressure)."""

    rho: float
    u: float
    p: float

    def __post_init__(self):
        if not (self.rho > 0.0 and self.p > 0.0):
            raise ConfigError(f"gas state needs rho > 0 and p > 0, got {self}")

    def sound_speed(self, gamma: float) -> float:
        return math.sqrt(gamma * self.p / self.rho)

    @staticmethod
    def from_rho_u_T(rho: float, u: float, T: float) -> "GasState":
        """The state of temperature T = p/rho."""
        return GasState(rho=rho, u=u, p=rho * T)


def _side_function(p: float, s: GasState, gamma: float) -> tuple[float, float]:
    """(f_K(p), f_K'(p)) for one side: shock branch above p_K, rarefaction below."""
    a = s.sound_speed(gamma)
    if p > s.p:
        A = 2.0 / ((gamma + 1.0) * s.rho)
        B = (gamma - 1.0) / (gamma + 1.0) * s.p
        root = math.sqrt(A / (p + B))
        f = (p - s.p) * root
        df = root * (1.0 - 0.5 * (p - s.p) / (p + B))
    else:
        ratio = p / s.p
        f = 2.0 * a / (gamma - 1.0) * (ratio ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)
        df = ratio ** (-(gamma + 1.0) / (2.0 * gamma)) / (s.rho * a)
    return f, df


class RiemannSolution:
    """Star-region solve at construction; `sample(xi)` evaluates the profile."""

    def __init__(self, left: GasState, right: GasState, gamma: float):
        if not gamma > 1.0:
            raise ConfigError(f"gamma must exceed 1, got {gamma}")
        self.left, self.right, self.gamma = left, right, gamma
        a_l, a_r = left.sound_speed(gamma), right.sound_speed(gamma)
        if 2.0 * (a_l + a_r) / (gamma - 1.0) <= right.u - left.u:
            raise NumericalError("initial states generate vacuum; no star region")

        self.p_star, self.iterations = self._solve_p_star()
        f_l, _ = _side_function(self.p_star, left, gamma)
        f_r, _ = _side_function(self.p_star, right, gamma)
        self.u_star = 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)

        gm = (gamma - 1.0) / (gamma + 1.0)
        if self.p_star > left.p:  # left shock
            pr = self.p_star / left.p
            self.rho_star_l = left.rho * (pr + gm) / (gm * pr + 1.0)
            self.speed_left = (
                left.u - a_l * math.sqrt((gamma + 1.0) / (2.0 * gamma) * pr
                                         + (gamma - 1.0) / (2.0 * gamma))
            )
            self.left_is_shock = True
        else:  # left rarefaction
            self.rho_star_l = left.rho * (self.p_star / left.p) ** (1.0 / gamma)
            a_star = a_l * (self.p_star / left.p) ** ((gamma - 1.0) / (2.0 * gamma))
            self.speed_left = left.u - a_l  # head
            self.speed_left_tail = self.u_star - a_star
            self.left_is_shock = False

        if self.p_star > right.p:  # right shock
            pr = self.p_star / right.p
            self.rho_star_r = right.rho * (pr + gm) / (gm * pr + 1.0)
            self.speed_right = (
                right.u + a_r * math.sqrt((gamma + 1.0) / (2.0 * gamma) * pr
                                          + (gamma - 1.0) / (2.0 * gamma))
            )
            self.right_is_shock = True
        else:  # right rarefaction
            self.rho_star_r = right.rho * (self.p_star / right.p) ** (1.0 / gamma)
            a_star = a_r * (self.p_star / right.p) ** ((gamma - 1.0) / (2.0 * gamma))
            self.speed_right = right.u + a_r  # head
            self.speed_right_tail = self.u_star + a_star
            self.right_is_shock = False

    def _solve_p_star(self) -> tuple[float, int]:
        left, right, gamma = self.left, self.right, self.gamma
        du = right.u - left.u
        a_l, a_r = left.sound_speed(gamma), right.sound_speed(gamma)
        # primitive-variable guess, floored away from zero
        p_pv = 0.5 * (left.p + right.p) - 0.125 * du * (left.rho + right.rho) * (a_l + a_r)
        p = max(_P_FLOOR, p_pv)
        for iteration in range(1, _NEWTON_MAX_ITER + 1):
            f_l, df_l = _side_function(p, left, gamma)
            f_r, df_r = _side_function(p, right, gamma)
            p_new = p - (f_l + f_r + du) / (df_l + df_r)
            if p_new <= 0.0:
                p_new = _P_FLOOR
            if 2.0 * abs(p_new - p) / (p_new + p) < _NEWTON_RTOL:
                return p_new, iteration
            p = p_new
        raise NumericalError(
            f"star-pressure Newton iteration did not converge in {_NEWTON_MAX_ITER} steps"
        )

    def sample(self, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho, u, p) at the self-similar coordinates xi = x/t."""
        xi = np.asarray(xi, dtype=float)
        gamma = self.gamma
        left, right = self.left, self.right
        a_l, a_r = left.sound_speed(gamma), right.sound_speed(gamma)
        rho = np.empty_like(xi)
        u = np.empty_like(xi)
        p = np.empty_like(xi)

        on_left = xi < self.u_star
        if self.left_is_shock:
            pre = on_left & (xi < self.speed_left)
            star = on_left & ~pre
            _fill(rho, u, p, pre, left.rho, left.u, left.p)
            _fill(rho, u, p, star, self.rho_star_l, self.u_star, self.p_star)
        else:
            pre = on_left & (xi < self.speed_left)
            fan = on_left & (xi >= self.speed_left) & (xi < self.speed_left_tail)
            star = on_left & (xi >= self.speed_left_tail)
            _fill(rho, u, p, pre, left.rho, left.u, left.p)
            if fan.any():
                base = 2.0 / (gamma + 1.0) + (gamma - 1.0) / ((gamma + 1.0) * a_l) * (
                    left.u - xi[fan]
                )
                rho[fan] = left.rho * base ** (2.0 / (gamma - 1.0))
                u[fan] = 2.0 / (gamma + 1.0) * (a_l + 0.5 * (gamma - 1.0) * left.u + xi[fan])
                p[fan] = left.p * base ** (2.0 * gamma / (gamma - 1.0))
            _fill(rho, u, p, star, self.rho_star_l, self.u_star, self.p_star)

        on_right = ~on_left
        if self.right_is_shock:
            star = on_right & (xi < self.speed_right)
            post = on_right & ~star
            _fill(rho, u, p, star, self.rho_star_r, self.u_star, self.p_star)
            _fill(rho, u, p, post, right.rho, right.u, right.p)
        else:
            star = on_right & (xi < self.speed_right_tail)
            fan = on_right & (xi >= self.speed_right_tail) & (xi < self.speed_right)
            post = on_right & (xi >= self.speed_right)
            _fill(rho, u, p, star, self.rho_star_r, self.u_star, self.p_star)
            if fan.any():
                base = 2.0 / (gamma + 1.0) - (gamma - 1.0) / ((gamma + 1.0) * a_r) * (
                    right.u - xi[fan]
                )
                rho[fan] = right.rho * base ** (2.0 / (gamma - 1.0))
                u[fan] = 2.0 / (gamma + 1.0) * (-a_r + 0.5 * (gamma - 1.0) * right.u + xi[fan])
                p[fan] = right.p * base ** (2.0 * gamma / (gamma - 1.0))
            _fill(rho, u, p, post, right.rho, right.u, right.p)

        return rho, u, p


def _fill(rho, u, p, mask, rho_val, u_val, p_val):
    rho[mask] = rho_val
    u[mask] = u_val
    p[mask] = p_val


def riemann_profile(
    left_rut: tuple[float, float, float],
    right_rut: tuple[float, float, float],
    gamma: float,
    x,
    t: float,
    x_jump: float = 0.5,
):
    """Exact (rho, u, T, E) profile at time t from (rho, u, T) initial states.

    E uses the calorically-perfect relation E = p/(gamma - 1) + rho u^2 / 2,
    which matches both kinetic systems' energy definitions for their gammas.
    """
    x = np.asarray(x, dtype=float)
    left = GasState.from_rho_u_T(*left_rut)
    right = GasState.from_rho_u_T(*right_rut)
    if t <= 0.0:
        on_left = x < x_jump
        rho = np.where(on_left, left.rho, right.rho)
        u = np.where(on_left, left.u, right.u)
        p = np.where(on_left, left.p, right.p)
    else:
        solution = RiemannSolution(left, right, gamma)
        rho, u, p = solution.sample((x - x_jump) / t)
    T = p / rho
    E = p / (gamma - 1.0) + 0.5 * rho * u**2
    return rho, u, T, E
