"""Characteristic time integrators for the BGK relaxation equation.

Along the characteristic x(t) = x_i - v_j*(t^{n+1} - t), the equation reduces
to the stiff ODE df/dt = (M[f] - f)/eps.  Every scheme here treats the
relaxation implicitly yet solves it explicitly: the collision invariants make
the moments of the unknown stage equal the moments of its known transported
part, so the Maxwellian of the implicit stage is computable in advance and

    f = (g + tau * M[g]) / (1 + tau),        tau = a_ll * dt / eps,

which is L-stable and remains well-defined as eps -> 0.  Schemes differ only
in how they form g:

- stiffly-accurate DIRK methods (`dirk_step`) gather the transported start
  value and the earlier stage fluxes, rewritten as K = (F - g)/(a_ll*dt) so
  that no 1/eps factor is ever formed; backward Euler is the one-stage DIRK
  `EULER_TABLEAU`;
- BDF multistep methods (`bdf_step`) sum the history transported from feet
  1, 2(, 3) characteristic lengths upstream; the history is started, and
  restarted after a change of step size, with the DIRK of the same order.

All steps are parameterized over one transport operator, which gathers
node-aligned feet exactly and interpolates the others, and a kinetic system
(plain 1V or the reduced 3V pair).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Integrator, SchemeConfig
from .errors import ConfigError, DegenerateStateError, NumericalError
from .grid import PhaseGrid
from .moments import relaxation_solve
from .systems import KineticSystem
from .transport import InterpolatedTransport
from .weno import Interpolator


# --------------------------------------------------------------------------
# Butcher tableaus (all stiffly accurate with positive diagonal => L-stable)
# --------------------------------------------------------------------------
def _sdirk3_gamma() -> float:
    """Middle root of 6x^3 - 18x^2 + 9x - 1, the 3-stage SDIRK parameter."""
    roots = np.roots([6.0, -18.0, 9.0, -1.0])
    g = float(np.sort(roots.real[np.abs(roots.imag) < 1e-8])[1])
    for _ in range(3):  # Newton polish to full double precision
        p = ((6.0 * g - 18.0) * g + 9.0) * g - 1.0
        dp = (18.0 * g - 36.0) * g + 9.0
        g -= p / dp
    return g


RK2_ALPHA = 1.0 - math.sqrt(2.0) / 2.0
RK3_GAMMA = _sdirk3_gamma()
RK3_DELTA = 1.5 * RK3_GAMMA**2 - 5.0 * RK3_GAMMA + 1.25


@dataclass(frozen=True)
class Tableau:
    """Stiffly-accurate DIRK tableau; the weights are the last row of `a`."""

    a: tuple[tuple[float, ...], ...]
    c: tuple[float, ...]

    def __post_init__(self):
        nu = len(self.c)
        if len(self.a) != nu or any(len(row) != nu for row in self.a):
            raise ConfigError("tableau matrix shape does not match c")
        for l, row in enumerate(self.a):
            if any(row[k] != 0.0 for k in range(l + 1, nu)):
                raise ConfigError("tableau must be lower triangular")
            if row[l] <= 0.0:
                raise ConfigError("tableau needs a positive diagonal")
            if abs(sum(row) - self.c[l]) > 1e-13:
                raise ConfigError(f"row {l} of tableau is inconsistent with c")
        if abs(self.c[-1] - 1.0) > 1e-13:
            raise ConfigError("stiffly-accurate tableau must end at c = 1")

    @property
    def stages(self) -> int:
        return len(self.c)


EULER_TABLEAU = Tableau(a=((1.0,),), c=(1.0,))

RK2_TABLEAU = Tableau(
    a=((RK2_ALPHA, 0.0), (1.0 - RK2_ALPHA, RK2_ALPHA)),
    c=(RK2_ALPHA, 1.0),
)

# First stage abscissa equals the diagonal so that every stage solves its
# relaxation over a_ll*dt at a foot c_l*dt upstream (consistent row sums).
RK3_TABLEAU = Tableau(
    a=(
        (RK3_GAMMA, 0.0, 0.0),
        ((1.0 - RK3_GAMMA) / 2.0, RK3_GAMMA, 0.0),
        (1.0 - RK3_DELTA - RK3_GAMMA, RK3_DELTA, RK3_GAMMA),
    ),
    c=(RK3_GAMMA, (1.0 + RK3_GAMMA) / 2.0, 1.0),
)

# A-stable 2-stage method whose abscissas are thirds: on a lattice with
# dv*dt = 3*dx all its stage offsets are node-aligned.  Second order at any dt.
LATTICE_RK2_TABLEAU = Tableau(
    a=((1.0 / 3.0, 0.0), (3.0 / 4.0, 1.0 / 4.0)),
    c=(1.0 / 3.0, 1.0),
)

# The DIRK of each integrator: its step, or the same-order startup of a BDF history.
DIRK_TABLEAU = {
    Integrator.EULER1: EULER_TABLEAU,
    Integrator.RK2: RK2_TABLEAU,
    Integrator.RK3: RK3_TABLEAU,
    Integrator.BDF2: RK2_TABLEAU,
    Integrator.BDF3: RK3_TABLEAU,
    Integrator.LATTICE_RK2: LATTICE_RK2_TABLEAU,
}

# BDF history weights (feet at 1, 2(, 3) characteristic lengths upstream)
# and the relaxation coefficient of the implicit current-time term.
BDF_WEIGHTS = {
    2: ((4.0 / 3.0, -1.0 / 3.0), 2.0 / 3.0),
    3: ((18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0), 6.0 / 11.0),
}


# --------------------------------------------------------------------------
# Single steps
# --------------------------------------------------------------------------
@dataclass
class StepContext:
    """Everything a single step needs: grids, physics, transport, stiffness."""

    grid: PhaseGrid
    system: KineticSystem
    transport: InterpolatedTransport
    eps: float

    def foot(self, field, tau):
        """The field at the feet over tau: a new array the caller may modify."""
        return self.transport.shifted(field, tau)

    def relax(self, g, coeff_dt):
        """Implicit relaxation of g over an effective time coeff_dt.

        With collisions disabled (eps = inf) this is the identity, and no
        moments are formed (pure transport works on any data).  The solve
        overwrites the equilibrium, which is dead after it; g is kept.
        """
        if math.isinf(self.eps):
            return g
        mom = self.system.moments(g, self.grid)
        m_eq = self.system.equilibrium(mom, self.grid)
        return relaxation_solve(g, m_eq, coeff_dt / self.eps, out=m_eq)


def _add_scaled(g, h, scale):
    """g += scale*h in place, scaling h in place: h must be a scratch array.

    Called with a fresh transport result, which dies on return instead of
    staying alive in the caller through the relaxation that follows.
    """
    h *= scale
    g += h


def dirk_step(ctx: StepContext, f, dt, tab: Tableau):
    """Stiffly-accurate DIRK step; the update is the last stage.

    Stage l gathers the transported start value plus earlier stage fluxes,
    each evaluated at this stage's foot (offset (c_l - c_k)*dt upstream of
    where flux k lives).  The stage flux is recovered without dividing by
    eps:  K_l = (F_l - g_l)/(a_ll*dt).  Once it is formed, the stage's g and
    relaxed value are released, so that the next stage's transports run
    with only f and the earlier fluxes alive.
    """
    nu = tab.stages
    a, c = tab.a, tab.c
    flux_needed = [any(a[m][l] != 0.0 for m in range(l + 1, nu)) for l in range(nu)]
    flux = [None] * nu
    for l in range(nu):
        g = ctx.foot(f, c[l] * dt)
        for k in range(l):
            a_lk = a[l][k]
            if a_lk != 0.0:
                _add_scaled(g, ctx.foot(flux[k], (c[l] - c[k]) * dt), dt * a_lk)
        # With collisions off, relax returns g itself: neither is touched below.
        out = ctx.relax(g, a[l][l] * dt)
        if l == nu - 1:
            return out
        if flux_needed[l]:
            flux[l] = np.subtract(out, g)
            flux[l] /= a[l][l] * dt
        del g, out


def bdf_step(ctx: StepContext, states, dt, order: int):
    """BDF step from states = [f^n, f^{n-1}(, f^{n-2})] at spacing dt."""
    try:
        weights, relax_coeff = BDF_WEIGHTS[order]
    except KeyError:
        raise ConfigError(f"BDF order must be 2 or 3, got {order}") from None
    if len(states) < order:
        raise ConfigError(f"BDF{order} needs {order} history states, got {len(states)}")
    g = ctx.foot(states[0], dt)
    g *= weights[0]
    for k in range(1, order):
        _add_scaled(g, ctx.foot(states[k], (k + 1) * dt), weights[k])
    return ctx.relax(g, relax_coeff * dt)


# --------------------------------------------------------------------------
# Time marching with history bookkeeping
# --------------------------------------------------------------------------
class TimeStepper:
    """Advance a distribution field one step at a time.

    Owns the running field, the BDF history and one transport, which takes
    node-aligned feet by exact gather for every scheme.  A step of a new
    size, for any scheme, first drops the history (the multistep feet assume
    equal spacing) and the transport's plans of the old size, so the step
    runs without them.  A counter exposes how many BDF predictor steps were
    taken.

    `field0` is taken as it is (`np.asarray`), not copied: the stepper never
    writes into a field it was given or has returned, so a read-only field0
    marches, and `f` stays valid after the next step.
    """

    def __init__(self, field0, grid: PhaseGrid, system: KineticSystem, scheme: SchemeConfig):
        self.grid = grid
        self.scheme = scheme
        self.f = system.check_field(field0, grid)
        if not np.all(np.isfinite(self.f)):
            raise NumericalError("initial field contains non-finite values")

        transport = InterpolatedTransport(grid, Interpolator(scheme.interp), scheme.boundary)
        self.ctx = StepContext(grid=grid, system=system, transport=transport, eps=scheme.eps)

        self.t = 0.0
        self.steps_taken = 0
        self.predictor_steps = 0
        self._history: list[np.ndarray] = []
        self._dt: float | None = None

    # -- public ------------------------------------------------------------
    def step(self, dt: float) -> None:
        if not (dt > 0.0):
            raise ConfigError(f"step size must be positive, got {dt}")
        integrator = self.scheme.integrator
        if dt != self._dt:
            self._history = []
            self.ctx.transport.clear()
            self._dt = dt
        try:
            f_new = self._advance(dt)
        except DegenerateStateError as err:
            raise DegenerateStateError(
                f"{err} (while taking step {self.steps_taken + 1} from t={self.t:.8g})",
                node=err.node,
            ) from err
        if not np.all(np.isfinite(f_new)):
            raise NumericalError(
                f"non-finite distribution values after step {self.steps_taken + 1} "
                f"(t={self.t + dt:.8g})"
            )
        if integrator.is_multistep:
            self._history = [self.f] + self._history[: integrator.order - 2]
        self.f = f_new
        self.t += dt
        self.steps_taken += 1

    # -- internals -----------------------------------------------------------
    def _advance(self, dt):
        """The new field after one step of dt from self.f: a one-step DIRK, or a
        BDF step, with the same-order DIRK as predictor until the history
        holds order - 1 equally spaced states."""
        integrator = self.scheme.integrator
        if integrator.is_multistep:
            if len(self._history) >= integrator.order - 1:
                return bdf_step(self.ctx, [self.f] + self._history, dt, integrator.order)
            self.predictor_steps += 1
        return dirk_step(self.ctx, self.f, dt, DIRK_TABLEAU[integrator])
