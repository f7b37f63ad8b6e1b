"""Characteristic time integrators for the BGK relaxation equation.

Along the characteristic x(t) = x_i - v_j*(t^{n+1} - t), the equation reduces
to the stiff ODE df/dt = (M[f] - f)/eps.  Every scheme here treats the
relaxation implicitly yet solves it explicitly: the collision invariants make
the moments of the unknown stage equal the moments of its known transported
part, so the Maxwellian of the implicit stage is computable in advance and

    f = (g + tau * M[g]) / (1 + tau),        tau = a_ll * dt / eps,

which is L-stable and remains well-defined as eps -> 0.  Schemes differ only
in how they form g, and one function, `tableau_step`, forms it for all of
them from a `Tableau`: stage l sums the history f^n, f^{n-1}, ... with the
tableau's history weights, each transported (c_l + k)*dt upstream, plus the
earlier stage fluxes, rewritten as K = (F - g)/(a_ll*dt) so that no 1/eps
factor is ever formed.  A stiffly-accurate DIRK has the one history weight 1
(backward Euler is the one-stage DIRK); a BDF method is the one-stage tableau
over its history, started, and restarted after a change of step size, with
the DIRK of the same order (`TABLEAUS`).

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
RK2_ALPHA = 1.0 - math.sqrt(2.0) / 2.0
# the 3-stage SDIRK parameter: the middle root of 6x^3 - 18x^2 + 9x - 1
RK3_GAMMA = 0.435866521508459
RK3_DELTA = 1.5 * RK3_GAMMA**2 - 5.0 * RK3_GAMMA + 1.25


@dataclass(frozen=True)
class Tableau:
    """Stiffly-accurate tableau over a history; the update is the last stage.

    `history` weighs f^n, f^{n-1}, ... transported to each stage's feet,
    (c_l + k)*dt upstream for f^{n-k}: a DIRK has the one weight 1, a BDF
    method one stage and a weight per state it reads.  The weights sum to 1
    and each row satisfies sum_j a_lj - sum_k k*w_k = c_l, so a constant
    state is a fixed point and every stage is consistent with its foot.
    """

    a: tuple[tuple[float, ...], ...]
    c: tuple[float, ...]
    history: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        nu = len(self.c)
        if len(self.a) != nu or any(len(row) != nu for row in self.a):
            raise ConfigError("tableau matrix shape does not match c")
        if not self.history or abs(sum(self.history) - 1.0) > 1e-13:
            raise ConfigError(f"history weights {self.history} do not sum to 1")
        lag = sum(k * w for k, w in enumerate(self.history))
        for l, row in enumerate(self.a):
            if any(row[k] != 0.0 for k in range(l + 1, nu)):
                raise ConfigError("tableau must be lower triangular")
            if row[l] <= 0.0:
                raise ConfigError("tableau needs a positive diagonal")
            if abs(sum(row) - lag - self.c[l]) > 1e-13:
                raise ConfigError(f"row {l} of tableau is inconsistent with c and the history")
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

# BDF methods: one stage at the new time, the history 1, 2(, 3) steps upstream.
BDF2_TABLEAU = Tableau(a=((2.0 / 3.0,),), c=(1.0,), history=(4.0 / 3.0, -1.0 / 3.0))
BDF3_TABLEAU = Tableau(
    a=((6.0 / 11.0,),), c=(1.0,), history=(18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)
)

# Per integrator: (tableau, the same-order DIRK that starts its history, or
# None when the tableau reads only f^n).
TABLEAUS = {
    Integrator.EULER1: (EULER_TABLEAU, None),
    Integrator.RK2: (RK2_TABLEAU, None),
    Integrator.RK3: (RK3_TABLEAU, None),
    Integrator.BDF2: (BDF2_TABLEAU, RK2_TABLEAU),
    Integrator.BDF3: (BDF3_TABLEAU, RK3_TABLEAU),
}


# --------------------------------------------------------------------------
# Single steps
# --------------------------------------------------------------------------
@dataclass
class StepContext:
    """Everything a single step needs: grids, physics, transport, stiffness,
    and the transport buffers its steps gather into (see `foot`), which the
    context owns until `clear`."""

    grid: PhaseGrid
    system: KineticSystem
    transport: InterpolatedTransport
    eps: float

    def __post_init__(self):
        self._buffers: dict[int, np.ndarray] = {}

    def foot(self, field, tau, slot: int):
        """The field at the feet over tau, in the context's transport buffer
        `slot`, allocated on first use and held until `clear`.

        The caller may scale and add into the result until the next foot into
        the same slot, but must never return it as a step's new field.
        """
        out = self._buffers.get(slot)
        if out is None or out.shape != np.shape(field):
            out = self._buffers[slot] = np.empty(np.shape(field))
        return self.transport.shifted(field, tau, out=out)

    def clear(self) -> None:
        """Drop the transport buffers and the transport's plans."""
        self._buffers.clear()
        self.transport.clear()

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
    """g += scale*h in place, scaling h in place: h must be a scratch array."""
    h *= scale
    g += h


def tableau_step(ctx: StepContext, history, dt, tab: Tableau):
    """One step of dt from history = [f^n, f^{n-1}, ...] at spacing dt.

    Stage l sums the history states, f^{n-k} transported (c_l + k)*dt
    upstream with weight w_k, and the earlier stage fluxes, each evaluated at
    this stage's foot (offset (c_l - c_k)*dt upstream of where flux k lives).
    The stage flux is recovered without dividing by eps:
    K_l = (F_l - g_l)/(a_ll*dt).  The stage sum g is formed in the context's
    buffer 0 and each further history term and each transported flux in its
    buffer 1.  The flux is formed in the array of the stage's relaxed value,
    and each flux is released after the last stage that reads it: a stage
    allocates one field-sized array, its relaxed value, which becomes its
    flux or, at the last stage, the new field.
    """
    w, a, c = tab.history, tab.a, tab.c
    if len(history) < len(w):
        raise ConfigError(f"tableau reads {len(w)} history states, got {len(history)}")
    nu = tab.stages
    # the last stage that reads flux k, or -1 when no stage does
    last_read = [
        max((m for m in range(k + 1, nu) if a[m][k] != 0.0), default=-1) for k in range(nu)
    ]
    flux = [None] * nu
    for l in range(nu):
        g = ctx.foot(history[0], c[l] * dt, 0)
        if w[0] != 1.0:
            g *= w[0]
        for k in range(1, len(w)):
            _add_scaled(g, ctx.foot(history[k], (c[l] + k) * dt, 1), w[k])
        for k in range(l):
            a_lk = a[l][k]
            if a_lk != 0.0:
                _add_scaled(g, ctx.foot(flux[k], (c[l] - c[k]) * dt, 1), dt * a_lk)
                if last_read[k] == l:
                    flux[k] = None
        out = ctx.relax(g, a[l][l] * dt)
        if l == nu - 1:
            # with collisions off, relax returns the buffer g itself
            return g.copy() if out is g else out
        if last_read[l] >= 0:
            # into the relaxed value's own array, unless that is the buffer g
            flux[l] = np.subtract(out, g, out=None if out is g else out)
            flux[l] /= a[l][l] * dt
        del out


# --------------------------------------------------------------------------
# Time marching with history bookkeeping
# --------------------------------------------------------------------------
class TimeStepper:
    """Advance a distribution field one step at a time.

    Owns the running field, the history of earlier fields and one step
    context, whose transport takes node-aligned feet by exact gather for
    every scheme and whose two buffers every step gathers its transported
    fields into.  Every step is `tableau_step` with the integrator's tableau
    (`TABLEAUS`); while the stepper holds fewer equally spaced states than
    the tableau has history weights, it takes the integrator's startup DIRK
    instead, and after each step it keeps the newest len(history) - 1 states.
    A step of a new size, for any scheme, first drops the history (the
    history feet assume equal spacing), the buffers and the transport's
    plans of the old size, so the step runs without them.  A counter exposes
    how many startup (predictor) steps were taken.

    `field0` is taken as it is (`np.asarray`), not copied.  Each step
    allocates its new field; the buffers stay the context's and are never
    returned.  The stepper never writes into a field it was given or has
    returned, so a read-only field0 marches, `f` stays valid after the next
    step, and a history state is only read.
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
        if not (0.0 < dt < math.inf):
            raise ConfigError(f"step size must be positive and finite, got {dt}")
        if dt != self._dt:
            self._history = []
            self.ctx.clear()
            self._dt = dt
        tab, startup = TABLEAUS[self.scheme.integrator]
        history = [self.f] + self._history
        started = len(history) >= len(tab.history)
        if not started:
            self.predictor_steps += 1
        try:
            f_new = tableau_step(self.ctx, history, dt, tab if started else startup)
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
        self._history = history[: len(tab.history) - 1]
        self.f = f_new
        self.t += dt
        self.steps_taken += 1
