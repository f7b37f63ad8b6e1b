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
earlier stage fluxes K = (F - g)/(a_ll*dt).  A non-final stage forms its
flux straight from the Maxwellian, as its algebraic equal

    K = (M[g] - g)/(eps + a_ll*dt),

so no 1/eps factor is formed, and neither is the stage's relaxed value F;
only the last stage relaxes.  Each field is transported to all of its feet
when it is formed (`Schedule`); without collisions (eps = inf) every flux is
zero and none is formed, so a DIRK step is one transport of f^n.  A
stiffly-accurate DIRK has the one history weight 1 (backward Euler is the
one-stage DIRK); a BDF method is the one-stage tableau over its history,
started, and restarted after a change of step size, with the DIRK of the
same order (`TABLEAUS`).

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
    the buffer its steps sum and transport into (see `buffer`) and the
    schedule of each tableau and step size (see `schedule`), which the
    context owns until `clear`.  Without collisions (eps = inf) a step forms
    no flux and no moments."""

    grid: PhaseGrid
    system: KineticSystem
    transport: InterpolatedTransport
    eps: float

    def __post_init__(self):
        self._buffer: np.ndarray | None = None
        self._schedules: dict[tuple[Tableau, float], Schedule] = {}

    def buffer(self, rows: int, shape) -> np.ndarray:
        """The context's step buffer, `rows` arrays of `shape` stacked,
        allocated on first use or when the rows or shape change, and held
        until `clear`.  A step may scale and add into it, but must never
        return it, or a row of it, as its new field."""
        shape = (rows,) + tuple(shape)
        if self._buffer is None or self._buffer.shape != shape:
            self._buffer = np.empty(shape)
        return self._buffer

    def schedule(self, tab: Tableau, dt: float) -> Schedule:
        """The schedule of `tableau_step` for tab at step dt, built once.
        Building one drops the step buffer, sized for another schedule,
        before its transport plans are built."""
        key = (tab, dt)
        sched = self._schedules.get(key)
        if sched is None:
            self._buffer = None  # sized for the old schedule: not held while plans build
            sched = self._schedules[key] = Schedule.build(self, tab, dt)
        return sched

    def clear(self) -> None:
        """Drop the step buffer, the schedules and the transport's plans."""
        self._buffer = None
        self._schedules.clear()
        self.transport.clear()

    def relax(self, g, coeff_dt):
        """Implicit relaxation of g over an effective time coeff_dt:
        F = (g + tau M[g])/(1 + tau), tau = coeff_dt/eps.

        With collisions disabled (eps = inf) this is the identity, g itself,
        and no moments are formed (pure transport works on any data).  The
        solve overwrites the equilibrium, which is dead after it; g is kept.
        A non-final stage needs only its flux (F - g)/coeff_dt, which `flux`
        forms without F.
        """
        if math.isinf(self.eps):
            return g
        m_eq = self._equilibrium(g)
        return relaxation_solve(g, m_eq, coeff_dt / self.eps, out=m_eq)

    def flux(self, g, coeff_dt):
        """The stage flux K = (F - g)/coeff_dt of the relaxed value F of
        `relax`, formed straight from the equilibrium as
        K = (M[g] - g)/(eps + coeff_dt), its algebraic equal: F is never
        formed, and no 1/eps factor either.  K overwrites the equilibrium, a
        new array; g is kept.  With collisions disabled (eps = inf) the flux
        is exactly zero, and a step forms none (`Schedule`).
        """
        k = self._equilibrium(g)
        k -= g
        k *= 1.0 / (self.eps + coeff_dt)
        return k

    def _equilibrium(self, g):
        """The Maxwellian M[g] of g's moments, a new array."""
        return self.system.equilibrium(self.system.moments(g, self.grid), self.grid)


@dataclass(frozen=True)
class Schedule:
    """Which stage sums `tableau_step` adds each field into, and through
    which rows of its buffer.

    Fields are numbered history first, f^n = 0, f^{n-1} = 1, ..., then the
    stage fluxes K_0, K_1, ....  A step transports each field to all of its
    feet as soon as it exists, the history at the start of the step and K_l
    right after stage l: one `shifted` call per group of feet that read one
    interpolation window, each result added at once into its stage's sum.
    Stage l adds its terms in field order, the order in which the fields come
    to exist, so every sum has the bits of a step that transports one foot at
    a time when its stage runs.  f^n is the first term of every stage: its
    groups write straight into the stages' rows of the step buffer, held from
    the start of the step.  Every other field is transported into the
    buffer's first rows: scratch rows ahead of the stages' rows, and the rows
    of the stages already done.  Without collisions every flux is zero, so
    only the last stage runs, with its history terms alone, and its sum is a
    new array: a DIRK step is one transport of f^n.
    """

    sends: tuple  # per field: ((tau, rows, ((stage, scale), ...)), ...), one per window group
    rows: int  # rows of the step buffer

    @classmethod
    def build(cls, ctx: StepContext, tab: Tableau, dt: float) -> Schedule:
        w, a, c = tab.history, tab.a, tab.c
        nu, collisions = tab.stages, not math.isinf(ctx.eps)
        runs = range(nu) if collisions else [nu - 1]  # without collisions no flux is formed
        feet = [[(l, (c[l] + k) * dt, w[k]) for l in runs] for k in range(len(w))]
        feet += [
            [
                (m, (c[m] - c[l]) * dt, dt * a[m][l])
                for m in range(l + 1, nu)
                if collisions and a[m][l] != 0.0
            ]
            for l in range(nu - 1)
        ]
        groups = [
            [[terms[i] for i in group] for group in ctx.transport.windows([t for _, t, _ in terms])]
            for terms in feet
        ]
        # the stages' rows, in the order f^n's groups fill them, follow the
        # scratch rows; a later field is transported into the scratch rows
        # and the rows of the stages done before it exists
        layout = [l for group in groups[0] for l, _, _ in group]
        scratch = 0
        for field in range(1, len(groups)):
            done = 0
            while done < len(layout) and layout[done] <= field - len(w):
                done += 1
            scratch = max([scratch] + [len(group) - done for group in groups[field]])
        sends, first = [], scratch
        for field, field_groups in enumerate(groups):
            sends.append([])
            for group in field_groups:
                n, taus = len(group), tuple(t for _, t, _ in group)
                if field > 0:
                    rows = slice(0, n) if n > 1 else 0
                elif collisions:
                    rows, first = (slice(first, first + n) if n > 1 else first), first + n
                else:  # the last stage alone: its sum is the new field
                    rows = None
                to = tuple((l, scale) for l, _, scale in group)
                sends[-1].append((taus if n > 1 else taus[0], rows, to))
        return cls(sends=tuple(map(tuple, sends)), rows=first)


def tableau_step(ctx: StepContext, history, dt, tab: Tableau):
    """One step of dt from history = [f^n, f^{n-1}, ...] at spacing dt.

    Stage l sums the history states, f^{n-k} transported (c_l + k)*dt
    upstream with weight w_k, and the earlier stage fluxes, each evaluated at
    this stage's foot (offset (c_l - c_k)*dt upstream of where flux k lives).
    A non-final stage forms its flux K_l = (M[g_l] - g_l)/(eps + a_ll*dt),
    the algebraic equal of (F_l - g_l)/(a_ll*dt), without its relaxed value
    F_l and without dividing by eps (`StepContext.flux`); the last stage
    relaxes its sum into the new field.

    Each field goes to all of its feet when it is formed (the context's
    `schedule`): the history at the start of the step, each flux right after
    its stage.  Feet that share one WENO window take one `shifted` call, one
    gather, one set of differences and indicators, while the field is in
    cache.  Each result is added at once into its stage's sum, and a flux is
    released once it is sent.  The sums and the transported terms live in
    the context's step buffer.  A stage allocates one field-sized array, its
    sum's Maxwellian, which becomes its flux or, relaxed, the new field at the
    last stage.  Without collisions no flux is formed: the last stage's sum,
    a new array, is the new field, so a DIRK step is one transport of f^n.
    """
    w, a = tab.history, tab.a
    if len(history) < len(w):
        raise ConfigError(f"tableau reads {len(w)} history states, got {len(history)}")
    sched = ctx.schedule(tab, dt)
    buf = ctx.buffer(sched.rows, np.shape(history[0]))
    sums = [None] * tab.stages

    def send(field, value):
        """Transport a new field to all of its feet and add the results into
        their stages' sums."""
        for tau, rows, feet in sched.sends[field]:
            h = ctx.transport.shifted(value, tau, out=None if rows is None else buf[rows])
            for term, (l, scale) in zip(h if isinstance(tau, tuple) else (h,), feet):
                if scale != 1.0:
                    term *= scale
                if field == 0:  # the first term of stage l: its sum
                    sums[l] = term
                else:
                    sums[l] += term

    for k in range(len(w)):
        send(k, history[k])
    for l in range(tab.stages - 1):
        if sched.sends[len(w) + l]:  # with collisions, where a later stage reads the flux
            send(len(w) + l, ctx.flux(sums[l], a[l][l] * dt))
    return ctx.relax(sums[-1], a[-1][-1] * dt)


# --------------------------------------------------------------------------
# Time marching with history bookkeeping
# --------------------------------------------------------------------------
class TimeStepper:
    """Advance a distribution field one step at a time.

    Owns the running field, the history of earlier fields and one step
    context, whose transport takes node-aligned feet by exact gather for
    every scheme and whose step buffer every step transports its fields into.
    Every step is `tableau_step` with the integrator's tableau (`TABLEAUS`);
    while the stepper holds fewer equally spaced states than the tableau has
    history weights, it takes the integrator's startup DIRK instead, and
    after each step it keeps the newest len(history) - 1 states.  A step of a
    new size, for any scheme, first drops the history (the history feet
    assume equal spacing), the step buffer, the step schedules and the
    transport's plans of the old size, so the step runs without them.  A
    counter exposes how many startup (predictor) steps were taken.

    `field0` is taken as it is (`np.asarray`), not copied.  Each step
    allocates its new field; the step buffer stays the context's and is
    never returned.  The stepper never writes into a field it was given or has
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
