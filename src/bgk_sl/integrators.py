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
    the buffers its steps transport into (see `buffer`) and the schedule of
    each tableau and step size (see `schedule`), which the context owns
    until `clear`."""

    grid: PhaseGrid
    system: KineticSystem
    transport: InterpolatedTransport
    eps: float

    def __post_init__(self):
        self._buffers: dict[int, np.ndarray] = {}
        self._schedules: dict[tuple[Tableau, float], Schedule] = {}

    def buffer(self, slot: int, rows: int, shape) -> np.ndarray:
        """The context's buffer `slot`, `rows` arrays of `shape` stacked,
        allocated on first use or when the rows or shape change, and held
        until `clear`.  A step may scale and add into it, but must never
        return it, or a row of it, as its new field."""
        shape = (rows,) + tuple(shape)
        out = self._buffers.get(slot)
        if out is None or out.shape != shape:
            out = self._buffers[slot] = np.empty(shape)
        return out

    def schedule(self, tab: Tableau, dt: float) -> Schedule:
        """The schedule of `tableau_step` for tab at step dt, built once."""
        key = (tab, dt)
        sched = self._schedules.get(key)
        if sched is None:
            sched = self._schedules[key] = Schedule.build(self.transport, tab, dt)
        return sched

    def clear(self) -> None:
        """Drop the buffers, the schedules and the transport's plans."""
        self._buffers.clear()
        self._schedules.clear()
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


@dataclass(frozen=True)
class Schedule:
    """When `tableau_step` transports which field to which stage's feet.

    Fields are numbered history first, f^n = 0, f^{n-1} = 1, ..., then the
    stage fluxes K_0, K_1, ... in the order a step forms them.  Stage l sums
    its terms (field, tau, scale) in a fixed order: the history states, then
    the fluxes of the earlier stages.  A field is transported *early*, as
    soon as it exists, to each group of two or more of its feet that share
    one interpolation window, when every earlier term of those feet's stages
    is early too; each result is then added at once into its stage's sum,
    which the step holds from its start in its own row of the sum buffer.
    Every other term is *lazy*: transported when its stage runs, as a step
    without shared windows transports every term.  So each stage adds its
    terms in the same order either way, and the sums are the same bits.
    """

    early: tuple  # per field: ((taus, ((stage, scale), ...)), ...), one per shared window
    lazy: tuple  # per stage: ((field, tau, scale), ...) in summing order
    row: tuple  # per stage: its row of the sum buffer
    scratch: int  # rows of the scratch buffer
    last_read: tuple  # per field: the last stage with a lazy term of it if a flux, else -1

    @classmethod
    def build(cls, transport: InterpolatedTransport, tab: Tableau, dt: float) -> Schedule:
        w, a, c = tab.history, tab.a, tab.c
        nu, nfields = tab.stages, len(w) + tab.stages
        terms = [
            [(k, (c[l] + k) * dt, w[k]) for k in range(len(w))]
            + [(len(w) + k, (c[l] - c[k]) * dt, dt * a[l][k]) for k in range(l) if a[l][k] != 0.0]
            for l in range(nu)
        ]
        early = [[] for _ in range(nfields)]
        is_early = set()  # (stage, field) of every early term
        ready = [True] * nu  # every term of the stage seen so far is early
        for field in range(nfields):
            feet = [(l, tau, scale) for l in range(nu) for f, tau, scale in terms[l] if f == field]
            ready_feet = [foot for foot in feet if ready[foot[0]]]
            for group in transport.windows([tau for _, tau, _ in ready_feet]):
                if len(group) > 1:
                    group = [ready_feet[i] for i in group]
                    early[field].append(
                        (tuple(tau for _, tau, _ in group), tuple((l, s) for l, _, s in group))
                    )
                    is_early.update((l, field) for l, _, _ in group)
            for l, _, _ in feet:
                ready[l] = (l, field) in is_early
        lazy = tuple(tuple(t for t in terms[l] if (l, t[0]) not in is_early) for l in range(nu))
        # rows: the stages whose f^n term is early, in the order f^n's groups
        # fill them, then one row the other stages share
        held = [l for _, feet in early[0] for l, _ in feet]
        row = tuple(held.index(l) if l in held else len(held) for l in range(nu))
        sizes = [len(taus) for groups in early[1:] for taus, _ in groups]
        sizes += [1 for l in range(nu) for field, _, _ in lazy[l] if field > 0]
        last_read = [-1] * nfields  # the history states are the caller's
        for l in range(nu):
            for field, _, _ in lazy[l]:
                if field >= len(w):
                    last_read[field] = l
        return cls(
            early=tuple(tuple(groups) for groups in early),
            lazy=lazy,
            row=row,
            scratch=max(sizes, default=0),
            last_read=tuple(last_read),
        )


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
    K_l = (F_l - g_l)/(a_ll*dt).

    The context's `schedule` says when each term is transported.  A field's
    feet that share one WENO window are transported together as soon as the
    field exists, f^n and the history at the start of the step and each flux
    right after its stage, so the window is gathered, differenced and its
    indicators formed once while it is in cache; each result is added at
    once into its stage's sum, held from the start of the step in the
    context's buffer 0 (one row per such stage), and a flux is released as
    soon as no later stage transports it.  Every other term is transported
    when its stage runs: the stage sum into the last row of buffer 0, each
    further term into buffer 1, which also takes the early results of every
    field after f^n.  The terms of each stage are added in one order either
    way.  The flux is formed in the array of the stage's relaxed value: a
    stage allocates one field-sized array, its relaxed value, which becomes
    its flux or, at the last stage, the new field.
    """
    w, a = tab.history, tab.a
    if len(history) < len(w):
        raise ConfigError(f"tableau reads {len(w)} history states, got {len(history)}")
    nu, sched = tab.stages, ctx.schedule(tab, dt)
    shape = np.shape(history[0])
    sums = ctx.buffer(0, max(sched.row) + 1, shape)
    scratch = ctx.buffer(1, sched.scratch, shape) if sched.scratch else None
    fields = list(history[: len(w)]) + [None] * nu

    def send(field):
        """Transport a new field to each window of its early feet and add the
        results into their stages' sums."""
        for taus, feet in sched.early[field]:
            if field == 0:  # the first term of each stage: its row of the sums
                first = sched.row[feet[0][0]]
                out = ctx.transport.shifted(fields[0], taus, out=sums[first : first + len(taus)])
                if w[0] != 1.0:
                    out *= w[0]
                continue
            out = ctx.transport.shifted(fields[field], taus, out=scratch[: len(taus)])
            for h, (l, scale) in zip(out, feet):
                _add_scaled(sums[sched.row[l]], h, scale)

    for k in range(len(w)):
        send(k)
    for l in range(nu):
        g = sums[sched.row[l]]
        for field, tau, scale in sched.lazy[l]:
            if field == 0:
                ctx.transport.shifted(fields[0], tau, out=g)
                if w[0] != 1.0:
                    g *= w[0]
            else:
                _add_scaled(g, ctx.transport.shifted(fields[field], tau, out=scratch[0]), scale)
            if sched.last_read[field] == l:
                fields[field] = None
        out = ctx.relax(g, a[l][l] * dt)
        if l == nu - 1:
            # with collisions off, relax returns the sum g itself
            return g.copy() if out is g else out
        flux = len(w) + l
        if sched.early[flux] or sched.last_read[flux] >= 0:
            # into the relaxed value's own array, unless that is the sum g
            fields[flux] = np.subtract(out, g, out=None if out is g else out)
            fields[flux] /= a[l][l] * dt
            send(flux)
            if sched.last_read[flux] < 0:
                fields[flux] = None
        del out


# --------------------------------------------------------------------------
# Time marching with history bookkeeping
# --------------------------------------------------------------------------
class TimeStepper:
    """Advance a distribution field one step at a time.

    Owns the running field, the history of earlier fields and one step
    context, whose transport takes node-aligned feet by exact gather for
    every scheme and whose buffers every step transports its fields into.
    Every step is `tableau_step` with the integrator's tableau (`TABLEAUS`);
    while the stepper holds fewer equally spaced states than the tableau has
    history weights, it takes the integrator's startup DIRK instead, and
    after each step it keeps the newest len(history) - 1 states.  A step of a
    new size, for any scheme, first drops the history (the history feet
    assume equal spacing), the buffers, the step schedules and the
    transport's plans of the old size, so the step runs without them.  A
    counter exposes how many startup (predictor) steps were taken.

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
