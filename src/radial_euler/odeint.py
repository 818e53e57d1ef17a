"""Adaptive ODE integration with event detection and blowup diagnosis.

A single explicit Dormand-Prince 5(4) embedded pair drives every
characteristic system in the package.  Three behaviors beyond plain
integration matter here:

* events -- scalar functionals whose sign changes are located by
  bisection on cubic-Hermite dense output, to 1e-10 in time;
* blowup detection -- a trajectory is declared escaping when a component
  its system lets escape exceeds ``magnitude_cap`` while still accelerating
  away (positive feedback y_i * y_i' > 0 on that component); the
  singularity time is then extrapolated by fitting 1/|y| -> 0 linearly
  over the trailing samples, which is exact for Riccati-type escapes;
* step collapse -- non-finite right-hand sides or a step size pinned at
  ``h_min`` terminate the run with the failure location, never with an
  exception.
"""

from __future__ import annotations

import enum
import functools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import FINITE_NONNEGATIVE, FINITE_POSITIVE, check_rules

# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# 5th-order minus embedded 4th-order weights (error estimate).
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

log = logging.getLogger(__name__)

_EVENT_TIME_TOL = 1e-10
# trailing accepted samples the blowup-time fit reads
_BLOWUP_TAIL = 12
# share of a lane batch's working columns that must have retired before
# integrate_lanes compacts its working arrays to the running lanes
_COMPACT_SHARE = 1 / 8


@dataclass(frozen=True)
class OdeSystem:
    """A first-order system y' = rhs(t, y) of fixed dimension; the blowup test holds
    the components ``escaping`` lists, in order, against the cap (None: all)."""

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    labels: tuple = ()
    escaping: Optional[tuple] = None

    def label(self, i: int) -> str:
        return self.labels[i] if i < len(self.labels) else f"y[{i}]"


@dataclass(frozen=True)
class EventSpec:
    """Sign-change functional g(t, y); direction +1 rising, -1 falling, 0 any."""

    name: str
    func: Callable[[float, np.ndarray], float]
    direction: int = 0
    terminal: bool = True


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float | np.ndarray = 1e-10
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 10.0
    t_max: float = 200.0
    magnitude_cap: float = 1e8
    max_steps: int = 1_000_000

    def __post_init__(self):
        check_rules({
            "rel_tol": FINITE_POSITIVE,
            "abs_tol": (lambda v: bool(np.all(np.isfinite(v)) and np.all(np.greater(v, 0))),
                        "finite and positive"),
            "h_min": FINITE_POSITIVE, "h_max": (lambda v: v >= self.h_min, "at least h_min"),
            "h_init": (lambda v: self.h_min <= v <= self.h_max, "between h_min and h_max"),
            "t_max": FINITE_NONNEGATIVE, "magnitude_cap": FINITE_POSITIVE}, vars(self))

    def tightened(self, factor: float = 0.1) -> "IntegratorConfig":
        """A copy with both tolerances scaled by ``factor`` (default 10x tighter)."""
        return replace(self, rel_tol=self.rel_tol * factor,
                       abs_tol=np.asarray(self.abs_tol) * factor
                       if np.ndim(self.abs_tol) else self.abs_tol * factor)


class Termination(enum.Enum):
    REACHED_HORIZON = "reached-horizon"
    EVENT = "event"
    BLOWUP_DETECTED = "blowup-detected"
    STEP_COLLAPSE = "step-collapse"


@dataclass
class EventHit:
    name: str
    t: float
    y: np.ndarray


@dataclass
class TrajectoryRecord:
    """Accepted-step samples (t_k, y_k, y'_k) plus the termination reason.

    Derivative samples enable cubic-Hermite interpolation anywhere inside
    the covered span via :meth:`sample`.  The counters are the run's step
    attempts and accepted and rejected steps, as :class:`LaneBatch` counts
    them.
    """

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    termination: Termination
    blowup_component: Optional[int] = None
    hits: list = field(default_factory=list)
    note: str = ""
    attempts: int = 0
    rejected: int = 0

    @property
    def accepted(self) -> int:
        """Every sample after the first is an accepted step, except an event's location."""
        return len(self.ts) - 1 - (self.termination is Termination.EVENT)

    @property
    def t_final(self) -> float:
        return float(self.ts[-1])

    @property
    def y_final(self) -> np.ndarray:
        return self.ys[-1]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.ys)))

    @property
    def blowup_time(self) -> Optional[float]:
        """A blown run's extrapolated singularity time, fitted on each read; else None."""
        if self.blowup_component is None:
            return None
        return _blowup_time_estimate(self.ts, self.ys[:, self.blowup_component])

    def sample(self, t: float) -> np.ndarray:
        return self.sample_many(np.array([t]))[0]

    def sample_many(self, ts: np.ndarray) -> np.ndarray:
        """Cubic-Hermite interpolation at times inside [ts[0], ts[-1]]."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < self.ts[0] - 1e-12) or np.any(ts > self.ts[-1] + 1e-12):
            raise ValueError("sample times outside the recorded span")
        idx = np.clip(np.searchsorted(self.ts, ts, side="right") - 1, 0, len(self.ts) - 2)
        t0 = self.ts[idx, None]
        h = self.ts[idx + 1, None] - t0
        # a zero-length interval (a one-sample record) reads its start
        s = np.where(h > 0, (ts[:, None] - t0) / np.where(h > 0, h, 1.0), 0.0)
        return _hermite(s, h, self.ys[idx], self.fs[idx], self.ys[idx + 1], self.fs[idx + 1])


# a lane batch's termination codes index this tuple
TERMINATIONS = tuple(Termination)


def _probe_grid(probe_t) -> np.ndarray:
    """The probe times every lane shares: None (none), a scalar or a (P,) grid."""
    times = np.atleast_1d(np.asarray([] if probe_t is None else probe_t, dtype=float))
    if times.ndim != 1 or np.any(times < 0.0) or np.any(np.diff(times) < 0):
        raise ValueError("probe times must be one nonnegative, nondecreasing grid "
                         "that every lane shares")
    return times


@dataclass(eq=False)
class LaneBatch:
    """How every lane of a batch ended, as arrays over the lanes.

    ``ends`` indexes :data:`TERMINATIONS`, ``y_final`` is dim x lanes and
    ``blowup_component`` is -1 unless the lane blew up.  ``blowup_time``
    is a blown lane's extrapolated singularity time, NaN for every other
    lane and for every lane of a batch run without blowup times.  ``probe``
    is probe times x dim x lanes, NaN past a lane's final time (past its
    last accepted step, for a lane that ended at the event), and
    ``notes`` maps a lane to its integrator note.  The counters are each
    lane's step attempts, accepted and rejected steps; the step that
    crosses the event and a collapsing step are attempts only.
    """

    ends: np.ndarray
    t_final: np.ndarray
    y_final: np.ndarray
    max_abs: np.ndarray
    blowup_component: np.ndarray
    blowup_time: np.ndarray
    probe: np.ndarray
    notes: dict
    attempts: np.ndarray
    accepted: np.ndarray
    rejected: np.ndarray

    def __len__(self) -> int:
        return len(self.ends)

    @property
    def rhs_evals(self) -> np.ndarray:
        """Each lane's rhs evaluations: the start, and six stages per attempt."""
        return 1 + 6 * self.attempts

    @classmethod
    def of(cls, records: Sequence[TrajectoryRecord], probe_t, dim: int,
           blowup_times: bool = True) -> "LaneBatch":
        """The batch of the scalar runs ``records`` of a ``dim``-dimensional system.

        ``probe_t`` and ``blowup_times`` are those of :func:`integrate_lanes`:
        the probe grid of every run, and whether blown runs' times are
        fitted (else every ``blowup_time`` is NaN).
        """
        n = len(records)
        times = _probe_grid(probe_t)
        batch = cls(np.zeros(n, dtype=int), np.zeros(n), np.zeros((dim, n)), np.zeros(n),
                    np.full(n, -1), np.full(n, np.nan), np.full((len(times), dim, n), np.nan),
                    {}, *(np.array([getattr(rec, name) for rec in records], dtype=int)
                          for name in ("attempts", "accepted", "rejected")))
        for j, rec in enumerate(records):
            batch.ends[j] = TERMINATIONS.index(rec.termination)
            batch.t_final[j], batch.y_final[:, j] = rec.t_final, rec.y_final
            batch.max_abs[j] = rec.max_abs()
            if rec.blowup_component is not None:
                batch.blowup_component[j] = rec.blowup_component
                if blowup_times:
                    batch.blowup_time[j] = rec.blowup_time
            if rec.note:
                batch.notes[j] = rec.note
            # as in the lanes, an event run is probed up to its last accepted step
            last = rec.ts[-2] if rec.termination is Termination.EVENT else rec.t_final
            rows = np.searchsorted(times, last, side="right")
            if rows:
                batch.probe[:rows, :, j] = rec.sample_many(times[:rows])
        return batch


class IntegrationFailure(RuntimeError):
    """A numerical method that must reach its end point did not converge."""


class Verdict(enum.Enum):
    GLOBAL_BOUNDED = "global-bounded"
    FINITE_TIME_BLOWUP = "finite-time-blowup"
    INCONCLUSIVE = "inconclusive"


# the integer code of each verdict in sweep grids, also the exit code of classify
VERDICT_CODES = {Verdict.GLOBAL_BOUNDED: 0,
                 Verdict.FINITE_TIME_BLOWUP: 2,
                 Verdict.INCONCLUSIVE: 3}
# the verdict a run's termination implies: a detected blowup is finite-time
# blowup, a step collapse inconclusive, the horizon or a terminal
# bounded-basin event globally bounded
VERDICT_OF = {Termination.REACHED_HORIZON: Verdict.GLOBAL_BOUNDED,
              Termination.EVENT: Verdict.GLOBAL_BOUNDED,
              Termination.BLOWUP_DETECTED: Verdict.FINITE_TIME_BLOWUP,
              Termination.STEP_COLLAPSE: Verdict.INCONCLUSIVE}
# the same, from a lane batch's termination codes to verdict codes
END_CODES = np.array([VERDICT_CODES[VERDICT_OF[end]] for end in TERMINATIONS])


@dataclass(frozen=True, eq=False)
class ClassificationOutcome:
    """Result of a threshold decision: a verdict plus trajectory diagnostics."""

    verdict: Verdict
    t_estimate: Optional[float] = None
    reason: Optional[str] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_bounded(self) -> bool:
        return self.verdict is Verdict.GLOBAL_BOUNDED

    @property
    def is_blowup(self) -> bool:
        return self.verdict is Verdict.FINITE_TIME_BLOWUP


def outcome_of(batch: LaneBatch, j: int, diagnostics: dict) -> ClassificationOutcome:
    """The verdict lane ``j`` of ``batch`` implies by its termination.

    A step collapse gives the integrator's note as the reason, and a
    detected blowup the extrapolated time as ``t_estimate``.
    """
    verdict = VERDICT_OF[TERMINATIONS[batch.ends[j]]]
    t_estimate = None
    if verdict is Verdict.FINITE_TIME_BLOWUP:
        t_estimate = float(batch.blowup_time[j])
        if math.isnan(t_estimate):
            raise ValueError(f"lane {j} blew up, and its batch ran without "
                             "the samples that fit a blowup time")
    return ClassificationOutcome(verdict, t_estimate,
                                 batch.notes.get(j, "") if verdict is Verdict.INCONCLUSIVE
                                 else None, diagnostics)


def _hermite(s, h, y0, f0, y1, f1):
    """The cubic-Hermite point at s = (t - t0) / h of the step of length h
    from (y0, f0) to (y1, f1); every reader of dense output calls it, and it
    works elementwise on arrays."""
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * f1)


def _bisect_event(event, t0, y0, f0, t1, y1, f1, g0, g1):
    """Locate the sign change of g on dense output to _EVENT_TIME_TOL."""
    a, b, ga, h = t0, t1, g0, t1 - t0
    while b - a > _EVENT_TIME_TOL:
        m = 0.5 * (a + b)
        gm = event.func(m, _hermite((m - t0) / h, h, y0, f0, y1, f1))
        if gm == 0.0:
            a = b = m
            break
        if (ga < 0) != (gm < 0):
            b = m
        else:
            a, ga = m, gm
    t_e = 0.5 * (a + b)
    return t_e, _hermite((t_e - t0) / h, h, y0, f0, y1, f1)


def _crossed(g0, g1, direction: int):
    """Whether g changed sign over a step; elementwise when given lane arrays."""
    valid = (g0 != 0.0) & (abs(g0) < math.inf) & (abs(g1) < math.inf)
    if direction > 0:
        return valid & (g0 < 0.0) & (g1 >= 0.0)
    if direction < 0:
        return valid & (g0 > 0.0) & (g1 <= 0.0)
    return valid & (((g0 < 0.0) != (g1 < 0.0)) | (g1 == 0.0))


def _blowup_time_estimate(ts, zs):
    """Extrapolate 1/|z| -> 0 linearly over the escaping tail of the samples zs."""
    t_arr = np.asarray(ts, dtype=float)
    y_arr = np.asarray(zs, dtype=float)
    sgn = math.copysign(1.0, y_arr[-1])
    # trailing run with the escape sign and increasing magnitude
    mags = np.abs(y_arr)
    k = len(y_arr) - 1
    while k > 0 and math.copysign(1.0, y_arr[k - 1]) == sgn and mags[k - 1] < mags[k]:
        k -= 1
    tail = slice(max(k, len(y_arr) - _BLOWUP_TAIL), len(y_arr))
    tt, zz = t_arr[tail], 1.0 / mags[tail]
    if len(tt) < 2:
        return float(t_arr[-1])
    a, b = np.polyfit(tt, zz, 1)
    if a >= 0:
        return float(t_arr[-1])
    return max(float(-b / a), float(t_arr[-1]))


@functools.lru_cache(maxsize=None)
def _attempt(d: int):
    """One Dormand-Prince attempt of :func:`integrate` in dimension ``d``:
    ``(f, t, h, y, k1, atol, rtol) -> (y_new, k7, err_norm)``, compiled on
    first use from straight-line source, one expression per component (for a
    handful of components, loops cost more than the arithmetic).  Every sum
    runs over its tableau row left to right, as in :func:`integrate_lanes`."""
    def terms(ws, i):   # the row ws against stages 1, 2, ...; a zero weight drops out
        return " + ".join(f"{w!r} * k{s}_{i}" for s, w in enumerate(ws, 1) if w)

    def state(ws):
        return "(" + "".join(f"y_{i} + h * ({terms(ws, i)}), " for i in range(d)) + ")"

    def names(prefix):
        return "".join(f"{prefix}_{i}, " for i in range(d))

    lines = [f"{names('y')}= y", f"{names('k1')}= k1", f"{names('a')}= atol"]
    for s, (c, ws) in enumerate(((_C2, (_A21,)), (_C3, (_A31, _A32)), (_C4, (_A41, _A42, _A43)),
                                 (_C5, (_A51, _A52, _A53, _A54)),
                                 (1.0, (_A61, _A62, _A63, _A64, _A65))), 2):
        at = f"t + {c!r} * h" if c < 1 else "t + h"
        lines.append(f"{names(f'k{s}')}= f({at}, {state(ws)})")
    lines += [f"y_new = {state((_B1, 0, _B3, _B4, _B5, _B6))}", f"{names('n')}= y_new",
              "k7 = f(t + h, y_new)", f"{names('k7')}= k7", "acc = 0.0"]
    for i in range(d):
        lines += [f"e = h * ({terms((_E1, 0, _E3, _E4, _E5, _E6, _E7), i)})",
                  f"ay, ayn = abs(y_{i}), abs(n_{i})",
                  f"e /= a_{i} + rtol * (ay if ay > ayn else ayn)", "acc += e * e"]
    source = "\n    ".join(["def attempt(f, t, h, y, k1, atol, rtol):", *lines,
                             f"return y_new, k7, sqrt(acc / {d})"])
    scope = {"sqrt": math.sqrt}
    exec(compile(source, f"<Dormand-Prince attempt, dimension {d}>", "exec"), scope)
    return scope["attempt"]


def integrate(system: OdeSystem, y0: Sequence[float], config: IntegratorConfig,
              events: Sequence[EventSpec] = (), t0: float = 0.0) -> TrajectoryRecord:
    """Adaptive integration to t_max or a terminating event/blowup/collapse.

    The stepping loop works in scalar arithmetic (states are tuples of
    floats): every system in this package has a handful of components,
    where small-array overhead would dominate the actual math.  Each
    attempt unpacks what the rhs returns, so it must return a sequence of
    exactly ``system.dimension`` values.
    """
    f = system.rhs
    d = system.dimension
    rtol = config.rel_tol
    atol = tuple(float(a) for a in np.broadcast_to(config.abs_tol, (d,)))
    cap = config.magnitude_cap
    t_max, h_min, h_max = config.t_max, config.h_min, config.h_max
    watch = range(d) if system.escaping is None else system.escaping
    attempt = _attempt(d)

    t = float(t0)
    y = tuple(float(v) for v in y0)
    if len(y) != d:
        raise ValueError(f"initial state must have dimension {d}")
    if not all(math.isfinite(v) for v in y):
        raise ValueError("initial state must be finite")
    k1 = f(t, y)
    ts, ys, fs = [t], [y], [tuple(k1)]
    hits: list[EventHit] = []
    attempts = rejected = 0

    def end(termination, **kw):
        return TrajectoryRecord(np.asarray(ts, dtype=float), np.asarray(ys, dtype=float),
                                np.asarray(fs, dtype=float), termination, hits=hits,
                                attempts=attempts, rejected=rejected, **kw)

    if not all(math.isfinite(v) for v in k1):
        return end(Termination.STEP_COLLAPSE, note=f"non-finite rhs at t={t}")
    gvals = [ev.func(t, y) for ev in events]
    h = min(config.h_init, h_max, max(t_max - t, h_min))
    for _ in range(config.max_steps):
        if t >= t_max:
            break
        if h > t_max - t:
            h = t_max - t
        clamped = h < h_min
        if clamped:
            h = h_min

        if t + h <= t:
            # the dynamics demands steps below the fp resolution of t
            return end(Termination.STEP_COLLAPSE, note=f"time resolution exhausted at t={t}")

        attempts += 1
        t_new = t + h
        y_new, k7, err_norm = attempt(f, t, h, y, k1, atol, rtol)
        # the next step size factor, as _step_factors gives it per lane
        factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))

        if not (err_norm <= 1.0):
            # rejected (also routes NaN/Inf from the rhs here)
            if clamped or h <= h_min * 1.0001:
                return end(Termination.STEP_COLLAPSE,
                           note=f"step size collapsed at t={t} (err={err_norm:.3g})")
            rejected += 1
            h = max(h * factor, h_min)
            continue

        # event handling over [t, t_new]
        hit = None
        g_new = [ev.func(t_new, y_new) for ev in events]
        for i, ev in enumerate(events):
            if _crossed(gvals[i], g_new[i], ev.direction):
                t_e, y_e = _bisect_event(ev, t, np.asarray(y), np.asarray(k1),
                                         t_new, np.asarray(y_new),
                                         np.asarray(k7), gvals[i], g_new[i])
                hits.append(EventHit(ev.name, t_e, y_e))
                if ev.terminal and (hit is None or t_e < hit.t):
                    hit = hits[-1]
        if hit is not None:
            f_e = tuple(f(hit.t, tuple(hit.y)))
            ts.append(hit.t), ys.append(tuple(hit.y)), fs.append(f_e)
            return end(Termination.EVENT)

        ts.append(t_new), ys.append(y_new), fs.append(tuple(k7))
        mag = 0.0
        comp = 0
        for i in watch:
            av = abs(y_new[i])
            if av > mag:
                mag, comp = av, i
        if mag > cap:
            feedback = y_new[comp] * k7[comp] > 0.0
            if feedback or mag > 1e4 * cap:
                return end(Termination.BLOWUP_DETECTED, blowup_component=comp)

        t, y, k1 = t_new, y_new, k7
        gvals = g_new
        h = h * factor
        if h > h_max:
            h = h_max
    else:
        return end(Termination.STEP_COLLAPSE, note=f"step budget exhausted at t={t}")

    return end(Termination.REACHED_HORIZON)


def _step_factors(err: np.ndarray) -> np.ndarray:
    """:func:`integrate`'s step size factor per lane, bit for bit.

    That is 0.9 * err ** -0.2 clamped to [0.2, 5], so 5 after an error of
    0 and 0.2 after a non-finite one (``fmax`` drops a NaN).  One ulp in a
    step factor is enough to move a trajectory off the one
    :func:`integrate` takes, so the power must be the one Python takes.
    CPython's ``float ** float`` calls the C library ``pow`` for a
    positive finite base, and so does the float64 loop of
    ``np.float_power``.  ``np.power`` does not: on CPUs with AVX-512,
    NumPy computes it with its own SIMD routines, whose results differ
    from ``pow`` in the last bit on some inputs.
    """
    return np.minimum(5.0, np.fmax(0.2, 0.9 * np.float_power(err, -0.2)))


def _bisect_lanes(func, t0, y0, f0, t1, y1, f1, g0):
    """:func:`_bisect_event` for many lanes at once, each halving its own bracket.

    ``func(t, y, cols)`` evaluates the event on the lanes ``cols`` of the
    bracketed ones.
    """
    a, b, ga, h = t0.copy(), t1.copy(), g0.copy(), t1 - t0
    open_ = b - a > _EVENT_TIME_TOL
    while open_.any():
        j = np.flatnonzero(open_)
        m = 0.5 * (a[j] + b[j])
        gm = func(m, _hermite((m - t0[j]) / h[j], h[j], y0[:, j], f0[:, j], y1[:, j],
                              f1[:, j]), j)
        zero = gm == 0.0
        left = (ga[j] < 0) != (gm < 0)
        a[j] = np.where(zero | ~left, m, a[j])
        b[j] = np.where(zero | left, m, b[j])
        ga[j] = np.where(left, ga[j], gm)
        open_[j] = ~zero & (b[j] - a[j] > _EVENT_TIME_TOL)
    t_e = 0.5 * (a + b)
    return t_e, _hermite((t_e - t0) / h, h, y0, f0, y1, f1)


def integrate_lanes(system: OdeSystem, y0: np.ndarray,
                    configs: Sequence[IntegratorConfig],
                    event: Optional[EventSpec] = None,
                    probe_t=None, event_consts=None,
                    blowup_times: bool = True) -> LaneBatch:
    """Integrate one copy of ``system`` per column of ``y0`` (dim x lanes) in lockstep.

    Lane j starts at t = 0 from ``y0[:, j]``, follows ``configs[j]`` with
    its own step size and accept/reject decisions, and ends on its own:
    at its horizon, at the first sign change of the terminal ``event``
    (a lane retires with its bracketing step, and one bisection after the
    loop locates every lane's crossing), at a detected blowup, or at a
    step collapse.  Every lane repeats the arithmetic of :func:`integrate`
    in the same order, so lane j of the returned :class:`LaneBatch` equals
    lane 0 of ``LaneBatch.of([integrate(system, y0[:, j], configs[j],
    (event,))], probe_t, dim)`` exactly.  For that,
    the rhs and the event must work elementwise on (dim, k) arrays with
    the same operations they apply to scalars, the rhs returning one (k,)
    array per component.

    ``event_consts``, an array whose last axis runs over the lanes, gives
    the event per-lane constants: it is then called as ``event.func(t, y,
    consts)`` with the columns of the lanes in ``y``, and lane j matches
    the scalar run of the event with ``event_consts[..., j]`` closed over.

    Only the tail of each run is kept, as the arrays of a
    :class:`LaneBatch`.  A lane that blows up gets its blowup time when it
    retires, fitted from the trailing accepted samples each lane keeps
    while it runs.  A caller that reads no blowup time passes
    ``blowup_times=False``: the lanes then keep no samples, every
    ``blowup_time`` is NaN, and everything else is the same.
    ``probe_t`` is None, a scalar or a nondecreasing (P,) grid of probe
    times that every lane shares; a 2-D array is refused.  Each probe is
    the Hermite point on the accepted step that
    :meth:`TrajectoryRecord.sample_many` would pick, so a probe at the
    final time is the end of the last step.
    """
    f = system.rhs
    d = system.dimension
    y = np.array(y0, dtype=float)
    if y.ndim != 2 or y.shape[0] != d:
        raise ValueError(f"lane states must have shape ({d}, lanes)")
    n = y.shape[1]
    if len(configs) != n:
        raise ValueError("need one IntegratorConfig per lane")
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    consts = None
    if event_consts is not None:
        consts = np.asarray(event_consts, dtype=float)
        if consts.ndim < 1 or consts.shape[-1] != n:
            raise ValueError("event constants need one column per lane")

    def rhs(t, y):
        return np.array(f(t, y))

    def event_at(t, y, lanes):
        """The event on the columns ``y`` of the (original) lanes ``lanes``."""
        if consts is None:
            return event.func(t, y)
        return event.func(t, y, consts[..., lanes])

    # per-lane settings, one row each, gathered from the distinct configs
    distinct = {id(c): c for c in configs}
    column = {key: k for k, key in enumerate(distinct)}
    which = [column[id(c)] for c in configs]
    limits = np.array([[getattr(c, name) for c in distinct.values()] for name in
                       ("rel_tol", "h_min", "h_max", "t_max", "magnitude_cap",
                        "max_steps", "h_init")], dtype=float).reshape(7, -1)[:, which]
    atol = np.array([np.broadcast_to(c.abs_tol, (d,)) for c in distinct.values()],
                    dtype=float).T.reshape(d, -1)[:, which]
    watch = slice(None) if system.escaping is None else list(system.escaping)  # cap test rows

    # The working arrays hold the running lanes, and retired ones until
    # _COMPACT_SHARE of their columns have retired; ``lane`` maps them to
    # the original lane, which indexes everything below so that retiring
    # lanes never copies it.
    ends = np.zeros(n, dtype=int)          # index into TERMINATIONS
    t_end = np.zeros(n)
    y_end = np.zeros((d, n))
    max_abs = np.zeros(n)
    blowup_comp = np.full(n, -1)
    blowup_time = np.full(n, np.nan)
    notes: dict[int, str] = {}
    # (lanes, t, y, k1, t_new, y_new, k7, g) of the steps that crossed the
    # event, located together after the loop
    brackets = []
    pt = _probe_grid(probe_t)[:, None]     # P x 1, against the lanes' times
    probe = np.full((len(pt), d, n), np.nan)
    lane = np.arange(n)
    alive = np.ones(n, dtype=bool)
    iterations = 0
    t = np.zeros(n)
    vmax = np.max(np.abs(y), axis=0)
    n_att = np.zeros(n)     # attempts that evaluated the stages
    n_acc = np.zeros(n, dtype=int)      # accepted steps
    n_rej = np.zeros(n, dtype=int)      # rejected steps
    # each lane's counts when it retired
    attempts, accepted, rejected = (np.zeros(n, dtype=int) for _ in range(3))
    tb = yb = None
    if blowup_times:
        # ring buffer of the trailing accepted samples: a lane's k-th sample
        # (the start is the 0-th) sits in slot k % _BLOWUP_TAIL
        tb, yb = np.zeros((_BLOWUP_TAIL, n)), np.zeros((_BLOWUP_TAIL, d, n))
        tb[0], yb[0] = t, y

    def take_probes(inside, t0, y0, f0, t1, y1, f1):
        """Sample the probes marked in ``inside`` (P x working lanes) on [t0, t1]."""
        if not inside.any():    # most steps cross no probe time
            return
        for row in np.flatnonzero(inside.any(axis=1)):
            at = inside[row]
            h = t1[at] - t0[at]
            probe[row][:, lane[at]] = _hermite(
                (pt[row] - t0[at]) / h, h, y0[:, at], f0[:, at], y1[:, at], f1[:, at])

    def close(mask, termination, t_f, y_f, note=None):
        """Record the end of every lane in ``mask`` and retire it."""
        if not mask.any():
            return
        i = lane[mask]
        ends[i] = TERMINATIONS.index(termination)
        t_end[i], y_end[:, i], max_abs[i] = t_f[mask], y_f[:, mask], vmax[mask]
        attempts[i], accepted[i], rejected[i] = n_att[mask], n_acc[mask], n_rej[mask]
        if note is not None:
            for j in np.flatnonzero(mask):
                notes[lane[j]] = note(j)
        alive[mask] = False

    with np.errstate(all="ignore"):
        k1 = rhs(t, y)
        close(~np.all(np.isfinite(k1), axis=0), Termination.STEP_COLLAPSE, t, y,
              note=lambda j: f"non-finite rhs at t={float(t[j])}")
        g = event_at(t, y, lane) if event is not None else None
        # a lane that never accepts a step is a one-sample record, which
        # sample_many reads at s = 0 of a step from its start point
        take_probes(pt <= t, t, y, k1, t + 1.0, y, k1)
        rtol, h_min, h_max, t_max, cap, max_steps, h_init = limits
        h = np.minimum(np.minimum(h_init, h_max), np.maximum(t_max - t, h_min))

        while True:
            running = np.count_nonzero(alive)
            if not running:
                break
            if len(lane) - running >= _COMPACT_SHARE * len(lane):
                lane, t, y, k1, g, h, n_att, n_acc, n_rej, vmax, limits, atol = (
                    None if a is None else a[..., alive] for a in
                    (lane, t, y, k1, g, h, n_att, n_acc, n_rej, vmax, limits, atol))
                alive = np.ones(running, dtype=bool)
                rtol, h_min, h_max, t_max, cap, max_steps, _ = limits
            iterations += 1

            close(alive & (n_att >= max_steps), Termination.STEP_COLLAPSE, t, y,
                  note=lambda j: f"step budget exhausted at t={float(t[j])}")
            close(alive & (t >= t_max), Termination.REACHED_HORIZON, t, y)
            h = np.where(h > t_max - t, t_max - t, h)
            clamped = h < h_min
            h = np.where(clamped, h_min, h)
            t_new = t + h
            close(alive & (t_new <= t), Termination.STEP_COLLAPSE, t, y,
                  note=lambda j: f"time resolution exhausted at t={float(t[j])}")
            n_att += 1

            k2 = rhs(t + _C2 * h, y + h * (_A21 * k1))
            k3 = rhs(t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
            k4 = rhs(t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = rhs(t + _C5 * h,
                     y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
            k6 = rhs(t + h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3
                                     + _A64 * k4 + _A65 * k5))
            del k2
            y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            k7 = rhs(t_new, y_new)

            e = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
            del k3, k4, k5, k6
            e = e / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
            e = e * e
            err_acc = e[0]
            for r in range(1, d):   # the scalar loop's summation order
                err_acc = err_acc + e[r]
            err = np.sqrt(err_acc / d)
            ok = err <= 1.0

            close(alive & ~ok & (clamped | (h <= h_min * 1.0001)),
                  Termination.STEP_COLLAPSE, t, y,
                  note=lambda j: f"step size collapsed at t={float(t[j])} "
                                 f"(err={float(err[j]):.3g})")
            shrink = alive & ~ok
            n_rej += shrink
            factor = _step_factors(err)

            if event is not None:
                g_new = event_at(t_new, y_new, lane)
                hit = alive & ok & _crossed(g, g_new, event.direction)
                if hit.any():
                    brackets.append((lane[hit], t[hit], y[:, hit], k1[:, hit],
                                     t_new[hit], y_new[:, hit], k7[:, hit], g[hit]))
                    close(hit, Termination.EVENT, t_new, y_new)

            step = alive & ok
            n_acc += step
            mag = np.max(np.abs(y_new), axis=0)
            vmax = np.where(step, np.maximum(vmax, mag), vmax)
            if system.escaping is not None:
                mag = np.max(np.abs(y_new[watch]), axis=0)
            if tb is not None:
                js = np.flatnonzero(step)
                i = lane[js]
                slot = n_acc[js] % _BLOWUP_TAIL
                tb[slot, i] = t_new[js]
                yb[slot, :, i] = y_new[:, js].T
            # a probe on t_new is taken again, at s = 0, by the next
            # accepted step if there is one, as sample_many picks
            take_probes(step & (t <= pt) & (pt <= t_new), t, y, k1, t_new, y_new, k7)

            big = step & (mag > cap)
            if big.any():
                comp = np.arange(d)[watch][np.argmax(np.abs(y_new[watch]), axis=0)]
                cols = np.arange(len(lane))
                feedback = y_new[comp, cols] * k7[comp, cols] > 0.0
                blown = big & (feedback | (mag > 1e4 * cap))
                blowup_comp[lane[blown]] = comp[blown]
                if tb is not None:
                    # fit the escaping component over a lane's last (up to
                    # _BLOWUP_TAIL) of its nb samples, oldest first
                    for i, c, nb in zip(lane[blown], comp[blown], n_acc[blown] + 1):
                        slots = np.arange(nb - min(nb, _BLOWUP_TAIL), nb) % _BLOWUP_TAIL
                        blowup_time[i] = _blowup_time_estimate(tb[slots, i], yb[slots, c, i])
                close(blown, Termination.BLOWUP_DETECTED, t_new, y_new)

            step &= alive
            t = np.where(step, t_new, t)
            y = np.where(step, y_new, y)
            k1 = np.where(step, k7, k1)
            if event is not None:
                g = np.where(step, g_new, g)
            h = np.where(step, np.minimum(h * factor, h_max),
                         np.where(shrink, np.maximum(h * factor, h_min), h))

        located = rounds = 0
        if brackets:
            # every event crossing of the batch, in one bisection
            hit, t0, y0, f0, t1, y1, f1, g0 = (
                np.concatenate(part, axis=-1) for part in zip(*brackets))

            def event_on(tm, ym, j):
                nonlocal rounds
                rounds += 1
                return event_at(tm, ym, hit[j])

            t_end[hit], y_end[:, hit] = _bisect_lanes(event_on, t0, y0, f0, t1, y1, f1, g0)
            max_abs[hit] = np.maximum(max_abs[hit], np.max(np.abs(y_end[:, hit]), axis=0))
            located = len(hit)

    log.info("%d lanes in %d lockstep iterations: %d accepted and %d rejected "
             "lane-steps; %d lanes bracketed an event, located in %d halving rounds",
             n, iterations, accepted.sum(), rejected.sum(), located, rounds)

    return LaneBatch(ends, t_end, y_end, max_abs, blowup_comp, blowup_time, probe, notes,
                     attempts=attempts, accepted=accepted, rejected=rejected)


def estimate_decay_exponent(record: TrajectoryRecord, component: int,
                            window: tuple[float, float]) -> float:
    """Least-squares slope of log|y_component| against log(t + 1) over the window.

    The component must be strictly positive in magnitude throughout;
    t_b > t_a >= 1 is required so the log-log fit sees the algebraic tail.
    """
    t_a, t_b = window
    if not (t_b > t_a >= 1.0):
        raise ValueError("window must satisfy t_b > t_a >= 1")
    if record.ts[-1] < t_b or record.ts[0] > t_a:
        raise ValueError("record does not cover the fitting window")
    tt = np.linspace(t_a, t_b, 200)
    vals = record.sample_many(tt)[:, component]
    if np.min(vals) <= 0.0:
        raise ValueError("component has non-positive samples in the window")
    slope, _ = np.polyfit(np.log(tt + 1.0), np.log(vals), 1)
    return float(slope)
