"""Adaptive ODE integration with event detection and blowup diagnosis.

A single explicit Dormand-Prince 5(4) embedded pair drives every
characteristic system in the package.  Three behaviors beyond plain
integration matter here:

* events -- scalar functionals whose sign changes are located by
  bisection on cubic-Hermite dense output, to 1e-10 in time;
* blowup detection -- a trajectory is declared escaping when its
  max-norm exceeds ``magnitude_cap`` while still accelerating away
  (positive feedback y_i * y_i' > 0 on the escaping component); the
  singularity time is then extrapolated by fitting 1/|y| -> 0 linearly
  over the trailing samples, which is exact for Riccati-type escapes;
* step collapse -- non-finite right-hand sides or a step size pinned at
  ``h_min`` terminate the run with the failure location, never with an
  exception.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

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


@dataclass(frozen=True)
class OdeSystem:
    """A first-order system y' = rhs(t, y) of fixed dimension."""

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    labels: tuple = ()

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
        if not (0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError("step bounds must satisfy 0 < h_min <= h_init <= h_max")
        if self.rel_tol <= 0 or np.min(self.abs_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.magnitude_cap <= 0:
            raise ValueError("magnitude_cap must be positive")

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
    the covered span via :meth:`sample`.
    """

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    termination: Termination
    event_name: Optional[str] = None
    t_event: Optional[float] = None
    blowup_time: Optional[float] = None
    blowup_component: Optional[int] = None
    hits: list = field(default_factory=list)
    note: str = ""

    @property
    def t_final(self) -> float:
        return float(self.ts[-1])

    @property
    def y_final(self) -> np.ndarray:
        return self.ys[-1]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.ys)))

    def sample(self, t: float) -> np.ndarray:
        return self.sample_many(np.array([t]))[0]

    def sample_many(self, ts: np.ndarray) -> np.ndarray:
        """Cubic-Hermite interpolation at times inside [ts[0], ts[-1]]."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < self.ts[0] - 1e-12) or np.any(ts > self.ts[-1] + 1e-12):
            raise ValueError("sample times outside the recorded span")
        idx = np.clip(np.searchsorted(self.ts, ts, side="right") - 1, 0, len(self.ts) - 2)
        t0, t1 = self.ts[idx], self.ts[idx + 1]
        h = t1 - t0
        s = np.where(h > 0, (ts - t0) / np.where(h > 0, h, 1.0), 0.0)
        s2, s3 = s * s, s * s * s
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        return (h00[:, None] * self.ys[idx] + (h10 * h)[:, None] * self.fs[idx]
                + h01[:, None] * self.ys[idx + 1] + (h11 * h)[:, None] * self.fs[idx + 1])


@dataclass(slots=True)
class TailRecord:
    """How one run ended, without its trajectory.

    Holds what a classification reads: the termination with its final
    time and state, the largest |y_i| over the run, the event time or the
    extrapolated singularity time, and the dense-output samples at the
    probe times the run covered: one row per probe time up to
    ``t_final``, the sample :meth:`TrajectoryRecord.sample_many` gives
    there (None when it covered none, or ended at an event).
    """

    termination: Termination
    t_final: float
    y_final: np.ndarray
    max_abs: float
    note: str = ""
    t_event: Optional[float] = None
    blowup_time: Optional[float] = None
    blowup_component: Optional[int] = None
    probe: Optional[np.ndarray] = None

    @classmethod
    def of(cls, rec: TrajectoryRecord, probe_t=None) -> "TailRecord":
        """The tail of ``rec``, probed at the nondecreasing times ``probe_t``."""
        probe = None
        if probe_t is not None and rec.termination is not Termination.EVENT:
            times = np.atleast_1d(np.asarray(probe_t, dtype=float))
            times = times[:np.searchsorted(times, rec.t_final, side="right")]
            if len(times):
                probe = rec.sample_many(times)
        return cls(rec.termination, rec.t_final, rec.y_final, rec.max_abs(),
                   rec.note, rec.t_event, rec.blowup_time, rec.blowup_component,
                   probe)


class IntegrationFailure(RuntimeError):
    """A numerical method that must reach its end point did not converge."""


class Verdict(enum.Enum):
    GLOBAL_BOUNDED = "global-bounded"
    FINITE_TIME_BLOWUP = "finite-time-blowup"
    INCONCLUSIVE = "inconclusive"


@dataclass
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


def outcome_of(run, diagnostics: dict) -> ClassificationOutcome:
    """The verdict a run's termination implies (``run``: a trajectory or tail record).

    A detected blowup is finite-time blowup at the extrapolated time, a
    step collapse is inconclusive with the integrator's note as the
    reason, and a run that reached its horizon or a terminal
    bounded-basin event is globally bounded.
    """
    if run.termination is Termination.BLOWUP_DETECTED:
        return ClassificationOutcome(Verdict.FINITE_TIME_BLOWUP,
                                     t_estimate=run.blowup_time,
                                     diagnostics=diagnostics)
    if run.termination is Termination.STEP_COLLAPSE:
        return ClassificationOutcome(Verdict.INCONCLUSIVE, reason=run.note,
                                     diagnostics=diagnostics)
    return ClassificationOutcome(Verdict.GLOBAL_BOUNDED, diagnostics=diagnostics)


def _hermite_point(t0, y0, f0, t1, y1, f1, t):
    h = t1 - t0
    s = (t - t0) / h
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * f1)


def _bisect_event(event, t0, y0, f0, t1, y1, f1, g0, g1):
    """Locate the sign change of g on dense output to _EVENT_TIME_TOL."""
    a, b, ga = t0, t1, g0
    while b - a > _EVENT_TIME_TOL:
        m = 0.5 * (a + b)
        gm = event.func(m, _hermite_point(t0, y0, f0, t1, y1, f1, m))
        if gm == 0.0:
            a = b = m
            break
        if (ga < 0) != (gm < 0):
            b = m
        else:
            a, ga = m, gm
    t_e = 0.5 * (a + b)
    return t_e, _hermite_point(t0, y0, f0, t1, y1, f1, t_e)


def _crossed(g0, g1, direction: int):
    """Whether g changed sign over a step; elementwise when given lane arrays."""
    valid = (g0 != 0.0) & np.isfinite(g0) & np.isfinite(g1)
    if direction > 0:
        return valid & (g0 < 0.0) & (g1 >= 0.0)
    if direction < 0:
        return valid & (g0 > 0.0) & (g1 <= 0.0)
    return valid & (((g0 < 0.0) != (g1 < 0.0)) | (g1 == 0.0))


def _blowup_time_estimate(ts, ys, comp):
    """Extrapolate 1/|y_comp| -> 0 linearly over the escaping tail."""
    t_arr = np.asarray(ts, dtype=float)
    y_arr = np.asarray([y[comp] for y in ys], dtype=float)
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


def _finish(ts, ys, fs, termination, **kw) -> TrajectoryRecord:
    return TrajectoryRecord(np.asarray(ts, dtype=float),
                            np.asarray(ys, dtype=float),
                            np.asarray(fs, dtype=float), termination, **kw)


def integrate(system: OdeSystem, y0: Sequence[float], config: IntegratorConfig,
              events: Sequence[EventSpec] = (), t0: float = 0.0) -> TrajectoryRecord:
    """Adaptive integration to t_max or a terminating event/blowup/collapse.

    The stepping loop works in scalar arithmetic (states are tuples of
    floats): every system in this package has a handful of components,
    where small-array overhead would dominate the actual math.  The rhs
    may return any indexable sequence.
    """
    f = system.rhs
    d = system.dimension
    rtol = config.rel_tol
    atol = tuple(float(a) for a in np.broadcast_to(config.abs_tol, (d,)))
    cap = config.magnitude_cap
    t_max = config.t_max
    h_min = config.h_min
    rng = range(d)

    t = float(t0)
    y = tuple(float(v) for v in y0)
    if len(y) != d:
        raise ValueError(f"initial state must have dimension {d}")
    if not all(math.isfinite(v) for v in y):
        raise ValueError("initial state must be finite")
    k1 = f(t, y)
    if not all(math.isfinite(v) for v in k1):
        return _finish([t], [y], [tuple(k1)], Termination.STEP_COLLAPSE,
                       note=f"non-finite rhs at t={t}")

    ts, ys, fs = [t], [y], [tuple(k1)]
    hits: list[EventHit] = []
    gvals = [ev.func(t, y) for ev in events]

    h = min(config.h_init, config.h_max, max(t_max - t, h_min))
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
            return _finish(ts, ys, fs, Termination.STEP_COLLAPSE, hits=hits,
                           note=f"time resolution exhausted at t={t}")

        k2 = f(t + _C2 * h, tuple(y[i] + h * (_A21 * k1[i]) for i in rng))
        k3 = f(t + _C3 * h,
               tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in rng))
        k4 = f(t + _C4 * h,
               tuple(y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i])
                     for i in rng))
        k5 = f(t + _C5 * h,
               tuple(y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i]
                                 + _A54 * k4[i]) for i in rng))
        k6 = f(t + h,
               tuple(y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i]
                                 + _A64 * k4[i] + _A65 * k5[i]) for i in rng))
        y_new = tuple(y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i]
                                  + _B5 * k5[i] + _B6 * k6[i]) for i in rng)
        t_new = t + h
        k7 = f(t_new, y_new)

        err_acc = 0.0
        for i in rng:
            e = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i]
                     + _E6 * k6[i] + _E7 * k7[i])
            ay, ayn = abs(y[i]), abs(y_new[i])
            sc = atol[i] + rtol * (ay if ay > ayn else ayn)
            e /= sc
            err_acc += e * e
        err_norm = math.sqrt(err_acc / d)

        if not (err_norm <= 1.0):
            # rejected (also routes NaN/Inf from the rhs here)
            if clamped or h <= h_min * 1.0001:
                return _finish(ts, ys, fs, Termination.STEP_COLLAPSE, hits=hits,
                               note=f"step size collapsed at t={t} "
                                    f"(err={err_norm:.3g})")
            factor = 0.2 if not math.isfinite(err_norm) \
                else max(0.2, 0.9 * err_norm ** -0.2)
            h = max(h * factor, h_min)
            continue

        # event handling over [t, t_new]
        terminal_hit = None
        g_new = [ev.func(t_new, y_new) for ev in events]
        for i, ev in enumerate(events):
            if _crossed(gvals[i], g_new[i], ev.direction):
                t_e, y_e = _bisect_event(ev, t, np.asarray(y), np.asarray(k1),
                                         t_new, np.asarray(y_new),
                                         np.asarray(k7), gvals[i], g_new[i])
                hits.append(EventHit(ev.name, t_e, y_e))
                if ev.terminal and (terminal_hit is None or t_e < terminal_hit[1].t):
                    terminal_hit = (ev, hits[-1])
        if terminal_hit is not None:
            ev, hit = terminal_hit
            f_e = tuple(f(hit.t, tuple(hit.y)))
            ts.append(hit.t), ys.append(tuple(hit.y)), fs.append(f_e)
            return _finish(ts, ys, fs, Termination.EVENT, event_name=ev.name,
                           t_event=hit.t, hits=hits)

        ts.append(t_new), ys.append(y_new), fs.append(tuple(k7))
        mag = 0.0
        comp = 0
        for i in rng:
            av = abs(y_new[i])
            if av > mag:
                mag, comp = av, i
        if mag > cap:
            feedback = y_new[comp] * k7[comp] > 0.0
            if feedback or mag > 1e4 * cap:
                t_est = _blowup_time_estimate(ts, ys, comp)
                return _finish(ts, ys, fs, Termination.BLOWUP_DETECTED,
                               hits=hits, blowup_time=t_est,
                               blowup_component=comp)

        t, y, k1 = t_new, y_new, k7
        gvals = g_new
        factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        h = h * factor
        if h > config.h_max:
            h = config.h_max
    else:
        return _finish(ts, ys, fs, Termination.STEP_COLLAPSE, hits=hits,
                       note=f"step budget exhausted at t={t}")

    return _finish(ts, ys, fs, Termination.REACHED_HORIZON, hits=hits)


def _step_factors(err: np.ndarray) -> np.ndarray:
    """0.9 * err ** -0.2 per lane, with the power taken in Python floats.

    NumPy's vectorised ``power`` is not correctly rounded on every CPU,
    and one ulp in a step factor is enough to move a trajectory off the
    one :func:`integrate` takes.
    """
    return 0.9 * np.array(list(map(pow, err.tolist(), itertools.repeat(-0.2))))


def _bisect_lanes(func, t0, y0, f0, t1, y1, f1, g0):
    """:func:`_bisect_event` for many lanes at once, each halving its own bracket."""
    a, b, ga = t0.copy(), t1.copy(), g0.copy()
    open_ = b - a > _EVENT_TIME_TOL
    while open_.any():
        j = np.flatnonzero(open_)
        m = 0.5 * (a[j] + b[j])
        gm = func(m, _hermite_point(t0[j], y0[:, j], f0[:, j], t1[j], y1[:, j],
                                    f1[:, j], m))
        zero = gm == 0.0
        left = (ga[j] < 0) != (gm < 0)
        a[j] = np.where(zero | ~left, m, a[j])
        b[j] = np.where(zero | left, m, b[j])
        ga[j] = np.where(left, ga[j], gm)
        open_[j] = ~zero & (b[j] - a[j] > _EVENT_TIME_TOL)
    t_e = 0.5 * (a + b)
    return t_e, _hermite_point(t0, y0, f0, t1, y1, f1, t_e)


def integrate_lanes(system: OdeSystem, y0: np.ndarray,
                    configs: Sequence[IntegratorConfig],
                    event: Optional[EventSpec] = None,
                    probe_t=None) -> Iterator[TailRecord]:
    """Integrate one copy of ``system`` per column of ``y0`` (dim x lanes) in lockstep.

    Lane j starts at t = 0 from ``y0[:, j]``, follows ``configs[j]`` with
    its own step size and accept/reject decisions, and ends on its own:
    at its horizon, at the first sign change of the terminal ``event``
    (located by per-lane bisection), at a detected blowup, or at a step
    collapse.  Every lane repeats the arithmetic of :func:`integrate` in
    the same order, so its tail equals ``TailRecord.of(integrate(system,
    y0[:, j], configs[j], (event,)), probe_t[:, j])`` exactly.  For that,
    the rhs and the event must work elementwise on (dim, k) arrays with
    the same operations they apply to scalars, the rhs returning one (k,)
    array per component.

    Only the tail of each run is kept: the final state, the running
    max-norm, the last samples the blowup-time fit reads, and the
    dense-output samples at the probe times.  ``probe_t`` holds P probe
    times per lane, nondecreasing down each column of its (P, lanes)
    shape; a scalar or a (P,) array applies to every lane.  Each probe is
    the Hermite point on the accepted step that
    :meth:`TrajectoryRecord.sample_many` would pick, so a probe at the
    final time is the end of the last step.  Returns an iterator over the
    lanes' tail records, in lane order.
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

    def rhs(t, y):
        return np.array(f(t, y))

    # per-lane settings, one row each
    limits = np.array([[getattr(c, name) for c in configs] for name in
                       ("rel_tol", "h_min", "h_max", "t_max", "magnitude_cap",
                        "max_steps", "h_init")], dtype=float).reshape(7, n)
    atol = np.array([np.broadcast_to(c.abs_tol, (d,)) for c in configs],
                    dtype=float).T.reshape(d, n)

    # The working arrays hold the running lanes only; ``lane`` maps them to
    # the original lane, which indexes everything below so that retiring
    # lanes never copies it.
    ends = np.empty(n, dtype=object)       # Termination of each lane
    t_end = np.zeros(n)
    y_end = np.zeros((d, n))
    max_abs = np.zeros(n)
    blowup_time = np.zeros(n)
    blowup_comp = np.zeros(n, dtype=int)
    notes: dict[int, str] = {}
    pt = probe = None
    if probe_t is not None:
        pt = np.asarray(probe_t, dtype=float)
        if pt.ndim < 2:
            pt = pt.reshape(-1, 1)
        pt = np.array(np.broadcast_to(pt, (len(pt), n)))
        if np.any(pt < 0.0) or np.any(np.diff(pt, axis=0) < 0):
            raise ValueError("probe times must be nonnegative and nondecreasing "
                             "in every lane")
        probe = np.full((len(pt), d, n), np.nan)
    probe_times = pt    # every lane's, while pt keeps the running lanes' columns
    # ring buffer of the trailing accepted samples
    tb = np.zeros((_BLOWUP_TAIL, n))
    yb = np.zeros((_BLOWUP_TAIL, d, n))
    nb = np.ones(n, dtype=int)

    lane = np.arange(n)
    alive = np.ones(n, dtype=bool)
    iterations = accepted = rejected = 0
    t = np.zeros(n)
    vmax = np.max(np.abs(y), axis=0)
    n_att = np.zeros(n)
    tb[0], yb[0] = t, y

    def take_probes(inside, t0, y0, f0, t1, y1, f1):
        """Sample the probes marked in ``inside`` (P x running lanes) on [t0, t1]."""
        if not inside.any():    # most steps cross no probe time
            return
        for row in np.flatnonzero(inside.any(axis=1)):
            at = inside[row]
            probe[row][:, lane[at]] = _hermite_point(
                t0[at], y0[:, at], f0[:, at], t1[at], y1[:, at], f1[:, at], pt[row, at])

    def close(mask, termination, t_f, y_f, note=None):
        """Record the end of every lane in ``mask`` and retire it."""
        if not mask.any():
            return
        i = lane[mask]
        ends[i] = termination
        t_end[i], y_end[:, i], max_abs[i] = t_f[mask], y_f[:, mask], vmax[mask]
        if note is not None:
            for j in np.flatnonzero(mask):
                notes[lane[j]] = note(j)
        alive[mask] = False

    with np.errstate(all="ignore"):
        k1 = rhs(t, y)
        close(~np.all(np.isfinite(k1), axis=0), Termination.STEP_COLLAPSE, t, y,
              note=lambda j: f"non-finite rhs at t={float(t[j])}")
        g = event.func(t, y) if event is not None else None
        if pt is not None:
            # a lane that never accepts a step is a one-sample record, which
            # sample_many reads at s = 0 of a step from its start point
            take_probes(pt <= t, t, y, k1, t + 1.0, y, k1)
        rtol, h_min, h_max, t_max, cap, max_steps, h_init = limits
        h = np.minimum(np.minimum(h_init, h_max), np.maximum(t_max - t, h_min))

        while True:
            if not alive.all():
                lane, t, y, k1, g, h, n_att, vmax, limits, atol, pt = (
                    None if a is None else a[..., alive]
                    for a in (lane, t, y, k1, g, h, n_att, vmax, limits, atol, pt))
                alive = np.ones(len(lane), dtype=bool)
                rtol, h_min, h_max, t_max, cap, max_steps, _ = limits
            if not len(lane):
                break
            iterations += 1

            close(n_att >= max_steps, Termination.STEP_COLLAPSE, t, y,
                  note=lambda j: f"step budget exhausted at t={float(t[j])}")
            close(alive & (t >= t_max), Termination.REACHED_HORIZON, t, y)
            n_att += 1
            h = np.where(h > t_max - t, t_max - t, h)
            clamped = h < h_min
            h = np.where(clamped, h_min, h)
            t_new = t + h
            close(alive & (t_new <= t), Termination.STEP_COLLAPSE, t, y,
                  note=lambda j: f"time resolution exhausted at t={float(t[j])}")

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
            shrink = np.flatnonzero(alive & ~ok)
            rejected += len(shrink)
            if len(shrink):
                e_r = err[shrink]
                factor = np.full(len(shrink), 0.2)
                finite = np.isfinite(e_r)
                factor[finite] = np.maximum(0.2, _step_factors(e_r[finite]))
                h[shrink] = np.maximum(h[shrink] * factor, h_min[shrink])

            if event is not None:
                g_new = event.func(t_new, y_new)
                hit = alive & ok & _crossed(g, g_new, event.direction)
                if hit.any():
                    t_hit, y_hit = t_new.copy(), y_new.copy()
                    t_hit[hit], y_hit[:, hit] = _bisect_lanes(
                        event.func, t[hit], y[:, hit], k1[:, hit], t_new[hit],
                        y_new[:, hit], k7[:, hit], g[hit])
                    vmax = np.where(hit, np.maximum(vmax, np.max(np.abs(y_hit), axis=0)),
                                    vmax)
                    close(hit, Termination.EVENT, t_hit, y_hit)

            step = alive & ok
            mag = np.max(np.abs(y_new), axis=0)
            vmax = np.where(step, np.maximum(vmax, mag), vmax)
            js = np.flatnonzero(step)
            accepted += len(js)
            i = lane[js]
            slot = nb[i] % _BLOWUP_TAIL
            tb[slot, i] = t_new[js]
            yb[slot, :, i] = y_new[:, js].T
            nb[i] += 1
            if pt is not None:
                # a probe on t_new is taken again, at s = 0, by the next
                # accepted step if there is one, as sample_many picks
                take_probes(step & (t <= pt) & (pt <= t_new), t, y, k1, t_new, y_new, k7)

            big = step & (mag > cap)
            if big.any():
                comp = np.argmax(np.abs(y_new), axis=0)
                cols = np.arange(len(lane))
                feedback = y_new[comp, cols] * k7[comp, cols] > 0.0
                blown = big & (feedback | (mag > 1e4 * cap))
                for j in np.flatnonzero(blown):
                    i = lane[j]
                    m = min(nb[i], _BLOWUP_TAIL)
                    slots = (nb[i] - m + np.arange(m)) % _BLOWUP_TAIL
                    blowup_time[i] = _blowup_time_estimate(tb[slots, i], yb[slots, :, i],
                                                           comp[j])
                    blowup_comp[i] = comp[j]
                close(blown, Termination.BLOWUP_DETECTED, t_new, y_new)

            step &= alive
            t = np.where(step, t_new, t)
            y = np.where(step, y_new, y)
            k1 = np.where(step, k7, k1)
            if event is not None:
                g = np.where(step, g_new, g)
            js = np.flatnonzero(step)
            e_a = err[js]
            factor = np.full(len(js), 5.0)
            nonzero = e_a != 0.0
            factor[nonzero] = np.minimum(5.0, np.maximum(0.2, _step_factors(e_a[nonzero])))
            h[js] = np.minimum(h[js] * factor, h_max[js])

    log.info("%d lanes in %d lockstep iterations: %d accepted and %d rejected "
             "lane-steps", n, iterations, accepted, rejected)

    def tail(i):
        end = ends[i]
        blown = end is Termination.BLOWUP_DETECTED
        covered = 0
        if pt is not None and end is not Termination.EVENT:
            covered = int(np.count_nonzero(probe_times[:, i] <= t_end[i]))
        return TailRecord(
            end, float(t_end[i]), y_end[:, i], float(max_abs[i]), notes.get(i, ""),
            t_event=float(t_end[i]) if end is Termination.EVENT else None,
            blowup_time=float(blowup_time[i]) if blown else None,
            blowup_component=int(blowup_comp[i]) if blown else None,
            probe=probe[:covered, :, i] if covered else None)

    return map(tail, range(n))


def integrate_until_event(system: OdeSystem, y0: Sequence[float],
                          config: IntegratorConfig, event: EventSpec,
                          t0: float = 0.0) -> TrajectoryRecord:
    """Integrate until the first sign change of ``event`` (or the horizon)."""
    ev = replace(event, terminal=True)
    return integrate(system, y0, config, events=(ev,), t0=t0)


def estimate_decay_exponent(record: TrajectoryRecord, component: int,
                            window: tuple[float, float], n_samples: int = 200) -> float:
    """Least-squares slope of log|y_component| against log(t + 1) over the window.

    The component must be strictly positive in magnitude throughout;
    t_b > t_a >= 1 is required so the log-log fit sees the algebraic tail.
    """
    t_a, t_b = window
    if not (t_b > t_a >= 1.0):
        raise ValueError("window must satisfy t_b > t_a >= 1")
    if record.ts[-1] < t_b or record.ts[0] > t_a:
        raise ValueError("record does not cover the fitting window")
    tt = np.linspace(t_a, t_b, n_samples)
    vals = record.sample_many(tt)[:, component]
    if np.min(vals) <= 0.0:
        raise ValueError("component has non-positive samples in the window")
    slope, _ = np.polyfit(np.log(tt + 1.0), np.log(vals), 1)
    return float(slope)
