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
# share of a lane batch's working columns that must have retired before
# integrate_lanes compacts its working arrays to the running lanes
_COMPACT_SHARE = 1 / 8


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
        # each message starts with the setting's name, which is also its
        # [integrator] config key
        abs_tol = np.asarray(self.abs_tol, dtype=float)
        rules = [
            ("rel_tol", math.isfinite(self.rel_tol) and self.rel_tol > 0,
             "finite and positive"),
            ("abs_tol", bool(np.all(np.isfinite(abs_tol)) and np.all(abs_tol > 0)),
             "finite and positive"),
            ("h_min", math.isfinite(self.h_min) and self.h_min > 0, "finite and positive"),
            ("h_max", self.h_max >= self.h_min, "at least h_min"),
            ("h_init", self.h_min <= self.h_init <= self.h_max,
             "between h_min and h_max"),
            ("t_max", math.isfinite(self.t_max) and self.t_max >= 0,
             "finite and nonnegative"),
            ("magnitude_cap", math.isfinite(self.magnitude_cap) and self.magnitude_cap > 0,
             "finite and positive")]
        for name, ok, wanted in rules:
            if not ok:
                raise ValueError(f"{name} must be {wanted}, got {getattr(self, name)!r}")

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

    ``blowup`` is the singularity time of a blowup, or the escaping
    component's trailing ``(t, y)`` samples, which the first read of
    :attr:`blowup_time` fits and replaces by the time.
    """

    termination: Termination
    t_final: float
    y_final: np.ndarray
    max_abs: float
    note: str = ""
    t_event: Optional[float] = None
    blowup_component: Optional[int] = None
    probe: Optional[np.ndarray] = None
    blowup: Optional[float | tuple] = field(default=None, repr=False)

    @property
    def blowup_time(self) -> Optional[float]:
        if isinstance(self.blowup, tuple):
            with np.errstate(all="ignore"):
                self.blowup = _blowup_time_estimate(*self.blowup)
        return self.blowup

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
                   rec.note, rec.t_event, rec.blowup_component, probe,
                   rec.blowup_time)


# a lane batch's termination codes index this tuple
TERMINATIONS = tuple(Termination)
_EVENT = TERMINATIONS.index(Termination.EVENT)


@dataclass(eq=False)
class LaneBatch:
    """How every lane of a batch ended, as arrays over the lanes.

    ``ends`` indexes :data:`TERMINATIONS`, ``y_final`` is dim x lanes and
    ``blowup_component`` is -1 unless the lane blew up.  Lane j's record
    covers the first ``covered[j]`` rows of ``probe`` (probe times x dim x
    lanes), none after an event.  A blown lane's time is fitted when first
    read, from the ring ``(t, y, count)`` of its trailing accepted samples.
    The counters are each lane's step attempts (six stage evaluations
    each), accepted and rejected steps and rhs evaluations; the step that
    crosses the event and a collapsing step are attempts only.
    ``batch[j]`` is lane j's :class:`TailRecord`: for a batch stacked from
    scalar runs, which has no ring or counters, the one in ``tails``.
    """

    ends: np.ndarray
    t_final: np.ndarray
    y_final: np.ndarray
    max_abs: np.ndarray
    blowup_component: np.ndarray
    probe: np.ndarray
    covered: np.ndarray
    notes: dict
    ring: Optional[tuple] = None
    tails: Optional[list] = None
    attempts: Optional[np.ndarray] = None
    accepted: Optional[np.ndarray] = None
    rejected: Optional[np.ndarray] = None
    rhs_evals: Optional[np.ndarray] = None

    @property
    def t_event(self) -> np.ndarray:
        """Each lane's event time, NaN for a lane that ended otherwise."""
        return np.where(self.ends == _EVENT, self.t_final, np.nan)

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self) -> Iterator[TailRecord]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, j) -> TailRecord:
        j = range(len(self))[j]     # a lane index, or IndexError
        if self.tails is not None:
            return self.tails[j]
        end, t_final, rows = TERMINATIONS[self.ends[j]], float(self.t_final[j]), self.covered[j]
        blowup = component = None
        if end is Termination.BLOWUP_DETECTED:
            # the escaping component's trailing samples, for the fit
            component = int(self.blowup_component[j])
            tb, yb, nb = self.ring
            m = min(nb[j], _BLOWUP_TAIL)
            slots = (nb[j] - m + np.arange(m)) % _BLOWUP_TAIL
            blowup = (tb[slots, j], yb[slots, component, j])
        return TailRecord(end, t_final, self.y_final[:, j], float(self.max_abs[j]),
                          self.notes.get(j, ""), t_final if end is Termination.EVENT else None,
                          component, self.probe[:rows, :, j] if rows else None, blowup)

    @classmethod
    def of(cls, tails: Sequence[TailRecord], dim: int, n_probes: int) -> "LaneBatch":
        """The batch of the tail records of ``n_probes``-probed scalar runs."""
        n = len(tails)
        probe = np.full((n_probes, dim, n), np.nan)
        covered = np.zeros(n, dtype=int)
        for j, tail in enumerate(tails):
            if tail.probe is not None:
                covered[j] = len(tail.probe)
                probe[:covered[j], :, j] = tail.probe
        return cls(np.array([TERMINATIONS.index(t.termination) for t in tails], dtype=int),
                   np.array([t.t_final for t in tails], dtype=float),
                   np.array([t.y_final for t in tails], dtype=float).reshape(n, dim).T,
                   np.array([t.max_abs for t in tails], dtype=float),
                   np.array([-1 if t.blowup_component is None else t.blowup_component
                             for t in tails], dtype=int),
                   probe, covered, {j: t.note for j, t in enumerate(tails) if t.note},
                   tails=list(tails))


class IntegrationFailure(RuntimeError):
    """A numerical method that must reach its end point did not converge."""


class Verdict(enum.Enum):
    GLOBAL_BOUNDED = "global-bounded"
    FINITE_TIME_BLOWUP = "finite-time-blowup"
    INCONCLUSIVE = "inconclusive"


# the integer code of each verdict in sweep grids
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


class ClassificationOutcome:
    """Result of a threshold decision: a verdict plus trajectory diagnostics.

    With ``blown_run`` given, ``t_estimate`` is that run's
    ``blowup_time``, read when first asked: a caller that keeps only the
    verdict never runs the blowup-time fit of a :class:`TailRecord`.
    """

    def __init__(self, verdict: Verdict, t_estimate: Optional[float] = None,
                 reason: Optional[str] = None, diagnostics: Optional[dict] = None,
                 blown_run=None):
        self.verdict = verdict
        self.reason = reason
        self.diagnostics = {} if diagnostics is None else diagnostics
        self._t_estimate = t_estimate
        self._blown_run = blown_run

    @property
    def t_estimate(self) -> Optional[float]:
        if self._blown_run is not None:
            self._t_estimate, self._blown_run = self._blown_run.blowup_time, None
        return self._t_estimate

    @property
    def is_bounded(self) -> bool:
        return self.verdict is Verdict.GLOBAL_BOUNDED

    @property
    def is_blowup(self) -> bool:
        return self.verdict is Verdict.FINITE_TIME_BLOWUP


def outcome_of(run, diagnostics: dict) -> ClassificationOutcome:
    """The verdict a run's termination implies (``run``: a trajectory or tail record).

    A step collapse gives the integrator's note as the reason, and a
    detected blowup the extrapolated time as ``t_estimate``.
    """
    verdict = VERDICT_OF[run.termination]
    return ClassificationOutcome(
        verdict, reason=run.note if verdict is Verdict.INCONCLUSIVE else None,
        diagnostics=diagnostics,
        blown_run=run if verdict is Verdict.FINITE_TIME_BLOWUP else None)


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
                t_est = _blowup_time_estimate(ts, [y[comp] for y in ys])
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
    """0.9 * err ** -0.2 per lane, bit for bit the Python float power.

    One ulp in a step factor is enough to move a trajectory off the one
    :func:`integrate` takes, so the power must be the one Python takes.
    CPython's ``float ** float`` calls the C library ``pow`` for a
    positive finite base, and so does the float64 loop of
    ``np.float_power``.  ``np.power`` does not: on CPUs with AVX-512,
    NumPy computes it with its own SIMD routines, whose results differ
    from ``pow`` in the last bit on some inputs.
    """
    return 0.9 * np.float_power(err, -0.2)


def _bisect_lanes(func, t0, y0, f0, t1, y1, f1, g0):
    """:func:`_bisect_event` for many lanes at once, each halving its own bracket.

    ``func(t, y, cols)`` evaluates the event on the lanes ``cols`` of the
    bracketed ones.
    """
    a, b, ga = t0.copy(), t1.copy(), g0.copy()
    open_ = b - a > _EVENT_TIME_TOL
    while open_.any():
        j = np.flatnonzero(open_)
        m = 0.5 * (a[j] + b[j])
        gm = func(m, _hermite_point(t0[j], y0[:, j], f0[:, j], t1[j], y1[:, j],
                                    f1[:, j], m), j)
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
                    probe_t=None, event_consts=None) -> LaneBatch:
    """Integrate one copy of ``system`` per column of ``y0`` (dim x lanes) in lockstep.

    Lane j starts at t = 0 from ``y0[:, j]``, follows ``configs[j]`` with
    its own step size and accept/reject decisions, and ends on its own:
    at its horizon, at the first sign change of the terminal ``event``
    (a lane retires with its bracketing step, and one bisection after the
    loop locates every lane's crossing), at a detected blowup, or at a
    step collapse.  Every lane repeats the arithmetic of :func:`integrate`
    in the same order, so lane j of the returned :class:`LaneBatch` equals
    ``TailRecord.of(integrate(system, y0[:, j], configs[j], (event,)),
    probe_t[:, j])`` exactly.  For that,
    the rhs and the event must work elementwise on (dim, k) arrays with
    the same operations they apply to scalars, the rhs returning one (k,)
    array per component.

    ``event_consts``, an array whose last axis runs over the lanes, gives
    the event per-lane constants: it is then called as ``event.func(t, y,
    consts)`` with the columns of the lanes in ``y``, and lane j matches
    the scalar run of the event with ``event_consts[..., j]`` closed over.

    Only the tail of each run is kept, as the arrays of a
    :class:`LaneBatch`; a caller that reads only the terminations runs no
    blowup-time fit.  ``probe_t`` holds P probe times per lane,
    nondecreasing down each column of its (P, lanes) shape; a scalar or a
    (P,) array applies to every lane.  Each probe is the Hermite point on
    the accepted step that :meth:`TrajectoryRecord.sample_many` would
    pick, so a probe at the final time is the end of the last step.
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

    def event_at(t, y, cols=slice(None)):
        """The event on the running lanes, or on their subset ``cols``."""
        if consts is None:
            return event.func(t, y)
        return event.func(t, y, consts[..., cols])

    # per-lane settings, one row each, gathered from the distinct configs
    distinct = {id(c): c for c in configs}
    column = {key: k for k, key in enumerate(distinct)}
    which = [column[id(c)] for c in configs]
    limits = np.array([[getattr(c, name) for c in distinct.values()] for name in
                       ("rel_tol", "h_min", "h_max", "t_max", "magnitude_cap",
                        "max_steps", "h_init")], dtype=float).reshape(7, -1)[:, which]
    atol = np.array([np.broadcast_to(c.abs_tol, (d,)) for c in distinct.values()],
                    dtype=float).T.reshape(d, -1)[:, which]

    # The working arrays hold the running lanes, and retired ones until
    # _COMPACT_SHARE of their columns have retired; ``lane`` maps them to
    # the original lane, which indexes everything below so that retiring
    # lanes never copies it.
    ends = np.zeros(n, dtype=int)          # index into TERMINATIONS
    t_end = np.zeros(n)
    y_end = np.zeros((d, n))
    max_abs = np.zeros(n)
    blowup_comp = np.full(n, -1)
    notes: dict[int, str] = {}
    # (lanes, t, y, k1, t_new, y_new, k7, g[, consts]) of the steps that
    # crossed the event, located together after the loop
    brackets = []
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
    probe_times = pt    # every lane's, while pt keeps the working columns
    # ring buffer of the trailing accepted samples
    tb = np.zeros((_BLOWUP_TAIL, n))
    yb = np.zeros((_BLOWUP_TAIL, d, n))
    nb = np.ones(n, dtype=int)

    lane = np.arange(n)
    alive = np.ones(n, dtype=bool)
    iterations = 0
    t = np.zeros(n)
    vmax = np.max(np.abs(y), axis=0)
    n_att = np.zeros(n)     # attempts that evaluated the stages
    # each lane's attempts when it retired, and whether its last one was
    # neither accepted nor rejected (an event crossing or a step collapse)
    attempts = np.zeros(n, dtype=int)
    unsettled = np.zeros(n, dtype=int)
    tb[0], yb[0] = t, y

    def take_probes(inside, t0, y0, f0, t1, y1, f1):
        """Sample the probes marked in ``inside`` (P x working lanes) on [t0, t1]."""
        if not inside.any():    # most steps cross no probe time
            return
        for row in np.flatnonzero(inside.any(axis=1)):
            at = inside[row]
            probe[row][:, lane[at]] = _hermite_point(
                t0[at], y0[:, at], f0[:, at], t1[at], y1[:, at], f1[:, at], pt[row, at])

    def close(mask, termination, t_f, y_f, note=None, last_unsettled=False):
        """Record the end of every lane in ``mask`` and retire it."""
        if not mask.any():
            return
        i = lane[mask]
        ends[i] = TERMINATIONS.index(termination)
        t_end[i], y_end[:, i], max_abs[i] = t_f[mask], y_f[:, mask], vmax[mask]
        attempts[i] = n_att[mask]
        unsettled[i] = last_unsettled
        if note is not None:
            for j in np.flatnonzero(mask):
                notes[lane[j]] = note(j)
        alive[mask] = False

    with np.errstate(all="ignore"):
        k1 = rhs(t, y)
        close(~np.all(np.isfinite(k1), axis=0), Termination.STEP_COLLAPSE, t, y,
              note=lambda j: f"non-finite rhs at t={float(t[j])}")
        g = event_at(t, y) if event is not None else None
        if pt is not None:
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
                lane, t, y, k1, g, h, n_att, vmax, limits, atol, pt, consts = (
                    None if a is None else a[..., alive]
                    for a in (lane, t, y, k1, g, h, n_att, vmax, limits, atol, pt,
                              consts))
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
                                 f"(err={float(err[j]):.3g})", last_unsettled=True)
            shrink = alive & ~ok
            # the next step size factor of every working lane, as integrate
            # takes it: 0.9 err^-0.2 clamped to [0.2, 5], so 5 after an
            # error of 0 (an accepted step) and 0.2 after a non-finite one
            # (a rejected step; fmax drops a NaN)
            factor = np.minimum(5.0, np.fmax(0.2, _step_factors(err)))

            if event is not None:
                g_new = event_at(t_new, y_new)
                hit = alive & ok & _crossed(g, g_new, event.direction)
                if hit.any():
                    brackets.append((lane[hit], t[hit], y[:, hit], k1[:, hit],
                                     t_new[hit], y_new[:, hit], k7[:, hit], g[hit])
                                    + (() if consts is None else (consts[..., hit],)))
                    close(hit, Termination.EVENT, t_new, y_new, last_unsettled=True)

            step = alive & ok
            mag = np.max(np.abs(y_new), axis=0)
            vmax = np.where(step, np.maximum(vmax, mag), vmax)
            js = np.flatnonzero(step)
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
                blowup_comp[lane[blown]] = comp[blown]
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
            hit, t0, y0, f0, t1, y1, f1, g0, *hit_consts = (
                np.concatenate(part, axis=-1) for part in zip(*brackets))

            def event_on(tm, ym, j):
                nonlocal rounds
                rounds += 1
                if not hit_consts:
                    return event.func(tm, ym)
                return event.func(tm, ym, hit_consts[0][..., j])

            t_end[hit], y_end[:, hit] = _bisect_lanes(event_on, t0, y0, f0, t1, y1, f1, g0)
            max_abs[hit] = np.maximum(max_abs[hit], np.max(np.abs(y_end[:, hit]), axis=0))
            located = len(hit)

    accepted = nb - 1
    rejected = attempts - accepted - unsettled
    log.info("%d lanes in %d lockstep iterations: %d accepted and %d rejected "
             "lane-steps; %d lanes bracketed an event, located in %d halving rounds",
             n, iterations, accepted.sum(), rejected.sum(), located, rounds)

    covered = (np.count_nonzero(probe_times <= t_end, axis=0)
               if probe_times is not None else np.zeros(n, dtype=int))
    covered[ends == _EVENT] = 0
    return LaneBatch(ends, t_end, y_end, max_abs, blowup_comp,
                     probe if probe is not None else np.empty((0, d, n)), covered, notes,
                     ring=(tb, yb, nb), attempts=attempts, accepted=accepted,
                     rejected=rejected, rhs_evals=1 + 6 * attempts)


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
