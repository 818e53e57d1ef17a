"""Characteristic dynamics and threshold theory for radial Euler-Poisson flow.

Along a characteristic path the scalars p = u_r, q = u/r, s = -phi_r/r
and the density rho obey the closed system

    p'   = -p^2 + kappa (rho - c - (n-1) s),
    q'   = -q^2 + kappa s,
    s'   = -(n s + c) q,
    rho' = -rho (p + (n-1) q).

Global regularity of the PDE reduces to global boundedness of this ODE
per path.  The (q, s) block is closed on its own: with zero background
it decays algebraically to the origin, with positive background it
travels periodic orbits, and in both cases only p or rho can escape.
This module provides the numeric classifier for that dichotomy, whose one
map from a model to its system and basin is :func:`_characteristic`, plus
the explicit threshold machinery: the exact 1D region, the rescaled
(q-hat, s-hat) system and its decay constants, the drift threshold D_crit,
and the resulting explicit multi-D subcritical bound on p0/rho0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import CharState, Model, ModelParams, Region, check_rules
from .odeint import (END_CODES, TERMINATIONS, VERDICT_CODES, ClassificationOutcome,
                     EventSpec, IntegrationFailure, IntegratorConfig, LaneBatch,
                     OdeSystem, Termination, TrajectoryRecord, Verdict,
                     integrate, integrate_lanes, outcome_of)
from .profiles import RadialProfile, integrate_weighted

log = logging.getLogger(__name__)

DEFAULT_CONFIG = IntegratorConfig()

# early-exit basin: (q, s) negligible and (p, rho) inside a forward-invariant
# Riccati-safe region
_BASIN_QS = 1e-3
_BASIN_RHO_FLOOR = 1e-2


def qs_system(params: ModelParams) -> OdeSystem:
    """The closed (q, s) block: q' = -q^2 + kappa s, s' = -(n s + c) q."""
    n, kappa, c = params.n, params.kappa, params.c

    def rhs(t, y):
        q, s = y
        return (-q * q + kappa * s, -(n * s + c) * q)

    return OdeSystem(2, rhs, labels=("q", "s"))


def ep_full_system(params: ModelParams) -> OdeSystem:
    """The full (p, q, s, rho) characteristic system."""
    n, kappa, c = params.n, params.kappa, params.c
    nm1 = n - 1.0

    def rhs(t, y):
        p, q, s, rho = y
        return (-p * p + kappa * (rho - c - nm1 * s),
                -q * q + kappa * s,
                -(n * s + c) * q,
                -rho * (p + nm1 * q))

    return OdeSystem(4, rhs, labels=("p", "q", "s", "rho"))


def ep_1d_system(params: ModelParams) -> OdeSystem:
    """1D reduction: the (q, s) pair does not feed back into (p, rho)."""
    kappa, c = params.kappa, params.c

    def rhs(t, y):
        p, rho = y
        return (-p * p + kappa * (rho - c), -rho * p)

    return OdeSystem(2, rhs, labels=("p", "rho"))


def burgers_system(params: ModelParams) -> OdeSystem:
    """Inviscid or damped Burgers: p and q decouple, rho rides along."""
    nm1 = params.n - 1.0
    kd = params.kappa_damp if params.model is Model.DAMPED_BURGERS else 0.0

    def rhs(t, y):
        p, q, rho = y
        return (-p * p - kd * p,
                -q * q - kd * q,
                -rho * (p + nm1 * q))

    return OdeSystem(3, rhs, labels=("p", "q", "rho"))


def qshat_system(params: ModelParams) -> OdeSystem:
    """(q, s) rescaled by powers of (t+1), in logarithmic time.

    q_hat' = -q_hat^2 + q_hat + kappa s_hat,  s_hat' = (2 - n q_hat) s_hat.
    The zero-background (q, s) decay rates are the approach of this
    autonomous system to its attractor (1, 0).
    """
    n, kappa = params.n, params.kappa

    def rhs(t, y):
        qh, sh = y
        return (-qh * qh + qh + kappa * sh, (2.0 - n * qh) * sh)

    return OdeSystem(2, rhs, labels=("q_hat", "s_hat"))


def wv_basis_system(params: ModelParams, s0: float) -> OdeSystem:
    """The (q, s) block and, along its orbit, the three solutions (w, v) is built from.

    With A(t) = (1/n) log(s_tilde(t)/s_tilde(0)), s_tilde = s + c/n, the pair
    (w, v) = (p, 1) exp((n-1) A) / rho solves the linear equation

        v'' = -kappa (c + (n-1) s) v + kappa exp((n-1) A),   w = v',

    so v = v0 phi1 + w0 phi2 + v_p with (w0, v0) = (p0, 1) / rho0, where phi1
    and phi2 solve the homogeneous equation from (v, v') = (1, 0) and (0, 1)
    and v_p the full one from (0, 0).  The state is (q, s, phi1, phi1', phi2,
    phi2', v_p, v_p'), starting at (q0, s0, 1, 0, 0, 1, 0, 0).  A state blows
    up exactly when its v reaches 0.
    """
    n, kappa, c = params.n, params.kappa, params.c
    st0 = s0 + c / n
    if not st0 > 0:
        raise ValueError("s0 + c/n must be positive for the (w, v) transform")
    power = (n - 1.0) / n

    def rhs(t, y):
        q, s, a, da, b, db, vp, dvp = y
        k = -kappa * (c + (n - 1.0) * s)
        st = (s + c / n) / st0
        # s_tilde > 0 along every orbit; a trial stage that leaves it is rejected
        force = kappa * st ** power if st > 0 else math.nan
        return (-q * q + kappa * s, -(n * s + c) * q, da, k * a, db, k * b, dvp,
                k * vp + force)

    return OdeSystem(8, rhs, labels=("q", "s", "phi1", "phi1'", "phi2", "phi2'",
                                     "v_p", "v_p'"))


def initial_s_from_density(rho0: RadialProfile, c: float, r, n: float):
    """s(r) = r^-n * integral_0^r tau^(n-1) (rho0(tau) - c) d tau.

    Exceeds -c/n whenever the central density is positive.  ``r`` may be
    an increasing array of radii, which shares one quadrature pass; each
    entry equals the scalar call bit for bit.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if not (0.0 < np.min(radii) and np.max(radii) <= rho0.r_max + 1e-12):
        raise ValueError(f"radius {r} outside the density profile support")
    w = integrate_weighted(rho0.nodes, rho0.values, 0.0, radii, n - 1.0)
    # element by element: the scalar power, not NumPy's vectorised one
    s = np.array([(w_k - c * r_k ** n / n) / r_k ** n for w_k, r_k in zip(w, radii)])
    return float(s[0]) if np.ndim(r) == 0 else s


@dataclass
class QsRun:
    """A (q, s) trajectory with excursion diagnostics.

    ``record`` is parametrized by real time (strictly increasing, suited
    for decay fits); ``record_tau`` is the underlying regularized-time
    record resolving the full excursion.
    """

    record: TrajectoryRecord
    record_tau: TrajectoryRecord
    q_min: float
    q_max: float
    s_max: float
    blowup_time: Optional[float] = None

    @property
    def bounded(self) -> bool:
        return self.blowup_time is None


def integrate_qs(params: ModelParams, q0: float, s0: float, t_end: float,
                 config: Optional[IntegratorConfig] = None,
                 extra_events: Sequence[EventSpec] = ()) -> QsRun:
    """Integrate the (q, s) block through arbitrarily deep excursions.

    Compressive data with small s makes q dive to roughly
    -|q0| exp(q0^2 / (2 kappa s0)) (for n = 2) before the s-term turns it
    around; the turn happens on a timescale ~1/|q| that can sit far below
    the floating-point resolution of t.  Integrating in a regularized
    pseudo-time tau with dt = d tau / w, w = sqrt(1 + q^2 + kappa(|s| + c)),
    makes every e-fold of the excursion cost O(1) steps while t simply
    stalls through the spike.  Genuine blowup (possible for n < 2) shows
    up as the state escaping while t stalls, and is reported with the
    stalling time.
    """
    n, kappa, c = params.n, params.kappa, params.c
    if s0 <= -c / n:
        raise ValueError(f"s0 must exceed -c/n = {0.0 - c / n}")

    qs_rhs = qs_system(params).rhs

    def rhs(tau, y):
        q, s, t = y
        w = math.sqrt(1.0 + q * q + kappa * (abs(s) + c))
        dq, ds = qs_rhs(tau, (q, s))
        return (dq / w, ds / w, 1.0 / w)

    system = OdeSystem(3, rhs, labels=("q", "s", "t"))
    if config is None:
        config = IntegratorConfig()
    cfg = replace(config,
                  t_max=t_end + 500.0,
                  abs_tol=np.array([1e-12, 1e-280, 1e-12]),
                  magnitude_cap=1e250)
    done = EventSpec("t-end", lambda tau, y: y[2] - t_end,
                     direction=+1, terminal=True)
    rec = integrate(system, [q0, s0, 0.0], cfg, events=(done,) + tuple(extra_events))

    q_min = float(np.min(rec.ys[:, 0]))
    q_max = float(np.max(rec.ys[:, 0]))
    s_max = float(np.max(rec.ys[:, 1]))
    blowup_time = None
    if rec.termination is Termination.BLOWUP_DETECTED:
        blowup_time = float(rec.y_final[2])
    elif rec.termination is Termination.STEP_COLLAPSE:
        raise IntegrationFailure(f"regularized (q, s) integration collapsed: {rec.note}")

    # re-parametrize by real time, dropping stalled duplicates
    t_samples = rec.ys[:, 2]
    keep = np.concatenate((np.diff(t_samples) > 0, [True]))
    ts = t_samples[keep]
    ys = rec.ys[keep][:, :2]
    fs = np.column_stack(qs_rhs(None, ys.T))
    record_t = TrajectoryRecord(ts, ys, fs, rec.termination, hits=rec.hits, note=rec.note)
    return QsRun(record_t, rec, q_min, q_max, s_max, blowup_time)


def sigma_1d(p0: float, rho0: float, kappa: float, c: float) -> Region:
    """Exact membership in the 1D subcritical region.

    Zero background: p0 > -sqrt(2 kappa rho0).  Positive background:
    |p0| < sqrt(kappa (2 rho0 - c)).  Both inequalities are strict; the
    boundary itself blows up.
    """
    if rho0 < 0:
        raise ValueError("rho0 must be nonnegative")
    if c == 0.0:
        return Region.SUBCRITICAL if p0 > -math.sqrt(2.0 * kappa * rho0) \
            else Region.SUPERCRITICAL
    gap = kappa * (2.0 * rho0 - c)
    if gap <= 0.0:
        return Region.SUPERCRITICAL
    return Region.SUBCRITICAL if abs(p0) < math.sqrt(gap) else Region.SUPERCRITICAL


# A 1D run tracked its orbit if its conserved amplitude A moved by less than
# this share of its distance from the threshold.
_TRACKED_SHARE = 0.1
# The amplitude certificate of a 1D, c > 0 orbit also bounds the amplitude's
# drift over one period by this much relative to the orbit's size 1/c + A.
_CERT_DRIFT = 1e-4


def _orbit_amplitude(p, rho, kappa: float, c: float):
    """Amplitude A = |(v - 1/c, w / sqrt(kappa c))| of a 1D orbit, c > 0.

    With v = 1/rho and w = p/rho the n = 1 system is the linear oscillator
    w' = kappa - kappa c v, v' = w, so A is exactly conserved, and rho
    escapes (v reaches 0) iff A >= 1/c: A < 1/c is :func:`sigma_1d`'s
    subcritical region.  Elementwise on arrays.  Total: rho = 0 or
    non-finite input gives inf or NaN, never an exception.
    """
    p, rho = np.asarray(p, dtype=float), np.asarray(rho, dtype=float)
    with np.errstate(all="ignore"):
        return np.hypot(1.0 / rho - 1.0 / c, p / rho / math.sqrt(kappa * c))


def _certify(y0, y1, kappa: float, c: float):
    """(certified, drift, margin) of the return ``y1`` of the (p, rho) orbit
    from ``y0`` after one period, elementwise over their columns.

    The exact verdict depends on A(y0) alone.  The certificate asks that
    A(y0) lie below 1/c by a margin, and that the run kept its amplitude to
    within a small fraction of that margin, so the run tracked an orbit on
    the same side of the threshold.  The exact orbit is periodic, so one
    tracked period decides the whole horizon.  NaN or inf anywhere fails
    every comparison, so the answer is then "not certified".
    """
    with np.errstate(all="ignore"):
        a0 = _orbit_amplitude(y0[0], y0[1], kappa, c)
        drift = np.abs(_orbit_amplitude(y1[0], y1[1], kappa, c) - a0)
        margin = 1.0 / c - a0
        return ((drift <= _CERT_DRIFT * (a0 + 1.0 / c)) & (drift < _TRACKED_SHARE * margin),
                drift, margin)


def _v_floor(p, rho, kappa: float, c: float):
    """The exact minimum of v = 1/rho over the 1D orbit ahead of (p, rho), at
    most 0 iff the orbit blows up: 1/c - :func:`_orbit_amplitude` for c > 0;
    for c = 0, where v is a parabola, v - w^2 / (2 kappa) while w = p/rho < 0
    and v after.  Conserved while v > 0; elementwise and total."""
    p, rho = np.asarray(p, dtype=float), np.asarray(rho, dtype=float)
    if c > 0.0:
        return 1.0 / c - _orbit_amplitude(p, rho, kappa, c)
    with np.errstate(all="ignore"):
        v, w = 1.0 / rho, p / rho
        return np.where(w < 0.0, v - w * w / (2.0 * kappa), v)


def _characteristic(params: ModelParams) -> tuple[OdeSystem, list[int], Optional[EventSpec]]:
    """The model's characteristic system, the rows of (p, q, s, rho) it carries,
    and its basin: a forward-invariant bounded region (None if it has none).

    Zero-background Euler-Poisson: once (q, s) is negligible and either p >= 0
    or p^2 < kappa rho / 2 (with rho away from vacuum), p' > 0 until p reaches
    0 and then stays nonnegative, so the Riccati channel is closed.  Burgers:
    the sharp region {p >= -kd, q >= -kd} is itself invariant with bounded
    dynamics.  The basin functional is elementwise, for one state or many.
    """
    model, n, kappa = params.model, params.n, params.kappa
    if model is Model.EULER_POISSON and n == 1.0:
        system, rows = ep_1d_system(params), [0, 3]

        def g(t, y):
            return y[0]  # p >= 0 is invariant when rho >= 0
    elif model is Model.EULER_POISSON:
        system, rows, nm1 = ep_full_system(params), [0, 1, 2, 3], n - 1.0

        def g(t, y):
            p, q, s, rho = y
            riccati_safe = np.maximum(p, 0.5 * kappa * rho - p * p)
            return np.minimum(np.minimum(np.minimum(
                _BASIN_QS - (np.abs(q) + np.abs(s)),
                rho - _BASIN_RHO_FLOOR),
                rho - 4.0 * nm1 * np.abs(s)),
                riccati_safe)
    elif model in (Model.INVISCID_BURGERS, Model.DAMPED_BURGERS):
        system, rows = burgers_system(params), [0, 1, 3]
        kd = params.kappa_damp if model is Model.DAMPED_BURGERS else 0.0

        def g(t, y):
            return np.minimum(y[0] + kd, y[1] + kd)
    else:
        raise ValueError(f"classify_ep does not handle model {model}")
    if model is Model.EULER_POISSON and params.c != 0.0:
        return system, rows, None
    return system, rows, EventSpec("bounded-basin", g, direction=+1, terminal=True)


STATE_KEYS = ("p0", "q0", "s0", "rho0")    # the config keys of the (p, q, s, rho) rows


def state_rules(params: ModelParams) -> dict:
    """The ``(test, wanted)`` rule of each state value no classifier run starts
    from.  The tests are elementwise and pass NaN."""
    rules = {"rho0": (lambda v: ~np.less(v, 0.0), "nonnegative")}
    if params.model is Model.EULER_POISSON and params.n > 1.0:
        s_min = 0.0 - params.c / params.n    # -c/n, never -0.0
        rules["s0"] = (lambda v: ~np.less_equal(v, s_min), f"greater than -c/n = {s_min!r}")
    return rules


# the termination code of a lane that reached its horizon
_HORIZON = TERMINATIONS.index(Termination.REACHED_HORIZON)
# Below this many lanes a batch runs lane by lane through the scalar
# integrator: on arrays this small NumPy's per-call overhead outweighs
# the arithmetic it vectorises.
_MIN_BATCH_LANES = 20
# Cells per lockstep batch, which bounds the batch's memory.
_MAX_BATCH_CELLS = 4096


class Verdicts:
    """The verdicts of a batch of cells: codes, and outcomes on request.

    ``codes[i]`` is the :data:`VERDICT_CODES` value of cell i's verdict.
    Indexing (or iterating) builds a cell's :class:`ClassificationOutcome`,
    diagnostics and reason included, exactly as the one-cell classifier
    gives it.  Verdicts classified without outcomes (``outcome`` None), as
    a sweep's are, hold the codes only and refuse to be indexed.
    """

    def __init__(self, codes: np.ndarray,
                 outcome: Optional[Callable[[int], ClassificationOutcome]]):
        self.codes = codes
        self._outcome = outcome

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, cell: int) -> ClassificationOutcome:
        cell = range(len(self.codes))[cell]
        if self._outcome is None:
            raise ValueError("these verdicts were classified without outcomes; "
                             "only their codes can be read")
        return self._outcome(cell)


def _in_batches(n_cells: int, classify: Callable[[int, int], Verdicts]) -> Verdicts:
    """``classify(lo, hi)`` of the cells lo..hi-1, _MAX_BATCH_CELLS at a time."""
    if n_cells <= _MAX_BATCH_CELLS:
        return classify(0, n_cells)
    parts = [classify(lo, min(lo + _MAX_BATCH_CELLS, n_cells))
             for lo in range(0, n_cells, _MAX_BATCH_CELLS)]
    return Verdicts(np.concatenate([part.codes for part in parts]),
                    lambda cell: parts[cell // _MAX_BATCH_CELLS][cell % _MAX_BATCH_CELLS])


def _run_lanes(system: OdeSystem, states0: np.ndarray,
               configs: list[IntegratorConfig], basin: Optional[EventSpec],
               probe_t: Optional[float], basin_consts=None,
               outcomes: bool = True) -> LaneBatch:
    """The lane batch of one run per column of ``states0``, each under its config.

    ``basin_consts`` are the basin's per-lane constants, as
    :func:`integrate_lanes` takes them.  Without ``outcomes`` no blowup
    time is fitted, in a lockstep batch or from scalar runs.
    """
    if states0.shape[1] >= _MIN_BATCH_LANES:
        return integrate_lanes(system, states0, configs, event=basin,
                               probe_t=probe_t, event_consts=basin_consts,
                               blowup_times=outcomes)

    def events(j):
        if basin is None:
            return ()
        if basin_consts is None:
            return (basin,)
        const = np.asarray(basin_consts)[..., j]
        return (replace(basin, func=lambda t, y: basin.func(t, y, const)),)

    return LaneBatch.of([integrate(system, states0[:, j], cfg, events=events(j))
                         for j, cfg in enumerate(configs)], probe_t, system.dimension,
                        blowup_times=outcomes)


def _run_cells(system: OdeSystem, x0: np.ndarray, passes: Sequence[IntegratorConfig],
               basin: Optional[EventSpec], probe_t: Optional[float] = None,
               basin_consts=None, outcomes: bool = True):
    """The t = 0 basin split of the cells ``x0`` (dim x cells), then their runs.

    A cell whose state starts inside the bounded basin is settled there.
    Every other cell runs once per config in ``passes``, all as lanes of
    one batch: lane k m + i is pass k of the i-th of the m cells outside.
    Returns the mask of cells inside, the cells outside, their lane batch
    and the verdict code each lane's termination implies.  ``outcomes``
    goes to :func:`_run_lanes`.
    """
    consts = () if basin_consts is None else (basin_consts,)
    inside = (basin.func(0.0, x0, *consts) >= 0.0 if basin is not None
              else np.zeros(x0.shape[1], dtype=bool))
    cells = np.flatnonzero(~inside)
    batch = _run_lanes(system, np.tile(x0[:, cells], len(passes)),
                       [cfg for cfg in passes for _ in cells], basin, probe_t,
                       None if basin_consts is None
                       else np.tile(basin_consts[..., cells], len(passes)), outcomes)
    return inside, cells, batch, END_CODES[batch.ends]


def _settle(diag: dict, batch: LaneBatch, j: int, system: OdeSystem) -> ClassificationOutcome:
    """Fold lane ``j``'s run into the diagnostics and map its termination to a verdict."""
    diag["t_final"] = float(batch.t_final[j])
    diag["max_norm"] = max(diag["max_norm"], float(batch.max_abs[j]))
    diag["final_state"] = batch.y_final[:, j]
    end = TERMINATIONS[batch.ends[j]]
    if end is Termination.EVENT:
        diag["early_exit"] = f"entered bounded basin at t={diag['t_final']:.6g}"
    elif end is Termination.BLOWUP_DETECTED:
        diag["blowup_component"] = system.label(int(batch.blowup_component[j]))
    return outcome_of(batch, j, diag)


def classify_ep(y0: CharState, params: ModelParams,
                config: IntegratorConfig = DEFAULT_CONFIG,
                confirm: bool = True) -> ClassificationOutcome:
    """Classify one characteristic initial state as bounded or escaping.

    Integrates the characteristic system with blowup detection; the only
    escape channels are p -> -inf and rho -> +inf (plus q for the Burgers
    models).  With ``confirm``, the run is repeated at 10x tighter
    tolerances and a verdict flip is reported as INCONCLUSIVE, which is
    the honest answer near the sharp threshold surface.
    """
    return classify_ep_columns(y0.as_array()[:, None], params, config, confirm)[0]


def classify_ep_columns(x: np.ndarray, params: ModelParams,
                        config: IntegratorConfig = DEFAULT_CONFIG,
                        confirm: bool = True, outcomes: bool = True) -> Verdicts:
    """:func:`classify_ep` for every column (p, q, s, rho) of ``x``, in lockstep.

    Each state's run, and with ``confirm`` its 10x-tightened re-run, is
    one lane of a single :func:`integrate_lanes` batch.  Lanes are
    independent, so every outcome is exactly the one :func:`classify_ep`
    gives for that state alone.  The verdict codes come from array passes
    over the lanes; an outcome is built only when it is read.  Without
    ``outcomes`` the verdicts hold the codes only, and no run fits a
    blowup time.  A state that breaks a :func:`state_rules` rule raises.

    Codes only, Euler-Poisson cells are first settled by their exact (w, v)
    orbit: a cell whose v stays clearly positive is bounded, one whose v
    turns clearly negative well before t_max blows up, and only the rest, a
    thin band at the threshold, run as lanes.  The orbit comes from one run
    of :func:`wv_basis_system` for zero-background multi-D columns that share
    one (q0, s0) (:func:`_wv_settled`), and in closed form at n = 1
    (:func:`_orbit_settled`).  Margins, limits and step budgets keep every
    code the lanes would give.

    For n = 1 and c > 0 the exact (w, v) orbit is periodic, so a run stops
    after one period and ends there if its state returns to within
    1e-5 (|y0| + 1), or if the amplitude certificate :func:`_certify` shows
    the orbit exactly subcritical and tracked.  The rest re-run to the full
    horizon as a second batch.  A bounded verdict for a state whose amplitude
    :func:`_orbit_amplitude` is at least 1/c, an exactly supercritical
    orbit that the run stepped past v = 0, becomes INCONCLUSIVE.
    """
    x = np.asarray(x, dtype=float)
    check_rules(state_rules(params), dict(zip(STATE_KEYS, x)))
    return _in_batches(x.shape[1], lambda lo, hi: _classify_ep_batch(
        x[:, lo:hi], params, config, confirm, outcomes))


# The (w, v) certificate of zero-background multi-D cells that share one
# (q0, s0) orbit.  Its basis run takes these tolerances, whatever the lanes':
# its v lies within a tenth of _WV_MARGIN of each cell's size from the exact
# v (8.1e-5 at most over 23 orbits of n = 2, 3, 4) ...
_WV_REL_TOL, _WV_ABS_TOL = 1e-7, 1e-9
# ... and is read at its nodes and at these fractions of each step.
_WV_READS = (0.25, 0.5, 0.75)
# A cell is settled where v stays above, or falls below, -+ margin times the
# size |v0 phi1| + |w0 phi2| + |v_p| of its terms, with margin the larger of
# _WV_MARGIN and _WV_MARGIN_PER_TOL times the lanes' coarser tolerance.
_WV_MARGIN, _WV_MARGIN_PER_TOL = 1e-3, 50.0
# A fall settles a blowup only before this share of t_max.
_WV_HORIZON_SHARE = 0.99
# A cell's lanes must be able to follow it: its |p|, rho, |q| and |s| stay
# below _WV_CAP_SHARE of the cap and below _WV_STEP_SHARE tol^(1/5) / h_min,
# the size near a Riccati pole past which a DP5 lane at tolerance tol would
# need steps shorter than h_min, and the lanes' step budget holds
# _WV_STEP_BUDGET basis runs: DP5 steps scale as tol^(-1/5), so a basis at
# 1e-10 takes (1e3)^(1/5), about 4, times as many, and 400 runs of this one
# refuse every budget that 100 of those did.
_WV_CAP_SHARE, _WV_STEP_SHARE, _WV_STEP_BUDGET = 1e-3, 0.1, 400
# cells x reads values per block of the streamed pass over the reads (a
# 1 << 16 block raised a 400-cell grid's peak RSS by 2.6 MB more)
_WV_BLOCK = 1 << 14


def _wv_limits(config: IntegratorConfig) -> tuple[float, float, bool]:
    """A settled cell's margin, the largest |p| and rho its lanes follow, and
    whether they follow a blowup to the cap, which must lie below the size near
    a pole past which a confirm-pass lane would need steps shorter than h_min."""
    reach = _WV_STEP_SHARE * (0.1 * config.rel_tol) ** 0.2 / config.h_min
    return (max(_WV_MARGIN, _WV_MARGIN_PER_TOL * max(config.rel_tol, np.max(config.abs_tol))),
            min(_WV_CAP_SHARE * config.magnitude_cap, reach), config.magnitude_cap <= reach)


def _wv_settled(x: np.ndarray, params: ModelParams, config: IntegratorConfig) -> np.ndarray:
    """The verdict code of each column of ``x`` the (w, v) basis settles, -1 for
    a cell it leaves to the lanes.

    It applies to zero-background Euler-Poisson with n > 1 where every column
    shares one (q0, s0), and leaves every cell to the lanes elsewhere.  One
    :func:`integrate` of :func:`wv_basis_system` over [0, t_max] gives every
    cell's v, read at the run's nodes and, through Hermite dense output,
    between them, streamed over blocks of reads.  A cell is bounded if v stays above the margin and its
    |p| = |w| / v and rho = exp((n-1) A) / v, like the orbit's |q| and |s|,
    stay where its lanes can follow them.  It blows up if v falls below
    minus the margin before 0.99 t_max, and if a lane can follow it to the
    cap.  (No such cell enters the bounded basin first: the basin is
    forward-invariant and bounded.)  If the basis run ends before t_max,
    every cell goes to the lanes.
    """
    p0, q, s, rho0 = x
    codes = np.full(x.shape[1], -1)
    if (params.model is not Model.EULER_POISSON or params.n <= 1.0 or params.c != 0.0
            or x.shape[1] == 0 or not (np.all(q == q[0]) and np.all(s == s[0]))):
        return codes
    q0, s0 = float(q[0]), float(s[0])
    rec = integrate(wv_basis_system(params, s0), (q0, s0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
                    replace(config, rel_tol=_WV_REL_TOL, abs_tol=_WV_ABS_TOL))
    steps = len(rec.ts) - 1
    if (rec.termination is not Termination.REACHED_HORIZON or steps == 0
            or config.max_steps < _WV_STEP_BUDGET * steps):
        return codes
    t = np.concatenate((rec.ts, (rec.ts[:-1, None] + np.diff(rec.ts)[:, None]
                                 * np.array(_WV_READS)).ravel()))
    q_t, s_t, phi1, dphi1, phi2, dphi2, vp, dvp = rec.sample_many(t).T
    with np.errstate(all="ignore"):
        squeeze = (s_t / s0) ** ((params.n - 1.0) / params.n)     # exp((n-1) A)
    early = t < _WV_HORIZON_SHARE * config.t_max
    margin, limit, follows = _wv_limits(config)

    cells = np.flatnonzero(np.isfinite(p0) & (rho0 > 0.0) & np.isfinite(rho0))
    v0, w0 = 1.0 / rho0[cells], p0[cells] / rho0[cells]
    # |q| and |s| are the orbit's, |p| and rho each cell's
    low = np.full(len(cells), np.inf)
    peak = np.full(len(cells), max(np.max(np.abs(q_t)), np.max(np.abs(s_t))))
    falls = np.zeros(len(cells), dtype=bool)
    block = max(1, _WV_BLOCK // max(len(cells), 1))
    with np.errstate(all="ignore"):
        for lo in range(0, len(t), block):
            k = slice(lo, lo + block)
            v = v0[:, None] * phi1[k] + w0[:, None] * phi2[k] + vp[k]
            band = margin * (v0[:, None] * np.abs(phi1[k]) + np.abs(w0)[:, None]
                             * np.abs(phi2[k]) + np.abs(vp[k]))
            w = v0[:, None] * dphi1[k] + w0[:, None] * dphi2[k] + dvp[k]
            low = np.minimum(low, np.min(v - band, axis=1))
            peak = np.maximum(peak, np.max(np.maximum(np.abs(w), squeeze[k]) / v, axis=1))
            falls |= np.any((v + band < 0.0) & early[k], axis=1)
    bounded = (low > 0.0) & (peak < limit)
    falls &= follows
    codes[cells[bounded]] = VERDICT_CODES[Verdict.GLOBAL_BOUNDED]
    codes[cells[falls]] = VERDICT_CODES[Verdict.FINITE_TIME_BLOWUP]
    log.info("%d cells share the (q0, s0) orbit (%g, %g), whose (w, v) basis run took "
             "%d steps: %d settled bounded, %d settled as blowups, %d left to the lanes",
             x.shape[1], q0, s0, steps, np.count_nonzero(bounded), np.count_nonzero(falls),
             x.shape[1] - np.count_nonzero(bounded) - np.count_nonzero(falls))
    return codes


def _orbit_settled(x: np.ndarray, params: ModelParams, config: IntegratorConfig) -> np.ndarray:
    """The verdict code of each column of ``x`` its exact n = 1 Euler-Poisson
    (w, v) orbit settles, -1 for a cell left to the lanes (every cell, for
    another model or dimension).  v = 1/rho solves v'' = kappa - kappa c v in
    closed form.  With :func:`_wv_limits`, a cell is bounded if :func:`_v_floor`
    lies above the margin times the orbit's largest v, and rho <= 1/floor and
    |p| <= (largest |w|) / floor stay within the limit; it blows up if the
    floor lies below minus that, v's first zero comes before 0.99 t_max and
    lanes follow it to the cap.  Their budget must hold T / h_max plus twice
    the (0.1 rel_tol)^-0.2 steps per unit of 1 + D + om T (1 + D / pi),
    D = ln(largest v / |floor|), and of ln(cap largest v) for a blowup, over
    the time T they run.
    """
    if params.model is not Model.EULER_POISSON or params.n != 1.0:
        return np.full(x.shape[1], -1)
    kappa, c, t_max, cap = params.kappa, params.c, config.t_max, config.magnitude_cap
    p0, rho0 = x[0], x[3]
    with np.errstate(all="ignore"):
        v0, w0, floor = 1.0 / rho0, p0 / rho0, _v_floor(p0, rho0, kappa, c)
        if c > 0.0:
            om, amp = math.sqrt(kappa * c), _orbit_amplitude(p0, rho0, kappa, c)
            size, swing, calm = 1.0 / c + amp, om * amp, t_max
            # v = 1/c + amp cos(om t - phase) first reaches 0 where the cosine is -1/(c amp)
            fall = (np.arccos(-1.0 / (c * amp)) + np.arctan2(w0 / om, v0 - 1.0 / c)) / om
        else:
            om, size = 0.0, v0 + w0 * w0 / (2.0 * kappa)
            swing = np.maximum(np.abs(w0), np.sqrt(kappa * floor))
            calm = np.clip(-w0 / kappa, 0.0, t_max)     # the time to the basin p >= 0
            fall = 2.0 * v0 / (np.sqrt(w0 * w0 - 2.0 * kappa * v0) - w0)
        margin, limit, follows = _wv_limits(config)
        bounded = (floor > margin * size) & (np.maximum(1.0, swing) / floor < limit)
        falls = (floor < -margin * size) & (fall < _WV_HORIZON_SHARE * t_max) & follows
        run, depth = np.where(falls, fall, calm), np.log(size / np.abs(floor))
        climb = 1.0 + depth + om * run * (1.0 + depth / math.pi) + falls * np.log(cap * size)
        held = (2.0 * (0.1 * config.rel_tol) ** -0.2 * climb + run / config.h_max
                <= config.max_steps)
    bounded, falls = bounded & held, falls & held
    codes = np.select([bounded, falls], [VERDICT_CODES[Verdict.GLOBAL_BOUNDED],
                                         VERDICT_CODES[Verdict.FINITE_TIME_BLOWUP]], -1)
    log.info("%d cells on exact n = 1 (w, v) orbits: %d settled bounded, %d settled as "
             "blowups, %d left to the lanes", x.shape[1], np.count_nonzero(bounded),
             np.count_nonzero(falls), x.shape[1] - np.count_nonzero(bounded | falls))
    return codes


def _classify_ep_batch(x: np.ndarray, params: ModelParams, config: IntegratorConfig,
                       confirm: bool, outcomes: bool) -> Verdicts:
    """The verdicts of one batch.  Codes only are first settled by the exact
    (w, v) orbit (:func:`_wv_settled` at n > 1, :func:`_orbit_settled` at
    n = 1), and only the cells it leaves run as lanes."""
    if outcomes:
        return _classify_ep_lanes(x, params, config, confirm, True)
    settled = (_orbit_settled if params.n == 1.0 else _wv_settled)(x, params, config)
    rest = settled < 0
    if rest.any():
        settled[rest] = _classify_ep_lanes(x[:, rest], params, config, confirm, False).codes
    return Verdicts(settled, None)


def _classify_ep_lanes(x: np.ndarray, params: ModelParams, config: IntegratorConfig,
                       confirm: bool, outcomes: bool) -> Verdicts:
    """The verdicts of the lanes of every cell of ``x``."""
    system, rows, basin = _characteristic(params)
    x0 = x[rows]
    norm0 = np.max(np.abs(x0), axis=0)
    passes = (config, config.tightened(0.1)) if confirm else (config,)

    first_run, period = passes, None
    if params.model is Model.EULER_POISSON and params.c > 0.0 and params.n == 1.0:
        # the (w, v) = (p/rho, 1/rho) dynamics is an exact linear oscillator
        # with period 2 pi / sqrt(kappa c)
        period = 2.0 * math.pi / math.sqrt(params.kappa * params.c)
        first_run = tuple(replace(cfg, t_max=1.05 * period)
                          if 1.05 * period < cfg.t_max else cfg for cfg in passes)
    inside, cells, batch, code = _run_cells(system, x0, first_run, basin, period,
                                            outcomes=outcomes)
    m, lanes = len(cells), len(code)
    lane_cell = np.tile(cells, len(passes))
    closed, certified = np.zeros(lanes, dtype=bool), np.zeros(lanes, dtype=bool)
    drift, margin = np.zeros(lanes), np.zeros(lanes)
    rerun, again = {}, None     # lane -> its lane in ``again``, the re-run batch
    if period is not None:
        # lanes stopped after one period -> whether their state missed the
        # start by 1e-5 (|y0| + 1) or more, else whether the amplitude
        # certifies the orbit
        stopped = np.flatnonzero((batch.ends == _HORIZON)
                                 & (batch.t_final < config.t_max - 1e-9))
        start = lane_cell[stopped]
        back = batch.probe[0][:, stopped]
        miss = np.max(np.abs(back - x0[:, start]), axis=0) >= 1e-5 * (norm0[start] + 1.0)
        ok, drift[stopped], margin[stopped] = _certify(x0[:, start], back,
                                                       params.kappa, params.c)
        closed[stopped[~miss]] = True
        certified[stopped[miss & ok]] = True
        # ambiguous return: integrate the full horizon instead
        ambiguous = stopped[miss & ~ok]
        if len(ambiguous):
            again = _run_lanes(system, x0[:, lane_cell[ambiguous]],
                               [passes[k] for k in (ambiguous // m).tolist()], basin, None,
                               outcomes=outcomes)
            code[ambiguous] = END_CODES[again.ends]
            rerun = dict(zip(ambiguous.tolist(), range(len(ambiguous))))
    log.info("%d cells, %d inside the basin at t = 0; %d runs of the rest (one per "
             "confirm pass): %d closed after one period, %d certified by amplitude, "
             "%d re-ran to the horizon", x.shape[1], x.shape[1] - m, lanes,
             np.count_nonzero(closed), np.count_nonzero(certified), len(rerun))

    verdict = code[:m].copy()
    flips = np.zeros(m, dtype=bool)
    if confirm:
        flips = (verdict != VERDICT_CODES[Verdict.INCONCLUSIVE]) & (code[m:] != verdict)
        verdict[flips] = VERDICT_CODES[Verdict.INCONCLUSIVE]
    refused = np.zeros(m, dtype=bool)
    if period is not None:
        amp = _orbit_amplitude(x0[0, cells], x0[1, cells], params.kappa, params.c)
        refused = (verdict == VERDICT_CODES[Verdict.GLOBAL_BOUNDED]) & (amp >= 1.0 / params.c)
        verdict[refused] = VERDICT_CODES[Verdict.INCONCLUSIVE]
    codes = np.zeros(x.shape[1], dtype=int)
    codes[cells] = verdict

    def outcome(cell):
        diag = {"t_final": 0.0, "max_norm": float(norm0[cell]),
                "final_state": x0[:, cell], "labels": system.labels}
        if inside[cell]:
            diag["early_exit"] = "initial state inside bounded basin"
            return ClassificationOutcome(Verdict.GLOBAL_BOUNDED, diagnostics=diag)
        j = int(np.searchsorted(cells, cell))    # the cell's first-pass lane
        out = _settle(diag, batch, j, system)
        if j in rerun:
            out = _settle(diag, again, rerun[j], system)
        elif closed[j]:
            diag["early_exit"] = "closed periodic orbit after one period"
        elif certified[j]:
            diag["early_exit"] = ("periodic orbit certified by its (w, v) amplitude "
                                  "after one period (drift %.2g, margin %.2g)"
                                  % (drift[j], margin[j]))
        if not (flips[j] or refused[j]):
            return out
        reason = ("classification flips under 10x tighter tolerances" if flips[j] else
                  f"bounded run of an exactly supercritical orbit: (w, v) amplitude "
                  f"{amp[j]:.6g} >= 1/c = {1.0 / params.c:.6g}")
        return ClassificationOutcome(Verdict.INCONCLUSIVE, reason=reason, diagnostics=diag)

    return Verdicts(codes, outcome if outcomes else None)


@dataclass
class PortraitTrajectory:
    seed: tuple
    record: Optional[TrajectoryRecord]
    outcome: str            # converges-to-origin | periodic-orbit | bounded | invalid
    final_distance: Optional[float] = None
    period: Optional[float] = None
    closure: Optional[float] = None


def qs_phase_portrait(params: ModelParams, seeds: Sequence[tuple],
                      config: IntegratorConfig = DEFAULT_CONFIG
                      ) -> list[PortraitTrajectory]:
    """Integrate the (q, s) block from each seed and describe the orbit.

    Zero background: trajectories are attracted to the origin and the
    final distance is reported.  Positive background: orbits are closed;
    the period is measured between successive downward crossings of
    q = 0 and the closure is the distance back to the seed after one
    period.  Seeds violating s0 > -c/n are marked invalid.
    """
    n, c = params.n, params.c
    # a positive background's orbits are timed by their downward crossings of q = 0
    sections = () if c == 0.0 else (EventSpec("q-falling", lambda tau, y: y[0],
                                              direction=-1, terminal=False),)
    out = []
    for seed in seeds:
        q0, s0 = seed
        if s0 <= -c / n:
            out.append(PortraitTrajectory(seed, None, "invalid"))
            continue
        run = integrate_qs(params, q0, s0, config.t_max, config, extra_events=sections)
        if c == 0.0:
            dist = float(np.hypot(*run.record.y_final))
            kind = "converges-to-origin" if dist < 1e-2 else "bounded"
            if not run.bounded:
                kind = "blowup"
            out.append(PortraitTrajectory(seed, run.record, kind,
                                          final_distance=dist))
        else:
            hits = [h for h in run.record_tau.hits if h.name == "q-falling"]
            if len(hits) >= 2:
                # the third state component of a hit is the real time
                period = float(hits[1].y[2] - hits[0].y[2])
                closure = float(np.max(np.abs(run.record.sample(period)
                                              - np.array([q0, s0]))))
                out.append(PortraitTrajectory(seed, run.record, "periodic-orbit",
                                              period=period, closure=closure))
            else:
                out.append(PortraitTrajectory(seed, run.record, "bounded"))
    return out


@dataclass
class QsHatResult:
    record: TrajectoryRecord
    shat_max: float
    that_star: float
    qhat_max: float


def qshat_integrate(params: ModelParams, y0: tuple,
                    config: IntegratorConfig = DEFAULT_CONFIG,
                    t_hat_max: float = 40.0) -> QsHatResult:
    """Integrate the rescaled (q_hat, s_hat) system in logarithmic time.

    Records the maximum of s_hat and the time t_hat_* where it is
    attained: s_hat peaks when q_hat crosses 2/n from below, or at
    t_hat_* = 0 if q_hat already starts at or above 2/n.  A run that ends
    before ``t_hat_max`` raises IntegrationFailure.
    """
    qh0, sh0 = y0
    if sh0 < 0:
        raise ValueError("s_hat0 must be nonnegative")
    system = qshat_system(params)
    cfg = replace(config, t_max=t_hat_max)
    thresh = 2.0 / params.n
    crossing = EventSpec("qhat-crossing", lambda t, y: y[0] - thresh,
                         direction=+1, terminal=False)
    rec = integrate(system, [qh0, sh0], cfg, events=(crossing,))
    if rec.termination is not Termination.REACHED_HORIZON:
        raise IntegrationFailure(f"(q_hat, s_hat) run stopped at t_hat = {rec.t_final:.6g} "
                                 f"of {t_hat_max:g}: {rec.note or rec.termination.value}")

    tt = np.linspace(rec.ts[0], rec.t_final, 4001)
    dense = rec.sample_many(tt)
    qhat_max = float(max(np.max(dense[:, 0]), qh0))

    if qh0 >= thresh:
        shat_max, that_star = sh0, 0.0
    else:
        hits = [h for h in rec.hits if h.name == "qhat-crossing"]
        if hits:
            that_star = hits[0].t
            shat_max = float(hits[0].y[1])
        else:
            k = int(np.argmax(dense[:, 1]))
            that_star, shat_max = float(tt[k]), float(dense[k, 1])
    return QsHatResult(rec, shat_max, that_star, qhat_max)


@dataclass(frozen=True)
class ThresholdConstants:
    """Decay/drift constants controlling the explicit subcritical bound.

    C_q bounds (t+1) q(t); C_s bounds (t+1)^n s(t); C = C(q0, s0) bounds
    the total forcing drift of w; gamma = C_q (n-1) - 2 > 0 is the decay
    exponent entering D_crit.
    """

    C_q: float
    C_s: float
    C: float
    gamma: float


def compute_threshold_constants(params: ModelParams, y0: tuple,
                                config: IntegratorConfig = DEFAULT_CONFIG
                                ) -> ThresholdConstants:
    if params.n <= 2:
        raise ValueError("threshold constants require n > 2 "
                         "(the n = 2 regime has only the numeric classifier)")
    if params.c != 0.0:
        raise ValueError("threshold constants apply to the zero-background case")
    q0, s0 = y0
    if s0 <= 0:
        raise ValueError("s0 must be positive")

    n, kappa = params.n, params.kappa
    res = qshat_integrate(params, (q0, s0), config)
    c_q = max(res.qhat_max, 1.0)
    c_s = res.shat_max * math.exp((n - 2.0) * res.that_star
                                  + n * (n - 2.0) / 2.0)
    c_drift = kappa / (n - 2.0) * (c_s / s0) ** ((n - 1.0) / n)
    gamma = c_q * (n - 1.0) - 2.0
    if gamma <= 0.0:
        raise ValueError(f"gamma = {gamma} <= 0; bound degenerates")
    return ThresholdConstants(C_q=c_q, C_s=c_s, C=c_drift, gamma=gamma)


def compute_dcrit(v0, gamma: float, kappa: float):
    """Largest drift D keeping y(t) = v0 + (kappa/(gamma+1) - D) t
    - kappa/(gamma (gamma+1)) (1 - (t+1)^-gamma) positive forever.

    For v0 >= kappa/(gamma (gamma+1)) every D < kappa/(gamma+1) works;
    below that, D_crit = kappa/(gamma+1) (1 - z_*) with z_* the unique
    root in (0, 1) of the minimum-value function
    F(z) = v0 + (kappa/gamma) z^(gamma/(gamma+1))
    - kappa/(gamma+1) (z + 1/gamma), located by bisection (F is
    increasing with F(0) < 0 < F(1)).  An array ``v0`` bisects as one: every
    z_* in [lo, lo + width] halves the same exact brackets from [0, 1], and
    ``np.float_power`` is the C ``pow`` of Python's ``**``, so each entry,
    and a float ``v0`` as a float, keeps a scalar bisection's bits."""
    v = np.asarray(v0, dtype=float)[()]
    if np.any(v <= 0) or gamma <= 0 or kappa <= 0:
        raise ValueError("compute_dcrit requires positive v0, gamma, kappa")
    d_max = kappa / (gamma + 1.0)
    lo, width = np.zeros_like(v)[()], 1.0
    while width > 1e-12:
        width *= 0.5
        mid = lo + width
        lo = np.where(v + kappa / gamma * np.float_power(mid, gamma / (gamma + 1.0))
                      - d_max * (mid + 1.0 / gamma) < 0.0, mid, lo)
    d_crit = np.where(v >= kappa / (gamma * (gamma + 1.0)), d_max,
                      d_max * (1.0 - (lo + 0.5 * width)))
    return d_crit if np.ndim(v0) else float(d_crit)


def explicit_sigma_plus(v0, constants: ThresholdConstants, kappa: float, n: float):
    """Explicit sufficient threshold on w0 = p0/rho0 (zero background).

    Returns -sigma_+(v0), an array for an array ``v0``: every state with
    w0 > -sigma_+(1/rho0) is guaranteed globally bounded.  Requires
    n >= 3 and C_s < n - 2 (otherwise the bound degenerates).
    """
    if n < 3:
        raise ValueError("the explicit bound is available for n >= 3")
    if constants.C_s >= n - 2.0:
        raise ValueError(f"C_s = {constants.C_s:.6g} >= n - 2; bound degenerates")
    d_crit = compute_dcrit(v0, constants.gamma, kappa)
    num = -d_crit + constants.C_s * (v0 / (n - 1.0) + constants.C / (n - 2.0))
    return num / (1.0 - constants.C_s / (n - 2.0))
