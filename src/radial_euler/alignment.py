"""Nonlocal alignment kernels and threshold conditions for flocking flow.

The alignment force enters the radial characteristic dynamics through
two sphere-averaged convolutions of the influence function phi:

    psi(r)  = integral phi(|r e1 - z|) rho(|z|) dz        (influence mass),
    zeta(r) = integral phi(|r e1 - z|) rho(|z|) (z1/|z|) u(|z|) dz,

both reduced to double integrals over (s, theta) and evaluated by
tensor Gauss-Legendre quadrature.  Everything downstream runs on three
numbers: psi_min <= psi <= psi_max on the flock support, and the
envelope |zeta(r)|/r <= C0 e^(-nu t).  The rough thresholds are closed
forms in those numbers; the enhanced thresholds are separatrices of the
frozen-coefficient comparison systems, obtained here by integrating
their defining ODEs in the envelope amplitude x.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Region, refuse_broken, sphere_area
from .euler_poisson import Verdicts, _in_batches, _run_cells
from .odeint import (ClassificationOutcome, EventSpec, IntegrationFailure,
                     IntegratorConfig, OdeSystem, Termination, Verdict,
                     integrate, outcome_of)
from .profiles import RadialProfile

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class InfluenceSpec:
    """An influence function with its derivative and decay metadata.

    phi must be nonnegative, bounded and Lipschitz; non_increasing and
    slow_decay (divergent integral at infinity) record the assumptions
    the flocking estimates rely on.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    phi_prime: Callable[[np.ndarray], np.ndarray]
    sup_phi: float
    sup_phi_prime: float
    non_increasing: bool = True
    slow_decay: bool = True
    name: str = "influence"


def constant_influence(value: float = 1.0) -> InfluenceSpec:
    return InfluenceSpec(
        phi=lambda r: np.full_like(np.asarray(r, dtype=float), value),
        phi_prime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        sup_phi=value, sup_phi_prime=0.0, slow_decay=True,
        name=f"constant({value})")


def power_law_influence(exponent: float = 0.5, scale: float = 1.0) -> InfluenceSpec:
    """phi(r) = (1 + r/scale)^(-exponent); slow decay iff exponent <= 1."""
    a, w = exponent, scale
    return InfluenceSpec(
        phi=lambda r: (1.0 + np.asarray(r, dtype=float) / w) ** (-a),
        phi_prime=lambda r: -(a / w) * (1.0 + np.asarray(r, dtype=float) / w) ** (-a - 1.0),
        sup_phi=1.0, sup_phi_prime=a / w, slow_decay=(a <= 1.0),
        name=f"power-law({a},{w})")


def exponential_influence(scale: float = 1.0) -> InfluenceSpec:
    """phi(r) = exp(-r/scale); decays too fast for the flocking estimate."""
    w = scale
    return InfluenceSpec(
        phi=lambda r: np.exp(-np.asarray(r, dtype=float) / w),
        phi_prime=lambda r: -np.exp(-np.asarray(r, dtype=float) / w) / w,
        sup_phi=1.0, sup_phi_prime=1.0 / w, slow_decay=False,
        name=f"exponential({w})")


INFLUENCE_LIBRARY = {
    "constant": constant_influence,
    "power-law": power_law_influence,
    "exponential": exponential_influence,
}


@dataclass(frozen=True)
class AlignmentBounds:
    """The constants that close the comparison dynamics.

    nu = phi(2D) * mass is both the alignment decay rate and the lower
    influence bound psi_min; psi_max = sup(phi) * mass; C0 bounds
    |zeta(r, 0)| / r.
    """

    mass: float
    u_max: float
    D: float
    nu: float
    psi_min: float
    psi_max: float
    C0: float

    def __post_init__(self):
        finite = math.isfinite
        refuse_broken(self, [
            ("psi_min", finite(self.psi_min) and self.psi_min > 0.0, "finite and positive"),
            ("psi_max", finite(self.psi_max) and self.psi_max >= self.psi_min,
             "finite and at least psi_min"),
            ("nu", finite(self.nu) and self.nu > 0.0, "finite and positive"),
            ("C0", finite(self.C0) and self.C0 >= 0.0, "finite and nonnegative")])

    @classmethod
    def explicit(cls, psi_min: float, psi_max: float, nu: float,
                 C0: float) -> "AlignmentBounds":
        """Bounds given directly (e.g. to reproduce a region picture)."""
        return cls(mass=float("nan"), u_max=float("nan"), D=float("nan"),
                   nu=nu, psi_min=psi_min, psi_max=psi_max, C0=C0)

    @property
    def series_offset(self) -> float:
        """Where a threshold curve's integration starts: its ODEs are singular at x = 0."""
        return 1e-6 * max(1.0, self.psi_min ** 2)


@dataclass(frozen=True)
class EaCharState:
    """Alignment state along one characteristic: (q, G, rho) plus envelope B.

    G = u_r + psi absorbs the nonlocal derivative of the alignment
    force; B tracks the decaying bound C0 e^(-nu t) on |zeta|/r.  The
    local slope is recovered as p = G - psi with psi in
    [psi_min, psi_max].
    """

    q: float
    G: float
    rho: float
    B: float

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError("density must be nonnegative")
        if self.B < 0.0:
            raise ValueError("envelope value must be nonnegative")

    def p(self, psi: float) -> float:
        return self.G - psi


def compute_bounds(rho0: RadialProfile, u0: RadialProfile, phi: InfluenceSpec,
                   D: float, n: float) -> AlignmentBounds:
    """Fill the alignment constants from initial data and flock diameter D."""
    if rho0.support_radius() > D + 1e-12:
        raise ValueError("rho0 must be supported inside radius D")
    mass = rho0.mass(n)
    phi2d = float(phi.phi(2.0 * D))
    if phi2d <= 0.0:
        raise ValueError("phi(2D) = 0 degenerates the alignment rate nu")
    u_max = float(np.max(np.abs(u0.values)))
    return AlignmentBounds(mass=mass, u_max=u_max, D=D,
                           nu=phi2d * mass,
                           psi_min=phi2d * mass,
                           psi_max=phi.sup_phi * mass,
                           C0=phi.sup_phi_prime * mass * u_max)


# ---------------------------------------------------------------------------
# kernel evaluation


def _angular_rule(n: int, order: int):
    """Gauss-Legendre nodes/weights for int_0^pi f(theta) sin^(n-2)theta dtheta."""
    x, w = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * math.pi * (x + 1.0)
    w = 0.5 * math.pi * w
    return theta, w * np.sin(theta) ** (n - 2)


def _radial_rule(profile: RadialProfile, per_interval: int):
    """Per-interval Gauss-Legendre nodes/weights on the profile grid."""
    x, w = np.polynomial.legendre.leggauss(per_interval)
    a = profile.nodes[:-1][:, None]
    b = profile.nodes[1:][:, None]
    nodes = 0.5 * (b - a) * x[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w[None, :]
    return nodes.ravel(), weights.ravel()


def _kernel_integral(rho: RadialProfile, phi: InfluenceSpec, r: float, n: int,
                     u: Optional[RadialProfile], radial_order: int,
                     theta_order: int) -> float:
    s, ws = _radial_rule(rho, radial_order)
    fs = rho.smooth_eval(s) * ws
    if u is not None:
        fs = fs * u.smooth_eval(s)
    if n == 1:
        km = phi.phi(np.abs(r - s))
        kp = phi.phi(r + s)
        kern = (km - kp) if u is not None else (km + kp)
        return float(np.dot(fs, kern))
    theta, wt = _angular_rule(n, theta_order)
    dist = np.sqrt(np.maximum(r * r + s[:, None] ** 2
                              - 2.0 * r * s[:, None] * np.cos(theta)[None, :], 0.0))
    vals = phi.phi(dist)
    if u is not None:
        vals = vals * np.cos(theta)[None, :]
    inner = vals @ wt
    return sphere_area(n - 1) * float(np.dot(fs * s ** (n - 1), inner))


# Two quadrature orders also agree when they differ by rounding only: this
# fraction of the kernel's natural size, all that a vanishing value (zeta
# at r = 0 or for constant phi) can settle to.
_ROUNDING_FLOOR = 1e-13
# the share of the value by which two quadrature orders may differ
_KERNEL_REL_TOL = 1e-9


def _refined_kernel(rho, phi, r, n, u):
    """Double both quadrature orders until the value settles.

    Successive orders agree when they differ by at most ``_KERNEL_REL_TOL``
    of the value, or by rounding: ``_ROUNDING_FLOOR`` of sup(phi) max|rho|
    max(r_max, 1) (times max|u| for zeta).  Raises IntegrationFailure when
    the (2, 48), (4, 96) and (8, 192) orders never agree.
    """
    size = phi.sup_phi * max(float(np.max(np.abs(rho.values))), 1.0) * max(rho.r_max, 1.0)
    if u is not None:
        size *= max(float(np.max(np.abs(u.values))), 1.0)
    floor = _ROUNDING_FLOOR * (size + 1.0)
    val = None
    for radial_order, theta_order in ((2, 48), (4, 96), (8, 192)):
        prev, val = val, _kernel_integral(rho, phi, r, n, u, radial_order, theta_order)
        if prev is not None and abs(val - prev) <= max(_KERNEL_REL_TOL * abs(val), floor):
            return val
    raise IntegrationFailure(
        f"kernel quadrature at r={r:.6g} did not settle: orders (4, 96) and "
        f"(8, 192) differ by {abs(val - prev):.3g} (rel_tol {_KERNEL_REL_TOL:g})")


def eval_psi(rho: RadialProfile, phi: InfluenceSpec, r: float, n: int) -> float:
    """psi(r): the influence-weighted mass seen from radius r.

    Reduced to int_0^inf int_0^pi phi(sqrt(r^2 + s^2 - 2 r s cos(theta)))
    rho(s) omega_{n-2} s^(n-1) sin^(n-2)(theta) dtheta ds (two-point sum
    for n = 1).  Lies in [psi_min, psi_max] while the mass sits in [0, D].
    """
    if n < 1 or int(n) != n:
        raise ValueError("eval_psi requires integer dimension n >= 1")
    return _refined_kernel(rho, phi, float(r), int(n), None)


def eval_zeta(rho: RadialProfile, u: RadialProfile, phi: InfluenceSpec,
              r: float, n: int) -> float:
    """zeta(r): the radial component of the influence-weighted momentum.

    Same reduction as psi with an extra cos(theta) u(s) factor; obeys
    |zeta(r)| <= r * sup|phi'| * mass * sup|u|, and vanishes identically
    for constant phi.
    """
    if n < 1 or int(n) != n:
        raise ValueError("eval_zeta requires integer dimension n >= 1")
    if abs(float(u(0.0))) > 1e-12:
        raise ValueError("velocity profile must vanish at the origin")
    return _refined_kernel(rho, phi, float(r), int(n), u)


# ---------------------------------------------------------------------------
# rough thresholds (closed forms)


def rough_threshold_q(q0: float, bounds: AlignmentBounds) -> Region:
    """Comparison-principle threshold for q = u/r, ignoring the envelope decay."""
    pm, pM, c0 = bounds.psi_min, bounds.psi_max, bounds.C0
    if c0 <= pm * pm / 4.0 and q0 >= 0.5 * (-pm - math.sqrt(pm * pm - 4.0 * c0)):
        return Region.SUBCRITICAL
    if q0 < 0.5 * (-pM - math.sqrt(pM * pM + 4.0 * c0)):
        return Region.SUPERCRITICAL
    return Region.GAP


def rough_threshold_G(G0: float, bounds: AlignmentBounds, n: float) -> Region:
    """Threshold for G = u_r + psi; sharp (G0 >= 0) in one dimension."""
    pm, pM, c0 = bounds.psi_min, bounds.psi_max, bounds.C0
    disc = pm * pm - 4.0 * (n - 1.0) * c0
    if disc >= 0.0 and G0 >= 0.5 * (pm - math.sqrt(disc)):
        return Region.SUBCRITICAL
    if G0 < 0.5 * (pM - math.sqrt(pM * pM + 4.0 * (n - 1.0) * c0)):
        return Region.SUPERCRITICAL
    return Region.GAP


# ---------------------------------------------------------------------------
# enhanced threshold curves

# each threshold curve is the separatrix of one comparison instantiation
_CURVE_SYSTEMS = {"sigma_q_plus": ("q", "+"), "sigma_q_minus": ("q", "-"),
                  "sigma_G_plus": ("G", "+"), "sigma_G_minus": ("G", "-")}
CURVE_KINDS = tuple(_CURVE_SYSTEMS)


def _instantiation(kind: str, side: str, bounds: AlignmentBounds, n: float):
    """(a, g, rest) of the frozen-coefficient comparison system of ``kind`` on ``side``.

    The system is v' = -v^2 - a v - g B with B' = -nu B, and v = rest, B = 0
    is its rest point.  Side "+" takes the worst admissible coefficients for
    regularity, side "-" the favorable ones.  For q on side "+", ``a`` is the
    pair (psi_min, psi_max): the rate switches from the first to the second
    where v turns positive.
    """
    pm, pM = bounds.psi_min, bounds.psi_max
    return {("q", "+"): ((pm, pM), 1.0, -pm),
            ("q", "-"): (pM, -1.0, -pM),
            ("G", "+"): (-pm, n - 1.0, 0.0),
            ("G", "-"): (-pM, -(n - 1.0), 0.0)}[kind, side]


@dataclass
class ThresholdCurve:
    """A sampled threshold curve sigma(x) on [0, x_max], linearly interpolable."""

    kind: str
    xs: np.ndarray
    values: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or np.any(x > self.xs[-1] * (1 + 1e-12)):
            raise ValueError("curve evaluated outside its sampled range")
        return np.interp(x, self.xs, self.values)

    @property
    def value_at_zero(self) -> float:
        return float(self.values[0])


def enhanced_curve(kind: str, bounds: AlignmentBounds, n: float,
                   x_max: float) -> ThresholdCurve:
    """Integrate a threshold curve sigma(x) from its closed-form endpoint.

    The defining ODEs are singular at x = 0, so integration starts at a
    series offset eps with sigma(eps) = sigma(0) + sigma'(0+) eps.  The
    subcritical q-curve switches coefficient from psi_min to psi_max
    when it crosses zero; the switch is located by event detection.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"curve kind must be one of {CURVE_KINDS}")
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    eps = bounds.series_offset
    if eps >= x_max:
        raise ValueError(f"x_max must exceed the series start offset {eps:g}, "
                         f"got {x_max:g}")
    pm, pM, nu = bounds.psi_min, bounds.psi_max, bounds.nu
    a, g, sigma0 = _instantiation(*_CURVE_SYSTEMS[kind], bounds, n)
    # the paper's sigma'(0+), which is the slope of the linearisation at
    # the rest point only when nu = psi_min
    slope0 = {"sigma_q_plus": 1.0 / (2.0 * pm), "sigma_q_minus": -1.0 / (pM + nu),
              "sigma_G_plus": (n - 1.0) / (2.0 * pm),
              "sigma_G_minus": -(n - 1.0) / (pM + nu)}[kind]
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, h_init=eps / 4,
                              h_min=1e-18, h_max=max(x_max / 64.0, eps), t_max=x_max)

    def curve(rate):
        """d sigma / dx = (-sigma^2 - rate sigma - g x) / (-nu x)."""
        return OdeSystem(1, lambda x, y: ((-y[0] * y[0] - rate * y[0] - g * x) / (-nu * x),),
                         labels=("sigma",))

    xs = [0.0]
    vals = [sigma0]
    y_start = np.array([sigma0 + slope0 * eps])
    switching = isinstance(a, tuple)
    if switching and y_start[0] < 0.0:
        switch = EventSpec("branch-switch", lambda x, y: y[0],
                           direction=+1, terminal=True)
        rec = integrate(curve(a[0]), y_start, config, events=(switch,), t0=eps)
        xs.extend(rec.ts.tolist())
        vals.extend(rec.ys[:, 0].tolist())
        if rec.termination is Termination.EVENT and rec.t_final < x_max:
            rec2 = integrate(curve(a[1]), rec.y_final, config, t0=rec.t_final)
            xs.extend(rec2.ts[1:].tolist())
            vals.extend(rec2.ys[1:, 0].tolist())
    else:
        rec = integrate(curve(a[1] if switching else a), y_start, config, t0=eps)
        xs.extend(rec.ts.tolist())
        vals.extend(rec.ys[:, 0].tolist())

    xs = np.asarray(xs)
    vals = np.asarray(vals)
    if xs[-1] < x_max * (1 - 1e-9):
        raise IntegrationFailure(f"curve integration stalled at x = {xs[-1]:.6g}")
    keep = np.concatenate(([True], np.diff(xs) > 0))
    return ThresholdCurve(kind, xs[keep], vals[keep])


# ---------------------------------------------------------------------------
# frozen-coefficient comparison classifier


def comparison_classify(kind: str, y0: float, C0: float, bounds: AlignmentBounds,
                        n: float, config: Optional[IntegratorConfig] = None,
                        side: str = "+") -> ClassificationOutcome:
    """Classify y0 under the frozen-coefficient comparison system.

    side "+" integrates the conservative instantiation (worst admissible
    coefficients for regularity) whose separatrix is the subcritical
    curve; side "-" integrates the favorable instantiation matching the
    supercritical curve.  B carries the decaying envelope C0 e^(-nu t).
    """
    return classify_ea_many(kind, [y0], [C0], bounds, n, config, side)[0]


def classify_ea_many(kind: str, y0s: Sequence[float], C0s: Sequence[float],
                     bounds: AlignmentBounds, n: float,
                     config: Optional[IntegratorConfig] = None,
                     side: str = "+", outcomes: bool = True) -> Verdicts:
    """:func:`comparison_classify` for every cell (y0s[i], C0s[i]), in lockstep.

    The run of each cell outside the bounded basin at t = 0 is one lane of
    a single :func:`integrate_lanes` batch, with the cell's basin floor
    1e-10 max(C0, 1) as its per-lane event constant.  Lanes are
    independent, so every outcome is exactly the one the cell gives alone.
    The verdict codes come from the lanes' terminations; an outcome is
    built only when it is read, and without ``outcomes`` never: the
    verdicts then hold the codes only.
    """
    if kind not in ("q", "G"):
        raise ValueError("kind must be 'q' or 'G'")
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    y0s, C0s = np.asarray(y0s, dtype=float), np.asarray(C0s, dtype=float)
    if y0s.ndim != 1 or y0s.shape != C0s.shape:
        raise ValueError("need one C0 per y0")
    if np.any(C0s < 0):
        raise ValueError("C0 must be nonnegative")
    nu = bounds.nu
    cfg = config if config is not None else IntegratorConfig()
    # the basin is v above the rest point with B negligible
    a, g, rest = _instantiation(kind, side, bounds, n)

    def rhs(t, y):
        # elementwise, so one definition serves a single state and a batch of lanes
        v, b = y
        return (-v * v - (np.where(v < 0.0, *a) if isinstance(a, tuple) else a) * v - g * b,
                -nu * b)

    basin = EventSpec(
        "bounded-basin",
        lambda t, y, b_floor: np.minimum(b_floor - y[1], y[0] - (rest + 1e-6)),
        direction=+1, terminal=True)
    system = OdeSystem(2, rhs, labels=(kind, "B"))

    def classify(lo, hi):
        x0 = np.array([y0s[lo:hi], C0s[lo:hi]])
        inside, cells, batch, codes = _run_cells(system, x0, [cfg], basin,
                                                 basin_consts=1e-10 * np.maximum(x0[1], 1.0),
                                                 outcomes=outcomes)
        log.info("%d cells, %d inside the basin at t = 0; %d runs of the rest",
                 hi - lo, hi - lo - len(cells), len(cells))

        def outcome(cell):
            diag = {"labels": system.labels}
            if inside[cell]:
                diag["early_exit"] = "initial state inside bounded basin"
                return ClassificationOutcome(Verdict.GLOBAL_BOUNDED, diagnostics=diag)
            j = int(np.searchsorted(cells, cell))
            diag["t_final"] = float(batch.t_final[j])
            diag["final_state"] = batch.y_final[:, j]
            return outcome_of(batch, j, diag)

        verdicts = np.zeros(hi - lo, dtype=int)
        verdicts[cells] = codes
        return Verdicts(verdicts, outcome if outcomes else None)

    return _in_batches(len(y0s), classify)
