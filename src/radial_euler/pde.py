"""Characteristic-ensemble solver for the radial PDE systems.

The flow is discretized as N characteristic paths r_i(t) carrying fixed
mass weights m_i (shell masses of the initial density).  Euler-Poisson
paths are exactly decoupled: each advances the closed scalar system
(p, q, s, rho) plus r' = r q independently, so the PDE solve is N
ordinary classifications run side by side.  Euler-alignment paths are
globally coupled through the kernel sums psi_i and zeta_i, re-evaluated
at every Runge-Kutta stage by mass-weighted particle quadrature of the
sphere-averaged kernels.

Shocks appear as path crossings, which is exactly the blowup event the
classifier theory predicts; fields are reconstructed from masses and
path spacing, so total mass is conserved to machine precision by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Model, ModelParams, sphere_area
from .odeint import IntegratorConfig, OdeSystem, Termination, integrate
from .profiles import ProfileKind, RadialProfile, integrate_weighted
from .euler_poisson import burgers_system, ep_full_system, initial_s_from_density
from .alignment import InfluenceSpec, _angular_rule


class CrossingError(RuntimeError):
    """Raised when characteristic paths have crossed (shock formed)."""

    def __init__(self, time: float, index: int, radius: float):
        super().__init__(f"paths {index} and {index + 1} crossed near r={radius:.6g} "
                         f"at t={time:.6g}")
        self.time = time
        self.index = index
        self.radius = radius


@dataclass
class CharacteristicEnsemble:
    """Paths (r_i, u_i) with frozen mass weights at one instant."""

    t: float
    r: np.ndarray
    u: np.ndarray
    masses: np.ndarray
    params: ModelParams
    states: Optional[np.ndarray] = None   # (N, 4) rows (p, q, s, rho) when evolved
    psi: Optional[np.ndarray] = None      # alignment influence at the paths

    @property
    def n_paths(self) -> int:
        return len(self.r)

    def total_mass(self) -> float:
        return float(np.sum(self.masses))


@dataclass
class FieldSnapshot:
    time: float
    r: np.ndarray
    rho: np.ndarray           # reconstructed from masses and shell volumes
    u: np.ndarray
    p: np.ndarray             # second-order differences of u along r
    q: np.ndarray
    d: np.ndarray
    eta: np.ndarray
    max_grad: float
    rho_profile: RadialProfile
    u_profile: RadialProfile
    masses: np.ndarray
    extras: dict = field(default_factory=dict)


@dataclass
class BlowupReport:
    time: float
    kind: str                 # escaping component label, "crossing", or "step-collapse"
    path_index: int
    radius: float


@dataclass
class SimulationResult:
    snapshots: list
    blowup: Optional[BlowupReport]
    params: ModelParams
    n_paths: int

    @property
    def blew_up(self) -> bool:
        return self.blowup is not None


def _seed_ensemble(rho0: RadialProfile, u0: RadialProfile, params: ModelParams,
                   n_paths: int) -> CharacteristicEnsemble:
    n = int(params.n)
    edges = np.linspace(0.0, rho0.r_max, n_paths + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    area = sphere_area(n)
    masses = np.array([
        area * integrate_weighted(rho0.nodes, rho0.values, edges[i], edges[i + 1],
                                  n - 1.0)
        for i in range(n_paths)])
    u = np.asarray(u0(centers), dtype=float)
    return CharacteristicEnsemble(t=0.0, r=centers, u=u, masses=masses,
                                  params=params)


def _check_inputs(rho0: RadialProfile, u0: RadialProfile, params: ModelParams):
    if int(params.n) != params.n:
        raise ValueError("the PDE ensemble requires an integer dimension")
    if rho0.kind is not ProfileKind.DENSITY:
        raise ValueError("rho0 must be a density profile")
    if u0.kind is not ProfileKind.VELOCITY:
        raise ValueError("u0 must be a velocity profile")
    if np.any(rho0.values < 0):
        raise ValueError("initial density must be nonnegative")
    if u0.r_max < rho0.r_max - 1e-12:
        raise ValueError("velocity profile must cover the density support")


def reconstruct_fields(ensemble: CharacteristicEnsemble) -> FieldSnapshot:
    """Recover (rho, u, p, q) fields from the paths.

    rho_i is the path mass divided by the shell volume between midpoint
    boundaries; u is interpolated monotone-cubically; p uses
    second-order differences of u along r (one-sided at the ends) and
    q = u/r.  Crossed paths raise CrossingError.
    """
    r, u, m = ensemble.r, ensemble.u, ensemble.masses
    n = int(ensemble.params.n)
    dr = np.diff(r)
    if np.any(dr <= 0):
        i = int(np.argmax(dr <= 0))
        raise CrossingError(ensemble.t, i, float(r[i]))

    edges = np.empty(len(r) + 1)
    edges[1:-1] = 0.5 * (r[:-1] + r[1:])
    edges[0] = max(r[0] - 0.5 * (r[1] - r[0]), 0.0)
    edges[-1] = r[-1] + 0.5 * (r[-1] - r[-2])
    shell = sphere_area(n) / n * (edges[1:] ** n - edges[:-1] ** n)
    rho = m / np.maximum(shell, 1e-300)

    p = np.gradient(u, r)
    q = u / r
    d = p + (n - 1.0) * q
    eta = (n - 1.0) * (p - q) ** 2
    max_grad = float(max(np.max(np.abs(p)), np.max(np.abs(q))))

    nodes = np.concatenate(([0.0], r))
    rho_profile = RadialProfile(nodes, np.concatenate(([rho[0]], rho)),
                                ProfileKind.DENSITY)
    u_profile = RadialProfile(nodes, np.concatenate(([0.0], u)),
                              ProfileKind.VELOCITY)
    return FieldSnapshot(time=ensemble.t, r=r.copy(), rho=rho, u=u.copy(),
                         p=p, q=q, d=d, eta=eta, max_grad=max_grad,
                         rho_profile=rho_profile, u_profile=u_profile,
                         masses=m.copy(),
                         extras=dict(psi=None if ensemble.psi is None
                                     else ensemble.psi.copy()))


def _path_system(params: ModelParams) -> OdeSystem:
    """Per-path characteristic state (p, q, s, rho) plus the path radius r' = r q.

    Burgers paths carry a frozen s slot, so both models share one layout;
    the slot also counts in the step-error norm, which divides by the
    dimension.
    """
    if params.model is Model.EULER_POISSON:
        base = ep_full_system(params).rhs

        def rhs(t, y):
            return (*base(t, y[:4]), y[4] * y[1])
    else:
        base = burgers_system(params).rhs

        def rhs(t, y):
            dp, dq, drho = base(t, (y[0], y[1], y[3]))
            return (dp, dq, 0.0, drho, y[4] * y[1])
    return OdeSystem(5, rhs, labels=("p", "q", "s", "rho", "r"))


def simulate_ep(rho0: RadialProfile, u0: RadialProfile, params: ModelParams,
                n_paths: int = 200,
                config: IntegratorConfig = IntegratorConfig(),
                t_end: float = 20.0, n_snapshots: int = 11) -> SimulationResult:
    """Evolve an Euler-Poisson (or Burgers) ensemble path by path.

    Each path advances the closed characteristic system independently;
    the run halts with a BlowupReport when any p_i or rho_i escapes, a
    step collapses, or paths cross.
    """
    _check_inputs(rho0, u0, params)
    ens = _seed_ensemble(rho0, u0, params, n_paths)
    n = params.n
    system = _path_system(params)
    cfg = replace(config, t_max=t_end)

    need_s = params.model is Model.EULER_POISSON
    records = []
    t_cover = t_end
    blowup: Optional[BlowupReport] = None
    for i, r_i in enumerate(ens.r):
        p_i = float(u0.derivative(r_i))
        q_i = float(ens.u[i] / r_i)
        s_i = initial_s_from_density(rho0, params.c, r_i, n) if need_s else 0.0
        rho_i = float(rho0(r_i))
        rec = integrate(system, [p_i, q_i, s_i, rho_i, r_i], cfg)
        records.append(rec)
        if rec.termination is Termination.BLOWUP_DETECTED:
            t_b = rec.blowup_time
            if blowup is None or t_b < blowup.time:
                blowup = BlowupReport(t_b, system.label(rec.blowup_component),
                                      i, float(rec.y_final[4]))
        elif rec.termination is Termination.STEP_COLLAPSE:
            if blowup is None or rec.t_final < blowup.time:
                blowup = BlowupReport(rec.t_final, "step-collapse", i,
                                      float(rec.y_final[4]))
        t_cover = min(t_cover, rec.t_final)

    times = np.linspace(0.0, t_end, n_snapshots)
    times = times[times <= t_cover * (1 + 1e-12)]
    if blowup is not None and t_cover * (1 - 1e-9) > (times[-1] if len(times) else 0.0):
        # keep the last resolvable pre-blowup state
        times = np.append(times, t_cover * (1 - 1e-9))
    snapshots = []
    for t in times:
        state = np.array([rec.sample(min(t, rec.t_final)) for rec in records])
        ens_t = CharacteristicEnsemble(
            t=float(t), r=state[:, 4], u=state[:, 4] * state[:, 1],
            masses=ens.masses, params=params, states=state[:, :4])
        try:
            snap = reconstruct_fields(ens_t)
        except CrossingError as exc:
            if blowup is None or exc.time < blowup.time:
                blowup = BlowupReport(exc.time, "crossing", exc.index, exc.radius)
            break
        snap.extras["states"] = ens_t.states
        snapshots.append(snap)
    return SimulationResult(snapshots, blowup, params, n_paths)


# ---------------------------------------------------------------------------
# Euler-alignment ensemble (globally coupled)


def _particle_kernels(r: np.ndarray, phi: InfluenceSpec, n: int,
                      cos_theta: np.ndarray, w: np.ndarray):
    """Sphere-averaged kernel matrices K_phi[i,j], K_zeta[i,j] on the paths."""
    if n == 1:
        km = phi.phi(np.abs(r[:, None] - r[None, :]))
        kp = phi.phi(r[:, None] + r[None, :])
        return 0.5 * (km + kp), 0.5 * (km - kp)
    rr = r[:, None, None]
    ss = r[None, :, None]
    dist = np.sqrt(np.maximum(rr * rr + ss * ss - 2.0 * rr * ss * cos_theta, 0.0))
    vals = phi.phi(dist)
    k_phi = vals @ w
    k_zeta = vals @ (w * cos_theta)
    return k_phi, k_zeta


def simulate_ea(rho0: RadialProfile, u0: RadialProfile, phi: InfluenceSpec,
                params: ModelParams, n_paths: int = 100,
                t_end: float = 20.0, n_snapshots: int = 11,
                theta_order: int = 32,
                dt: Optional[float] = None) -> SimulationResult:
    """Evolve an Euler-alignment ensemble with coupled kernel sums.

    Classical RK4 with a step bounded by 0.1/psi_max (stability of the
    damping term), kernels re-evaluated at every stage.  Tracks the
    alignment diagnostics: psi_i, G_i = p_i + psi_i with p from neighbor
    differencing, the velocity oscillation V = 2 max|u|, and the support
    radius.  Halts with a crossing report when paths meet.
    """
    _check_inputs(rho0, u0, params)
    n = int(params.n)
    ens = _seed_ensemble(rho0, u0, params, n_paths)
    m = ens.masses
    psi_max = phi.sup_phi * float(np.sum(m))
    step = dt if dt is not None else min(0.1 / psi_max, t_end / 10.0)
    n_steps = max(int(math.ceil(t_end / step)), 1)
    step = t_end / n_steps

    cos_theta, w = None, None
    if n > 1:
        theta, w = _angular_rule(n, theta_order)
        # normalize: the weights sum to ~1 for phi = 1
        cos_theta, w = np.cos(theta), w * (sphere_area(n - 1) / sphere_area(n))

    def deriv(r, u):
        k_phi, k_zeta = _particle_kernels(r, phi, n, cos_theta, w)
        psi = k_phi @ m
        zeta = k_zeta @ (m * u)
        return u, zeta - psi * u, psi

    # the steps closest to an even split of [0, t_end] into n_snapshots times
    snap_steps = set(np.rint(np.linspace(0, n_steps, n_snapshots)).astype(int).tolist())
    r, u = ens.r.copy(), ens.u.copy()
    snapshots = []
    blowup: Optional[BlowupReport] = None

    def take_snapshot(t, r, u):
        _, _, psi = deriv(r, u)
        ens_t = CharacteristicEnsemble(t=t, r=r.copy(), u=u.copy(), masses=m,
                                       params=params, psi=psi)
        snap = reconstruct_fields(ens_t)
        snap.extras["psi"] = psi
        snap.extras["G"] = snap.p + psi
        snap.extras["V"] = 2.0 * float(np.max(np.abs(u)))
        snapshots.append(snap)

    take_snapshot(0.0, r, u)
    for k in range(n_steps):
        t = k * step
        dr1, du1, _ = deriv(r, u)
        dr2, du2, _ = deriv(r + 0.5 * step * dr1, u + 0.5 * step * du1)
        dr3, du3, _ = deriv(r + 0.5 * step * dr2, u + 0.5 * step * du2)
        dr4, du4, _ = deriv(r + step * dr3, u + step * du3)
        r = r + step / 6.0 * (dr1 + 2 * dr2 + 2 * dr3 + dr4)
        u = u + step / 6.0 * (du1 + 2 * du2 + 2 * du3 + du4)
        t_new = (k + 1) * step
        if np.any(np.diff(r) <= 0):
            i = int(np.argmax(np.diff(r) <= 0))
            blowup = BlowupReport(t_new, "crossing", i, float(r[i]))
            break
        if not np.all(np.isfinite(u)):
            i = int(np.argmax(~np.isfinite(u)))
            blowup = BlowupReport(t_new, "step-collapse", i, float(r[i]))
            break
        if k + 1 in snap_steps:
            take_snapshot(t_new, r, u)
    return SimulationResult(snapshots, blowup, params, n_paths)


def diagnostics_series(snapshots: list) -> dict:
    """Time series for regularity, flocking, and conservation monitoring."""
    if not snapshots:
        raise ValueError("no snapshots to diagnose")
    t = np.array([s.time for s in snapshots])
    max_grad = np.array([s.max_grad for s in snapshots])
    vosc = np.array([s.extras.get("V", 2.0 * float(np.max(np.abs(s.u))))
                     for s in snapshots])
    support = np.array([float(np.max(s.r[s.masses > 0.0], initial=0.0))
                        for s in snapshots])
    min_radius = np.array([float(np.min(s.r)) for s in snapshots])
    mass = np.array([float(np.sum(s.masses)) for s in snapshots])
    # BKM-type regularity integrand, accumulated by the trapezoid rule
    bkm = np.concatenate(([0.0], np.cumsum(0.5 * (max_grad[1:] + max_grad[:-1])
                                           * np.diff(t))))
    return {"t": t, "max_grad": max_grad, "V": vosc, "support_radius": support,
            "min_radius": min_radius, "mass_total": mass, "bkm_integral": bkm}


def estimate_flock_diameter(result: SimulationResult) -> float:
    """Largest support radius observed over a run (flock diameter estimate)."""
    series = diagnostics_series(result.snapshots)
    return float(np.max(series["support_radius"]))
