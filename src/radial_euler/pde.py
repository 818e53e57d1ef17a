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

import functools
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (AT_LEAST_ONE, AT_LEAST_TWO, FINITE_POSITIVE, Model, ModelParams,
                   check_rules, divergence, spectral_gap, sphere_area)
# ``integrate`` stays a module attribute: perfbench/tracer.py wraps pde.integrate
from .odeint import (TERMINATIONS, IntegratorConfig, OdeSystem, Termination,  # noqa: F401
                     integrate, integrate_lanes)
from .profiles import ProfileKind, RadialProfile, integrate_weighted
from .euler_poisson import burgers_system, ep_full_system, initial_s_from_density
from .alignment import InfluenceSpec, _angular_rule

log = logging.getLogger(__name__)

# the termination codes of a lane that blew up or whose step collapsed
_BLOWUP = TERMINATIONS.index(Termination.BLOWUP_DETECTED)
_COLLAPSE = TERMINATIONS.index(Termination.STEP_COLLAPSE)
# the most RK4 steps an alignment run takes
MAX_EA_STEPS = 1_000_000


class CrossingError(RuntimeError):
    """Raised when characteristic paths have crossed (shock formed)."""

    kind = "crossing"     # the BlowupReport kind of the run it ends

    def __init__(self, time: float, index: int, radius: float):
        super().__init__(f"paths {index} and {index + 1} crossed near r={radius:.6g} "
                         f"at t={time:.6g}")
        self.time = time
        self.index = index
        self.radius = radius


class ShellRangeError(ArithmeticError):
    """Raised when a shell's measure overflows (high n, expanding paths) or underflows."""

    KINDS = ("shell-overflow", "shell-underflow")

    def __init__(self, time: float, index: int, radius: float, shrank: bool):
        super().__init__(f"the shell volume of path {index} near r={radius:.6g} "
                         f"{'shrank below' if shrank else 'left'} float range at t={time:.6g}")
        self.time, self.index, self.radius = time, index, radius
        self.kind = self.KINDS[shrank]


@dataclass
class CharacteristicEnsemble:
    """Paths (r_i, u_i) with frozen mass weights at one instant."""

    t: float
    r: np.ndarray
    u: np.ndarray
    masses: np.ndarray
    params: ModelParams
    states: Optional[np.ndarray] = None   # (N, 4) rows (p, q, s, rho); None for alignment
    psi: Optional[np.ndarray] = None      # alignment influence at the paths


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
    masses: np.ndarray
    extras: dict = field(default_factory=dict)


@dataclass
class BlowupReport:
    time: float
    kind: str   # escaping component label, "crossing", "step-collapse" or a ShellRangeError kind
    path_index: int
    radius: float


@dataclass
class SimulationResult:
    snapshots: list
    blowup: Optional[BlowupReport]
    n_paths: int


def _seed_ensemble(rho0: RadialProfile, u0: RadialProfile, params: ModelParams,
                   n_paths: int) -> CharacteristicEnsemble:
    """The paths at t = 0: the centres of ``n_paths`` equal shells of the
    density's support, their velocities and shell masses and, unless the
    model is Euler-alignment, their (p, q, s, rho) ``states``.

    The arithmetic is checked where it is done, before any warning is
    printed.  The fields divide by the squared path spacing and by the shell
    measures sphere_area(n) / n (b^n - a^n), the shell moments reach
    r^(n+2) and s divides by r^n, so a support that takes any of them out
    of float range raises a ValueError starting with ``r_max``, the
    support's radius.  The path rates square the slopes p = u0' and
    q = u0 / r, so a velocity that takes either square out of float range
    raises one starting with ``u0``.
    """
    n = int(params.n)
    alignment = params.model is Model.EULER_ALIGNMENT
    edges = np.linspace(0.0, rho0.r_max, n_paths + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    area = sphere_area(n)
    with np.errstate(all="ignore"):
        masses = np.array([
            area * integrate_weighted(rho0.nodes, rho0.values, edges[i], edges[i + 1],
                                      n - 1.0)
            for i in range(n_paths)])
        s = (initial_s_from_density(rho0, params.c, centers, params.n)
             if params.model is Model.EULER_POISSON else np.zeros(n_paths))
        # the slopes' differences divide by the squared spacing, the
        # densities by the shell measures
        divisors = np.append(edges[1] ** 2, area / n * np.diff(edges ** n))
        u = np.asarray(u0(centers), dtype=float)
        p, q = (None, None) if alignment else (u0.derivative(centers), u / centers)
        slope = 0.0 if alignment else float(max(np.max(np.abs(p)), np.max(np.abs(q))))
    if not (np.all(np.isfinite(masses)) and np.all(np.isfinite(s))
            and np.all((np.finfo(float).tiny <= divisors) & (divisors < np.inf))):
        kept = "shell volumes and moments" if alignment else "shell volumes, moments and s"
        raise ValueError(f"r_max must keep the spacing, {kept} of {n_paths} paths in n = {n} "
                         f"in float range, got {rho0.r_max!r}")
    if not math.isfinite(slope * slope):
        raise ValueError(f"u0 must keep the squared slopes p^2 and q^2 of {n_paths} paths "
                         f"finite, got {slope:.3g}")
    states = None if alignment else np.column_stack((p, q, s, rho0(centers)))
    return CharacteristicEnsemble(t=0.0, r=centers, u=u, masses=masses,
                                  params=params, states=states)


def _phase(message: str, *args, since: float) -> float:
    """Log a finished phase of a run with its duration; returns the time now."""
    now = time.perf_counter()
    log.info(message + " in %.3f s", *args, now - since)
    return now


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


def run_size_rules(model: Model, n_snapshots: int) -> dict:
    """The ``(test, wanted)`` rule of each run-size argument of a simulation.

    One table for :func:`simulate_ep`, :func:`simulate_ea` and the CLI.
    ``t_end = 0`` with a single snapshot is the initial data, which only
    an Euler-Poisson (or Burgers) ensemble can give: the alignment run has
    no zero-length step.  ``theta_order`` and ``dt`` bind only the
    alignment run, where ``dt`` 0 or None picks the stability bound.
    """
    if model is Model.EULER_ALIGNMENT:
        return {"n_paths": AT_LEAST_TWO, "t_end": FINITE_POSITIVE,
                "n_snapshots": AT_LEAST_ONE, "theta_order": AT_LEAST_ONE,
                "dt": (lambda v: v is None or v >= 0,
                       "nonnegative (0 picks the stability bound)")}
    return {"n_paths": AT_LEAST_TWO,
            "t_end": (lambda v: math.isfinite(v) and (v > 0 or v == 0 and n_snapshots == 1),
                      "finite and positive, or 0 with a single snapshot"),
            "n_snapshots": AT_LEAST_ONE}


def reconstruct_fields(ensemble: CharacteristicEnsemble) -> FieldSnapshot:
    """Recover (rho, u, p, q) fields from the paths.

    rho_i is the path mass divided by the shell volume between midpoint
    boundaries; p uses second-order differences of u along r (one-sided
    at the ends) and q = u/r.  Crossed paths raise CrossingError, shell measures
    out of the seeding's float range ShellRangeError; a first path at r <= 0, or
    a non-finite radius, velocity or mass, raises ValueError.
    """
    r, u, m = ensemble.r, ensemble.u, ensemble.masses
    n = int(ensemble.params.n)
    dr = np.diff(r)
    if np.any(dr <= 0):
        i = int(np.argmax(dr <= 0))
        raise CrossingError(ensemble.t, i, float(r[i]))
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(u)) and np.all(np.isfinite(m))):
        raise ValueError("path radii, velocities and masses must be finite")
    if r[0] <= 0.0:
        raise ValueError(f"the first path must lie at r > 0, got r = {r[0]:.6g}")

    edges = np.empty(len(r) + 1)
    edges[1:-1] = 0.5 * (r[:-1] + r[1:])
    edges[0] = max(r[0] - 0.5 * (r[1] - r[0]), 0.0)
    edges[-1] = r[-1] + 0.5 * (r[-1] - r[-2])
    with np.errstate(over="ignore", invalid="ignore"):
        shell = sphere_area(n) / n * (edges[1:] ** n - edges[:-1] ** n)
    out = int(np.argmin((np.finfo(float).tiny <= shell) & (shell < np.inf)))
    if not np.finfo(float).tiny <= shell[out] < np.inf:
        raise ShellRangeError(ensemble.t, out, float(r[out]), bool(shell[out] < 1.0))
    rho = m / shell

    p = np.gradient(u, r)
    q = u / r
    # past sqrt(max float) a gradient's d and eta overflow to inf, the
    # rounded value; nothing downstream needs them finite
    with np.errstate(over="ignore"):
        d, eta = divergence(p, q, n), spectral_gap(p, q, n)
    max_grad = float(max(np.max(np.abs(p)), np.max(np.abs(q))))
    return FieldSnapshot(time=ensemble.t, r=r.copy(), rho=rho, u=u.copy(),
                         p=p, q=q, d=d, eta=eta, max_grad=max_grad, masses=m.copy(),
                         extras=dict(psi=None if ensemble.psi is None
                                     else ensemble.psi.copy()))


def _path_system(params: ModelParams) -> OdeSystem:
    """Per-path characteristic state (p, q, s, rho) plus the path radius r' = r q.

    Burgers paths carry a frozen s slot, so both models share one layout;
    the slot also counts in the step-error norm, which divides by the
    dimension.  Its rate 0 * s is 0 with the shape of s, one per lane.  Only
    p, q, s and rho escape: a radius past the cap is no blowup.
    """
    if params.model is Model.EULER_POISSON:
        base = ep_full_system(params).rhs

        def rhs(t, y):
            return (*base(t, y[:4]), y[4] * y[1])
    else:
        base = burgers_system(params).rhs

        def rhs(t, y):
            dp, dq, drho = base(t, (y[0], y[1], y[3]))
            return (dp, dq, 0.0 * y[2], drho, y[4] * y[1])
    return OdeSystem(5, rhs, labels=("p", "q", "s", "rho", "r"), escaping=(0, 1, 2, 3))


def simulate_ep(rho0: RadialProfile, u0: RadialProfile, params: ModelParams,
                n_paths: int = 200,
                config: IntegratorConfig = IntegratorConfig(),
                t_end: float = 20.0, n_snapshots: int = 11) -> SimulationResult:
    """Evolve an Euler-Poisson (or Burgers) ensemble, every path a lane.

    Each path advances the closed characteristic system independently,
    as one lane of a lockstep :func:`integrate_lanes` batch, and the
    snapshots are the lanes' dense-output probes; the run halts with a
    BlowupReport when any p_i or rho_i escapes, a step collapses, paths
    cross, or a snapshot's shell measures leave float range.
    """
    _check_inputs(rho0, u0, params)
    check_rules(run_size_rules(params.model, n_snapshots),
                dict(n_paths=n_paths, t_end=t_end, n_snapshots=n_snapshots))
    clock = time.perf_counter()
    ens = _seed_ensemble(rho0, u0, params, n_paths)
    y0 = np.vstack((ens.states.T, ens.r))
    clock = _phase("seeded %d paths", n_paths, since=clock)

    system = _path_system(params)
    configs = [replace(config, t_max=t_end)] * n_paths
    times = np.linspace(0.0, t_end, n_snapshots)
    batch = integrate_lanes(system, y0, configs, probe_t=times)
    t_final = batch.t_final
    t_cover = min(t_end, float(np.min(t_final)))
    blowup: Optional[BlowupReport] = None
    # the earliest blowup or step collapse, the first path on ties
    blown = batch.ends == _BLOWUP
    t_stop = np.where(blown, batch.blowup_time,
                      np.where(batch.ends == _COLLAPSE, t_final, np.inf))
    i = int(np.argmin(t_stop))
    if t_stop[i] < np.inf:
        kind = (system.label(int(batch.blowup_component[i])) if blown[i]
                else Termination.STEP_COLLAPSE.value)
        blowup = BlowupReport(float(t_stop[i]), kind, i, float(batch.y_final[4, i]))

    # no snapshot reads a path past the earliest final time
    snap_times = times[times <= t_cover]
    if blowup is not None and t_cover * (1 - 1e-9) > (snap_times[-1] if len(snap_times)
                                                      else 0.0):
        # keep the last resolvable pre-blowup state
        snap_times = np.append(snap_times, t_cover * (1 - 1e-9))
    runs = 1
    if not np.array_equal(snap_times, times[:len(snap_times)]):
        # a path ended early: run the lanes again, probed where the
        # snapshots read them (the runs are deterministic, so only the
        # probes differ)
        batch = integrate_lanes(system, y0, configs, probe_t=snap_times)
        runs = 2
    clock = _phase("integrated %d lanes (%d run%s)", n_paths, runs,
                   "" if runs == 1 else "s", since=clock)

    snapshots = []
    for k, t in enumerate(snap_times):
        state = batch.probe[k].T.copy()
        ens_t = CharacteristicEnsemble(
            t=float(t), r=state[:, 4], u=state[:, 4] * state[:, 1],
            masses=ens.masses, params=params, states=state[:, :4])
        try:
            snap = reconstruct_fields(ens_t)
        except (CrossingError, ShellRangeError) as exc:
            if blowup is None or exc.time < blowup.time:
                blowup = BlowupReport(exc.time, exc.kind, exc.index, exc.radius)
            break
        snap.extras["states"] = ens_t.states
        snapshots.append(snap)
    _phase("reconstructed %d snapshots", len(snapshots), since=clock)
    return SimulationResult(snapshots, blowup, n_paths)


# ---------------------------------------------------------------------------
# Euler-alignment ensemble (globally coupled)


@functools.lru_cache(maxsize=4)
def _pairs(n_paths: int):
    """Row and column indices of the path pairs i <= j, and the flat indices
    i N + j and j N + i of each pair in an (N, N) matrix."""
    i, j = np.triu_indices(n_paths)
    return i, j, i * n_paths + j, j * n_paths + i


# values per block of (pairs, theta) temporaries in the n >= 2 kernel: 64 KiB
# of float64 stays in cache and on the heap, where a whole (pairs, theta)
# array would come from fresh, zeroed pages on every call
_BLOCK = 8192
# a block starts at a multiple of this many pairs and is never shorter, so
# each pair falls in the same 4-row group of the BLAS gemv kernel as it
# does in one gemv over all pairs
_MIN_ROWS = 32


def _block_rows(theta_order: int) -> int:
    """Pairs per block of the n >= 2 kernel at this many angular nodes."""
    return max(_MIN_ROWS, _BLOCK // theta_order // _MIN_ROWS * _MIN_ROWS)


def _particle_kernels(r: np.ndarray, phi: InfluenceSpec, n: int,
                      cos_theta: np.ndarray, w: np.ndarray):
    """Sphere-averaged kernel matrices K_phi[i,j], K_zeta[i,j] on the paths.

    ``w`` stacks the angular weights and the weights times cos(theta),
    shape (2, theta_order).  Both matrices are symmetric, and the
    distance r_i^2 + r_j^2 - 2 r_i r_j cos(theta) is so bit for bit, so
    phi is evaluated on the pairs i <= j only and each pair's sums fill
    both halves, through the flat indices i N + j and j N + i.  For
    n >= 2 the pairs go through phi in blocks of :func:`_block_rows`:
    each block's 2 r_i r_j cos(theta) is a k = 1 matrix product into one
    buffer (one rounded multiply per entry, as a broadcast multiply
    gives), the distances are formed there in place, and one gemv per
    weight row sums phi of them.  A tail block shorter than
    ``_MIN_ROWS`` joins the block before it, because OpenBLAS rounds a
    one-row gemv differently; the sums are then bit for bit those of one
    gemv over all pairs on one BLAS thread (the tests pin this).
    """
    size = len(r)
    i, j, upper, lower = _pairs(size)
    a, b = r[i], r[j]
    if n == 1:
        km = phi.phi(np.abs(a - b))
        kp = phi.phi(a + b)
        pair_phi, pair_zeta = 0.5 * (km + kp), 0.5 * (km - kp)
    else:
        # a * a + b * b - 2.0 * a * b * cos_theta, a block of pairs at a time
        ab2, sq = 2.0 * a[:, None] * b[:, None], (a * a + b * b)[:, None]
        pairs, nodes = len(a), len(cos_theta)
        rows = _block_rows(nodes)
        pair_phi, pair_zeta = np.empty(pairs), np.empty(pairs)
        # room for the longest block, a full one joined by a short tail
        buffer = np.empty(min(pairs, rows + _MIN_ROWS - 1) * nodes)
        cos_row = cos_theta[None, :]
        lo = 0
        while lo < pairs:
            hi = lo + rows
            if hi + _MIN_ROWS > pairs:
                hi = pairs
            block = buffer[:(hi - lo) * nodes].reshape(hi - lo, nodes)
            np.dot(ab2[lo:hi], cos_row, out=block)
            np.subtract(sq[lo:hi], block, out=block)
            np.sqrt(np.maximum(block, 0.0, out=block), out=block)
            vals = phi.phi(block)
            np.dot(vals, w[0], out=pair_phi[lo:hi])
            np.dot(vals, w[1], out=pair_zeta[lo:hi])
            lo = hi
    k_phi, k_zeta = np.empty(size * size), np.empty(size * size)
    k_phi[upper] = k_phi[lower] = pair_phi
    k_zeta[upper] = k_zeta[lower] = pair_zeta
    return k_phi.reshape(size, size), k_zeta.reshape(size, size)


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
    check_rules(run_size_rules(Model.EULER_ALIGNMENT, n_snapshots),
                dict(n_paths=n_paths, t_end=t_end, n_snapshots=n_snapshots,
                     theta_order=theta_order, dt=dt))
    clock = time.perf_counter()
    n = int(params.n)
    ens = _seed_ensemble(rho0, u0, params, n_paths)
    m = ens.masses
    psi_max = phi.sup_phi * float(np.sum(m))
    check_rules({"psi_max": FINITE_POSITIVE}, {"psi_max": psi_max}, "the influence bound ")
    step = dt or min(0.1 / psi_max, t_end / 10.0)
    check_rules({"t_end / dt": (lambda v: v <= MAX_EA_STEPS, f"at most {MAX_EA_STEPS}")},
                {"t_end / dt": t_end / step}, "the RK4 step count ")
    n_steps = max(int(math.ceil(t_end / step)), 1)
    step = t_end / n_steps

    cos_theta, w = None, None
    if n > 1:
        theta, w = _angular_rule(n, theta_order)
        # normalize: the weights sum to ~1 for phi = 1
        cos_theta, w = np.cos(theta), w * (sphere_area(n - 1) / sphere_area(n))
        w = np.stack((w, w * cos_theta))
    clock = _phase("seeded %d paths", n_paths, since=clock)

    calls, kernel_s = 0, 0.0

    def deriv(r, u):
        nonlocal calls, kernel_s
        calls += 1
        start = time.perf_counter()
        # a stage past float range overflows here: the step's checks of u
        # and psi end the run at such a state
        with np.errstate(over="ignore", invalid="ignore"):
            k_phi, k_zeta = _particle_kernels(r, phi, n, cos_theta, w)
            kernel_s += time.perf_counter() - start
            psi = k_phi @ m
            zeta = k_zeta @ (m * u)
            return u, zeta - psi * u, psi

    # the steps closest to an even split of [0, t_end] into n_snapshots times
    snap_steps = set(np.rint(np.linspace(0, n_steps, n_snapshots)).astype(int).tolist())
    r, u = ens.r.copy(), ens.u.copy()
    snapshots = []
    blowup: Optional[BlowupReport] = None
    recon_s = 0.0

    def take_snapshot(t, r, u, psi):
        nonlocal recon_s
        start = time.perf_counter()
        ens_t = CharacteristicEnsemble(t=t, r=r.copy(), u=u.copy(), masses=m,
                                       params=params, psi=psi)
        snap = reconstruct_fields(ens_t)
        snap.extras["psi"] = psi
        snap.extras["G"] = snap.p + psi
        snapshots.append(snap)
        recon_s += time.perf_counter() - start

    # a step's first stage is the rate at the state it starts from, where
    # a snapshot reads psi too
    dr1, du1, psi = deriv(r, u)
    take_snapshot(0.0, r, u, psi)
    steps = 0
    for k in range(n_steps):
        dr2, du2, _ = deriv(r + 0.5 * step * dr1, u + 0.5 * step * du1)
        dr3, du3, _ = deriv(r + 0.5 * step * dr2, u + 0.5 * step * du2)
        dr4, du4, _ = deriv(r + step * dr3, u + step * du3)
        r = r + step / 6.0 * (dr1 + 2 * dr2 + 2 * dr3 + dr4)
        u = u + step / 6.0 * (du1 + 2 * du2 + 2 * du3 + du4)
        steps = k + 1
        t_new = steps * step
        if r[0] <= 0.0 or np.any(np.diff(r) <= 0):
            # paths met, or the first met its mirror image at the origin (i = 0)
            i = int(np.argmax(np.diff(r) <= 0))
            blowup = BlowupReport(t_new, "crossing", i, float(r[i]))
            break
        snap_here = steps in snap_steps
        # a non-finite u, or a finite state whose psi overflowed, ends the run
        bad = ~np.isfinite(u)
        if not bad.any() and (steps < n_steps or snap_here):
            dr1, du1, psi = deriv(r, u)
            bad = ~np.isfinite(psi)
        if bad.any():
            i = int(np.argmax(bad))
            blowup = BlowupReport(t_new, Termination.STEP_COLLAPSE.value, i, float(r[i]))
            break
        if snap_here:
            try:
                take_snapshot(t_new, r, u, psi)
            except ShellRangeError as exc:
                blowup = BlowupReport(exc.time, exc.kind, exc.index, exc.radius)
                break
    pairs = n_paths * (n_paths + 1) // 2
    shape = (f"blocks of {min(_block_rows(theta_order), pairs)} pairs x "
             f"{theta_order} nodes" if n > 1 else f"all {pairs} pairs at once")
    evals = calls * pairs * (theta_order if n > 1 else 2)   # n = 1: |r_i -+ r_j|
    _phase("%d RK4 steps, %d kernel calls of %s, %d phi evaluations, %d snapshots "
           "(%.3f s in kernel calls, %s; %.3f s reconstructing)", steps, calls,
           phi.name, evals, len(snapshots), kernel_s, shape, recon_s, since=clock)
    return SimulationResult(snapshots, blowup, n_paths)


def diagnostics_series(snapshots: list) -> dict:
    """Time series for regularity, flocking, and conservation monitoring."""
    if not snapshots:
        raise ValueError("no snapshots to diagnose")
    t = np.array([s.time for s in snapshots])
    max_grad = np.array([s.max_grad for s in snapshots])
    vosc = np.array([2.0 * float(np.max(np.abs(s.u))) for s in snapshots])
    support = np.array([float(np.max(s.r[s.masses > 0.0], initial=0.0))
                        for s in snapshots])
    min_radius = np.array([float(np.min(s.r)) for s in snapshots])
    mass = np.array([float(np.sum(s.masses)) for s in snapshots])
    # BKM-type regularity integrand, accumulated by the trapezoid rule
    bkm = np.concatenate(([0.0], np.cumsum(0.5 * (max_grad[1:] + max_grad[:-1])
                                           * np.diff(t))))
    return {"t": t, "max_grad": max_grad, "V": vosc, "support_radius": support,
            "min_radius": min_radius, "mass_total": mass, "bkm_integral": bkm}
