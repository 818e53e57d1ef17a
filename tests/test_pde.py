import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radial_euler
from radial_euler import (CharacteristicEnsemble, CrossingError,
                          IntegratorConfig, Model, ModelParams, Verdict,
                          classify_ep, constant_influence, diagnostics_series,
                          estimate_flock_diameter, gaussian_bump,
                          gaussian_velocity, indicator, linear_velocity,
                          power_law_influence, reconstruct_fields,
                          rexp_velocity, simulate_ea, simulate_ep,
                          zero_velocity, CharState, compute_bounds,
                          divergence, spectral_gap)
from radial_euler.euler_poisson import ep_full_system
from radial_euler.odeint import integrate

EP3 = ModelParams(n=3, kappa=1, c=0)


def test_reconstruct_uniform_density():
    rho0 = indicator(1.0, 1.0, n_nodes=401)
    res = simulate_ep(rho0, zero_velocity(1.0), ModelParams(n=2, kappa=1, c=0),
                      n_paths=400, t_end=0.0, n_snapshots=1)
    snap = res.snapshots[0]
    inner = (snap.r > 0.05) & (snap.r < 0.95)
    assert np.max(np.abs(snap.rho[inner] - 1.0)) < 0.02


def test_reconstruct_rigid_expansion():
    r = np.linspace(0.01, 1.0, 100)
    ens = CharacteristicEnsemble(t=0.0, r=r, u=r.copy(), masses=np.ones(100),
                                 params=EP3)
    snap = reconstruct_fields(ens)
    assert np.max(np.abs(snap.p - 1.0)) < 1e-6
    assert np.max(np.abs(snap.q - 1.0)) < 1e-6
    assert np.max(np.abs(snap.d - 3.0)) < 1e-5
    assert np.max(np.abs(snap.eta)) < 1e-10


def test_reconstruct_crossing_raises():
    r = np.array([0.1, 0.3, 0.2, 0.5])
    ens = CharacteristicEnsemble(t=1.0, r=r, u=np.zeros(4), masses=np.ones(4),
                                 params=EP3)
    with pytest.raises(CrossingError) as err:
        reconstruct_fields(ens)
    assert err.value.time == 1.0


def _burgers_exact_fields(u0_fn, du0_fn, rho0_fn, r0, t):
    r = r0 + u0_fn(r0) * t
    u = u0_fn(r0)
    rho = rho0_fn(r0) / (1.0 + du0_fn(r0) * t)
    return r, u, rho


def _burgers_recon_error(n_paths):
    a = 0.3
    u0_fn = lambda r: a * r * np.exp(-r * r)
    du0_fn = lambda r: a * np.exp(-r * r) * (1 - 2 * r * r)
    rho0_fn = lambda r: np.exp(-r * r)
    params = ModelParams(n=1, kappa=1, model=Model.INVISCID_BURGERS)
    rho0 = gaussian_bump(1.0, 1.0, r_max=3.0, n_nodes=2001)
    u0 = gaussian_velocity(a, 1.0, r_max=3.0, n_nodes=2001)
    res = simulate_ep(rho0, u0, params, n_paths=n_paths, t_end=0.5,
                      n_snapshots=2,
                      config=IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    snap = res.snapshots[-1]
    # exact fields at the advected path radii (seeded at cell centers)
    edges = np.linspace(0.0, 3.0, n_paths + 1)
    r0 = 0.5 * (edges[:-1] + edges[1:])
    r_ex, u_ex, rho_ex = _burgers_exact_fields(u0_fn, du0_fn, rho0_fn, r0, 0.5)
    assert np.max(np.abs(snap.r - r_ex)) < 1e-8
    assert np.max(np.abs(snap.u - u_ex)) < 1e-8
    inner = slice(2, -2)
    return float(np.max(np.abs(snap.rho[inner] - rho_ex[inner])))


def test_burgers_analytic_advection_second_order():
    err_n = _burgers_recon_error(100)
    err_2n = _burgers_recon_error(200)
    assert err_n < 5e-4
    assert err_2n <= err_n / 2.0


def test_ep_paths_decouple_exactly():
    rho0 = gaussian_bump(1.0, 1.0, r_max=2.0, n_nodes=801)
    u0 = rexp_velocity(0.5, 4.0, r_max=2.0, n_nodes=801)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
    res = simulate_ep(rho0, u0, EP3, n_paths=24, t_end=5.0, n_snapshots=3,
                      config=cfg)
    snap = res.snapshots[-1]
    states = snap.extras["states"]
    from radial_euler.euler_poisson import initial_s_from_density
    edges = np.linspace(0.0, 2.0, 25)
    centers = 0.5 * (edges[:-1] + edges[1:])
    for i in (0, 11, 23):
        r_i = centers[i]
        y0 = (float(u0.derivative(r_i)), float(u0(r_i)) / r_i,
              initial_s_from_density(rho0, 0.0, r_i, 3.0), float(rho0(r_i)))
        ref = integrate(ep_full_system(EP3), y0,
                        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13,
                                         t_max=5.0))
        assert np.allclose(states[i], ref.sample(snap.time), rtol=1e-7,
                           atol=1e-9)


def test_ep_expanding_run_stays_regular():
    rho0 = gaussian_bump(1.0, 1.0, r_max=2.5, n_nodes=801)
    u0 = rexp_velocity(1.0, 4.0, r_max=2.5, n_nodes=801)   # u0_r > 0 everywhere
    res = simulate_ep(rho0, u0, EP3, n_paths=60, t_end=50.0, n_snapshots=11)
    assert res.blowup is None
    series = diagnostics_series(res.snapshots)
    tail = series["max_grad"][5:]
    assert np.all(np.diff(tail) < 1e-10)   # decreasing after the transient
    assert np.max(np.abs(series["mass_total"] - series["mass_total"][0])) == 0.0


def test_ep_slab_blowup_matches_path_estimates():
    params = ModelParams(n=1, kappa=1, c=0)
    rho0 = gaussian_bump(0.55, 1.0, r_max=2.0, n_nodes=801)
    u0 = linear_velocity(-0.9, r_max=2.0, n_nodes=801)
    res = simulate_ep(rho0, u0, params, n_paths=40, t_end=30.0, n_snapshots=4)
    assert res.blowup is not None and res.blowup.kind in ("p", "rho")
    # independent per-path classification oracle
    from radial_euler.euler_poisson import initial_s_from_density
    edges = np.linspace(0.0, 2.0, 41)
    centers = 0.5 * (edges[:-1] + edges[1:])
    estimates = []
    for r_i in centers:
        st = CharState(p=float(u0.derivative(r_i)), q=float(u0(r_i)) / r_i,
                       s=initial_s_from_density(rho0, 0.0, r_i, 1.0),
                       rho=float(rho0(r_i)))
        out = classify_ep(st, params, IntegratorConfig(t_max=30.0),
                          confirm=False)
        if out.is_blowup:
            estimates.append(out.t_estimate)
    assert estimates
    t_oracle = min(estimates)
    assert abs(res.blowup.time - t_oracle) <= 0.02 * t_oracle


def test_ep_compression_never_reaches_origin():
    params = ModelParams(n=2, kappa=1, c=0)
    rho0 = gaussian_bump(1.0, 1.0, r_max=2.5, n_nodes=801)
    # inward flow inside r < 1, expanding tail: compression without blowup
    r = np.linspace(0.0, 2.5, 801)
    from radial_euler import ProfileKind, RadialProfile
    u0 = RadialProfile(r, 0.3 * r * (r - 1.0), ProfileKind.VELOCITY)
    res = simulate_ep(rho0, u0, params, n_paths=50, t_end=20.0, n_snapshots=9)
    assert np.any(res.snapshots[0].u < 0.0)
    assert res.blowup is None
    series = diagnostics_series(res.snapshots)
    assert np.all(series["min_radius"] > 0.0)
    # r_i(t) >= r_i(0) exp(-int max|q|): bound with the observed q history
    q_sup = np.array([np.max(np.abs(s.q)) for s in res.snapshots])
    bound = series["min_radius"][0] * math.exp(
        -np.trapezoid(q_sup, series["t"]))
    assert np.min(series["min_radius"]) >= 0.9 * bound


def test_supercritical_gradient_explodes_before_estimate():
    params = ModelParams(n=1, kappa=1, c=0)
    rho0 = gaussian_bump(0.55, 1.0, r_max=2.0, n_nodes=801)
    u0 = linear_velocity(-0.9, r_max=2.0, n_nodes=801)
    res = simulate_ep(rho0, u0, params, n_paths=40, t_end=30.0, n_snapshots=4)
    last = res.snapshots[-1]
    assert last.time < res.blowup.time
    assert np.max(np.abs(last.extras["states"][:, 0])) > 1e6
    assert last.max_grad > 1e2


def test_model_core_identities_on_reconstruction():
    rho0 = gaussian_bump(1.0, 1.0, r_max=2.5, n_nodes=801)
    u0 = rexp_velocity(1.0, 4.0, r_max=2.5, n_nodes=801)
    res = simulate_ep(rho0, u0, EP3, n_paths=40, t_end=5.0, n_snapshots=3)
    snap = res.snapshots[-1]
    for i in range(0, 40, 7):
        assert snap.d[i] == pytest.approx(divergence(snap.p[i], snap.q[i], 3),
                                          rel=1e-12, abs=1e-12)
        assert snap.eta[i] == pytest.approx(
            spectral_gap(snap.p[i], snap.q[i], 3), rel=1e-12, abs=1e-12)


def test_pde_requires_integer_dimension():
    rho0 = indicator(1.0, 1.0)
    with pytest.raises(ValueError):
        simulate_ep(rho0, zero_velocity(1.0),
                    ModelParams(n=2.5, kappa=1, c=0), n_paths=10, t_end=1.0)


# ---------------------------------------------------------------------------
# Euler-alignment ensemble

def test_ea_constant_influence_matches_damped_burgers():
    # phi constant reduces per path to damped Burgers with kd = mass
    params = ModelParams(n=1, kappa=1, model=Model.EULER_ALIGNMENT)
    rho0 = indicator(0.25, 1.0, n_nodes=201)       # mass = 0.5 in n = 1
    kd = rho0.mass(1)
    phi = constant_influence(1.0)
    # subcritical slope: u0_r = -0.5 kd > -kd, no crossing
    u_sub = linear_velocity(-0.5 * kd, r_max=1.0, n_nodes=201)
    res = simulate_ea(rho0, u_sub, phi, params, n_paths=80, t_end=10.0,
                      n_snapshots=6)
    assert res.blowup is None
    # supercritical slope: u0_r = -1.5 kd < -kd crosses at t = ln(3)/kd
    u_sup = linear_velocity(-1.5 * kd, r_max=1.0, n_nodes=201)
    res2 = simulate_ea(rho0, u_sup, phi, params, n_paths=120, t_end=12.0,
                       n_snapshots=6)
    assert res2.blowup is not None and res2.blowup.kind == "crossing"
    t_exact = math.log(3.0) / kd
    assert abs(res2.blowup.time - t_exact) <= 0.05 * t_exact


def test_ea_one_dimension_G_over_rho_invariant():
    params = ModelParams(n=1, kappa=1, model=Model.EULER_ALIGNMENT)
    rho0 = gaussian_bump(0.5, 0.4, r_max=1.2, n_nodes=401)
    u0 = gaussian_velocity(0.15, 0.5, r_max=1.2, n_nodes=401)
    phi = power_law_influence(0.5, 1.0)
    res = simulate_ea(rho0, u0, phi, params, n_paths=200, t_end=8.0,
                      n_snapshots=5)
    assert res.blowup is None
    first, last = res.snapshots[0], res.snapshots[-1]
    inner = slice(10, -10)
    ratio0 = (first.extras["G"] / first.rho)[inner]
    ratio1 = (last.extras["G"] / last.rho)[inner]
    assert np.max(np.abs(ratio1 - ratio0) / np.abs(ratio0)) < 0.01


def test_ea_flocking_fast_alignment():
    params = ModelParams(n=2, kappa=1, model=Model.EULER_ALIGNMENT)
    rho0 = indicator(0.3, 1.0, n_nodes=201)
    u0 = gaussian_velocity(0.4, 0.6, r_max=1.0, n_nodes=201)
    phi = power_law_influence(0.5, 1.0)
    D = 1.6
    bounds = compute_bounds(rho0, u0, phi, D=D, n=2)
    res = simulate_ea(rho0, u0, phi, params, n_paths=80, t_end=25.0,
                      n_snapshots=11)
    assert res.blowup is None
    series = diagnostics_series(res.snapshots)
    v0 = series["V"][0]
    decay = v0 * np.exp(-bounds.nu * series["t"])
    assert np.all(series["V"] <= decay * (1 + 1e-9))
    assert np.all(series["support_radius"] <= D)
    assert estimate_flock_diameter(res) <= D
    # mass conserved to machine precision
    assert np.max(np.abs(series["mass_total"] - series["mass_total"][0])) == 0.0
    # influence stays within the theoretical bracket while supported in D
    for snap in res.snapshots:
        psi = snap.extras["psi"]
        assert np.all(psi >= bounds.psi_min - 1e-8)
        assert np.all(psi <= bounds.psi_max + 1e-8)


def test_ea_diagnostics_bkm_accumulates():
    params = ModelParams(n=2, kappa=1, model=Model.EULER_ALIGNMENT)
    rho0 = indicator(0.3, 1.0, n_nodes=201)
    u0 = gaussian_velocity(0.3, 0.6, r_max=1.0, n_nodes=201)
    res = simulate_ea(rho0, u0, power_law_influence(0.5, 1.0), params,
                      n_paths=50, t_end=5.0, n_snapshots=6)
    series = diagnostics_series(res.snapshots)
    assert series["bkm_integral"][0] == 0.0
    assert np.all(np.diff(series["bkm_integral"]) >= 0.0)
    assert np.isfinite(series["bkm_integral"][-1])


def test_ea_snapshot_count_and_times():
    # the automatic step count here is not a multiple of 10 snapshot intervals
    params = ModelParams(n=2, kappa=1, model=Model.EULER_ALIGNMENT)
    rho0 = indicator(0.3, 1.0, n_nodes=201)
    u0 = gaussian_velocity(0.4, 0.6, r_max=1.0, n_nodes=201)
    phi = power_law_influence(0.5, 1.0)
    res = simulate_ea(rho0, u0, phi, params, n_paths=20, t_end=25.0,
                      n_snapshots=11)
    psi_max = phi.sup_phi * float(np.sum(res.snapshots[0].masses))
    n_steps = math.ceil(25.0 / min(0.1 / psi_max, 2.5))
    assert n_steps % 10 != 0
    step = 25.0 / n_steps
    times = np.array([snap.time for snap in res.snapshots])
    assert len(times) == 11
    assert np.all(np.abs(times - np.linspace(0.0, 25.0, 11)) <= step)


# ---------------------------------------------------------------------------
# lockstep ensembles, bit for bit against the per-path and dense forms

def _dense_kernels(r, phi, n, cos_theta, w):
    """Every (i, j) pair evaluated, the form the triangle kernel replaces."""
    if n == 1:
        km = phi.phi(np.abs(r[:, None] - r[None, :]))
        kp = phi.phi(r[:, None] + r[None, :])
        return 0.5 * (km + kp), 0.5 * (km - kp)
    rr = r[:, None, None]
    ss = r[None, :, None]
    dist = np.sqrt(np.maximum(rr * rr + ss * ss - 2.0 * rr * ss * cos_theta, 0.0))
    vals = phi.phi(dist)
    return vals @ w, vals @ (w * cos_theta)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_triangle_kernels_match_dense(n):
    from radial_euler.alignment import _angular_rule
    from radial_euler.pde import _particle_kernels
    rng = np.random.default_rng(n)
    phi = power_law_influence(0.5, 1.0)
    cos_theta = w = weights = None
    if n > 1:
        theta, w = _angular_rule(n, 32)
        cos_theta = np.cos(theta)
        weights = np.stack((w, w * cos_theta))
    for n_paths in (1, 7, 8, 33, 80):
        r = np.sort(rng.uniform(0.01, 2.5, n_paths))
        got = _particle_kernels(r, phi, n, cos_theta, weights)
        want = _dense_kernels(r, phi, n, cos_theta, w)
        for k_got, k_want in zip(got, want):
            assert np.array_equal(k_got, k_got.T)
            if n == 1 or n_paths % 8 == 0:
                assert np.array_equal(k_got, k_want)
            else:
                # The dense (N, N, T) @ (T,) runs one BLAS gemv per row of
                # the (N, N) result, and OpenBLAS sums the last N % 4 entries
                # of each in its remainder loop, whose rounding differs: the
                # dense matrices are then not even symmetric.  The triangle
                # runs one gemv over all pairs, so at most its last few pairs
                # take that loop; both stay within a few ulps of the sum of
                # |terms|, which phi <= 1 and weights summing to ~1 keep O(1).
                assert np.max(np.abs(k_got - k_want)) <= 4 * np.finfo(float).eps


def _one_shot_kernels(r, phi, n, cos_theta, w):
    """The n >= 2 pair kernel with all (pairs, T) values in one array."""
    i, j = np.triu_indices(len(r))
    a, b = r[i][:, None], r[j][:, None]
    dist = 2.0 * a * b * cos_theta
    np.subtract(a * a + b * b, dist, out=dist)
    vals = phi.phi(np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist))
    pair_phi, pair_zeta = vals @ w[0], vals @ w[1]
    k_phi = np.empty((len(r), len(r)))
    k_zeta = np.empty((len(r), len(r)))
    k_phi[i, j] = k_phi[j, i] = pair_phi
    k_zeta[i, j] = k_zeta[j, i] = pair_zeta
    return k_phi, k_zeta


def _angular_weights(n, theta_order):
    from radial_euler.alignment import _angular_rule
    from radial_euler.core import sphere_area
    theta, w = _angular_rule(n, theta_order)
    cos_theta, w = np.cos(theta), w * (sphere_area(n - 1) / sphere_area(n))
    return cos_theta, np.stack((w, w * cos_theta))


def _blocked_mismatches():
    """(n, T, N, phi) cases where the blocked kernel is not the one-shot's."""
    from radial_euler.alignment import INFLUENCE_LIBRARY
    from radial_euler.pde import _particle_kernels
    rng = np.random.default_rng(5)
    bad = []
    for n in (2, 3):
        for theta_order in (8, 32, 48, 192):
            cos_theta, w = _angular_weights(n, theta_order)
            # 62, 65, 126, 129 and 513 paths leave a one-pair tail at some T
            for n_paths in (1, 2, 7, 33, 62, 65, 80, 81, 126, 129, 200, 513):
                r = np.sort(rng.uniform(0.01, 2.5, n_paths))
                if n_paths * (n_paths + 1) // 2 * theta_order > 5_000_000:
                    continue   # keeps each one-shot array under 40 MB
                for name, factory in sorted(INFLUENCE_LIBRARY.items()):
                    got = _particle_kernels(r, factory(), n, cos_theta, w)
                    want = _one_shot_kernels(r, factory(), n, cos_theta, w)
                    if not all(map(np.array_equal, got, want)):
                        bad.append((n, theta_order, n_paths, name))
    return bad


def test_blocked_kernels_match_one_shot():
    # One BLAS thread: a threaded gemv over all pairs splits them at a
    # thread boundary that is not a multiple of its 4-row kernel, so the
    # one-shot sums themselves change with the thread count.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(radial_euler.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", "import test_pde; print(test_pde._blocked_mismatches())"],
        cwd=Path(__file__).parent, env=env, capture_output=True, text=True,
        timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_kernel_memory_does_not_scale_with_theta():
    import tracemalloc
    from radial_euler.pde import _particle_kernels
    r = np.sort(np.random.default_rng(0).uniform(0.01, 2.5, 200))
    phi = power_law_influence(0.5, 1.0)
    peaks = {}
    for theta_order in (8, 192):
        cos_theta, w = _angular_weights(2, theta_order)
        _particle_kernels(r, phi, 2, cos_theta, w)   # caches the pair indices
        tracemalloc.start()
        try:
            _particle_kernels(r, phi, 2, cos_theta, w)
            peaks[theta_order] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # O(N^2) pair columns and matrices plus one block: about 1.7 MB here,
    # where a (pairs, T) array alone is 20100 * 192 * 8 B = 31 MB
    assert peaks[192] - peaks[8] < 256 * 1024
    assert peaks[192] < 4 * 1024 * 1024


def _simulate_ep_per_path(rho0, u0, params, n_paths, config, t_end, n_snapshots):
    """simulate_ep with one scalar ``integrate`` per path, read back by sampling."""
    from dataclasses import replace

    from radial_euler.euler_poisson import initial_s_from_density
    from radial_euler.odeint import Termination
    from radial_euler.pde import BlowupReport, _path_system, _seed_ensemble
    ens = _seed_ensemble(rho0, u0, params, n_paths)
    system = _path_system(params)
    cfg = replace(config, t_max=t_end)
    records, blowup, t_cover = [], None, t_end
    for i, r_i in enumerate(ens.r):
        s_i = (initial_s_from_density(rho0, params.c, r_i, params.n)
               if params.model is Model.EULER_POISSON else 0.0)
        rec = integrate(system, [float(u0.derivative(r_i)), float(ens.u[i] / r_i),
                                 s_i, float(rho0(r_i)), r_i], cfg)
        records.append(rec)
        end = rec.termination
        if end is Termination.BLOWUP_DETECTED:
            if blowup is None or rec.blowup_time < blowup.time:
                blowup = BlowupReport(rec.blowup_time,
                                      system.label(rec.blowup_component), i,
                                      float(rec.y_final[4]))
        elif end is Termination.STEP_COLLAPSE:
            if blowup is None or rec.t_final < blowup.time:
                blowup = BlowupReport(rec.t_final, "step-collapse", i,
                                      float(rec.y_final[4]))
        t_cover = min(t_cover, rec.t_final)
    times = np.linspace(0.0, t_end, n_snapshots)
    times = times[times <= t_cover * (1 + 1e-12)]
    if blowup is not None and t_cover * (1 - 1e-9) > (times[-1] if len(times) else 0.0):
        times = np.append(times, t_cover * (1 - 1e-9))
    snapshots = []
    for t in times:
        state = np.array([rec.sample(min(t, rec.t_final)) for rec in records])
        ens_t = CharacteristicEnsemble(t=float(t), r=state[:, 4],
                                       u=state[:, 4] * state[:, 1],
                                       masses=ens.masses, params=params,
                                       states=state[:, :4])
        try:
            snap = reconstruct_fields(ens_t)
        except CrossingError as exc:
            if blowup is None or exc.time < blowup.time:
                blowup = BlowupReport(exc.time, "crossing", exc.index, exc.radius)
            break
        snap.extras["states"] = ens_t.states
        snapshots.append(snap)
    return snapshots, blowup


@pytest.mark.parametrize("case", ["ep3-expanding", "ep1-slab-blowup",
                                  "burgers", "burgers-blowup"])
def test_simulate_ep_lanes_match_per_path(case):
    params, rho0, u0, t_end, n_snapshots = {
        "ep3-expanding": (EP3, gaussian_bump(1.0, 1.0, r_max=2.5, n_nodes=801),
                          rexp_velocity(1.0, 4.0, r_max=2.5, n_nodes=801), 20.0, 11),
        "ep1-slab-blowup": (ModelParams(n=1, kappa=1, c=0),
                            gaussian_bump(0.55, 1.0, r_max=2.0, n_nodes=801),
                            linear_velocity(-0.9, r_max=2.0, n_nodes=801), 30.0, 4),
        "burgers": (ModelParams(n=1, kappa=1, model=Model.INVISCID_BURGERS),
                    gaussian_bump(1.0, 1.0, r_max=3.0, n_nodes=601),
                    gaussian_velocity(0.3, 1.0, r_max=3.0, n_nodes=601), 0.5, 2),
        "burgers-blowup": (ModelParams(n=2, kappa=1, model=Model.DAMPED_BURGERS,
                                       kappa_damp=0.2),
                           gaussian_bump(1.0, 1.0, r_max=2.0, n_nodes=401),
                           gaussian_velocity(-1.0, 1.0, r_max=2.0, n_nodes=401),
                           5.0, 6),
    }[case]
    cfg = IntegratorConfig()
    res = simulate_ep(rho0, u0, params, n_paths=40, config=cfg, t_end=t_end,
                      n_snapshots=n_snapshots)
    ref_snaps, ref_blowup = _simulate_ep_per_path(rho0, u0, params, 40, cfg,
                                                  t_end, n_snapshots)
    assert res.blowup == ref_blowup
    assert (res.blowup is not None) == case.endswith("blowup")
    assert [s.time for s in res.snapshots] == [s.time for s in ref_snaps]
    for snap, ref in zip(res.snapshots, ref_snaps):
        assert np.array_equal(snap.extras["states"], ref.extras["states"])
        for name in ("r", "u", "rho", "p", "q"):
            assert np.array_equal(getattr(snap, name), getattr(ref, name))


EA2 = ModelParams(n=2, kappa=1, c=0, model=Model.EULER_ALIGNMENT)


@pytest.mark.parametrize("model, argument, value", [
    (Model.EULER_ALIGNMENT, "n_paths", 1),
    (Model.EULER_ALIGNMENT, "n_paths", 0),
    (Model.EULER_ALIGNMENT, "t_end", 0.0),
    (Model.EULER_ALIGNMENT, "t_end", -1.0),
    (Model.EULER_ALIGNMENT, "t_end", math.nan),
    (Model.EULER_ALIGNMENT, "n_snapshots", 0),
    (Model.EULER_ALIGNMENT, "theta_order", 0),
    (Model.EULER_ALIGNMENT, "dt", -0.1),
    (Model.EULER_POISSON, "n_paths", 1),
    (Model.EULER_POISSON, "t_end", 0.0),
    (Model.EULER_POISSON, "t_end", -1.0),
    (Model.EULER_POISSON, "n_snapshots", 0),
])
def test_simulate_bad_run_size_refused_from_python(model, argument, value):
    rho0, u0 = gaussian_bump(1.0, 1.0, r_max=2.5, n_nodes=101), rexp_velocity(1.0, 4.0)
    sizes = dict(n_paths=20, t_end=1.0, n_snapshots=3)
    sizes[argument] = value
    with pytest.raises(ValueError, match=rf"^{argument} must be .*, got "):
        if model is Model.EULER_ALIGNMENT:
            simulate_ea(rho0, u0, power_law_influence(0.5, 1.0), EA2, **sizes)
        else:
            simulate_ep(rho0, u0, EP3, **sizes)


def test_simulate_ea_zero_dt_picks_stability_bound():
    rho0, u0 = gaussian_bump(1.0, 1.0, r_max=2.5, n_nodes=101), rexp_velocity(1.0, 4.0)
    runs = [simulate_ea(rho0, u0, power_law_influence(0.5, 1.0), EA2, n_paths=12,
                        t_end=0.5, n_snapshots=2, dt=dt) for dt in (None, 0.0)]
    assert all(np.array_equal(a.u, b.u) and a.time == b.time
               for a, b in zip(runs[0].snapshots, runs[1].snapshots))
