import math

import numpy as np
import pytest

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
