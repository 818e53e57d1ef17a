"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from radial_euler import (AlignmentBounds, CharState, IntegratorConfig, Model,
                          ModelParams, Region, Verdict, classify_ep,
                          comparison_classify, compute_bounds, compute_dcrit,
                          compute_threshold_constants, constant_influence,
                          divergence, enhanced_curve, eval_psi, eval_zeta,
                          exponential_influence, explicit_sigma_plus,
                          gap_consistency_check, gaussian_bump,
                          gaussian_velocity, grad_u_matrix, indicator,
                          linear_velocity, power_law_influence,
                          qs_phase_portrait, sigma_1d, simulate_ea,
                          simulate_ep, spectral_gap, diagnostics_series)
from radial_euler.config import parse_config_text
from radial_euler.euler_poisson import initial_s_from_density, integrate_qs
from radial_euler.odeint import estimate_decay_exponent
from radial_euler.sweep import run_sweep


def report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


SWEEP_TEMPLATE = """
[model]
kind = euler-poisson
n = 1
kappa = 1.0
c = {c}

[integrator]
rel_tol = 1e-6
abs_tol = 1e-8

[sweep]
axis1 = p0
axis1_min = -4.0
axis1_max = 4.0
axis1_steps = 50
axis2 = rho0
axis2_min = 0.1
axis2_max = 4.0
axis2_steps = 50
"""


def _one_cell_band(exact: np.ndarray) -> np.ndarray:
    """Cells whose 8-neighborhood (edge-padded) crosses the exact boundary."""
    padded = np.pad(exact, 1, mode="edge")
    band = np.zeros_like(exact, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            band |= padded[di:di + exact.shape[0],
                           dj:dj + exact.shape[1]] != exact
    return band


def test_criterion_01_sharp_1d_region():
    t0 = time.perf_counter()
    bad = 0
    total_band = 0
    for c in (0.0, 1.0):
        cfg = parse_config_text(SWEEP_TEMPLATE.format(c=c))
        res = run_sweep(cfg)
        exact = np.array([[0 if sigma_1d(p, r, 1.0, c) is Region.SUBCRITICAL
                           else 2 for r in res.axis2] for p in res.axis1])
        band = _one_cell_band(exact)
        total_band += int(band.sum())
        bad += int(np.sum((res.codes != exact) & ~band))
    elapsed = time.perf_counter() - t0
    report(1, "1D Euler-Poisson sharp region (50x50, c=0 and c=1)",
           bad == 0 and elapsed < 60.0,
           f"mismatches={bad}, band cells={total_band}, runtime={elapsed:.1f}s")


def test_criterion_02_damped_burgers_sharpness():
    bad = 0
    checked = 0
    for kappa in (0.5, 1.0, 2.0):
        params = ModelParams(n=3, kappa=1.0, model=Model.DAMPED_BURGERS,
                             kappa_damp=kappa)
        grid = np.linspace(-2 * kappa, kappa, 21)
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
        for p0 in grid:
            for q0 in grid:
                if min(abs(p0 + kappa), abs(q0 + kappa)) <= 1e-2:
                    continue
                checked += 1
                out = classify_ep(CharState(p=p0, q=q0, rho=1.0), params, cfg)
                want = p0 >= -kappa and q0 >= -kappa
                if out.is_bounded != want or \
                        out.verdict is Verdict.INCONCLUSIVE:
                    bad += 1
    report(2, "damped Burgers sharp threshold, kappa in {0.5, 1, 2}",
           bad == 0, f"mismatches={bad}/{checked}")


def test_criterion_03_qs_boundedness_and_decay():
    q0s = np.linspace(-5.0, 5.0, 10)
    s0s = np.linspace(0.2, 2.0, 10)
    failures = []
    for n in (2.0, 2.5, 3.0, 4.0):
        params = ModelParams(n=n, kappa=1.0, c=0.0)
        for q0 in q0s:
            for s0 in s0s:
                run = integrate_qs(params, float(q0), float(s0), 1000.0)
                if not run.bounded:
                    failures.append((n, q0, s0, "cap"))
                    continue
                eq = estimate_decay_exponent(run.record, 0, (50.0, 500.0))
                es = estimate_decay_exponent(run.record, 1, (50.0, 500.0))
                if abs(eq + 1.0) > 0.1:
                    failures.append((n, q0, s0, f"q-exp {eq:.3f}"))
                if n >= 3.0:
                    if abs(es + n) > 0.1:
                        failures.append((n, q0, s0, f"s-exp {es:.3f}"))
                elif es > -1.9:
                    failures.append((n, q0, s0, f"s-exp {es:.3f}"))
    report(3, "(q,s) boundedness and decay rates, n in {2, 2.5, 3, 4}",
           not failures, f"failures={failures[:4]}")


def test_criterion_04_periodic_orbits():
    seeds = [(0.5, 0.5), (-0.4, 0.6), (0.3, 0.2), (0.0, 1.0), (0.8, -0.1),
             (0.2, 0.8), (-0.6, 1.2), (0.1, -0.2), (1.0, 0.3), (-0.2, 0.1)]
    params = ModelParams(n=2, kappa=1.0, c=1.0)
    cfg = IntegratorConfig(t_max=120, rel_tol=1e-10, abs_tol=1e-12, h_max=0.5)
    bad = []
    for seed in seeds:
        t1 = qs_phase_portrait(params, [seed], cfg)[0]
        t2 = qs_phase_portrait(params, [seed], cfg.tightened(0.5))[0]
        if t1.outcome != "periodic-orbit" or t1.closure >= 1e-4:
            bad.append((seed, "closure", t1.closure))
        elif abs(t1.period - t2.period) >= 1e-6:
            bad.append((seed, "period drift", abs(t1.period - t2.period)))
    report(4, "positive-background periodic orbits (10 seeds)",
           not bad, f"failures={bad[:3]}")


def _y_min_oracle(v0, gamma, kappa, d):
    """Golden-section minimum of y(t), with a log-grid bracket."""
    def y(t):
        return (v0 + (kappa / (gamma + 1) - d) * t
                - kappa / (gamma * (gamma + 1)) * (1 - (t + 1) ** -gamma))
    tt = np.concatenate(([0.0], np.logspace(-6, 18, 4000)))
    vals = y(tt)
    k = int(np.argmin(vals))
    if k in (0, len(tt) - 1):
        return float(vals[k])
    try:
        res = minimize_scalar(y, bracket=(tt[k - 1], tt[k], tt[k + 1]),
                              method="golden", options={"xtol": 1e-12})
        return float(res.fun)
    except ValueError:
        # minimum flat to fp resolution: the grid value is already exact
        return float(vals[k])


def test_criterion_05_dcrit_against_minimization():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        v0 = rng.uniform(0.02, 2.0)
        gamma = rng.uniform(0.05, 3.0)
        kappa = rng.uniform(0.1, 3.0)
        d_lib = compute_dcrit(v0, gamma, kappa)
        lo, hi = 0.0, kappa / (gamma + 1.0) * (1 + 1e-12)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _y_min_oracle(v0, gamma, kappa, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(d_lib - 0.5 * (lo + hi)))
    report(5, "D_crit matches direct minimization oracle (100 triples)",
           worst <= 1e-8, f"max |diff|={worst:.2e}")


def test_criterion_06_explicit_multi_d_bound():
    params = ModelParams(n=3, kappa=1.0, c=0.0)
    q0, s0 = 1.0, 0.01
    consts = compute_threshold_constants(params, (q0, s0))
    rng = np.random.default_rng(7)
    bad = []
    for v0 in rng.uniform(0.2, 2.0, 20):
        rho0 = 1.0 / v0
        w_thr = explicit_sigma_plus(float(v0), consts, 1.0, 3.0)
        st = CharState(p=rho0 * (w_thr + 0.05), q=q0, s=s0, rho=rho0)
        out = classify_ep(st, params)
        if not out.is_bounded:
            bad.append(("sub", float(v0), out.verdict.value))
        st2 = CharState(p=rho0 * (-consts.C - 0.05), q=q0, s=s0, rho=rho0)
        out2 = classify_ep(st2, params)
        if not out2.is_blowup:
            bad.append(("super", float(v0), out2.verdict.value))
    report(6, "explicit n=3 bound: above -sigma_+ bounded, below -C blowup",
           not bad, f"failures={bad[:3]}")


def test_criterion_07_kernel_bounds():
    combos = [
        (constant_influence(0.7), indicator(1.0, 1.0, n_nodes=401), 1.0, 2),
        (constant_influence(0.7), gaussian_bump(1.0, 1.0, 6.0, 1601), 6.0, 3),
        (constant_influence(0.7), indicator(0.5, 2.0, n_nodes=401), 2.0, 1),
        (power_law_influence(0.5, 1.0), indicator(1.0, 1.0, n_nodes=401), 1.0, 2),
        (power_law_influence(0.5, 1.0), gaussian_bump(1.0, 1.0, 6.0, 1601), 6.0, 1),
        (power_law_influence(0.5, 1.0), indicator(0.5, 2.0, n_nodes=401), 2.0, 3),
        (exponential_influence(1.0), indicator(1.0, 1.0, n_nodes=401), 1.0, 3),
        (exponential_influence(1.0), gaussian_bump(1.0, 1.0, 6.0, 1601), 6.0, 2),
        (exponential_influence(1.0), indicator(0.5, 2.0, n_nodes=401), 2.0, 1),
    ]
    bad = []
    for phi, rho, D, n in combos:
        u = linear_velocity(0.5, r_max=rho.r_max, n_nodes=301)
        b = compute_bounds(rho, u, phi, D=D, n=n)
        for r in np.linspace(0.0, D, 9):
            psi = eval_psi(rho, phi, float(r), n)
            if not (b.psi_min - 1e-10 <= psi <= b.psi_max + 1e-10):
                bad.append((phi.name, n, float(r), "psi", psi))
        for r in np.linspace(0.08 * D, D, 9):
            zeta = eval_zeta(rho, u, phi, float(r), n)
            if abs(zeta) / r > b.C0 + 1e-10:
                bad.append((phi.name, n, float(r), "zeta", abs(zeta) / r))
            if phi.sup_phi_prime == 0.0 and abs(zeta) > 1e-12:
                bad.append((phi.name, n, float(r), "zeta-const", zeta))
    report(7, "alignment kernel bounds (3 influences x 3 densities)",
           not bad, f"failures={bad[:3]}")


def test_criterion_08_curve_endpoints_and_limits():
    b = AlignmentBounds.explicit(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.0)
    checks = []
    for kind, want in [("sigma_q_plus", -0.8), ("sigma_q_minus", -1.0),
                       ("sigma_G_plus", 0.0), ("sigma_G_minus", 0.0)]:
        c = enhanced_curve(kind, b, 2, 0.3)
        checks.append(abs(float(c(1e-7)) - want) < 1e-6)
    for kind in ("sigma_G_plus", "sigma_G_minus"):
        c = enhanced_curve(kind, b, 1, 0.3)
        checks.append(float(np.max(np.abs(c.values))) == 0.0)
    kap = 1.3   # constant influence: psi_min = psi_max = nu = mass * phi
    bc = AlignmentBounds.explicit(psi_min=kap, psi_max=kap, nu=kap, C0=0.0)
    checks.append(abs(enhanced_curve("sigma_q_plus", bc, 3, 0.2).value_at_zero
                      + kap) < 1e-12)
    checks.append(abs(enhanced_curve("sigma_q_minus", bc, 3, 0.2).value_at_zero
                      + kap) < 1e-12)
    checks.append(enhanced_curve("sigma_G_plus", bc, 3, 0.2).value_at_zero == 0.0)
    checks.append(enhanced_curve("sigma_G_minus", bc, 3, 0.2).value_at_zero == 0.0)
    report(8, "threshold curve endpoints, 1D degeneracy, constant-phi limit",
           all(checks), f"checks={checks}")


def test_criterion_09_curve_classifier_consistency():
    b = AlignmentBounds.explicit(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.0)
    bad = []
    for kind, var, side in [("sigma_q_plus", "q", "+"),
                            ("sigma_q_minus", "q", "-"),
                            ("sigma_G_plus", "G", "+"),
                            ("sigma_G_minus", "G", "-")]:
        curve = enhanced_curve(kind, b, 2, 0.5)
        for x0 in np.linspace(0.02, 0.48, 20):
            sig = float(curve(float(x0)))
            up = comparison_classify(var, sig + 0.011, float(x0), b, 2,
                                     side=side)
            dn = comparison_classify(var, sig - 0.011, float(x0), b, 2,
                                     side=side)
            if not up.is_bounded:
                bad.append((kind, float(x0), "above"))
            if not dn.is_blowup:
                bad.append((kind, float(x0), "below"))
    report(9, "comparison classifier agrees with curves (40 seeds per curve)",
           not bad, f"failures={bad[:4]}")


def test_criterion_10_pde_cross_validation():
    problems = []

    # (a) blowup time vs per-path classification estimates, within 2%
    params1 = ModelParams(n=1, kappa=1.0, c=0.0)
    rho0 = gaussian_bump(0.55, 1.0, r_max=2.0, n_nodes=801)
    u0 = linear_velocity(-0.9, r_max=2.0, n_nodes=801)
    res = simulate_ep(rho0, u0, params1, n_paths=40, t_end=30.0, n_snapshots=3)
    if res.blowup is None:
        problems.append("no blowup detected")
    else:
        edges = np.linspace(0.0, 2.0, 41)
        centers = 0.5 * (edges[:-1] + edges[1:])
        est = []
        for r_i in centers:
            st = CharState(p=float(u0.derivative(r_i)),
                           q=float(u0(r_i)) / r_i,
                           s=initial_s_from_density(rho0, 0.0, r_i, 1.0),
                           rho=float(rho0(r_i)))
            out = classify_ep(st, params1, IntegratorConfig(t_max=30.0),
                              confirm=False)
            if out.is_blowup:
                est.append(out.t_estimate)
        t_oracle = min(est)
        if abs(res.blowup.time - t_oracle) > 0.02 * t_oracle:
            problems.append(f"blowup {res.blowup.time:.4f} vs {t_oracle:.4f}")

    # (b) flocking run: V(t) <= V(0) exp(-nu t) pointwise, exact mass
    params2 = ModelParams(n=2, kappa=1.0, model=Model.EULER_ALIGNMENT)
    rho_f = indicator(0.3, 1.0, n_nodes=201)
    u_f = gaussian_velocity(0.4, 0.6, r_max=1.0, n_nodes=201)
    phi = power_law_influence(0.5, 1.0)
    bounds = compute_bounds(rho_f, u_f, phi, D=1.6, n=2)
    res2 = simulate_ea(rho_f, u_f, phi, params2, n_paths=80, t_end=25.0,
                       n_snapshots=11)
    series = diagnostics_series(res2.snapshots)
    decay = series["V"][0] * np.exp(-bounds.nu * series["t"])
    if not np.all(series["V"] <= decay * (1 + 1e-9)):
        problems.append("V(t) exceeds the flocking envelope")
    if np.max(np.abs(series["mass_total"] - series["mass_total"][0])) != 0.0:
        problems.append("mass drift")

    # (c) 1D alignment: G/rho constant along paths within 1%
    params3 = ModelParams(n=1, kappa=1.0, model=Model.EULER_ALIGNMENT)
    rho_g = gaussian_bump(0.5, 0.4, r_max=1.2, n_nodes=401)
    u_g = gaussian_velocity(0.15, 0.5, r_max=1.2, n_nodes=401)
    res3 = simulate_ea(rho_g, u_g, phi, params3, n_paths=200, t_end=8.0,
                       n_snapshots=5)
    inner = slice(10, -10)
    r0 = (res3.snapshots[0].extras["G"] / res3.snapshots[0].rho)[inner]
    r1 = (res3.snapshots[-1].extras["G"] / res3.snapshots[-1].rho)[inner]
    if np.max(np.abs(r1 - r0) / np.abs(r0)) >= 0.01:
        problems.append("G/rho drifted more than 1%")

    report(10, "PDE cross-validation (blowup timing, flocking, 1D G/rho)",
           not problems, f"problems={problems}")


def test_criterion_11_algebraic_identities():
    rng = np.random.default_rng(123)
    worst = 0.0
    ok = True
    for _ in range(10_000):
        p, q = rng.uniform(-1e3, 1e3, 2)
        n = int(rng.integers(2, 7))
        scale = max(1.0, p * p, q * q)
        resid = gap_consistency_check(p, q, n) / scale
        worst = max(worst, resid)
        if resid > 1e-12:
            ok = False
            break
        x = rng.normal(size=n)
        m = grad_u_matrix(x, p, q)
        if abs(np.trace(m) - divergence(p, q, n)) > 1e-12 * scale:
            ok = False
            break
        lam = [p] + [q] * (n - 1)
        eta_enum = 0.5 * sum((a - c) ** 2 for a in lam for c in lam)
        if abs(spectral_gap(p, q, n) - eta_enum) > 1e-12 * scale:
            ok = False
            break
    # absolute 1e-12 holds verbatim on order-one magnitudes
    for _ in range(2_000):
        p, q = rng.uniform(-1.0, 1.0, 2)
        n = int(rng.integers(2, 7))
        if gap_consistency_check(p, q, n) > 1e-12:
            ok = False
            break
    report(11, "algebraic identity suite on 1e4 random samples",
           ok, f"worst normalized residual={worst:.2e}")
