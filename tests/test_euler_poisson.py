import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from radial_euler import (CharState, IntegratorConfig, Model, ModelParams,
                          Region, Verdict, classify_ep, classify_ep_many,
                          compute_dcrit, compute_threshold_constants, constant,
                          explicit_sigma_plus, gaussian_bump,
                          initial_s_from_density, qs_phase_portrait,
                          qshat_integrate, qshat_system, sigma_1d, wv_system)
from radial_euler import euler_poisson
from radial_euler.euler_poisson import integrate_qs
from radial_euler.config import RunConfig
from radial_euler.odeint import VERDICT_CODES, integrate, integrate_lanes
from radial_euler.sweep import classify_cells

EP1 = ModelParams(n=1, kappa=1, c=0)
EP1C = ModelParams(n=1, kappa=1, c=1)


# ---------------------------------------------------------------------------
# initial s from density

def test_initial_s_constant_density():
    prof = constant(2.0, r_max=3.0)
    for n in (1.0, 2.0, 2.5, 3.0):
        assert initial_s_from_density(prof, 0.0, 1.7, n) == pytest.approx(
            2.0 / n, rel=1e-12)


def test_initial_s_matched_background_vanishes():
    prof = constant(1.5, r_max=2.0)
    assert initial_s_from_density(prof, 1.5, 1.0, 3.0) == pytest.approx(
        0.0, abs=1e-14)


def test_initial_s_gaussian_vs_reference_quadrature():
    prof = gaussian_bump(1.0, 1.0, r_max=2.0, n_nodes=1201)
    val = initial_s_from_density(prof, 0.0, 1.0, 2.0)
    ref, _ = quad(lambda t: t * math.exp(-t * t), 0.0, 1.0,
                  epsabs=1e-14, epsrel=1e-14)
    assert val == pytest.approx(ref, abs=1e-8)


def test_initial_s_outside_support():
    prof = constant(1.0, r_max=1.0)
    with pytest.raises(ValueError):
        initial_s_from_density(prof, 0.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# explicit 1D region

def test_sigma_1d_examples():
    assert sigma_1d(-1.9, 2.0, 1.0, 0.0) is Region.SUBCRITICAL
    assert sigma_1d(0.0, 1.0, 2.0, 1.0) is Region.SUBCRITICAL
    assert sigma_1d(-2.0, 2.0, 1.0, 0.0) is Region.SUPERCRITICAL  # boundary
    assert sigma_1d(1.5, 1.0, 1.0, 1.0) is Region.SUPERCRITICAL
    assert sigma_1d(0.0, 0.4, 1.0, 1.0) is Region.SUPERCRITICAL  # 2 rho < c


# ---------------------------------------------------------------------------
# classification

def test_classify_1d_examples():
    assert classify_ep(CharState(p=-1.9, rho=2.0), EP1).is_bounded
    out = classify_ep(CharState(p=-2.1, rho=2.0), EP1)
    assert out.is_blowup and out.t_estimate is not None
    assert classify_ep(CharState(p=1.5, rho=1.0), EP1C).is_blowup
    assert classify_ep(CharState(p=0.5, rho=1.0), EP1C).is_bounded


def test_classify_preconditions():
    with pytest.raises(ValueError):
        classify_ep(CharState(p=0.0, rho=-1.0), EP1)
    with pytest.raises(ValueError):
        classify_ep(CharState(p=0.0, s=-0.6, rho=1.0),
                    ModelParams(n=2, kappa=1, c=1))


def test_classify_multi_d_spec_example():
    # bounded (q, s) block keeps this compressive state classifiable
    params = ModelParams(n=3, kappa=1, c=0)
    out = classify_ep(CharState(p=0.0, q=-1.0, s=0.1, rho=1.0), params)
    assert out.verdict in (Verdict.GLOBAL_BOUNDED, Verdict.FINITE_TIME_BLOWUP)
    run = integrate_qs(params, -1.0, 0.1, 1000.0)
    assert run.bounded and abs(run.q_min) < 1e4 and run.s_max < 1e4


def test_classify_1d_grid_matches_explicit_region():
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    for c in (0.0, 1.0):
        params = ModelParams(n=1, kappa=1, c=c)
        for p0 in np.linspace(-3.5, 3.5, 12):
            for rho0 in np.linspace(0.15, 3.9, 12):
                exact = sigma_1d(p0, rho0, 1.0, c)
                if c == 0.0:
                    margin = abs(p0 + math.sqrt(2 * rho0))
                else:
                    bound = math.sqrt(max(2 * rho0 - c, 0.0))
                    margin = abs(abs(p0) - bound)
                if margin < 0.02:
                    continue
                out = classify_ep(CharState(p=p0, rho=rho0), params, cfg)
                want = Verdict.GLOBAL_BOUNDED if exact is Region.SUBCRITICAL \
                    else Verdict.FINITE_TIME_BLOWUP
                assert out.verdict is want, (c, p0, rho0)


def test_damped_burgers_reduction_sharpness():
    kd = 1.0
    params = ModelParams(n=3, kappa=1, model=Model.DAMPED_BURGERS, kappa_damp=kd)
    for p0 in (-1.5, -1.05, -1.0, -0.95, 0.0, 1.0):
        for q0 in (-1.5, -1.0, -0.5, 0.5):
            out = classify_ep(CharState(p=p0, q=q0, rho=1.0), params)
            want = p0 >= -kd and q0 >= -kd
            assert out.is_bounded == want, (p0, q0)


def test_inviscid_burgers_sharpness():
    params = ModelParams(n=2, kappa=1, model=Model.INVISCID_BURGERS)
    assert classify_ep(CharState(p=0.0, q=0.1, rho=1.0), params).is_bounded
    assert classify_ep(CharState(p=-0.1, q=0.5, rho=1.0), params).is_blowup
    assert classify_ep(CharState(p=0.3, q=-0.05, rho=1.0), params).is_blowup


def _grid(p0s, rho0s, **fixed):
    return [CharState(p=float(p), rho=float(r), **fixed) for p in p0s for r in rho0s]


def _exit_of(out, params):
    if out.reason is not None:
        return "confirm flip" if "flips" in out.reason else "step collapse"
    early = out.diagnostics.get("early_exit", "")
    for prefix, name in (("initial", "initial basin"), ("entered", "basin event"),
                         ("closed", "one-period return"),
                         ("periodic orbit certified", "amplitude certificate")):
        if early.startswith(prefix):
            return name
    if out.is_blowup:
        return "blowup"
    # with c > 0 in 1D the first run stops after one period, so reaching the
    # full horizon means the ambiguous-return re-run happened
    return "ambiguous return" if params.c > 0 else "horizon"


@pytest.fixture
def lane_batches(monkeypatch):
    """The lane count of every integrate_lanes batch classify_ep_many runs."""
    batches = []

    def counted(system, y0, *args, **kwargs):
        batches.append(y0.shape[1])
        return integrate_lanes(system, y0, *args, **kwargs)

    monkeypatch.setattr(euler_poisson, "integrate_lanes", counted)
    return batches


def _oracle_groups():
    """(params, config, states, lockstep batches) that take all nine exit paths."""
    tight = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    coarse = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-5)
    pinned = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, h_min=1e-2, h_init=1e-2)
    one_d = _grid(np.linspace(-3, 1, 7), (0.5, 1.0, 2.0))
    orbits = _grid(np.linspace(-1.5, 1.5, 6), np.linspace(0.6, 2.0, 6))
    groups = [   # (params, config, states, lockstep batches)
        (EP1, tight, one_d, 1),
        (EP1, pinned, one_d, 1),
        # (1.8, 2.125), just inside the sharp region, misses the return test
        # and passes the amplitude certificate
        (EP1C, tight, orbits + [CharState(p=1.8, rho=2.125)], 1),
        # at coarse tolerances no one-period return closes or certifies, so
        # every bounded cell re-runs to the horizon; (1.8, 2.125) flips under
        # the confirm pass
        (EP1C, coarse, orbits + [CharState(p=1.8, rho=2.125)], 2),
        (ModelParams(n=3, kappa=1, c=0), tight,
         _grid(np.linspace(-3, 1, 5), (0.5, 2.0), q=0.3, s=0.05)
         + _grid(np.linspace(-3, 1, 5), (0.5, 2.0), q=-0.3, s=0.05), 1),
        (ModelParams(n=3, kappa=1, model=Model.DAMPED_BURGERS, kappa_damp=0.5), tight,
         [CharState(p=p, q=q, rho=1.0) for p in np.linspace(-1, 1, 9)
          for q in (-0.7, -0.3, 0.3)], 1),
    ]
    return groups


def test_classify_many_matches_one_by_one(lane_batches):
    batches = lane_batches
    seen = set()
    for params, cfg, states, n_batches in _oracle_groups():
        batches.clear()
        many = classify_ep_many(states, params, cfg)
        assert len(batches) == n_batches
        for state, out in zip(states, many):
            ref = classify_ep(state, params, cfg)
            assert (out.verdict, out.t_estimate, out.reason) == \
                (ref.verdict, ref.t_estimate, ref.reason), state
            diag, ref_diag = dict(out.diagnostics), dict(ref.diagnostics)
            assert np.array_equal(diag.pop("final_state"), ref_diag.pop("final_state"))
            assert diag == ref_diag, state
            seen.add(_exit_of(out, params))
    assert seen == {"initial basin", "basin event", "blowup", "one-period return",
                    "amplitude certificate", "ambiguous return", "horizon",
                    "confirm flip", "step collapse"}


def test_sweep_codes_match_one_cell_verdicts():
    # a sweep takes its codes from array passes over the lanes and builds no
    # outcome; every cell's code must be the one of its one-cell verdict.
    # Besides the nine exit paths: states just outside the 1D c = 1 region,
    # some of whose bounded coarse runs are refused as exactly supercritical
    supercritical = [CharState(p=state[0], rho=state[1]) for eps in (1e-2, 1e-4, 1e-6)
                     for phase in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
                     if (state := _state_on_orbit(1.0 + eps, phase, 1.0, 1.0))]
    coarse = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-5)

    def summary(out):
        return out.verdict, out.reason, out.diagnostics["t_final"], out.diagnostics["max_norm"]

    for params, cfg, states, _ in _oracle_groups() + [(EP1C, coarse, supercritical, 1)]:
        run = RunConfig({
            "model": {"kind": params.model.value, "n": float(params.n),
                      "kappa": float(params.kappa), "c": float(params.c),
                      "kappa_damp": params.kappa_damp},
            "integrator": {key: float(getattr(cfg, key)) for key in
                           ("rel_tol", "abs_tol", "h_init", "h_min", "h_max", "t_max",
                            "magnitude_cap")}})
        axes = {f"{key}0": np.array([getattr(state, key) for state in states], dtype=float)
                for key in ("p", "q", "s", "rho")}
        verdicts = classify_cells(run, **axes)
        assert len(verdicts.codes) == len(states)
        for state, code in zip(states, verdicts.codes):
            assert code == VERDICT_CODES[classify_ep(state, params, cfg).verdict], state
        # the outcomes, built on request, index as a list does
        assert [VERDICT_CODES[out.verdict] for out in verdicts] == verdicts.codes.tolist()
        assert ([summary(verdicts[cell - len(states)]) for cell in range(len(states))]
                == [summary(out) for out in verdicts])
        with pytest.raises(IndexError):
            verdicts[len(states)]


def _state_on_orbit(amp, phase, kappa, c):
    """(p, rho) at ``phase`` on the 1D orbit of amplitude ``amp`` (None if v <= 0)."""
    v = 1.0 / c + amp * math.cos(phase)
    w = -amp * math.sqrt(kappa * c) * math.sin(phase)
    return (w / v, 1.0 / v) if v > 0.0 else None


def test_amplitude_certificate_matches_sigma_1d():
    # at coarse tolerances some supercritical runs step over v = 0 and
    # survive their period; the certificate must still refuse them, and
    # their bounded verdict becomes inconclusive
    coarse = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-5)
    certified = refused = 0
    for c, kappa in itertools.product((0.5, 1.0, 2.0), (1.0, 2.0)):
        states, regions = [], []
        for eps, side in itertools.product((1e-2, 1e-4, 1e-6), (-1.0, 1.0)):
            for phase in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]:
                state = _state_on_orbit((1.0 + side * eps) / c, phase, kappa, c)
                if state is None:
                    continue
                region = sigma_1d(*state, kappa, c)
                assert region is (Region.SUBCRITICAL if side < 0 else Region.SUPERCRITICAL)
                # a return that kept the amplitude exactly certifies only
                # subcritical orbits
                ok, _, _ = euler_poisson._certify(state, state, kappa, c)
                assert ok == (region is Region.SUBCRITICAL), state
                states.append(CharState(p=state[0], rho=state[1]))
                regions.append(region)
        params = ModelParams(n=1, kappa=kappa, c=c)
        for cfg, confirm in ((IntegratorConfig(), True), (coarse, False)):
            outs = classify_ep_many(states, params, cfg, confirm=confirm)
            for state, region, out in zip(states, regions, outs):
                if "certified" in out.diagnostics.get("early_exit", ""):
                    certified += 1
                    assert region is Region.SUBCRITICAL, (c, kappa, state)
                    assert out.verdict is Verdict.GLOBAL_BOUNDED, (c, kappa, state)
                if (out.reason or "").startswith("bounded run of an exactly supercritical"):
                    refused += 1
                    assert region is Region.SUPERCRITICAL, (c, kappa, state)
    assert certified > 0 and refused > 0


def test_supercritical_orbit_is_never_bounded():
    # A0 = (1 + eps)/c: exactly supercritical, however close to the threshold;
    # at coarse tolerances some runs step over v = 0 and stay bounded
    coarse = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-5)
    refused = 0
    for c, kappa in itertools.product((0.5, 1.0, 2.0), (1.0, 2.0)):
        states = [CharState(p=state[0], rho=state[1])
                  for eps in (1e-2, 1e-4, 1e-6)
                  for phase in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
                  if (state := _state_on_orbit((1.0 + eps) / c, phase, kappa, c))]
        params = ModelParams(n=1, kappa=kappa, c=c)
        for confirm in (False, True):
            for state, out in zip(states, classify_ep_many(states, params, coarse,
                                                           confirm=confirm)):
                assert not out.is_bounded, (c, kappa, state)
                amp = euler_poisson._orbit_amplitude(state.p, state.rho, kappa, c)
                assert amp >= 1.0 / c
                if (out.reason or "").startswith("bounded run of an exactly "
                                                 "supercritical orbit: (w, v) amplitude"):
                    refused += 1
    assert refused > 0


@pytest.mark.parametrize("y1", [(0.5, 0.0), (0.5, -0.0), (0.5, 5e-324), (0.5, -1e-300),
                                (1e308, 1e-308), (np.nan, 1.0), (0.5, np.nan),
                                (np.inf, 1.0), (0.5, np.inf), (-np.inf, -np.inf)])
def test_amplitude_certificate_is_total(y1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y0 in ((0.1, 1.5), y1):
            assert not euler_poisson._certify(y0, y1, 1.0, 1.0)[0]
            assert not euler_poisson._certify(np.array(y0), np.array(y1), 2.0, 0.5)[0]


def test_amplitude_certificate_replaces_horizon_reruns(lane_batches, caplog):
    # the benchmark's c = 1 sweep: with the 1e-5 return test alone, 136 of
    # its runs re-ran to the horizon as a second lockstep batch
    caplog.set_level("INFO", logger="radial_euler.euler_poisson")
    cells = [(p, r) for p in np.linspace(-4.0, 4.0, 40) for r in np.linspace(0.1, 4.0, 40)]
    outs = classify_ep_many([CharState(p=float(p), rho=float(r)) for p, r in cells],
                            EP1C, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8))
    assert lane_batches == [3200]
    certified = [cell for cell, out in zip(cells, outs)
                 if "certified" in out.diagnostics.get("early_exit", "")]
    assert len(certified) == 136
    for p, r in certified:
        assert sigma_1d(p, r, 1.0, 1.0) is Region.SUBCRITICAL
    [line] = [rec.getMessage() for rec in caplog.records
              if rec.name == "radial_euler.euler_poisson"]
    assert line == ("1600 cells, 0 inside the basin at t = 0; 3200 runs of the rest "
                    "(one per confirm pass): 1096 closed after one period, "
                    "136 certified by amplitude, 0 re-ran to the horizon")


def test_sweep_runs_no_blowup_fit(lane_batches, monkeypatch):
    # a lane batch keeps each blown lane's trailing samples, and the fit
    # runs only when an outcome's t_estimate is read, once
    from radial_euler import odeint
    fits = []
    fit = odeint._blowup_time_estimate

    def counted(*args):
        fits.append(args)
        return fit(*args)

    monkeypatch.setattr(odeint, "_blowup_time_estimate", counted)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    states = _grid(np.linspace(-4.0, 1.0, 6), np.linspace(0.5, 2.0, 4))
    outs = classify_ep_many(states, EP1, cfg)
    assert len(lane_batches) == 1 and lane_batches[0] >= 20 and fits == []
    blown = [(state, out) for state, out in zip(states, outs) if out.is_blowup]
    assert len(blown) >= 10
    for state, out in blown:
        fits.clear()
        t_estimate = out.t_estimate
        assert len(fits) == 1
        assert out.t_estimate == t_estimate and len(fits) == 1
        ref = integrate(euler_poisson._system_for(EP1),
                        euler_poisson._initial_state(state, EP1), cfg,
                        events=(euler_poisson._basin_event(EP1),))
        assert t_estimate == ref.blowup_time
    # an outcome made with a time keeps it
    from radial_euler.odeint import ClassificationOutcome
    assert ClassificationOutcome(Verdict.FINITE_TIME_BLOWUP, 1.5).t_estimate == 1.5


def _first_zero_1d(p0, rho0, c):
    """First root of v = 1/rho, which obeys v'' = kappa (1 - c v) with kappa = 1."""
    v0, w0 = 1.0 / rho0, p0 / rho0
    if c == 0.0:
        # v0 + w0 t + t^2 / 2, smaller root written without cancellation
        return 2.0 * v0 / (-w0 + math.sqrt(w0 * w0 - 2.0 * v0))
    # v = 1/c + amp cos(omega t - phase)
    omega = math.sqrt(c)
    a, b = v0 - 1.0 / c, w0 / omega
    amp, phase = math.hypot(a, b), math.atan2(b, a)
    alpha = math.acos(-1.0 / (c * amp))
    return min(x for x in (phase - alpha, phase + alpha, phase - alpha + 2.0 * math.pi)
               if x > 0.0) / omega


@pytest.mark.parametrize("params, n_super", [(EP1, 168), (EP1C, 389)], ids=["c0", "c1"])
def test_blowup_time_matches_closed_form_1d(params, n_super):
    # along a characteristic rho escapes exactly when v = 1/rho reaches 0
    c = params.c
    cells = [(p, r) for p in np.linspace(-4.0, 4.0, 25) for r in np.linspace(0.1, 4.0, 25)
             if sigma_1d(p, r, 1.0, c) is Region.SUPERCRITICAL]
    outs = classify_ep_many([CharState(p=p, rho=r) for p, r in cells], params)
    assert len(cells) == n_super
    for (p, r), out in zip(cells, outs):
        t_star = _first_zero_1d(p, r, c)
        assert out.is_blowup, (p, r)
        assert abs(out.t_estimate - t_star) <= 1e-6 * t_star, (p, r)


@pytest.mark.parametrize("n, c, q0, s0", [(1, 0.0, 0.0, 0.0), (1, 1.0, 0.0, 0.0),
                                          (3, 0.0, 0.3, 0.05)],
                         ids=["1d-c0", "1d-c1", "3d"])
def test_scaling_symmetry(n, c, q0, s0):
    # t -> t / l maps solutions to solutions when (p, q) scale by l and
    # (s, rho, c) by l^2, so the verdict holds and blowup comes l times sooner
    def classify(l):
        states = [CharState(p=l * p, q=l * q0, s=l * l * s0, rho=l * l * r)
                  for p in np.linspace(-4.0, 4.0, 15) for r in np.linspace(0.1, 4.0, 15)]
        return classify_ep_many(states, ModelParams(n=n, kappa=1, c=l * l * c))

    base = classify(1.0)
    assert any(out.is_blowup for out in base) and any(out.is_bounded for out in base)
    for l in (2.0, 0.5, 3.0):
        for ref, out in zip(base, classify(l)):
            assert out.verdict is ref.verdict
            if ref.is_blowup:
                assert abs(out.t_estimate * l - ref.t_estimate) <= 1e-6 * ref.t_estimate


# ---------------------------------------------------------------------------
# (q, s) phase plane

def test_portrait_zero_background():
    params = ModelParams(n=2, kappa=1, c=0)
    cfg = IntegratorConfig(t_max=1000, h_max=5)
    trajs = qs_phase_portrait(params, [(1.0, 1.0), (-0.5, 0.01)], cfg)
    a, b = trajs
    assert a.outcome == "converges-to-origin" and a.final_distance < 1e-2
    # expanding seed stays in q >= 0 with s decreasing below s0
    assert np.min(a.record.ys[:, 0]) >= -1e-12
    assert np.max(a.record.ys[:, 1]) <= 1.0 + 1e-9
    assert b.outcome == "converges-to-origin" and b.final_distance < 1e-2
    assert np.min(b.record.ys[:, 0]) < 0.0   # crosses q = 0 from below


def test_portrait_invalid_seed():
    params = ModelParams(n=2, kappa=1, c=1)
    trajs = qs_phase_portrait(params, [(0.1, -0.6)], IntegratorConfig(t_max=10))
    assert trajs[0].outcome == "invalid"


def test_portrait_positive_background_periodic():
    params = ModelParams(n=2, kappa=1, c=1)
    cfg = IntegratorConfig(t_max=100, rel_tol=1e-10, abs_tol=1e-12, h_max=0.5)
    trajs = qs_phase_portrait(params, [(0.5, 0.5)], cfg)
    t = trajs[0]
    assert t.outcome == "periodic-orbit"
    assert t.closure < 1e-4
    assert 1.0 < t.period < 50.0


def test_qs_sign_invariance():
    # s = s0 exp(-n int q) keeps its sign (s tilde for c > 0)
    run = integrate_qs(ModelParams(n=2, kappa=1, c=0), -0.5, 0.01, 200.0)
    assert np.all(run.record.ys[:, 1] > 0.0)
    run2 = integrate_qs(ModelParams(n=2, kappa=1, c=1), 0.4, -0.3, 50.0)
    assert np.all(run2.record.ys[:, 1] + 0.5 > 0.0)   # s tilde = s + c/n > 0


def test_qsplus_invariant_region():
    # q0 >= 0, s0 > 0: q stays in [0, max(q0, sqrt(kappa s0))], s in (0, s0]
    params = ModelParams(n=2, kappa=1, c=0)
    for q0, s0 in [(0.0, 1.0), (1.5, 0.3), (0.2, 2.0)]:
        run = integrate_qs(params, q0, s0, 300.0)
        bound = max(q0, math.sqrt(s0))
        assert run.q_min >= -1e-9
        assert run.q_max <= bound + 1e-6
        assert 0.0 < run.s_max <= s0 + 1e-9


def test_qs_bounded_for_deep_compression():
    # the n = 2 excursion reaches ~1e26 yet stays finite and relaxes
    run = integrate_qs(ModelParams(n=2, kappa=1, c=0), -5.0, 0.2, 1000.0)
    assert run.bounded
    assert run.q_min < -1e20
    assert float(np.hypot(*run.record.y_final)) < 1e-2


def test_positive_background_orbit_closes():
    params = ModelParams(n=3, kappa=1, c=1)
    cfg = IntegratorConfig(t_max=100, rel_tol=1e-10, abs_tol=1e-12, h_max=0.5)
    for seed in [(0.3, 0.2), (-0.4, 0.6), (0.0, 1.0)]:
        trajs = qs_phase_portrait(params, [seed], cfg)
        assert trajs[0].outcome == "periodic-orbit"
        assert trajs[0].closure < 1e-4


# ---------------------------------------------------------------------------
# rescaled dynamics and explicit constants

def test_qshat_fixed_point():
    sys = qshat_system(ModelParams(n=3, kappa=1, c=0))
    assert np.allclose(sys.rhs(0.0, (1.0, 0.0)), 0.0)


def test_qshat_above_threshold_starts_at_max():
    res = qshat_integrate(ModelParams(n=3, kappa=1, c=0), (0.9, 0.5))
    assert res.that_star == 0.0
    assert res.shat_max == pytest.approx(0.5)


def test_qshat_matches_transformed_direct_run():
    params = ModelParams(n=3, kappa=1, c=0)
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, h_max=0.05)
    run = integrate_qs(params, 0.5, 0.5, 60.0, tight)
    res = qshat_integrate(params, (0.5, 0.5), tight, t_hat_max=math.log(61.0))
    tt = run.record.ts[(run.record.ts > 0.01) & (run.record.ts < 59.0)]
    direct = run.record.sample_many(tt)
    mapped = res.record.sample_many(np.log(tt + 1.0))
    assert np.max(np.abs((tt + 1) * direct[:, 0] - mapped[:, 0])) < 1e-6
    assert np.max(np.abs((tt + 1) ** 2 * direct[:, 1] - mapped[:, 1])) < 1e-6


def test_threshold_constants_closed_form_branch():
    params = ModelParams(n=3, kappa=1, c=0)
    consts = compute_threshold_constants(params, (1.0, 0.1))
    assert consts.C_s == pytest.approx(0.1 * math.exp(1.5), rel=1e-6)
    assert consts.C_q >= 1.0
    assert consts.gamma == pytest.approx(2 * consts.C_q - 2.0, rel=1e-12)
    assert consts.C == pytest.approx((consts.C_s / 0.1) ** (2 / 3), rel=1e-9)


def test_threshold_constants_cq_at_least_one():
    params = ModelParams(n=3, kappa=1, c=0)
    for q0, s0 in [(0.0, 0.5), (0.2, 1.0), (2.0, 0.05)]:
        assert compute_threshold_constants(params, (q0, s0)).C_q >= 1.0


def test_threshold_constants_bound_holds_pointwise():
    # s(t) <= C_s (t+1)^-n along the actual trajectory
    params = ModelParams(n=3, kappa=1, c=0)
    consts = compute_threshold_constants(params, (1.0, 0.1))
    run = integrate_qs(params, 1.0, 0.1, 500.0)
    tt = np.linspace(0.0, 500.0, 800)
    s_vals = run.record.sample_many(tt)[:, 1]
    assert np.all(s_vals <= consts.C_s * (tt + 1.0) ** -3.0 * (1 + 1e-9))


def test_threshold_constants_regime_errors():
    with pytest.raises(ValueError):
        compute_threshold_constants(ModelParams(n=2, kappa=1, c=0), (1.0, 0.1))
    with pytest.raises(ValueError):
        compute_threshold_constants(ModelParams(n=3, kappa=1, c=1), (1.0, 0.1))
    with pytest.raises(ValueError):
        compute_threshold_constants(ModelParams(n=3, kappa=1, c=0), (1.0, -0.1))


def _y_of_t(t, v0, gamma, kappa, d):
    return (v0 + (kappa / (gamma + 1) - d) * t
            - kappa / (gamma * (gamma + 1)) * (1 - (t + 1) ** -gamma))


def test_dcrit_large_v0_branch():
    assert compute_dcrit(0.6, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_dcrit_root_branch():
    d = compute_dcrit(0.2, 1.0, 1.0)
    # F(z) = 0.2 + sqrt(z) - (z + 1)/2 has root z* = (1 - sqrt(0.4))^2
    z_star = (1.0 - math.sqrt(0.4)) ** 2
    assert d == pytest.approx(0.5 * (1.0 - z_star), abs=1e-10)
    # minimizing y directly at D_crit gives y_min = 0
    res = minimize_scalar(lambda t: _y_of_t(t, 0.2, 1.0, 1.0, d),
                          bounds=(0.0, 1e3), method="bounded",
                          options={"xatol": 1e-12})
    assert abs(res.fun) < 1e-8


def test_dcrit_supercritical_drift_reaches_zero():
    for v0 in (0.1, 0.7, 3.0):
        d = 0.5 + 1e-3   # kappa/(gamma+1) + eps with kappa = gamma = 1
        tt = np.linspace(0.0, 1e5, 200001)
        assert np.min(_y_of_t(tt, v0, 1.0, 1.0, d)) < 0.0


def test_dcrit_input_validation():
    with pytest.raises(ValueError):
        compute_dcrit(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        compute_dcrit(0.5, 0.0, 1.0)


def test_explicit_sigma_plus_small_cs_limit():
    from radial_euler.euler_poisson import ThresholdConstants
    consts = ThresholdConstants(C_q=1.2, C_s=1e-12, C=1.0, gamma=0.4)
    val = explicit_sigma_plus(1.0, consts, 1.0, 3.0)
    assert val == pytest.approx(-compute_dcrit(1.0, 0.4, 1.0), abs=1e-9)
    assert val < 0.0   # admits negative w0 = p0/rho0


def test_explicit_sigma_plus_degenerate_cs():
    from radial_euler.euler_poisson import ThresholdConstants
    consts = ThresholdConstants(C_q=1.2, C_s=1.5, C=1.0, gamma=0.4)
    with pytest.raises(ValueError):
        explicit_sigma_plus(1.0, consts, 1.0, 3.0)
    with pytest.raises(ValueError):
        explicit_sigma_plus(1.0, consts, 1.0, 2.0)


def test_supercritical_w0_below_minus_C():
    params = ModelParams(n=3, kappa=1, c=0)
    consts = compute_threshold_constants(params, (1.0, 0.01))
    rho0 = 1.0
    p0 = rho0 * (-consts.C - 0.1)
    out = classify_ep(CharState(p=p0, q=1.0, s=0.01, rho=rho0), params)
    assert out.is_blowup


def test_wv_transform_consistency():
    # (w, v) built from the integrated state matches the driven system
    params = ModelParams(n=3, kappa=1, c=0)
    q0, s0, p0, rho0 = 0.5, 0.5, 0.2, 1.0
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, h_max=0.05, t_max=8.0)
    from radial_euler import ep_full_system
    rec = integrate(ep_full_system(params), (p0, q0, s0, rho0), tight)
    qs_run = integrate_qs(params, q0, s0, 10.0, tight)
    wv = wv_system(params, qs_run.record, s0)
    rec_wv = integrate(wv, (p0 / rho0, 1.0 / rho0), tight)
    tt = np.linspace(0.1, 7.9, 40)
    full = rec.sample_many(tt)
    a = (full[:, 2] / s0) ** ((params.n - 1) / params.n)
    w_direct = full[:, 0] / full[:, 3] * a
    v_direct = 1.0 / full[:, 3] * a
    wv_vals = rec_wv.sample_many(tt)
    assert np.max(np.abs(wv_vals[:, 0] - w_direct)) < 1e-5
    assert np.max(np.abs(wv_vals[:, 1] - v_direct)) < 1e-5
