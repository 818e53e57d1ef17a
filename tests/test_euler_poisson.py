import contextlib
import functools
import io
import itertools
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from radial_euler import (CharState, IntegratorConfig, Model, ModelParams,
                          Region, Verdict, classify_ep, compute_dcrit,
                          compute_threshold_constants, constant,
                          explicit_sigma_plus, gaussian_bump,
                          initial_s_from_density, qs_phase_portrait,
                          qshat_integrate, qshat_system, sigma_1d, wv_basis_system)
from radial_euler import cli, euler_poisson
from radial_euler.euler_poisson import classify_ep_columns, integrate_qs
from radial_euler.alignment import AlignmentBounds, classify_ea_many
from radial_euler.config import RunConfig, parse_config_text
from radial_euler.odeint import (TERMINATIONS, VERDICT_CODES, IntegrationFailure, Termination,
                                 integrate, integrate_lanes)
from radial_euler.sweep import classify_cells, run_sweep

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


def test_state_rules_name_the_key_and_the_value():
    with pytest.raises(ValueError, match=r"^rho0 must be nonnegative, got -1\.0$"):
        classify_ep(CharState(p=0.0, rho=-1.0), EP1)
    with pytest.raises(ValueError, match=r"^s0 must be greater than -c/n = 0\.0, got 0\.0$"):
        classify_ep(CharState(p=0.0, q=0.1, rho=1.0), ModelParams(n=3))
    with pytest.raises(ValueError, match=r"^s0 must exceed -c/n = 0\.0$"):
        integrate_qs(ModelParams(n=3), 0.1, 0.0, 1.0)
    # NaN passes the rules, as it did: p0 = 0 at n = 1 starts in the basin
    assert classify_ep(CharState(p=0.0, rho=math.nan), EP1).is_bounded
    # only the multi-D Euler-Poisson system carries s
    assert list(euler_poisson.state_rules(ModelParams(n=3))) == ["rho0", "s0"]
    for params in (EP1, ModelParams(n=3, model=Model.INVISCID_BURGERS)):
        assert list(euler_poisson.state_rules(params)) == ["rho0"]


@pytest.mark.parametrize("params, labels, basin", [
    (EP1, ("p", "rho"), True), (EP1C, ("p", "rho"), False),
    (ModelParams(n=3), ("p", "q", "s", "rho"), True),
    (ModelParams(n=3, c=1), ("p", "q", "s", "rho"), False),
    (ModelParams(n=2, model=Model.INVISCID_BURGERS), ("p", "q", "rho"), True),
    (ModelParams(n=2, model=Model.DAMPED_BURGERS), ("p", "q", "rho"), True),
], ids=["ep-1d", "ep-1d-background", "ep-3d", "ep-3d-background", "inviscid", "damped"])
def test_characteristic_of_each_model(params, labels, basin):
    system, rows, event = euler_poisson._characteristic(params)
    assert system.labels == labels
    assert [("p", "q", "s", "rho")[row] for row in rows] == list(labels)
    assert (event is not None) is basin


def test_characteristic_basin_of_damped_burgers_is_shifted_by_kd():
    # {p >= -kd, q >= -kd}: kd = kappa_damp for the damped model, 0 for the inviscid
    y = np.array([-0.4, -0.4, 1.0])
    damped = ModelParams(n=2, model=Model.DAMPED_BURGERS, kappa_damp=0.5)
    assert euler_poisson._characteristic(damped)[2].func(0.0, y) == pytest.approx(0.1)
    inviscid = ModelParams(n=2, model=Model.INVISCID_BURGERS)
    assert euler_poisson._characteristic(inviscid)[2].func(0.0, y) == pytest.approx(-0.4)
    with pytest.raises(ValueError, match="does not handle model"):
        euler_poisson._characteristic(ModelParams(n=2, model=Model.EULER_ALIGNMENT))


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
    """The lane count of every integrate_lanes batch classify_ep_columns runs."""
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
        # (1.8, 2.125), just inside the sharp region, closes after one period,
        # and (-1.5, 1.72) of the grid misses the return test and passes the
        # amplitude certificate (test_oracle_group_comments_hold)
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


def test_oracle_group_comments_hold():
    # the exits the comments in _oracle_groups name for these two states
    (params, tight, states, _), (_, coarse, _, _) = _oracle_groups()[2:4]
    edge, grid_state = states[-1], states[4]
    assert (edge.p, edge.rho) == (1.8, 2.125)
    assert grid_state.p == -1.5 and grid_state.rho == pytest.approx(1.72)
    closed = classify_ep(edge, params, tight)
    assert closed.diagnostics["early_exit"] == "closed periodic orbit after one period"
    certified = classify_ep(grid_state, params, tight)
    assert certified.diagnostics["early_exit"].startswith(
        "periodic orbit certified by its (w, v) amplitude after one period")
    flipped = classify_ep(edge, params, coarse)
    assert flipped.reason == "classification flips under 10x tighter tolerances"


def test_classify_many_matches_one_by_one(lane_batches):
    batches = lane_batches
    seen = set()
    for params, cfg, states, n_batches in _oracle_groups():
        batches.clear()
        many = classify_ep_columns(np.array([state.as_array() for state in states]).T,
                                   params, cfg)
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

    # a sweep whose cells share one zero-background multi-D orbit, which the
    # (w, v) basis settles without lanes
    params = ModelParams(n=3, kappa=1, c=0)
    swept = run_sweep(parse_config_text(_sweep_text(3, 0.0, 1.0, 0.01, 200.0, steps=8)))
    states = _grid(swept.axis1, swept.axis2, q=1.0, s=0.01)
    x = np.array([[state.p, state.q, state.s, state.rho] for state in states]).T
    settled = euler_poisson._wv_settled(x, params, IntegratorConfig())
    assert np.count_nonzero(settled >= 0) >= 60 and len(set(swept.codes.ravel())) == 2
    for state, code in zip(states, swept.codes.ravel()):
        assert code == VERDICT_CODES[classify_ep(state, params).verdict], state


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
            outs = classify_ep_columns(np.array([state.as_array() for state in states]).T,
                                       params, cfg, confirm=confirm)
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
            x = np.array([state.as_array() for state in states]).T
            for state, out in zip(states, classify_ep_columns(x, params, coarse,
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
    outs = classify_ep_columns(np.array([[p, 0.0, 0.0, r] for p, r in cells]).T,
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


def _orbit_counts(messages):
    """(cells settled bounded, settled as blowups, left to the lanes) by the
    exact n = 1 orbit, summed over its log lines."""
    counts = [re.search(r"(\d+) settled bounded, (\d+) settled as blowups, (\d+) left",
                        message) for message in messages]
    return tuple(sum(int(found[k]) for found in counts if found) for k in (1, 2, 3))


def _near_threshold(c, rho0=(0.6, 1.4, 2.2, 3.0, 4.0),
                    offsets=np.concatenate((-np.logspace(-9, -1, 9), np.logspace(-9, -1, 9)))):
    """(p0, rho0) columns at relative ``offsets`` (default -+1e-9 ... -+1e-1)
    from the 1D threshold, kappa = 1: p0 = -sqrt(2 rho0) for c = 0,
    -+sqrt(2 rho0 - c) else.  A positive offset is supercritical."""
    off, rho = np.repeat(offsets, len(rho0)), np.tile(rho0, len(offsets))
    ends = [-np.sqrt(2.0 * rho)] if c == 0.0 else [np.sqrt(2.0 * rho - c), -np.sqrt(2.0 * rho - c)]
    return np.concatenate([end * (1.0 + off) for end in ends]), np.tile(rho, len(ends))


def _ep1_columns(p0, rho0):
    return np.array([p0, np.zeros(len(p0)), np.zeros(len(p0)), rho0])


# a subcritical cell whose first run, one-period probe included, gives code
# 0, where a run to the full horizon gives 3; the orbit leaves it to the
# lanes at rel_tol 1e-3 (its floor of v is 7e-5 of its size)
CHANNEL_TRAP = (math.sqrt(2.0 * 4.1115 - 1.0) * (1.0 - 3.16e-4), 4.1115)


def _orbit_grid(c):
    """A 16 x 16 grid, the near-threshold states of :func:`_near_threshold`,
    states -+3e-9 ... -+3e-6 from the threshold, drift states within 1e-7 of
    it and CHANNEL_TRAP, kappa = 1."""
    near_p, near_rho = _near_threshold(c)
    band_p, band_rho = _near_threshold(
        c, offsets=np.outer([-3.0, 3.0], np.logspace(-9, -6, 4)).ravel())
    drift_p, drift_rho = _near_threshold(c, np.linspace(0.8, 3.6, 8), np.logspace(-9, -7, 3))
    p0 = np.concatenate((np.repeat(np.linspace(-4.0, 4.0, 16), 16), near_p, band_p, drift_p,
                         [CHANNEL_TRAP[0]]))
    rho0 = np.concatenate((np.tile(np.linspace(0.1, 4.0, 16), 16), near_rho, band_rho,
                           drift_rho, [CHANNEL_TRAP[1]]))
    return _ep1_columns(p0, rho0)


@pytest.mark.parametrize("confirm", [True, False], ids=["confirm", "no-confirm"])
@pytest.mark.parametrize("tol", [1e-3, 1e-6])
@pytest.mark.parametrize("c", [0.0, 1.0], ids=["c0", "c1"])
def test_channel_codes_match_the_full_cap(caplog, c, tol, confirm):
    # codes-only n = 1 batches settle what the exact (w, v) orbit decides and
    # run only the rest as lanes; every code equals the outcome path's, which
    # runs every cell as lanes at the full cap, on a grid, near the threshold
    # and within 1e-7 of it, where the margin leaves every cell to the lanes
    caplog.set_level("INFO", logger="radial_euler.euler_poisson")
    params = ModelParams(n=1, kappa=1, c=c)
    config = IntegratorConfig(rel_tol=tol, abs_tol=tol / 100)
    x = _orbit_grid(c)
    codes = classify_ep_columns(x, params, config, confirm, outcomes=False).codes
    bounded, blowups, left = _orbit_counts(caplog.messages)
    assert min(bounded, blowups) > 70 and left > 80, (bounded, blowups, left)
    assert np.array_equal(codes, classify_ep_columns(x, params, config, confirm).codes)


@pytest.mark.parametrize("limits", [
    {"max_steps": 60}, {"max_steps": 200}, {"max_steps": 300}, {"max_steps": 1000},
    {"t_max": 0.5}, {"magnitude_cap": 1e3}, {"magnitude_cap": 1e12}, {"h_min": 1e-6},
    {"h_max": 1e-2, "max_steps": 200}],
    ids=lambda limits: "-".join(f"{k}-{v:g}" for k, v in limits.items()))
@pytest.mark.parametrize("c", [0.0, 1.0], ids=["c0", "c1"])
def test_orbit_codes_match_the_lanes_under_every_limit(c, limits):
    # where a lane's step budget, horizon, cap, reach or largest step decides
    # its code, the orbit settles only cells whose lanes end as it says (at
    # c = 1 a budget of 200 steps or fewer settles none; at h_max = 1e-2 the
    # lanes of c = 0 cells that reach the basin after t = 2 exhaust 200 steps)
    params, x = ModelParams(n=1, kappa=1, c=c), _orbit_grid(c)
    for tol in (1e-3, 1e-8):
        config = IntegratorConfig(rel_tol=tol, abs_tol=tol / 100, **limits)
        codes = classify_ep_columns(x, params, config, outcomes=False).codes
        assert np.array_equal(codes, classify_ep_columns(x, params, config).codes), tol


def test_channel_falls_back_to_the_first_run(caplog):
    caplog.set_level("INFO", logger="radial_euler.euler_poisson")
    x = _ep1_columns(*([v] for v in CHANNEL_TRAP))
    config = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-5)
    assert classify_ep_columns(x, EP1C, config, outcomes=False).codes.tolist() == [0]
    assert _orbit_counts(caplog.messages) == (0, 0, 1)    # within the margin
    assert classify_ep_columns(x, EP1C, config).codes.tolist() == [0]


def test_channel_declines_a_subcritical_spike(caplog):
    # subcritical states whose floor of v is 1e-5 to 1e-7 of v0: rho peaks
    # at 1e5 ... 3e7 and turns back.  The floor lies within the margin, so
    # the orbit leaves them to the lanes, which take their full-cap steps
    caplog.set_level("INFO", logger="radial_euler.euler_poisson")
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    for params in (EP1, EP1C):
        p0, rho0 = [], []
        for rho, floor in itertools.product((1.0, 2.0, 3.0), (1e-5, 1e-6, 1e-7)):
            if params.c == 0.0:
                p0 += [-math.sqrt(2.0 * rho * (1.0 - floor))]
            else:
                p0 += [math.sqrt(2.0 * rho - 1.0) * (1.0 - floor) * side for side in (1, -1)]
            rho0 += [rho] * (1 if params.c == 0.0 else 2)
        x = _ep1_columns(np.array(p0), np.array(rho0))
        caplog.clear()
        codes = classify_ep_columns(x, params, config, outcomes=False).codes
        assert _orbit_counts(caplog.messages) == (0, 0, len(p0)), params.c
        assert not codes.any()
        outs = classify_ep_columns(x, params, config)
        assert not outs.codes.any() and max(out.diagnostics["max_norm"] for out in outs) > 1e6


@pytest.mark.parametrize("config", [
    IntegratorConfig(magnitude_cap=30.0), IntegratorConfig(magnitude_cap=1e2),
    IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, h_min=1e-4, h_init=1e-4),
    IntegratorConfig(magnitude_cap=1e12, h_min=1e-9)],
    ids=["cap-30", "cap-1e2", "h_min-1e-4", "cap-beyond-reach"])
def test_channel_declines_caps_it_cannot_serve(caplog, config):
    # a cap whose thousandth lies below every peak of rho settles no bounded
    # cell, and a cap beyond where the lanes' steps would shrink to h_min no
    # blowup: those cells run as lanes at the full cap
    caplog.set_level("INFO", logger="radial_euler.euler_poisson")
    x = _ep1_columns(np.repeat(np.linspace(-4.0, 1.0, 6), 6), np.tile(np.linspace(0.5, 3.0, 6), 6))
    codes = classify_ep_columns(x, EP1, config, outcomes=False).codes
    bounded, blowups, left = _orbit_counts(caplog.messages)
    assert (bounded if euler_poisson._wv_limits(config, 0.0)[2] else blowups) == 0
    assert left > 0 and bounded + blowups > 0
    assert (codes != 0).any() and np.array_equal(codes, classify_ep_columns(x, EP1, config).codes)


def test_channel_declines_blowups_it_cannot_place_in_time(caplog):
    # p0 = -3, rho0 = 2 (c = 0) blows up at T = 1.5 - sqrt(1.25).  With t_max
    # 1e-6 before T its lanes reach the horizon (code 0), and with max_steps =
    # 300 they exhaust their budget (code 3): the orbit settles neither, nor
    # a t_max 1e-6 after T, whose 0.99 share T passes, and the lanes' codes
    # stand
    caplog.set_level("INFO", logger="radial_euler.euler_poisson")
    x = _ep1_columns(np.full(24, -3.0), np.full(24, 2.0))
    t_blowup = 1.5 - math.sqrt(1.25)
    for config in (IntegratorConfig(t_max=t_blowup - 1e-6), IntegratorConfig(max_steps=300)):
        codes = classify_ep_columns(x, EP1, config, outcomes=False).codes
        assert np.array_equal(codes, classify_ep_columns(x, EP1, config).codes)
        assert codes[0] != 2
    assert classify_ep_columns(x, EP1, IntegratorConfig(t_max=t_blowup + 1e-6),
                               outcomes=False).codes[0] == 2
    assert _orbit_counts(caplog.messages) == (0, 0, 72)
    caplog.clear()
    assert classify_ep_columns(x, EP1, IntegratorConfig(t_max=t_blowup / 0.98),
                               outcomes=False).codes[0] == 2
    assert _orbit_counts(caplog.messages) == (0, 24, 0)


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_v_floor_is_the_orbit_minimum(c):
    # the floor of v ahead is the least v = 1/rho the exact orbit reaches,
    # and it is conserved along the orbit as long as v > 0
    kappa = 2.0
    for p0, rho0 in [(-3.0, 2.0), (-1.0, 2.0), (0.5, 1.0), (-2.5, 0.8)]:
        v0, w0 = 1.0 / rho0, p0 / rho0
        if c == 0.0:    # up to the vertex of the parabola v
            t = np.linspace(0.0, max(-w0 / kappa, 0.0), 101)
            v, w = v0 + w0 * t + 0.5 * kappa * t * t, w0 + kappa * t
        else:           # one period of the oscillator
            om = math.sqrt(kappa * c)
            t = np.linspace(0.0, 2.0 * math.pi / om, 1001)
            v = 1.0 / c + (v0 - 1.0 / c) * np.cos(om * t) + w0 / om * np.sin(om * t)
            w = -(v0 - 1.0 / c) * om * np.sin(om * t) + w0 * np.cos(om * t)
        floor = euler_poisson._v_floor(p0, rho0, kappa, c)
        assert floor == pytest.approx(np.min(v), abs=1e-6)
        ahead = v > 0.0
        assert np.allclose(euler_poisson._v_floor(w[ahead] / v[ahead], 1.0 / v[ahead], kappa, c),
                           floor, rtol=0.0, atol=1e-9)


@pytest.fixture
def fits(monkeypatch):
    """The arguments of every blowup-time fit run."""
    from radial_euler import odeint
    calls = []
    fit = odeint._blowup_time_estimate

    def counted(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(odeint, "_blowup_time_estimate", counted)
    return calls


def test_sweep_runs_no_blowup_fit(monkeypatch, fits):
    # a sweep reads only the verdict codes and runs no blowup-time fit, in
    # the lanes of the cells within 1e-6 of the threshold, which the exact
    # orbit leaves to them; with outcomes, a lockstep batch fits each blown
    # lane once, while it runs, and reading the outcome fits nothing more
    # and gives the scalar run's time
    batches = []

    def kept(*args, **kwargs):
        batches.append(integrate_lanes(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(euler_poisson, "integrate_lanes", kept)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    states = _grid(np.linspace(-4.0, 1.0, 6), np.linspace(0.5, 2.0, 4)) + [
        CharState(p=-math.sqrt(2.0 * rho) * (1.0 + eps), rho=rho)
        for rho in np.linspace(0.5, 3.0, 6) for eps in (-1e-6, 1e-6)]
    x = np.array([state.as_array() for state in states]).T
    codes_only = classify_ep_columns(x, EP1, cfg, outcomes=False)
    assert len(batches) == 1 and len(batches[0]) >= 24 and fits == []
    outs = classify_ep_columns(x, EP1, cfg)
    assert np.array_equal(outs.codes, codes_only.codes)
    assert len(batches) == 2 and len(batches[1]) >= 20
    blown_lanes = batches[1].ends == TERMINATIONS.index(Termination.BLOWUP_DETECTED)
    assert len(fits) == np.count_nonzero(blown_lanes)
    blown = np.flatnonzero(outs.codes == VERDICT_CODES[Verdict.FINITE_TIME_BLOWUP])
    assert len(blown) >= 10
    fits.clear()
    read = [outs[cell] for cell in blown]
    assert fits == [] and all(out.is_blowup for out in read)
    for cell, out in zip(blown, read):
        system, rows, basin = euler_poisson._characteristic(EP1)
        ref = integrate(system, states[cell].as_array()[rows], cfg, events=(basin,))
        assert out.t_estimate == ref.blowup_time
    # an outcome made with a time keeps it
    from radial_euler.odeint import ClassificationOutcome
    assert ClassificationOutcome(Verdict.FINITE_TIME_BLOWUP, 1.5).t_estimate == 1.5


@pytest.mark.parametrize("text", [
    # the configs of the sweep-ep3-small and sweep-ea-small byte pins: fewer
    # than 20 lanes, so every run takes the scalar loop (the (w, v) basis
    # settles the ep3-small cells, which share one (q0, s0), before any run;
    # the cells of ep3-q0-small do not share one, so they all run)
    "[model]\nn = 3\n\n[state]\nq0 = 0.3\ns0 = 0.05\n\n[sweep]\naxis1_min = -3\n"
    "axis1_max = 1\naxis1_steps = 3\naxis2_min = 0.5\naxis2_max = 2\naxis2_steps = 3\n\n"
    "[integrator]\nrel_tol = 1e-6\nabs_tol = 1e-8\n",
    "[model]\nkind = euler-alignment\nn = 2\n\n[alignment]\nC0 = 0.1\n\n[sweep]\n"
    "axis1 = y0\naxis1_min = -2\naxis1_max = 1\naxis1_steps = 4\n"
    "axis2 = C0\naxis2_min = 0\naxis2_max = 0.4\naxis2_steps = 3\n",
    "[model]\nn = 3\n\n[state]\ns0 = 0.05\nrho0 = 1.0\n\n[sweep]\naxis1_min = -3\n"
    "axis1_max = 0\naxis1_steps = 3\naxis2 = q0\naxis2_min = -0.3\naxis2_max = 0.3\n"
    "axis2_steps = 3\n\n[integrator]\nrel_tol = 1e-6\nabs_tol = 1e-8\n",
], ids=["ep3-small", "ea-small", "ep3-q0-small"])
def test_small_sweep_runs_no_blowup_fit(fits, text):
    # a scalar run fits its blowup time only when it is read, and a sweep
    # reads none
    codes = run_sweep(parse_config_text(text)).codes
    assert codes.size < 20 and np.count_nonzero(codes == 2) >= 4
    assert fits == []


def test_one_cell_classify_fits_once_per_run(tmp_path, fits):
    # the blowup of one cell runs its scalar run and its confirm run, and
    # each fits its blowup time once; the printed time is the first run's
    path = tmp_path / "blowup.cfg"
    path.write_text("[model]\nn = 1\nc = 0.0\n\n[state]\np0 = -3.0\nrho0 = 2.0\n")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["classify", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2 and len(fits) == 2
    system, rows, basin = euler_poisson._characteristic(EP1)
    ref = integrate(system, CharState(p=-3.0, rho=2.0).as_array()[rows], IntegratorConfig(),
                    events=(basin,))
    assert json.loads(stdout.getvalue())["t_estimate"] == float("%.12e" % ref.blowup_time)


def test_codes_only_verdicts_refuse_outcomes(monkeypatch):
    # classified without outcomes, the verdicts hold the same codes and
    # refuse to build an outcome, also when the cells ran in several batches
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    x = np.array([state.as_array() for state in
                  _grid(np.linspace(-4.0, 1.0, 6), np.linspace(0.5, 2.0, 4))]).T
    y0s, C0s = np.repeat(np.linspace(-2.0, 0.5, 6), 5), np.tile(np.linspace(0, 0.5, 5), 6)
    bounds = AlignmentBounds(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.1)
    for batch_cells in (euler_poisson._MAX_BATCH_CELLS, 10):
        monkeypatch.setattr(euler_poisson, "_MAX_BATCH_CELLS", batch_cells)
        for classify in (lambda **kw: classify_ep_columns(x, EP1, cfg, **kw),
                         lambda **kw: classify_ea_many("q", y0s, C0s, bounds, 2.0, **kw)):
            full, codes_only = classify(), classify(outcomes=False)
            assert np.array_equal(codes_only.codes, full.codes)
            assert len(set(full.codes.tolist())) > 1
            assert full[0].verdict is not None and len(codes_only) == len(full)
            for cell in (0, -1):
                with pytest.raises(ValueError, match="without outcomes"):
                    codes_only[cell]
            with pytest.raises(ValueError, match="without outcomes"):
                list(codes_only)
            with pytest.raises(IndexError):
                codes_only[len(full)]


def test_only_sweeps_run_lanes_without_blowup_times(monkeypatch):
    # run_sweep reads codes only, so its lane batches keep no samples for
    # blowup-time fits; classify_cells keeps them for the outcomes it builds.
    # The n = 1 grids straddle the threshold within the margins the exact
    # orbit leaves to the lanes
    requested = []

    def recorded(*args, blowup_times=True, **kwargs):
        requested.append(blowup_times)
        return integrate_lanes(*args, blowup_times=blowup_times, **kwargs)

    monkeypatch.setattr(euler_poisson, "integrate_lanes", recorded)
    sweeps = {
        "ep": ("[model]\nn = 1\nc = 0.0\n\n[sweep]\naxis1_min = -2.00001\naxis1_max = -1.99999\n"
               "axis1_steps = 6\naxis2_min = 1.99999\naxis2_max = 2.00001\naxis2_steps = 6\n"),
        "ep-c1-coarse": ("[model]\nn = 1\nc = 1.0\n\n[integrator]\nrel_tol = 1e-3\n"
                         "abs_tol = 1e-5\n\n[sweep]\naxis1_min = -1.75\naxis1_max = -1.715\n"
                         "axis1_steps = 6\naxis2_min = 1.98\naxis2_max = 2.02\naxis2_steps = 6\n"),
        "ea": ("[model]\nkind = euler-alignment\nn = 2\n\n[alignment]\nC0 = 0.1\n\n"
               "[sweep]\naxis1 = y0\naxis1_min = -2\naxis1_max = 0.5\naxis1_steps = 6\n"
               "axis2 = C0\naxis2_min = 0\naxis2_max = 0.5\naxis2_steps = 5\n"),
    }
    for name, text in sweeps.items():
        requested.clear()
        cfg = parse_config_text(text)
        swept = run_sweep(cfg)
        assert requested and not any(requested), name
        requested.clear()
        (name1, name2), axis1, axis2 = swept.axis_names, swept.axis1, swept.axis2
        verdicts = classify_cells(cfg, **{name1: np.repeat(axis1, len(axis2)),
                                          name2: np.tile(axis2, len(axis1))})
        assert requested and all(requested), name
        assert np.array_equal(verdicts.codes, swept.codes.ravel()), name
        blown = np.flatnonzero(verdicts.codes == VERDICT_CODES[Verdict.FINITE_TIME_BLOWUP])
        assert len(blown) and all(verdicts[cell].t_estimate > 0.0 for cell in blown), name


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
    outs = classify_ep_columns(np.array([[p, 0.0, 0.0, r] for p, r in cells]).T, params)
    assert len(cells) == n_super
    for (p, r), out in zip(cells, outs):
        t_star = _first_zero_1d(p, r, c)
        assert out.is_blowup, (p, r)
        assert abs(out.t_estimate - t_star) <= 1e-6 * t_star, (p, r)


def _wv_basis(n, kappa, c, q0, s0, t_max):
    """The exact (q, s) orbit and, along it, the three solutions v is built from.

    ``wv_system`` is linear in (w, v) = (p, 1) e^{(n-1) A} / rho with w = v',
    v'' = -kappa (c + (n-1) s) v + kappa e^{(n-1) A} and
    e^{(n-1) A} = ((s + c/n) / (s0 + c/n))^{(n-1)/n}.  So
    v = v0 phi1 + w0 phi2 + v_p, where phi1 and phi2 are the homogeneous
    solutions with (v, w)(0) = (1, 0) and (0, 1) and v_p the particular one
    from (0, 0).  Returns the dense output of (q, s, phi1, phi1', phi2,
    phi2', v_p, v_p') by scipy's DOP853 at rtol 1e-12.
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        q, s, a, da, b, db, vp, dvp = y
        k = -kappa * (c + (n - 1.0) * s)
        force = kappa * ((s + c / n) / (s0 + c / n)) ** ((n - 1.0) / n)
        return [-q * q + kappa * s, -(n * s + c) * q, da, k * a, db, k * b, dvp,
                k * vp + force]

    sol = solve_ivp(rhs, (0.0, t_max), [q0, s0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                    method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
    assert sol.status == 0
    return sol


def test_ep3_grid_matches_exact_wv_oracle():
    # the benchmark's 20 x 20 grid of (p0, rho0) at n = 3, kappa = 1, c = 0,
    # (q0, s0) = (1, 0.01), default integrator: a state blows up within the
    # horizon exactly when v reaches 0 there, at v's first zero.  Every cell
    # must agree with that or be inconclusive.  Blowup times agreed to
    # 2.9e-8 relative at most (median 1.6e-9) over the 187 blowup cells when
    # this test was written, hence the 1e-7 bound.
    from scipy.optimize import brentq
    t_max = IntegratorConfig().t_max
    sol = _wv_basis(3.0, 1.0, 0.0, 1.0, 0.01, t_max)
    p0 = np.repeat(np.linspace(-3.0, 1.0, 20), 20)
    rho0 = np.tile(np.linspace(0.25, 3.0, 20), 20)
    w0, v0 = p0 / rho0, 1.0 / rho0

    def v(t, cell):
        _, _, phi1, _, phi2, _, vp, _ = sol.sol(t)
        return v0[cell] * phi1 + w0[cell] * phi2 + vp

    ts = np.union1d(sol.t, np.linspace(0.0, t_max, 40001))
    vs = v(ts, np.arange(400)[:, None])
    x = np.array([p0, np.ones(400), np.full(400, 0.01), rho0])
    out = classify_ep_columns(x, ModelParams(n=3, kappa=1, c=0))
    blowups = 0
    for cell in range(400):
        below = np.flatnonzero(vs[cell] <= 0.0)
        oracle = VERDICT_CODES[Verdict.FINITE_TIME_BLOWUP if len(below)
                               else Verdict.GLOBAL_BOUNDED]
        code = out.codes[cell]
        assert code in (oracle, VERDICT_CODES[Verdict.INCONCLUSIVE]), (p0[cell], rho0[cell])
        if len(below) and code == oracle:
            k = below[0]
            t_zero = brentq(v, ts[k - 1], ts[k], args=(cell,), xtol=1e-14, rtol=1e-15)
            assert abs(out[cell].t_estimate - t_zero) <= 1e-7 * t_zero, (p0[cell], rho0[cell])
            blowups += 1
    assert blowups == 187 and np.count_nonzero(out.codes == 0) == 213


def _sweep_text(n, c, q0, s0, t_max, steps):
    """A sweep config of p0 in [-3, 1] x rho0 in [0.25, 3], steps x steps cells."""
    return (f"[model]\nn = {n}\nc = {c}\n\n[state]\nq0 = {q0}\ns0 = {s0}\n\n"
            f"[integrator]\nt_max = {t_max}\n\n[sweep]\n"
            f"axis1_min = -3\naxis1_max = 1\naxis1_steps = {steps}\n"
            f"axis2_min = 0.25\naxis2_max = 3\naxis2_steps = {steps}\n")


def _bounded_ends(v_min, lo=-30.0, hi=30.0):
    """The ends in [lo, hi] of the w0 where ``v_min(w0)`` > 0, () if there are none.

    v_min is the minimum over t of v0 phi1 + w0 phi2 + v_p, a minimum of
    functions affine in w0, so it is concave and those w0 form one interval.
    An end at lo or hi is open (None): no threshold lies there.
    """
    from scipy.optimize import brentq
    scan = np.linspace(lo, hi, 241)
    inside = np.flatnonzero([v_min(w) > 0.0 for w in scan])
    if not len(inside):
        return ()
    i, k = inside[0], inside[-1]
    return (brentq(v_min, scan[i - 1], scan[i], xtol=1e-13) if i > 0 else None,
            brentq(v_min, scan[k], scan[k + 1], xtol=1e-13) if k + 1 < len(scan) else None)


# (n, c, q0, s0), two orbits per (n, c): expanding and compressive (q, s) data,
# decaying to the origin for c = 0 and periodic for c = 0.5
WV_ORACLE_CASES = [(2, 0.0, 0.5, 0.1), (2, 0.0, -0.5, 0.2), (3, 0.0, 0.3, 0.05),
                   (3, 0.0, -0.5, 0.1), (2, 0.5, 0.3, 0.2), (2, 0.5, -0.5, 0.1),
                   (3, 0.5, 0.3, 0.05), (3, 0.5, -0.5, 0.2)]
# states this far in w0 = p0/rho0 from an exact threshold land on their side
WV_DELTA = 1e-3


@pytest.mark.parametrize("n, c, q0, s0", WV_ORACLE_CASES,
                         ids=[f"n{n}-c{c}-q{q0}-s{s0}" for n, c, q0, s0 in WV_ORACLE_CASES])
def test_grid_matches_exact_wv_oracle(n, c, q0, s0):
    # as test_ep3_grid_matches_exact_wv_oracle, on a p0 x rho0 grid (12 x 12,
    # 9 x 9 for c = 0.5) through both the outcomes and a sweep's codes (which
    # the (w, v) certificate settles for c = 0), plus states at w* -+ WV_DELTA
    # from the exact thresholds at three rho0.  The periodic c = 0.5 runs
    # stop at t_max = 50 to keep the lanes cheap.  When written, no grid cell
    # was inconclusive, blowup times agreed to 1.7e-7 relative at most, and
    # no state at w* -+ 1e-4 or 1e-5 left its side either (at 1e-6, some of
    # three c = 0 cases did).
    from scipy.optimize import brentq
    t_max = 200.0 if c == 0.0 else 50.0
    params, config = ModelParams(n=n, kappa=1, c=c), IntegratorConfig(t_max=t_max)
    sol = _wv_basis(n, 1.0, c, q0, s0, t_max)
    ts = np.union1d(sol.t, np.linspace(0.0, t_max, 40001))
    _, _, phi1, _, phi2, _, vp, _ = sol.sol(ts)

    def v(t, w0, v0):
        _, _, a, _, b, _, p, _ = sol.sol(t)
        return v0 * a + w0 * b + p

    swept = run_sweep(parse_config_text(_sweep_text(n, c, q0, s0, t_max,
                                                    steps=12 if c == 0.0 else 9)))
    p0 = np.repeat(swept.axis1, len(swept.axis2))
    rho0 = np.tile(swept.axis2, len(swept.axis1))
    x = np.array([p0, np.full(len(p0), q0), np.full(len(p0), s0), rho0])
    out = classify_ep_columns(x, params, config)
    assert np.array_equal(out.codes, swept.codes.ravel())
    w0, v0 = p0 / rho0, 1.0 / rho0
    vs = v0[:, None] * phi1 + w0[:, None] * phi2 + vp
    blowups = 0
    for cell in range(len(p0)):
        below = np.flatnonzero(vs[cell] <= 0.0)
        assert out.codes[cell] == (2 if len(below) else 0), (p0[cell], rho0[cell])
        if len(below):
            k = below[0]
            t_zero = brentq(v, ts[k - 1], ts[k], args=(w0[cell], v0[cell]),
                            xtol=1e-14, rtol=1e-15)
            assert abs(out[cell].t_estimate - t_zero) <= 1e-6 * t_zero, (p0[cell], rho0[cell])
            blowups += 1
    assert 0 < blowups < len(p0)

    near_p, near_rho, sides = [], [], []
    for r in (0.5, 1.0, 2.5):
        ends = _bounded_ends(lambda w: float(np.min(phi1 / r + w * phi2 + vp)))
        # the interval's left end has its bounded side above, the right end below
        for end, inward in zip(ends, (1.0, -1.0)):
            if end is not None:
                near_p += [r * (end + inward * WV_DELTA), r * (end - inward * WV_DELTA)]
                near_rho += [r, r]
                sides += [0, 2]
    assert sides
    x = np.array([near_p, np.full(len(sides), q0), np.full(len(sides), s0), near_rho])
    assert classify_ep_columns(x, params, config).codes.tolist() == sides
    assert classify_ep_columns(x, params, config, outcomes=False).codes.tolist() == sides


def _lane_cells(monkeypatch):
    """The number of cells each lane classification of euler_poisson receives."""
    cells, lanes = [], euler_poisson._classify_ep_lanes
    monkeypatch.setattr(euler_poisson, "_classify_ep_lanes",
                        lambda x, *args, **kwargs: cells.append(x.shape[1])
                        or lanes(x, *args, **kwargs))
    return cells


@functools.lru_cache(maxsize=None)
def _exact_basis(n, q0, s0, t_max=200.0):
    """phi1, phi2 and v_p of the zero-background orbit, read densely over [0, t_max]."""
    sol = _wv_basis(n, 1.0, 0.0, q0, s0, t_max)
    _, _, phi1, _, phi2, _, vp, _ = sol.sol(np.union1d(sol.t, np.linspace(0.0, t_max, 40001)))
    return phi1, phi2, vp


@functools.lru_cache(maxsize=None)
def _exact_thresholds(n, q0, s0, rho0):
    """The ends of the exact bounded interval of w0 at c = 0 (see _bounded_ends)."""
    phi1, phi2, vp = _exact_basis(n, q0, s0)
    return _bounded_ends(lambda w: float(np.min(phi1 / rho0 + w * phi2 + vp)))


@pytest.mark.parametrize("tol", [None, 1e-6, 1e-3], ids=["default", "1e-6", "1e-3"])
def test_certificate_codes_match_the_lanes(monkeypatch, caplog, tol):
    # codes-only verdicts of zero-background multi-D grids, which share one
    # (q0, s0): the (w, v) basis settles most cells, the rest run as lanes,
    # and the codes are the lanes' own for every cell, also for states
    # 1e-7 to 0.1 in w0 from an exact threshold, where the lanes' own error
    # decides; n = 3, (1, 0.01) is the benchmark's orbit and (-1, 0.01) a
    # compressive one, at n = 4, (0, 0.5), rho0 = 1 v is least at t_max,
    # and at 1e-3 the lanes of n = 2, (0, 1), rho0 = 0.3 are inconclusive
    # up to 0.04 below w*
    import logging
    config = IntegratorConfig() if tol is None else IntegratorConfig(rel_tol=tol,
                                                                     abs_tol=tol / 100)
    lane_cells = _lane_cells(monkeypatch)
    caplog.set_level(logging.INFO, logger="radial_euler.euler_poisson")
    offsets = np.concatenate((-np.logspace(-7, -1, 13), np.logspace(-7, -1, 13)))
    for n, q0, s0, steps, least in [(3, 1.0, 0.01, 20, 0.9), (3, -1.0, 0.01, 12, 0.9),
                                    (2, 0.5, 0.1, 12, 0.85), (4, 0.0, 0.5, 12, 0.85),
                                    (2, 0.0, 1.0, 12, 0.85)]:
        params = ModelParams(n=n, kappa=1, c=0)
        p0 = np.repeat(np.linspace(-3.0, 1.0, steps), steps)
        rho0 = np.tile(np.linspace(0.25, 3.0, steps), steps)
        x = np.array([p0, np.full(p0.size, q0), np.full(p0.size, s0), rho0])
        lane_cells.clear()
        caplog.clear()
        codes = classify_ep_columns(x, params, config, outcomes=False).codes
        settled = p0.size - sum(lane_cells)
        assert settled >= least * p0.size, (n, q0, s0, settled)
        assert any(
            f"{p0.size} cells share the (q0, s0) orbit" in message
            and f"{p0.size - settled} left to the lanes" in message
            for message in caplog.messages)
        lane_cells.clear()
        assert np.array_equal(codes, classify_ep_columns(x, params, config).codes), (n, q0, s0)
        assert lane_cells == [p0.size]

        near = [(r * (end + offset), r) for r in (0.3, 1.0, 2.5)
                for end in _exact_thresholds(n, q0, s0, r) if end is not None
                for offset in offsets]
        if near:
            x = np.array([[p, q0, s0, r] for p, r in near]).T
            assert np.array_equal(classify_ep_columns(x, params, config, outcomes=False).codes,
                                  classify_ep_columns(x, params, config).codes), (n, q0, s0)


def test_certificate_leaves_what_lanes_cannot_follow(monkeypatch):
    # settings under which some lanes end otherwise than their exact orbit:
    # a step floor makes blowup lanes collapse (inconclusive), so only
    # bounded cells are settled; a step budget under 100 basis runs settles
    # none; a low cap settles only bounded cells whose |p| and rho stay far
    # below it (all 77 bounded cells reach 3.08 at most)
    params = ModelParams(n=3, kappa=1, c=0)
    p0 = np.repeat(np.linspace(-3.0, 1.0, 12), 12)
    rho0 = np.tile(np.linspace(0.25, 3.0, 12), 12)
    x = np.array([p0, np.full(144, 1.0), np.full(144, 0.01), rho0])
    lane_cells = _lane_cells(monkeypatch)
    for config, settled in [
            (IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, h_min=1e-4, h_init=1e-4), "bounded"),
            (IntegratorConfig(max_steps=400), "none"),
            (IntegratorConfig(magnitude_cap=3e3), "some")]:
        lane_cells.clear()
        codes = classify_ep_columns(x, params, config, outcomes=False).codes
        lanes = classify_ep_columns(x, params, config).codes
        assert np.array_equal(codes, lanes), config
        ran = lane_cells[0] if len(lane_cells) == 2 else 0
        if settled == "bounded":
            assert np.count_nonzero(lanes == 3) >= 50 and ran == 144 - np.count_nonzero(lanes == 0)
        elif settled == "none":
            assert ran == 144
        else:
            # every cell settled bounded stays below a thousandth of the cap
            bounded = euler_poisson._wv_settled(x, params, config) == 0
            outs = classify_ep_columns(x[:, bounded], params, config)
            assert 0 < ran < 144 and max(out.diagnostics["max_norm"] for out in outs) < 3.0


def test_certificate_settles_blowups_clearly_before_t_max():
    # a blowup is settled only where v falls below minus the margin before
    # 0.99 t_max; a later fall is left to the lanes
    params = ModelParams(n=3, kappa=1, c=0)
    x = np.array([[-2.0], [1.0], [0.01], [1.5]])
    t_blowup = classify_ep_columns(x, params)[0].t_estimate
    for share, settled in [(0.9, [2]), (0.995, [-1])]:
        config = IntegratorConfig(t_max=t_blowup / share)
        assert euler_poisson._wv_settled(x, params, config).tolist() == settled
        assert classify_ep_columns(x, params, config, outcomes=False).codes.tolist() == [2]


def test_certificate_falls_back_to_the_lanes(monkeypatch):
    # compressive data whose (q, s) excursion escapes the cap: the basis run
    # does not reach t_max, so its truncated record must decide no cell
    params, config = ModelParams(n=2, kappa=1, c=0), IntegratorConfig()
    basis = integrate(wv_basis_system(params, 0.05), (-2.0, 0.05, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
                      replace(config, rel_tol=euler_poisson._WV_REL_TOL,
                              abs_tol=euler_poisson._WV_ABS_TOL))
    assert basis.termination is not Termination.REACHED_HORIZON
    p0 = np.repeat(np.linspace(-3.0, 1.0, 20), 20)
    rho0 = np.tile(np.linspace(0.25, 3.0, 20), 20)
    x = np.array([p0, np.full(400, -2.0), np.full(400, 0.05), rho0])
    assert euler_poisson._wv_settled(x, params, config).tolist() == [-1] * 400
    lane_cells = _lane_cells(monkeypatch)
    codes = classify_ep_columns(x, params, config, outcomes=False).codes
    assert lane_cells == [400]
    assert np.array_equal(codes, classify_ep_columns(x, params, config).codes)


def _basis_reads(params, q0, s0, config):
    """The certificate's basis run, and the times it reads: its nodes and _WV_READS."""
    rec = integrate(wv_basis_system(params, s0), (q0, s0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
                    replace(config, rel_tol=euler_poisson._WV_REL_TOL,
                            abs_tol=euler_poisson._WV_ABS_TOL))
    return rec, np.concatenate((rec.ts, (rec.ts[:-1, None] + np.diff(rec.ts)[:, None]
                                         * np.array(euler_poisson._WV_READS)).ravel()))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_error_stays_far_inside_the_margin(n):
    # why the band holds: the basis at _WV_REL_TOL gives every cell's v, at
    # the nodes and reads, within _WV_MARGIN / 10 of its size |v0 phi1| +
    # |w0 phi2| + |v_p| against scipy's DOP853 at rtol 1e-12.  When written
    # the worst was 8.1e-5, on the compressive n = 3 orbit (-1, 0.01), and
    # below 1.1e-5 on every other orbit; a basis at 1e-4 reached 0.23
    params, config = ModelParams(n=n, kappa=1, c=0), IntegratorConfig()
    p0 = np.repeat(np.linspace(-3.0, 1.0, 20), 20)
    rho0 = np.tile(np.linspace(0.25, 3.0, 20), 20)
    w0, v0 = p0 / rho0, 1.0 / rho0
    read = 0
    for q0, s0 in [(1.0, 0.01), (-1.0, 0.01), (0.5, 0.1), (0.0, 0.5), (-0.5, 0.1), (0.0, 1.0)]:
        rec, t = _basis_reads(params, q0, s0, config)
        if rec.termination is not Termination.REACHED_HORIZON:
            continue    # the certificate reads no basis that ends early (n = 2, (-1, 0.01))
        read += 1
        _, _, phi1, _, phi2, _, vp, _ = rec.sample_many(t).T
        _, _, phi1_x, _, phi2_x, _, vp_x, _ = _wv_basis(n, 1.0, 0.0, q0, s0, config.t_max).sol(t)
        error = np.abs(v0[:, None] * (phi1 - phi1_x) + w0[:, None] * (phi2 - phi2_x)
                       + (vp - vp_x))
        size = v0[:, None] * np.abs(phi1_x) + np.abs(w0)[:, None] * np.abs(phi2_x) + np.abs(vp_x)
        assert np.max(error / size) <= euler_poisson._WV_MARGIN / 10, (q0, s0)
    assert read >= 5


def test_certificate_step_budget_holds_four_hundred_basis_runs():
    # on the benchmark's orbit the basis takes 73 steps (a 1e-10 basis took
    # 243): a lane budget of 15,000 steps, under 400 basis runs, settles no
    # cell, as the 1e-10 basis with a budget of 100 runs settled none
    params = ModelParams(n=3, kappa=1, c=0)
    p0 = np.repeat(np.linspace(-3.0, 1.0, 20), 20)
    rho0 = np.tile(np.linspace(0.25, 3.0, 20), 20)
    x = np.array([p0, np.full(400, 1.0), np.full(400, 0.01), rho0])
    assert (euler_poisson._wv_settled(x, params, IntegratorConfig(max_steps=15000)) < 0).all()
    assert (euler_poisson._wv_settled(x, params, IntegratorConfig(max_steps=30000)) >= 0).all()


@pytest.mark.parametrize("params, q, s", [
    (ModelParams(n=1, kappa=1, c=0), 0.0, 0.0), (ModelParams(n=3, kappa=1, c=0.5), 0.3, 0.05),
    (ModelParams(n=3, kappa=1, model=Model.INVISCID_BURGERS), 0.3, 0.0),
    (ModelParams(n=3, kappa=1, c=0), np.linspace(0.2, 1.0, 36), 0.05),
], ids=["n1", "background", "burgers", "several-orbits"])
def test_certificate_settles_only_one_zero_background_orbit(params, q, s):
    # n = 1 (where v is sigma_1d's closed form), c > 0, the Burgers models and
    # columns of several (q0, s0) all run as lanes
    p0 = np.repeat(np.linspace(-3.0, 1.0, 6), 6)
    x = np.array([p0, np.broadcast_to(q, (36,)), np.broadcast_to(s, (36,)),
                  np.tile(np.linspace(0.25, 3.0, 6), 6)])
    assert euler_poisson._wv_settled(x, params, IntegratorConfig()).tolist() == [-1] * 36


@pytest.mark.parametrize("n, q0, s0, p0, rho0", [
    (2, 0.0, 0.5, -2.481203007518797, 3.4203389830508475),
    (3, 0.5, 0.05, -1.786967418546366, 2.288135593220339),
], ids=["n2", "n3"])
def test_certificate_reads_between_basis_nodes(monkeypatch, n, q0, s0, p0, rho0):
    # v of these cells dips into the margin only between the basis run's
    # nodes: the reads between them leave the cell to the lanes, and the
    # nodes alone would settle it (as bounded, which the lanes also say)
    params, config = ModelParams(n=n, kappa=1, c=0), IntegratorConfig()
    cell = np.array([[p0], [q0], [s0], [rho0]])
    assert euler_poisson._wv_settled(cell, params, config).tolist() == [-1]
    with monkeypatch.context() as m:
        m.setattr(euler_poisson, "_WV_READS", ())
        assert euler_poisson._wv_settled(cell, params, config).tolist() == [0]
    # a 3 x 3 grid centred on the cell: codes only equal the outcomes' codes
    p = np.repeat(p0 + np.array([-0.5, 0.0, 0.5]), 3)
    rho = np.tile(rho0 + np.array([-0.5, 0.0, 0.5]), 3)
    x = np.array([p, np.full(9, q0), np.full(9, s0), rho])
    codes = classify_ep_columns(x, params, config, outcomes=False).codes
    assert codes[4] == VERDICT_CODES[Verdict.GLOBAL_BOUNDED]
    assert codes.tolist() == [VERDICT_CODES[out.verdict]
                              for out in classify_ep_columns(x, params, config)]


@pytest.mark.parametrize("n, c, q0, s0", [(1, 0.0, 0.0, 0.0), (1, 1.0, 0.0, 0.0),
                                          (3, 0.0, 0.3, 0.05)],
                         ids=["1d-c0", "1d-c1", "3d"])
def test_scaling_symmetry(n, c, q0, s0):
    # t -> t / l maps solutions to solutions when (p, q) scale by l and
    # (s, rho, c) by l^2, so the verdict holds and blowup comes l times sooner
    def classify(l):
        states = [CharState(p=l * p, q=l * q0, s=l * l * s0, rho=l * l * r)
                  for p in np.linspace(-4.0, 4.0, 15) for r in np.linspace(0.1, 4.0, 15)]
        return classify_ep_columns(np.array([state.as_array() for state in states]).T,
                                   ModelParams(n=n, kappa=1, c=l * l * c))

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


def test_qshat_run_that_stops_early_raises():
    # q0 = 1e300 makes the rhs non-finite at t = 0: the run once ended there
    # and its constants came out NaN, which curves printed as threshold rows
    params = ModelParams(n=3, kappa=1, c=0)
    with pytest.raises(IntegrationFailure, match=r"^\(q_hat, s_hat\) run stopped at "
                                                 r"t_hat = 0 of 40: non-finite rhs"):
        qshat_integrate(params, (1e300, 0.01))
    with pytest.raises(IntegrationFailure):
        compute_threshold_constants(params, (1e300, 0.01))


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


def _dcrit_loop(v0, gamma, kappa):
    """compute_dcrit as a loop of Python floats, whose bits it must keep."""
    v0, gamma, kappa = float(v0), float(gamma), float(kappa)
    d_max = kappa / (gamma + 1.0)
    if v0 >= kappa / (gamma * (gamma + 1.0)):
        return d_max
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if v0 + kappa / gamma * mid ** (gamma / (gamma + 1.0)) - d_max * (mid + 1.0 / gamma) < 0:
            lo = mid
        else:
            hi = mid
    return d_max * (1.0 - 0.5 * (lo + hi))


def test_explicit_bound_arrays_keep_the_scalar_bits():
    # one array bisection equals a loop of Python floats (whose ** calls the
    # C library pow) bit for bit: on the benchmark curve's 200 v0 and on
    # 15,000 random (v0, gamma, kappa); a float v0 gives a float
    consts = compute_threshold_constants(ModelParams(n=3, kappa=1.0, c=0.0), (1.0, 0.01))
    v0s = np.linspace(0.01, 2.0, 200)
    sigma = explicit_sigma_plus(v0s, consts, 1.0, 3.0)
    scalar = [explicit_sigma_plus(float(v0), consts, 1.0, 3.0) for v0 in v0s]
    assert all(type(value) is float for value in scalar)
    assert sigma.tobytes() == np.array(scalar).tobytes()
    assert (compute_dcrit(v0s, consts.gamma, 1.0).tobytes()
            == np.array([_dcrit_loop(v0, consts.gamma, 1.0) for v0 in v0s]).tobytes())
    rng = np.random.default_rng(2027)
    for _ in range(100):
        gamma, kappa = rng.uniform(0.05, 8.0), rng.uniform(0.1, 5.0)
        # up to twice the v0 above which the bisection is skipped
        v0 = np.exp(rng.uniform(np.log(1e-6), np.log(2.0), 150)) * kappa / (gamma * (gamma + 1))
        assert (compute_dcrit(v0, gamma, kappa).tobytes()
                == np.array([_dcrit_loop(v, gamma, kappa) for v in v0]).tobytes())
    assert compute_dcrit(float(v0[0]), gamma, kappa) == _dcrit_loop(v0[0], gamma, kappa)


def test_supercritical_w0_below_minus_C():
    params = ModelParams(n=3, kappa=1, c=0)
    consts = compute_threshold_constants(params, (1.0, 0.01))
    rho0 = 1.0
    p0 = rho0 * (-consts.C - 0.1)
    out = classify_ep(CharState(p=p0, q=1.0, s=0.01, rho=rho0), params)
    assert out.is_blowup


def test_explicit_bound_lies_inside_the_exact_bounded_set():
    # criterion 06's 20 v0 (n = 3, kappa = 1, c = 0, (q0, s0) = (1, 0.01)):
    # the exact threshold w* of each, bisected on the (w, v) oracle, has -C
    # on its blowup side and the explicit bound -sigma_+ on its bounded side.
    # When written, w* - (-C) ran from 1.79 to 2.20 and -sigma_+ - w* from
    # 0.105 to 0.116
    params = ModelParams(n=3, kappa=1.0, c=0.0)
    consts = compute_threshold_constants(params, (1.0, 0.01))
    phi1, phi2, vp = _exact_basis(3, 1.0, 0.01)
    for v0 in np.random.default_rng(7).uniform(0.2, 2.0, 20):
        w_star, upper = _bounded_ends(lambda w: float(np.min(v0 * phi1 + w * phi2 + vp)))
        assert upper is None
        sigma_plus = explicit_sigma_plus(float(v0), consts, 1.0, 3.0)
        assert -consts.C < w_star < sigma_plus, (v0, w_star)


def test_wv_transform_consistency():
    # v0 phi1 + w0 phi2 + v_p and its derivative, read from one run of the
    # basis system, match (w, v) built from the integrated (p, q, s, rho) state
    q0, s0, p0, rho0 = 0.5, 0.5, 0.2, 1.0
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, h_max=0.05, t_max=8.0)
    from radial_euler import ep_full_system
    for params in (ModelParams(n=3, kappa=1, c=0), ModelParams(n=2, kappa=1, c=0.5)):
        n, c = params.n, params.c
        rec = integrate(ep_full_system(params), (p0, q0, s0, rho0), tight)
        basis = integrate(wv_basis_system(params, s0), (q0, s0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
                          tight)
        tt = np.linspace(0.1, 7.9, 40)
        full = rec.sample_many(tt)
        a = ((full[:, 2] + c / n) / (s0 + c / n)) ** ((n - 1) / n)
        w_direct = full[:, 0] / full[:, 3] * a
        v_direct = 1.0 / full[:, 3] * a
        _, _, phi1, dphi1, phi2, dphi2, vp, dvp = basis.sample_many(tt).T
        w0, v0 = p0 / rho0, 1.0 / rho0
        assert np.max(np.abs(v0 * dphi1 + w0 * dphi2 + dvp - w_direct)) < 1e-5
        assert np.max(np.abs(v0 * phi1 + w0 * phi2 + vp - v_direct)) < 1e-5


# The code-equality gate of the (w, v) certificate, over 228,360 cells:
# n in {2, 3, 4} at c = 0, seven (q0, s0) each and the compressive
# (-1, 0.01) at n > 2 (whose n = 2 orbit escapes the cap), rel_tol 1e-3 to
# 1e-8 with confirm on and off, and lane budgets of 400, 15,000 and 30,000
# steps.  It takes minutes, so tier-1 deselects it; run it with
# `python -m pytest -m gate` before a change to the certificate or its basis.
GATE_ORBITS = [(1.0, 0.01), (-1.0, 0.05), (0.5, 0.1), (0.0, 0.5), (-0.5, 0.1), (0.0, 1.0),
               (2.0, 0.2)]
# cells whose lanes end otherwise than their exact orbit, by (n, q0, s0,
# rel_tol): the certificate settles them bounded, as the orbit is (v stays
# above 0.0058 of its size), while at 1e-4 a lane passes the cap near
# t = 20, a false blowup that the 1e-5 confirm run flips to inconclusive
GATE_LANE_ERRORS = {(4, -1.0, 0.01, 1e-4): {(1.0, 2.0434782608695654)}}
GATE_CONFIGS = ([(IntegratorConfig(rel_tol=tol, abs_tol=tol / 100), confirm)
                 for tol in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8) for confirm in (True, False)]
                + [(IntegratorConfig(max_steps=steps), True) for steps in (400, 15000, 30000)])


def gate_cells(n, q0, s0):
    """A 24 x 24 p0 x rho0 grid on the orbit (q0, s0), then states 1e-7 to
    0.1 in w0 from the exact thresholds at rho0 = 0.3, 1 and 2.5."""
    offsets = np.concatenate((-np.logspace(-7, -1, 13), np.logspace(-7, -1, 13)))
    near = [(r * (end + offset), r) for r in (0.3, 1.0, 2.5)
            for end in _exact_thresholds(n, q0, s0, r) if end is not None for offset in offsets]
    p0 = np.concatenate((np.repeat(np.linspace(-3.0, 1.0, 24), 24), [p for p, _ in near]))
    rho0 = np.concatenate((np.tile(np.linspace(0.25, 3.0, 24), 24), [r for _, r in near]))
    return np.array([p0, np.full(p0.size, q0), np.full(p0.size, s0), rho0])


@pytest.mark.gate
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gate_certificate_codes_equal_the_lanes(n):
    # codes only (the certificate, then lanes for what it leaves) equal the
    # lanes' codes on every cell but GATE_LANE_ERRORS', which they settle
    # bounded, and the lanes' step budget refuses every basis that 100 runs
    # of a 1e-10 basis refused
    params, cells = ModelParams(n=n, kappa=1, c=0), 0
    for q0, s0 in GATE_ORBITS + [(-1.0, 0.01)] * (n > 2):
        x = gate_cells(n, q0, s0)
        for config, confirm in GATE_CONFIGS:
            codes = classify_ep_columns(x, params, config, confirm, outcomes=False).codes
            lanes = classify_ep_columns(x, params, config, confirm).codes
            moved = np.flatnonzero(codes != lanes)
            assert {(x[0, i], x[3, i]) for i in moved} == GATE_LANE_ERRORS.get(
                (n, q0, s0, config.rel_tol), set()), (q0, s0, config, confirm, [
                    (x[0, i], x[3, i], codes[i], lanes[i]) for i in moved[:5]])
            assert not codes[moved].any()
            cells += x.shape[1]
        basis, _ = _basis_reads(params, q0, s0, IntegratorConfig())
        fine = integrate(wv_basis_system(params, s0), (q0, s0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
                         IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
        if basis.termination is Termination.REACHED_HORIZON:
            assert (euler_poisson._WV_STEP_BUDGET * (len(basis.ts) - 1)
                    >= 100 * (len(fine.ts) - 1)), (q0, s0)
    assert cells >= 60_000


# The code-equality gate of the exact n = 1 orbit (:func:`_orbit_settled`),
# whose margin is the lanes' share alone: 50 times their coarser tolerance
GATE_1D_RATIOS = np.outer([1.0, -1.0], np.outer(np.logspace(-8, -3, 6), [1.0, 3.0])).ravel()


def gate_cells_1d(c, kappa):
    """(p, q, s, rho) columns built from the closed form at signed floor/size
    GATE_1D_RATIOS (-+{1, 3} x 1e-8 ... 1e-3, negative for blowups), and
    each column's ratio.  For c = 0 the orbit's v = 1/rho is a parabola of
    size v0 + u and floor v0 - u, u = w0^2 / (2 kappa), at rho0 = 0.3, 1 and
    2.5 with w0 < 0; for c > 0 it is 1/c + amp cos, of size 1/c + amp and
    floor 1/c - amp, at v0 = 0.3, 1 and 1.7 over c with w0 of either sign."""
    p0, rho0, cell_ratio = [], [], []
    for ratio in GATE_1D_RATIOS:
        shrink = (1.0 - ratio) / (1.0 + ratio)
        if c == 0.0:
            for v0 in 1.0 / np.array([0.3, 1.0, 2.5]):
                p0 += [-math.sqrt(2.0 * kappa * v0 * shrink) / v0]
                rho0 += [1.0 / v0]
        else:
            amp = shrink / c
            for v0 in np.array([0.3, 1.0, 1.7]) / c:
                w0 = math.sqrt(kappa * c) * math.sqrt(amp * amp - (v0 - 1.0 / c) ** 2)
                p0 += [w0 / v0, -w0 / v0]
                rho0 += [1.0 / v0] * 2
        cell_ratio += [ratio] * (len(p0) - len(cell_ratio))
    return _ep1_columns(np.array(p0), np.array(rho0)), np.array(cell_ratio)


def _orbit_codes_equal_the_lanes(cs, kappas, tols, abs_shares=(0.01, 1.0), **limits):
    """Codes only against the lanes over every (c, kappa, tol, abs_tol share,
    confirm); (cells, cells with 50 tol < |floor/size| < 1e-3 that the orbit
    left to the lanes)."""
    cells, left = 0, 0
    for c, kappa in itertools.product(cs, kappas):
        params = ModelParams(n=1, kappa=kappa, c=c)
        x, ratio = gate_cells_1d(c, kappa)
        for tol, share, confirm in itertools.product(tols, abs_shares, (True, False)):
            config = IntegratorConfig(rel_tol=tol, abs_tol=tol * share, **limits)
            settled = euler_poisson._orbit_settled(x, params, config)
            codes = classify_ep_columns(x, params, config, confirm, outcomes=False).codes
            lanes = classify_ep_columns(x, params, config, confirm).codes
            moved = np.flatnonzero(codes != lanes)
            assert not len(moved), (c, kappa, config, confirm, [
                (x[0, i], x[3, i], ratio[i], codes[i], lanes[i]) for i in moved[:5]])
            band = (np.abs(ratio) > 50.0 * tol) & (np.abs(ratio) < 1e-3)
            left += np.count_nonzero(band & (settled < 0))
            cells += x.shape[1]
    return cells, left


@pytest.mark.gate
def test_gate_orbit_codes_equal_the_lanes():
    # codes only (the exact n = 1 orbit, then lanes for what it leaves) equal
    # the lanes' codes on every cell from 1e-8 to 3e-3 of the orbit's size
    # either side of the threshold, over c, kappa and rel_tol 1e-3 to 1e-8
    cells, _ = _orbit_codes_equal_the_lanes(
        (0.0, 0.01, 0.5, 1.0, 2.0, 30.0), (0.05, 0.5, 1.0, 2.0, 20.0),
        (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8))
    assert cells >= 90_000


def test_orbit_settles_the_band_between_the_tolerance_and_1e_3():
    # a tier-1 slice of the n = 1 gate: at rel_tol 1e-6 and 1e-8 the codes
    # equal the lanes', and every cell whose floor lies between 50 tol and
    # 1e-3 of its orbit's size is settled without a lane.  The cap's
    # thousandth lies above every 1/floor (1.25e6 at most), and the cap
    # below the size where a 1e-9 lane's steps would shrink to h_min
    cells, left = _orbit_codes_equal_the_lanes(
        (0.0, 1.0), (1.0,), (1e-6, 1e-8), abs_shares=(0.01,), magnitude_cap=1.5e9)
    assert cells > 0 and left == 0


def _floor_share(p0, rho0, kappa, c):
    """|floor| / size of v = 1/rho over the exact n = 1 orbit, the size being
    1/c + amplitude for c > 0 and v0 + w0^2 / (2 kappa) for c = 0."""
    floor = euler_poisson._v_floor(p0, rho0, kappa, c)
    size = (1.0 / c + euler_poisson._orbit_amplitude(p0, rho0, kappa, c) if c > 0.0
            else (1.0 + p0 * p0 / (2.0 * kappa * rho0)) / rho0)
    return np.abs(floor) / size


@pytest.mark.parametrize("c", [0.0, 1.0], ids=["c0", "c1"])
def test_sweep_1d_is_sharp_beyond_the_tolerance_band(c):
    # paper result (i): every codes-only cell whose floor of v lies further
    # than 50 tol of its orbit's size from 0 holds sigma_1d's region, 0 if
    # subcritical and 2 else.  On the benchmark's seed-0 n = 1 sweep (40 x 40,
    # p0 in [-4, 4], rho0 in [0.1, 4], rel_tol 1e-6, abs_tol 1e-8, confirm)
    # no cell lies within that band, narrower than its oracle's one-cell band.
    # So do random cells, anywhere and near the threshold
    tol = 1e-6
    swept = run_sweep(parse_config_text(
        f"[model]\nn = 1\nc = {c}\n\n[integrator]\nrel_tol = {tol}\nabs_tol = {tol / 100}\n\n"
        "[sweep]\naxis1_min = -4.0\naxis1_max = 4.0\naxis1_steps = 40\n"
        "axis2_min = 0.1\naxis2_max = 4.0\naxis2_steps = 40\n"))
    p0, rho0 = (axis.ravel() for axis in np.meshgrid(swept.axis1, swept.axis2, indexing="ij"))
    assert np.all(_floor_share(p0, rho0, 1.0, c) > 50.0 * tol)
    cells, rng = [(p0, rho0, 1.0, swept.codes.ravel())], np.random.default_rng(30)
    for kappa in (0.3, 1.0, 4.0):
        # 400 cells anywhere, 200 at -+1e-7 ... 1e-2 from the threshold
        rho_near, side = rng.uniform(0.6, 4.0, 200), rng.choice([-1.0, 1.0], (2, 200))
        end = np.sqrt(kappa * (2.0 * rho_near - c)) * (side[0] if c else -1.0)
        p = np.concatenate((rng.uniform(-5.0, 5.0, 400),
                            end * (1.0 + side[1] * np.exp(rng.uniform(-16.1, -4.6, 200)))))
        rho = np.concatenate((np.exp(rng.uniform(-4.0, 2.3, 400)), rho_near))
        codes = classify_ep_columns(_ep1_columns(p, rho), ModelParams(n=1, kappa=kappa, c=c),
                                    IntegratorConfig(rel_tol=tol, abs_tol=tol / 100),
                                    outcomes=False).codes
        cells.append((p, rho, kappa, codes))
    for p, rho, kappa, codes in cells:
        exact = np.array([0 if sigma_1d(a, b, kappa, c) is Region.SUBCRITICAL else 2
                          for a, b in zip(p, rho)])
        wrong = np.flatnonzero((_floor_share(p, rho, kappa, c) > 50.0 * tol) & (codes != exact))
        assert not len(wrong), [(p[i], rho[i], kappa, codes[i]) for i in wrong[:5]]
