import math

import numpy as np
import pytest

from radial_euler import (EventSpec, IntegratorConfig, ModelParams, OdeSystem,
                          TailRecord, Termination, estimate_decay_exponent,
                          integrate, integrate_lanes, integrate_until_event,
                          qs_system)
from radial_euler.euler_poisson import integrate_qs

RICCATI = OdeSystem(1, lambda t, y: (-y[0] * y[0],))


def test_riccati_blowup_from_negative_data():
    rec = integrate(RICCATI, [-1.0], IntegratorConfig(t_max=20))
    assert rec.termination is Termination.BLOWUP_DETECTED
    assert 0.99 <= rec.blowup_time <= 1.01


def test_blowup_time_estimates_one_percent():
    for y0 in (-0.5, -1.0, -2.0, -10.0):
        rec = integrate(RICCATI, [y0], IntegratorConfig(t_max=50))
        assert rec.termination is Termination.BLOWUP_DETECTED
        assert abs(rec.blowup_time - (-1.0 / y0)) <= 0.01 * abs(1.0 / y0)


def test_exponential_decay_relative_accuracy():
    sys = OdeSystem(1, lambda t, y: (-y[0],))
    rec = integrate(sys, [1.0], IntegratorConfig(t_max=20, abs_tol=1e-16))
    assert rec.termination is Termination.REACHED_HORIZON
    exact = math.exp(-20.0)
    assert abs(rec.y_final[0] - exact) / exact < 1e-6


def test_riccati_decay_reaches_horizon():
    rec = integrate(RICCATI, [1.0], IntegratorConfig(t_max=100))
    assert rec.termination is Termination.REACHED_HORIZON
    assert rec.y_final[0] == pytest.approx(1.0 / 101.0, rel=1e-6)


def test_linear_event_crossing():
    sys = OdeSystem(1, lambda t, y: (1.0,))
    ev = EventSpec("zero", lambda t, y: y[0])
    rec = integrate_until_event(sys, [-1.0], IntegratorConfig(t_max=5), ev)
    assert rec.termination is Termination.EVENT
    assert abs(rec.t_event - 1.0) < 1e-9


def test_event_refinement_independent_of_h_init():
    sys = OdeSystem(1, lambda t, y: (1.0,))
    ev = EventSpec("zero", lambda t, y: y[0])
    times = []
    for h0 in (1e-4, 1e-2, 0.5):
        cfg = IntegratorConfig(t_max=5, h_init=h0)
        times.append(integrate_until_event(sys, [-1.0], cfg, ev).t_event)
    assert max(times) - min(times) < 1e-9


def test_event_refinement_smooth_system():
    sys = OdeSystem(1, lambda t, y: (math.cos(t),))   # y = sin(t) - 0.5
    ev = EventSpec("zero", lambda t, y: y[0])
    times = []
    for h0 in (1e-4, 0.3):
        cfg = IntegratorConfig(t_max=3, h_init=h0, rel_tol=1e-11, abs_tol=1e-13)
        times.append(integrate_until_event(sys, [-0.5], cfg, ev).t_event)
    assert abs(times[0] - math.pi / 6) < 1e-8
    assert abs(times[0] - times[1]) < 1e-9


def test_event_on_qs_dynamics_marks_s_maximum():
    # s' = -n s q changes sign exactly where q crosses zero
    params = ModelParams(n=2, kappa=1, c=0)
    sys = qs_system(params)
    ev = EventSpec("q-zero", lambda t, y: y[0], direction=+1)
    rec = integrate_until_event(sys, [-0.3, 1.0], IntegratorConfig(t_max=50), ev)
    assert rec.termination is Termination.EVENT
    t_star = rec.t_event
    full = integrate(sys, [-0.3, 1.0], IntegratorConfig(t_max=2 * t_star + 1))
    s_at = full.sample(t_star)[1]
    assert s_at > full.sample(t_star - 0.05)[1]
    assert s_at > full.sample(t_star + 0.05)[1]


def test_event_never_fires():
    sys = OdeSystem(1, lambda t, y: (-y[0],))
    ev = EventSpec("zero", lambda t, y: y[0])   # y stays positive
    rec = integrate_until_event(sys, [1.0], IntegratorConfig(t_max=5), ev)
    assert rec.termination is Termination.REACHED_HORIZON


def test_non_terminal_events_are_logged():
    sys = OdeSystem(1, lambda t, y: (math.cos(t),))
    ev = EventSpec("zero", lambda t, y: y[0], terminal=False)
    rec = integrate(sys, [0.0], IntegratorConfig(t_max=10, h_max=0.5),
                    events=(ev,))
    hit_times = [h.t for h in rec.hits]
    assert len(hit_times) == 3   # sin(t) = 0 at pi, 2 pi, 3 pi
    assert np.allclose(hit_times, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-8)


def test_decay_exponent_synthetic_power_law():
    sys = OdeSystem(1, lambda t, y: (-2.0 * y[0] / (t + 1.0),))
    rec = integrate(sys, [1.0], IntegratorConfig(t_max=600, rel_tol=1e-10,
                                                 abs_tol=1e-14))
    slope = estimate_decay_exponent(rec, 0, (50.0, 500.0))
    assert slope == pytest.approx(-2.0, abs=0.01)


def test_decay_exponent_on_qs_rates():
    # s ~ t^-n for n = 3; q ~ t^-1 for n = 2
    run3 = integrate_qs(ModelParams(n=3, kappa=1, c=0), 1.0, 1.0, 600.0)
    assert estimate_decay_exponent(run3.record, 1, (50.0, 500.0)) <= -2.9
    run2 = integrate_qs(ModelParams(n=2, kappa=1, c=0), 1.0, 1.0, 600.0)
    assert estimate_decay_exponent(run2.record, 0, (50.0, 500.0)) <= -0.95


def test_decay_exponent_domain_errors():
    sys = OdeSystem(1, lambda t, y: (-y[0],))
    rec = integrate(sys, [1.0], IntegratorConfig(t_max=10))
    with pytest.raises(ValueError):
        estimate_decay_exponent(rec, 0, (0.5, 5.0))    # t_a < 1
    with pytest.raises(ValueError):
        estimate_decay_exponent(rec, 0, (1.0, 50.0))   # window not covered
    osc = integrate(OdeSystem(1, lambda t, y: (math.cos(t),)), [0.0],
                    IntegratorConfig(t_max=10, h_max=0.2))
    with pytest.raises(ValueError):
        estimate_decay_exponent(osc, 0, (1.0, 9.0))    # sign changes


def test_tolerance_halving_convergence():
    sys = qs_system(ModelParams(n=2, kappa=1, c=0))
    cfg = IntegratorConfig(t_max=10, rel_tol=1e-6, abs_tol=1e-9)
    a = integrate(sys, [0.4, 0.8], cfg).y_final
    b = integrate(sys, [0.4, 0.8], cfg.tightened(0.5)).y_final
    assert np.max(np.abs(a - b)) < 10 * 1e-6


def test_step_collapse_on_non_finite_rhs():
    def rhs(t, y):
        return (float("nan") if t > 1.0 else 1.0,)
    rec = integrate(OdeSystem(1, rhs), [0.0], IntegratorConfig(t_max=5))
    assert rec.termination is Termination.STEP_COLLAPSE
    assert "t=" in rec.note
    assert rec.t_final <= 1.01


def test_step_budget_exhaustion_reported():
    cfg = IntegratorConfig(t_max=1e6, h_max=0.1, max_steps=50)
    rec = integrate(OdeSystem(1, lambda t, y: (1.0,)), [0.0], cfg)
    assert rec.termination is Termination.STEP_COLLAPSE
    assert "budget" in rec.note


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h_min=1e-2, h_init=1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0)
    with pytest.raises(ValueError):
        IntegratorConfig(magnitude_cap=-1)
    tight = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8).tightened(0.1)
    assert tight.rel_tol == pytest.approx(1e-7)
    assert tight.abs_tol == pytest.approx(1e-9)


def test_record_sampling():
    sys = OdeSystem(1, lambda t, y: (-y[0],))
    rec = integrate(sys, [1.0], IntegratorConfig(t_max=5, rel_tol=1e-10,
                                                 abs_tol=1e-13, h_max=0.2))
    tt = np.linspace(0.0, 5.0, 117)
    vals = rec.sample_many(tt)[:, 0]
    assert np.max(np.abs(vals - np.exp(-tt))) < 1e-8
    with pytest.raises(ValueError):
        rec.sample(5.5)


def test_initial_state_validation():
    with pytest.raises(ValueError):
        integrate(RICCATI, [1.0, 2.0], IntegratorConfig())
    with pytest.raises(ValueError):
        integrate(RICCATI, [float("inf")], IntegratorConfig())


def _same_tail(a, b):
    assert (a.termination, a.note, a.t_final, a.max_abs, a.t_event,
            a.blowup_time, a.blowup_component) == \
        (b.termination, b.note, b.t_final, b.max_abs, b.t_event,
         b.blowup_time, b.blowup_component)
    assert np.array_equal(a.y_final, b.y_final)
    assert (a.probe is None) == (b.probe is None)
    assert a.probe is None or np.array_equal(a.probe, b.probe)


def test_lanes_match_scalar_integrate():
    # one batch, per-lane configs, every way a run can end
    root = OdeSystem(1, lambda t, y: (np.sqrt(y[0]),))
    cross = EventSpec("cross", lambda t, y: y[0] - 0.25, direction=-1)
    cases = [
        (RICCATI, 1.0, IntegratorConfig(t_max=30), "event"),
        (RICCATI, 0.2, IntegratorConfig(t_max=30, rel_tol=1e-10, abs_tol=1e-12),
         "reached-horizon"),
        (RICCATI, -1.0, IntegratorConfig(t_max=30), "blowup-detected"),
        (RICCATI, -1e-5, IntegratorConfig(t_max=1e6, magnitude_cap=1e300),
         "time resolution"),
        (RICCATI, -1.0, IntegratorConfig(t_max=30, h_min=1e-2, h_init=1e-2),
         "step size collapsed"),
        (RICCATI, 0.2, IntegratorConfig(t_max=1e6, max_steps=5), "budget"),
        (root, -1.0, IntegratorConfig(t_max=5), "non-finite rhs"),
        (root, 1.0, IntegratorConfig(t_max=5), "reached-horizon"),
    ]
    for system, event in ((RICCATI, cross), (root, None)):
        sub = [(y, cfg, want) for s, y, cfg, want in cases if s is system]
        events = (event,) if event is not None else ()
        with np.errstate(invalid="ignore"):
            lanes = list(integrate_lanes(system, np.array([[y for y, _, _ in sub]]),
                                         [cfg for _, cfg, _ in sub], event=event,
                                         probe_t=0.5))
            scalar = [TailRecord.of(integrate(system, [y], cfg, events=events), 0.5)
                      for y, cfg, _ in sub]
        for lane, ref, (_, _, want) in zip(lanes, scalar, sub):
            assert want in lane.termination.value or want in lane.note
            if lane.termination is Termination.REACHED_HORIZON:
                assert lane.probe is not None
            _same_tail(lane, ref)


def test_lane_probes_match_sample_many():
    # several probes per lane: the start, accepted-step boundaries, points
    # inside steps and the final time, for runs ending every way but events
    cases = [(0.2, IntegratorConfig(t_max=30)),                      # horizon
             (-1.0, IntegratorConfig(t_max=30)),                     # blowup
             (0.2, IntegratorConfig(t_max=1e6, max_steps=9)),        # budget
             (-1.0, IntegratorConfig(t_max=30, h_min=1e-2, h_init=1e-2)),
             (0.5, IntegratorConfig(t_max=0.0))]                     # no step
    recs = [integrate(RICCATI, [y], cfg) for y, cfg in cases]
    probes = []
    for rec in recs:
        ts = rec.ts
        inner = [ts[len(ts) // 3], ts[len(ts) // 2], 0.5 * (ts[-2] + ts[-1])] \
            if len(ts) > 2 else [ts[0]] * 3
        probes.append(sorted([0.0, 0.0, *inner, rec.t_final]))
    probe_t = np.array(probes).T
    lanes = list(integrate_lanes(RICCATI, np.array([[y for y, _ in cases]]),
                                 [cfg for _, cfg in cases], probe_t=probe_t))
    for j, (lane, rec) in enumerate(zip(lanes, recs)):
        assert lane.probe.shape == (probe_t.shape[0], 1)
        assert np.array_equal(lane.probe, rec.sample_many(probe_t[:, j]))
        _same_tail(lane, TailRecord.of(rec, probe_t[:, j]))
    # a probe past a lane's final time is left out: a prefix stays
    lanes = list(integrate_lanes(RICCATI, np.array([[-1.0]]), [cases[1][1]],
                                 probe_t=[0.5, 0.9, 5.0]))
    assert np.array_equal(lanes[0].probe, recs[1].sample_many([0.5, 0.9]))
    with pytest.raises(ValueError):
        list(integrate_lanes(RICCATI, np.array([[1.0]]), [IntegratorConfig()],
                             probe_t=[0.5, 0.2]))
