import dataclasses
import math
import re

import numpy as np
import pytest

from radial_euler import (AlignmentBounds, EventSpec, IntegratorConfig, LaneBatch,
                          ModelParams, OdeSystem, Termination, TrajectoryRecord,
                          alignment, enhanced_curve, ep_1d_system, ep_full_system,
                          estimate_decay_exponent, euler_poisson, integrate, integrate_lanes,
                          qs_system, wv_basis_system)
from radial_euler import odeint as o
from radial_euler.core import Model
from radial_euler.euler_poisson import integrate_qs
from radial_euler.odeint import TERMINATIONS, IntegrationFailure, _crossed, outcome_of
from radial_euler.pde import _path_system

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
    rec = integrate(sys, [-1.0], IntegratorConfig(t_max=5), (ev,))
    assert rec.termination is Termination.EVENT
    assert abs(rec.t_final - 1.0) < 1e-9


def test_event_refinement_independent_of_h_init():
    sys = OdeSystem(1, lambda t, y: (1.0,))
    ev = EventSpec("zero", lambda t, y: y[0])
    times = []
    for h0 in (1e-4, 1e-2, 0.5):
        cfg = IntegratorConfig(t_max=5, h_init=h0)
        times.append(integrate(sys, [-1.0], cfg, (ev,)).t_final)
    assert max(times) - min(times) < 1e-9


def test_event_refinement_smooth_system():
    sys = OdeSystem(1, lambda t, y: (math.cos(t),))   # y = sin(t) - 0.5
    ev = EventSpec("zero", lambda t, y: y[0])
    times = []
    for h0 in (1e-4, 0.3):
        cfg = IntegratorConfig(t_max=3, h_init=h0, rel_tol=1e-11, abs_tol=1e-13)
        times.append(integrate(sys, [-0.5], cfg, (ev,)).t_final)
    assert abs(times[0] - math.pi / 6) < 1e-8
    assert abs(times[0] - times[1]) < 1e-9


def test_event_on_qs_dynamics_marks_s_maximum():
    # s' = -n s q changes sign exactly where q crosses zero
    params = ModelParams(n=2, kappa=1, c=0)
    sys = qs_system(params)
    ev = EventSpec("q-zero", lambda t, y: y[0], direction=+1)
    rec = integrate(sys, [-0.3, 1.0], IntegratorConfig(t_max=50), (ev,))
    assert rec.termination is Termination.EVENT
    t_star = rec.t_final
    full = integrate(sys, [-0.3, 1.0], IntegratorConfig(t_max=2 * t_star + 1))
    s_at = full.sample(t_star)[1]
    assert s_at > full.sample(t_star - 0.05)[1]
    assert s_at > full.sample(t_star + 0.05)[1]


def test_event_never_fires():
    sys = OdeSystem(1, lambda t, y: (-y[0],))
    ev = EventSpec("zero", lambda t, y: y[0])   # y stays positive
    rec = integrate(sys, [1.0], IntegratorConfig(t_max=5), (ev,))
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


@pytest.mark.parametrize("name, value", [
    ("rel_tol", math.nan), ("rel_tol", math.inf), ("rel_tol", 0.0),
    ("abs_tol", math.nan), ("abs_tol", np.array([1e-10, math.inf])), ("abs_tol", -1.0),
    ("h_min", 0.0), ("h_max", math.nan), ("h_init", 20.0),
    ("t_max", -1.0), ("t_max", math.nan), ("t_max", math.inf),
    ("magnitude_cap", math.nan), ("magnitude_cap", math.inf), ("magnitude_cap", 0.0)])
def test_integrator_config_refuses_unusable_settings(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        IntegratorConfig(**{name: value})


def test_zero_horizon_is_the_initial_state():
    rec = integrate(RICCATI, [0.5], IntegratorConfig(t_max=0.0))
    assert rec.termination is Termination.REACHED_HORIZON and rec.t_final == 0.0


def _probed(batch, j):
    """How many probe rows lane j of ``batch`` holds: those before its first NaN row."""
    return int(np.argmax(np.append(np.isnan(batch.probe[:, :, j]).any(axis=1), True)))


def _same_run(batch, j, rec, probe_t=None):
    """Lane j of ``batch`` holds what the scalar run ``rec`` gives, probed at ``probe_t``.

    Every field: the termination and note, the final time, state and
    largest |y_i|, the fitted blowup time and component, and the probe
    rows up to the final time, NaN after it.  After an event the rows
    stop at the last accepted step, before the step that crossed it.
    """
    event = rec.termination is Termination.EVENT
    assert (TERMINATIONS[batch.ends[j]], batch.notes.get(j, ""), batch.t_final[j],
            batch.max_abs[j]) == (rec.termination, rec.note, rec.t_final, rec.max_abs())
    if rec.blowup_component is None:
        assert rec.blowup_time is None and np.isnan(batch.blowup_time[j])
        assert batch.blowup_component[j] == -1
    else:
        assert (batch.blowup_time[j], batch.blowup_component[j]) == \
            (rec.blowup_time, rec.blowup_component)
    assert np.array_equal(batch.y_final[:, j], rec.y_final)
    times = np.atleast_1d(np.asarray([] if probe_t is None else probe_t, dtype=float))
    times = times[times <= (rec.ts[-2] if event else rec.t_final)]
    rows = _probed(batch, j)
    assert rows == len(times)
    assert np.all(np.isnan(batch.probe[rows:, :, j]))
    assert rows == 0 or np.array_equal(batch.probe[:rows, :, j], rec.sample_many(times))


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
            batch = integrate_lanes(system, np.array([[y for y, _, _ in sub]]),
                                    [cfg for _, cfg, _ in sub], event=event, probe_t=0.5)
            scalar = [integrate(system, [y], cfg, events=events) for y, cfg, _ in sub]
        for j, (ref, (_, _, want)) in enumerate(zip(scalar, sub)):
            assert want in TERMINATIONS[batch.ends[j]].value or want in batch.notes[j]
            if TERMINATIONS[batch.ends[j]] is Termination.REACHED_HORIZON:
                assert _probed(batch, j) == 1
            _same_run(batch, j, ref, 0.5)


def test_only_escaping_components_reach_the_cap():
    # y' = -y^2 blows up at t = 10 from -0.1, and decays from 0.1, while
    # z' = z passes the cap 1e3 at t = 6.9 and 1e4 times the cap at t = 16.1:
    # where only y escapes, z is no blowup, in both loops alike, and the
    # largest |y_i| still counts it
    config = IntegratorConfig(t_max=20, magnitude_cap=1e3)
    y0 = np.array([[-0.1, 0.1], [1.0, 1.0]])
    for escaping, ends, component in [(None, ("blowup-detected",) * 2, 1),
                                      ((0,), ("blowup-detected", "reached-horizon"), 0)]:
        system = OdeSystem(2, lambda t, y: (-y[0] * y[0], y[1]), escaping=escaping)
        batch = integrate_lanes(system, y0, [config] * 2)
        assert tuple(TERMINATIONS[end].value for end in batch.ends) == ends
        assert batch.blowup_component[0] == component
        for j in range(2):
            _same_run(batch, j, integrate(system, y0[:, j], config))
    assert batch.t_final[1] == 20 and batch.max_abs[1] > 1e8


def test_lane_probes_match_sample_many():
    # one probe grid that every lane shares, built from each run in turn:
    # the start, accepted-step boundaries, points inside steps and the
    # final time, for runs ending every way but events; the other lanes
    # read the same grid up to their own final times
    cases = [(0.2, IntegratorConfig(t_max=30)),                      # horizon
             (-1.0, IntegratorConfig(t_max=30)),                     # blowup
             (0.2, IntegratorConfig(t_max=1e6, max_steps=9)),        # budget
             (-1.0, IntegratorConfig(t_max=30, h_min=1e-2, h_init=1e-2)),
             (0.5, IntegratorConfig(t_max=0.0))]                     # no step
    recs = [integrate(RICCATI, [y], cfg) for y, cfg in cases]
    for j, rec in enumerate(recs):
        ts = rec.ts
        inner = [ts[len(ts) // 3], ts[len(ts) // 2], 0.5 * (ts[-2] + ts[-1])] \
            if len(ts) > 2 else [ts[0]] * 3
        probe_t = np.array(sorted([0.0, 0.0, *inner, rec.t_final]))
        batch = integrate_lanes(RICCATI, np.array([[y for y, _ in cases]]),
                                [cfg for _, cfg in cases], probe_t=probe_t)
        assert _probed(batch, j) == len(probe_t)
        assert np.array_equal(batch.probe[:, :, j], rec.sample_many(probe_t))
        for k, other in enumerate(recs):
            _same_run(batch, k, other, probe_t)
    # a probe past a lane's final time is left out: a prefix stays
    batch = integrate_lanes(RICCATI, np.array([[-1.0]]), [cases[1][1]],
                            probe_t=[0.5, 0.9, 5.0])
    assert _probed(batch, 0) == 2
    assert np.array_equal(batch.probe[:2, :, 0], recs[1].sample_many([0.5, 0.9]))
    for bad in ([0.5, 0.2], [-0.1, 0.5], [[0.5, 0.5], [1.0, 1.0]]):
        with pytest.raises(ValueError, match="one nonnegative, nondecreasing grid"):
            integrate_lanes(RICCATI, np.array([[1.0, 2.0]]), [IntegratorConfig()] * 2,
                            probe_t=bad)
        with pytest.raises(ValueError, match="one nonnegative, nondecreasing grid"):
            LaneBatch.of([integrate(RICCATI, [1.0], IntegratorConfig())], bad, 1)


@pytest.mark.parametrize("lanes", [19, 20])
def test_event_lanes_hold_the_probes_before_their_crossing(lanes):
    # y = 1 / (1 + t) crosses 0.25 at t = 3: the probes at 0.5, 1 and 2.9
    # come before the crossing step, below the lockstep threshold of 20
    # lanes (scalar runs stacked by LaneBatch.of) as at it
    from radial_euler.euler_poisson import _run_lanes
    batch = _run_lanes(RICCATI, np.ones((1, lanes)), [IntegratorConfig(t_max=30)] * lanes,
                       CROSS, [0.5, 1.0, 2.9])
    assert set(batch.ends.tolist()) == {TERMINATIONS.index(Termination.EVENT)}
    assert np.allclose(batch.probe[:, 0, :].T, [2.0 / 3.0, 0.5, 1.0 / 3.9], rtol=1e-6)
    assert np.array_equal(batch.probe[:, :, 1:], batch.probe[:, :, :-1])


def test_lane_event_constants_follow_their_lanes(monkeypatch):
    # lanes end in mixed order (events at t = 0.4, 1, 1.2, 1.5, 3 and 9.5, a
    # blowup near t = 1, the horizon at 30), each with its own event level
    # and scale; a lane's tail must match the scalar run of the event with
    # that lane's constants closed over
    from radial_euler import odeint

    def g(t, y, c):
        return c[1] * (y[0] - c[0])

    cases = [(1.0, (0.25, 1.0), IntegratorConfig(t_max=30)),
             (-1.0, (0.3, 2.0), IntegratorConfig(t_max=30)),
             (2.0, (0.1, 0.5), IntegratorConfig(t_max=30, rel_tol=1e-6)),
             (0.5, (0.01, 1.0), IntegratorConfig(t_max=30)),
             (-2.0, (-10.0, 3.0), IntegratorConfig(t_max=30, h_init=1e-1)),
             (1.0, (0.5, 1.0), IntegratorConfig(t_max=30, h_max=0.3)),
             (1.0, (1 / 1.2, 1.0), IntegratorConfig(t_max=30, h_max=0.05)),
             (1.0, (0.4, 4.0), IntegratorConfig(t_max=30, rel_tol=1e-4))]
    consts = np.array([c for _, c, _ in cases]).T       # (2, lanes)
    event = EventSpec("level", g, direction=-1)

    subsets = []    # (lanes bracketed, lanes still open) per bisection evaluation
    batches = []    # lanes bracketed per bisection
    bisect = odeint._bisect_lanes

    def recorded(func, t0, *args):
        batches.append(len(t0))

        def counted(t, y, j):
            subsets.append((len(t0), len(j)))
            return func(t, y, j)
        return bisect(counted, t0, *args)

    monkeypatch.setattr(odeint, "_bisect_lanes", recorded)
    batch = integrate_lanes(RICCATI, np.array([[y for y, _, _ in cases]]),
                            [cfg for _, _, cfg in cases], event=event,
                            probe_t=0.5, event_consts=consts)
    # the lanes crossed their levels in different steps, and one bisection
    # located every crossing after the loop
    assert len(batches) == 1
    ends = []
    for j, (y0, c, cfg) in enumerate(cases):
        closed = EventSpec("level", lambda t, y: g(t, y, consts[:, j]), direction=-1)
        _same_run(batch, j, integrate(RICCATI, [y0], cfg, events=(closed,)), 0.5)
        ends.append((batch.t_final[j], TERMINATIONS[batch.ends[j]]))
    assert {end for _, end in ends} == {Termination.EVENT, Termination.REACHED_HORIZON,
                                        Termination.BLOWUP_DETECTED}
    assert [t for t, _ in ends] != sorted(t for t, _ in ends)
    # some bisection evaluated only part of the lanes it bracketed
    assert any(open_ < bracketed for bracketed, open_ in subsets)
    assert batches == [sum(end is Termination.EVENT for _, end in ends)]
    with pytest.raises(ValueError, match="one column per lane"):
        integrate_lanes(RICCATI, np.array([[1.0, 2.0]]), [IntegratorConfig()] * 2,
                        event=event, event_consts=consts)


def test_lanes_retiring_one_at_a_time_match_scalar(caplog):
    # 14 lanes that retire at 14 different lockstep iterations (given as
    # "it N"), by event, horizon, step budget and blowup.  A retired lane
    # stays in the working arrays until an eighth of them have retired, so
    # the first one (budget 9, retired at iteration 7) is still there when
    # its attempt count reaches its budget, and so is the blowup at 299
    # with budget 305.
    cross = EventSpec("cross", lambda t, y: y[0] - 0.25, direction=-1)
    cases = [(0.3, dict(max_steps=9)),              # event, it 7
             (0.2, dict(t_max=2.0)),                # horizon, it 12
             (0.5, {}),                             # event, it 16
             (0.2, dict(t_max=1e6, max_steps=20)),  # budget, it 21
             (0.2, dict(t_max=10.0)),               # horizon, it 26
             (1.0, {}),                             # event, it 29
             (0.2, dict(t_max=1e6, max_steps=38)),  # budget, it 39
             (2.0, {}),                             # event, it 41
             (0.2, dict(t_max=40.0)),               # horizon, it 45
             (4.0, {}),                             # event, it 53
             (0.2, dict(t_max=100.0)),              # horizon, it 60
             (-4.0, {}),                            # blowup, it 276
             (-1.0, dict(max_steps=305)),           # blowup, it 299
             (-0.25, {})]                           # blowup, it 322
    configs = [IntegratorConfig(**{"t_max": 30.0, **kw}) for _, kw in cases]
    caplog.set_level("INFO", logger="radial_euler.odeint")
    batch = integrate_lanes(RICCATI, np.array([[y for y, _ in cases]]), configs,
                            event=cross, probe_t=0.5)
    # the step counts are those of the running lanes, which the scalar runs
    # repeat: 1231 accepted steps, and no rejected one
    [line] = [rec.getMessage() for rec in caplog.records]
    assert line == ("14 lanes in 322 lockstep iterations: 1231 accepted and 0 rejected "
                    "lane-steps; 5 lanes bracketed an event, located in 32 halving rounds")
    ends = []
    for j, ((y0, _), cfg) in enumerate(zip(cases, configs)):
        _same_run(batch, j, integrate(RICCATI, [y0], cfg, events=(cross,)), 0.5)
        ends.append(batch.notes.get(j, "").split(" at ")[0] or TERMINATIONS[batch.ends[j]].value)
    assert ends == ["event", "reached-horizon", "event", "step budget exhausted",
                    "reached-horizon", "event", "step budget exhausted", "event",
                    "reached-horizon", "event", "reached-horizon", "blowup-detected",
                    "blowup-detected", "blowup-detected"]


def test_lane_batch_of_scalar_runs_matches_their_tails():
    # a batch stacked from scalar runs must hold each run's end, probes and
    # fitted blowup time included, for runs that end every way and keep
    # fewer or more samples than the fit reads
    pair = OdeSystem(2, lambda t, y: (-y[0] * y[0], -0.5 * y[1]))
    cross = EventSpec("cross", lambda t, y: y[0] - 0.25, direction=-1)
    cases = [(0.2, IntegratorConfig(t_max=0.5, h_init=0.1)),             # horizon
             (0.2, IntegratorConfig(t_max=30)),                          # horizon
             (1.0, IntegratorConfig(t_max=30)),                          # event
             (-1.0, IntegratorConfig(t_max=30)),                         # blowup
             (-5.0, IntegratorConfig(t_max=30, h_init=0.1, magnitude_cap=10.0)),
             (-20.0, IntegratorConfig(t_max=30, h_init=0.1, magnitude_cap=10.0)),
             (-1.0, IntegratorConfig(t_max=30, h_min=1e-2, h_init=1e-2))]  # collapse
    records = [integrate(pair, [y0, 1.0], cfg, events=(cross,)) for y0, cfg in cases]
    assert {rec.termination for rec in records} == set(Termination)
    sizes = {(rec.termination, int(np.sign(len(rec.ts) - 12))) for rec in records}
    assert {(Termination.REACHED_HORIZON, -1), (Termination.REACHED_HORIZON, 1),
            (Termination.BLOWUP_DETECTED, -1), (Termination.BLOWUP_DETECTED, 0),
            (Termination.BLOWUP_DETECTED, 1)} <= sizes
    for probe_t in (None, 0.5, [0.0, 0.5, 2.0]):
        batch = LaneBatch.of(records, probe_t, 2)
        assert len(batch) == len(records)
        for j, rec in enumerate(records):
            _same_run(batch, j, rec, probe_t)
    # so must the lockstep batch of the same runs, which fits each blowup
    # from a ring of fewer, exactly or more samples than the fit reads
    batch = integrate_lanes(pair, np.array([[y0 for y0, _ in cases], [1.0] * len(cases)]),
                            [cfg for _, cfg in cases], event=cross, probe_t=0.5)
    for j, rec in enumerate(records):
        _same_run(batch, j, rec, 0.5)
    empty = LaneBatch.of([], 0.5, 2)
    assert len(empty) == 0 and empty.y_final.shape == (2, 0) and empty.probe.shape == (1, 2, 0)


def test_float_power_matches_python_pow():
    # integrate_lanes takes its step factors from np.float_power, and each
    # lane must repeat the factor integrate computes with Python's float
    # power, bit for bit
    rng = np.random.default_rng(20261018)
    log_uniform = 10.0 ** rng.uniform(-12.0, 4.0, 1_000_000)
    uniform = rng.uniform(0.0, 2.0, 200_000)
    tiny = np.finfo(float).tiny
    clamp_lo, clamp_hi = (0.9 / 5.0) ** 5, (0.9 / 0.2) ** 5   # 1.89e-4 and 1845
    near = [np.nextafter(v, direction)
            for v in (clamp_lo, clamp_hi, 1.0) for direction in (0.0, np.inf)]
    edges = np.array([5e-324, 1e-320, tiny / 3, tiny / 2**20, np.nextafter(tiny, 0.0),
                      tiny, 1.0, clamp_lo, clamp_hi, 1.89e-4, 1845.0, 1e300,
                      np.finfo(float).max] + near
                     + list(clamp_lo * (1 + 1e-12 * np.arange(-50, 51)))
                     + list(clamp_hi * (1 + 1e-12 * np.arange(-50, 51))))
    x = np.concatenate([log_uniform, uniform[uniform > 0.0], edges])

    def same_bits(got, values):
        want = np.array([v ** -0.2 for v in values.tolist()])
        return np.array_equal(got.view(np.int64), want.view(np.int64))

    assert same_bits(np.float_power(x, -0.2), x)
    strided = x[1::3]
    assert not strided.flags.contiguous
    assert same_bits(np.float_power(strided, -0.2), strided)
    in_place = x.copy()
    np.float_power(in_place, -0.2, out=in_place)
    assert same_bits(in_place, x)


def test_lane_step_factors_at_zero_and_non_finite_errors():
    # a step with error 0 grows h fivefold; a non-finite error (here NaN
    # from sqrt of a negative trial state) shrinks it fivefold; both as in
    # integrate
    drain = OdeSystem(1, lambda t, y: (-np.sqrt(y[0]),))
    still = OdeSystem(1, lambda t, y: (0.0 * y[0],))
    for system, y0, cfg in ((drain, [1.0, 0.3, 2.5], IntegratorConfig(t_max=5)),
                            (still, [1.0, -2.0, 0.0], IntegratorConfig(t_max=50))):
        configs = [cfg] * len(y0)
        with np.errstate(invalid="ignore"):
            batch = integrate_lanes(system, np.array([y0]), configs, probe_t=0.5)
            for j, y in enumerate(y0):
                _same_run(batch, j, integrate(system, [y], cfg), 0.5)


def _counted(system):
    """``system`` with an rhs that counts its calls in ``calls[0]``."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return system.rhs(t, y)
    return OdeSystem(system.dimension, rhs), calls


# (y0, config) of Riccati lanes that end every way a run with the event
# CROSS can end, with rejected steps (large first steps, and stiff growth
# near blowup)
CROSS = EventSpec("cross", lambda t, y: y[0] - 0.25, direction=-1)
EVERY_END = [(0.5, IntegratorConfig(t_max=30)),                          # event
             (0.5, IntegratorConfig(t_max=30, h_init=5.0)),              # event
             (0.2, IntegratorConfig(t_max=1.5, h_init=2.0, rel_tol=1e-10)),  # horizon
             (-1.0, IntegratorConfig(t_max=30)),                         # blowup
             (-3.0, IntegratorConfig(t_max=30, h_init=1.0)),             # blowup
             (-1.0, IntegratorConfig(t_max=30, h_min=1e-2, h_init=1e-2)),  # step size
             (-1e-5, IntegratorConfig(t_max=1e6, magnitude_cap=1e300)),  # time resolution
             (0.2, IntegratorConfig(t_max=1e6, max_steps=7))]            # budget


def test_lane_batch_arrays_and_counters(caplog):
    # one batch of EVERY_END; each lane must hold the scalar run's end, and
    # the counters must repeat the scalar run's work
    cross, cases = CROSS, EVERY_END
    probe_t = [0.0, 0.5, 1.2]
    caplog.set_level("INFO", logger="radial_euler.odeint")
    batch = integrate_lanes(RICCATI, np.array([[y for y, _ in cases]]),
                            [cfg for _, cfg in cases], event=cross, probe_t=probe_t)
    [line] = [rec.getMessage() for rec in caplog.records]
    accepted, rejected = (int(v) for v in
                          re.search(r"(\d+) accepted and (\d+) rejected", line).groups())
    assert len(batch) == len(cases) and batch.probe.shape == (3, 1, len(cases))
    assert (batch.accepted.sum(), batch.rejected.sum()) == (accepted, rejected)
    assert rejected > 0
    ends = set()
    for j, (y0, cfg) in enumerate(cases):
        counted, calls = _counted(RICCATI)
        rec = integrate(counted, [y0], cfg, events=(cross,))
        _same_run(batch, j, rec, probe_t)
        ends.add(rec.note.split(" at ")[0] or rec.termination.value)
        # the scalar run evaluates k1, six stages per attempt, and the rhs
        # at a located event
        event = rec.termination is Termination.EVENT
        assert batch.rhs_evals[j] == 1 + 6 * batch.attempts[j]
        assert calls[0] == batch.rhs_evals[j] + event
        unsettled = event or rec.note.startswith("step size collapsed")
        assert batch.attempts[j] == batch.accepted[j] + batch.rejected[j] + unsettled
        if rec.termination in (Termination.REACHED_HORIZON, Termination.BLOWUP_DETECTED):
            assert batch.accepted[j] == len(rec.ts) - 1
        if event:
            # the event point takes the place of the step that crossed it
            assert batch.accepted[j] == len(rec.ts) - 2
    assert ends == {"event", "reached-horizon", "blowup-detected", "step size collapsed",
                    "time resolution exhausted", "step budget exhausted"}
    assert batch.rejected[1] > 0 and batch.rejected[2] > 0
    # a lane whose rhs is not finite at t = 0 evaluates it once
    root = OdeSystem(1, lambda t, y: (np.sqrt(y[0]),))
    with np.errstate(invalid="ignore"):
        batch = integrate_lanes(root, np.array([[-1.0, 1.0]]), [IntegratorConfig(t_max=5)] * 2)
    assert batch.rhs_evals[0] == 1 and batch.attempts[0] == batch.accepted[0] == 0
    assert batch.rhs_evals[1] == 1 + 6 * (batch.accepted[1] + batch.rejected[1])


def test_scalar_records_count_what_lanes_count():
    # a batch stacked from scalar runs holds the counters of each run's
    # record, and they equal the lockstep lanes', lane for lane, at every end
    cases = EVERY_END
    lanes = integrate_lanes(RICCATI, np.array([[y for y, _ in cases]]),
                            [cfg for _, cfg in cases], event=CROSS)
    records = [integrate(RICCATI, [y0], cfg, events=(CROSS,)) for y0, cfg in cases]
    scalar = LaneBatch.of(records, None, 1)
    assert {rec.termination for rec in records} == set(Termination)
    for name in ("attempts", "accepted", "rejected", "rhs_evals"):
        assert getattr(scalar, name).tolist() == getattr(lanes, name).tolist(), name
    assert scalar.rejected.any() and [rec.attempts for rec in records] == scalar.attempts.tolist()


def test_both_builders_fill_every_field_alike():
    # integrate_lanes and LaneBatch.of of the same scalar runs must agree on
    # every field of LaneBatch, whichever fields it has, NaN for NaN: a
    # field that one builder fills and the other forgets fails here.  The
    # lanes end every way a run can (a non-finite rhs at t = 0 too), share
    # one probe grid, cross per-lane event levels, and come three times in
    # changing order, so the lockstep loop runs 27 lanes and compacts them
    def level(t, y, c):
        return c[1] * (y[0] - c[0])

    system = OdeSystem(1, lambda t, y: (-y[0] * y[0] + 0.0 * np.sqrt(y[0] + 1e20),))
    cases = EVERY_END + [(-1e21, IntegratorConfig(t_max=30))]       # non-finite rhs
    order = [*range(len(cases)), *reversed(range(len(cases))), *range(len(cases))]
    y0 = np.array([[cases[k][0] for k in order]])
    configs = [cases[k][1] for k in order]
    consts = np.array([[0.3 if k == 0 else 0.25, 1.0 + k] for k in order]).T
    probe_t = [0.0, 0.5, 1.2, 40.0]
    event = EventSpec("level", level, direction=-1)
    with np.errstate(invalid="ignore"):
        records = [integrate(system, y0[:, j], configs[j],
                             events=(EventSpec("level", lambda t, y, c=consts[:, j]:
                                               level(t, y, c), direction=-1),))
                   for j in range(len(order))]
        for keep in (True, False):
            lanes = integrate_lanes(system, y0, configs, event=event, probe_t=probe_t,
                                    event_consts=consts, blowup_times=keep)
            scalar = LaneBatch.of(records, probe_t, 1, blowup_times=keep)
            for name in [f.name for f in dataclasses.fields(LaneBatch)] + ["rhs_evals"]:
                got, want = getattr(lanes, name), getattr(scalar, name)
                if isinstance(want, dict):
                    assert got == want, name
                else:
                    assert got.dtype == want.dtype, name
                    assert np.array_equal(got, want, equal_nan=True), name
            assert np.isnan(lanes.blowup_time).all() != keep
    ends = {rec.note.split(" at ")[0] or rec.termination.value for rec in records}
    assert len(order) >= 20 and ends == {
        "event", "reached-horizon", "blowup-detected", "step size collapsed",
        "time resolution exhausted", "step budget exhausted", "non-finite rhs"}
    # lane 0 crossed its own level 0.3, where y = 0.5 / (1 + t / 2) is at t = 4/3
    assert abs(lanes.t_final[0] - 4.0 / 3.0) < 1e-6 and np.isfinite(lanes.probe).any()


def test_lane_batch_without_blowup_times(caplog):
    # a batch that keeps no samples for blowup-time fits must hold
    # everything else exactly as the batch that keeps them, counters and
    # INFO line included, with every blowup time NaN, and refuse a blown
    # lane's outcome.  The lanes come twice in a different order, so that
    # working columns are compacted while lanes of every kind still run.
    order = list(range(len(EVERY_END))) + list(reversed(range(len(EVERY_END))))
    y0 = np.array([[EVERY_END[k][0] for k in order]])
    configs = [EVERY_END[k][1] for k in order]
    probe_t = [0.0, 0.5, 1.2, 40.0]
    caplog.set_level("INFO", logger="radial_euler.odeint")
    batches, lines = {}, {}
    for keep in (True, False):
        caplog.clear()
        batches[keep] = integrate_lanes(RICCATI, y0, configs, event=CROSS, probe_t=probe_t,
                                        blowup_times=keep)
        [lines[keep]] = [rec.getMessage() for rec in caplog.records]
    with_ring, without = batches[True], batches[False]
    assert lines[False] == lines[True]
    for name in ("ends", "t_final", "y_final", "max_abs", "blowup_component",
                 "attempts", "accepted", "rejected", "rhs_evals"):
        assert np.array_equal(getattr(without, name), getattr(with_ring, name)), name
    assert np.array_equal(without.probe, with_ring.probe, equal_nan=True)
    assert without.notes == with_ring.notes and len(without.notes) == 6
    assert with_ring.rejected.sum() > 0
    assert np.all(np.isnan(without.blowup_time))
    blown = without.ends == TERMINATIONS.index(Termination.BLOWUP_DETECTED)
    assert np.count_nonzero(blown) == 4
    assert np.array_equal(np.isnan(with_ring.blowup_time), ~blown)
    for j in range(len(order)):
        out = outcome_of(with_ring, j, {})
        if blown[j]:
            assert out.t_estimate == with_ring.blowup_time[j]
            with pytest.raises(ValueError, match="blew up"):
                outcome_of(without, j, {})
        else:
            ref = outcome_of(without, j, {})
            assert (out.verdict, out.t_estimate, out.reason) == \
                (ref.verdict, ref.t_estimate, ref.reason)


# ---------------------------------------------------------------------------
# scalar integrate against a reference loop of generator expressions

def _isfinite_crossed(g0, g1, direction: int):
    """The crossing rule with ``np.isfinite``, the reference ``_crossed`` must equal."""
    valid = (g0 != 0.0) & np.isfinite(g0) & np.isfinite(g1)
    if direction > 0:
        return valid & (g0 < 0.0) & (g1 >= 0.0)
    if direction < 0:
        return valid & (g0 > 0.0) & (g1 <= 0.0)
    return valid & (((g0 < 0.0) != (g1 < 0.0)) | (g1 == 0.0))


@pytest.mark.filterwarnings("error")
def test_crossing_rule_keeps_its_truth_table():
    values = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308]
    pairs = [(a, b) for a in values for b in values]
    g0, g1 = (np.array(side) for side in zip(*pairs))
    for direction in (-1, 0, 1):
        for a, b in pairs:
            assert bool(_crossed(a, b, direction)) is bool(_isfinite_crossed(a, b, direction))
        assert np.array_equal(_crossed(g0, g1, direction), _isfinite_crossed(g0, g1, direction))
        assert _crossed(g0, g1, direction).any()


def _generator_integrate(system, y0, config, events=(), t0=0.0):
    """:func:`integrate` with tuples built by generator expressions and an
    error-norm loop over the components: the reference its straight-line
    attempt must equal to the byte."""
    f = system.rhs
    d = system.dimension
    rtol = config.rel_tol
    atol = tuple(float(a) for a in np.broadcast_to(config.abs_tol, (d,)))
    cap = config.magnitude_cap
    t_max, h_min, h_max = config.t_max, config.h_min, config.h_max
    rng = range(d)
    watch = rng if system.escaping is None else system.escaping

    t = float(t0)
    y = tuple(float(v) for v in y0)
    k1 = f(t, y)
    ts, ys, fs = [t], [y], [tuple(k1)]
    hits = []
    attempts = rejected = 0

    def end(termination, **kw):
        return TrajectoryRecord(np.asarray(ts, dtype=float), np.asarray(ys, dtype=float),
                                np.asarray(fs, dtype=float), termination, hits=hits,
                                attempts=attempts, rejected=rejected, **kw)

    if not all(math.isfinite(v) for v in k1):
        return end(Termination.STEP_COLLAPSE, note=f"non-finite rhs at t={t}")
    gvals = [ev.func(t, y) for ev in events]
    h = min(config.h_init, h_max, max(t_max - t, h_min))
    for _ in range(config.max_steps):
        if t >= t_max:
            break
        if h > t_max - t:
            h = t_max - t
        clamped = h < h_min
        if clamped:
            h = h_min

        if t + h <= t:
            return end(Termination.STEP_COLLAPSE, note=f"time resolution exhausted at t={t}")

        attempts += 1
        k2 = f(t + o._C2 * h, tuple(y[i] + h * (o._A21 * k1[i]) for i in rng))
        k3 = f(t + o._C3 * h,
               tuple(y[i] + h * (o._A31 * k1[i] + o._A32 * k2[i]) for i in rng))
        k4 = f(t + o._C4 * h,
               tuple(y[i] + h * (o._A41 * k1[i] + o._A42 * k2[i] + o._A43 * k3[i])
                     for i in rng))
        k5 = f(t + o._C5 * h,
               tuple(y[i] + h * (o._A51 * k1[i] + o._A52 * k2[i] + o._A53 * k3[i]
                                 + o._A54 * k4[i]) for i in rng))
        k6 = f(t + h,
               tuple(y[i] + h * (o._A61 * k1[i] + o._A62 * k2[i] + o._A63 * k3[i]
                                 + o._A64 * k4[i] + o._A65 * k5[i]) for i in rng))
        y_new = tuple(y[i] + h * (o._B1 * k1[i] + o._B3 * k3[i] + o._B4 * k4[i]
                                  + o._B5 * k5[i] + o._B6 * k6[i]) for i in rng)
        t_new = t + h
        k7 = f(t_new, y_new)

        err_acc = 0.0
        for i in rng:
            e = h * (o._E1 * k1[i] + o._E3 * k3[i] + o._E4 * k4[i] + o._E5 * k5[i]
                     + o._E6 * k6[i] + o._E7 * k7[i])
            ay, ayn = abs(y[i]), abs(y_new[i])
            sc = atol[i] + rtol * (ay if ay > ayn else ayn)
            e /= sc
            err_acc += e * e
        err_norm = math.sqrt(err_acc / d)
        factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))

        if not (err_norm <= 1.0):
            if clamped or h <= h_min * 1.0001:
                return end(Termination.STEP_COLLAPSE,
                           note=f"step size collapsed at t={t} (err={err_norm:.3g})")
            rejected += 1
            h = max(h * factor, h_min)
            continue

        hit = None
        g_new = [ev.func(t_new, y_new) for ev in events]
        for i, ev in enumerate(events):
            if _isfinite_crossed(gvals[i], g_new[i], ev.direction):
                t_e, y_e = o._bisect_event(ev, t, np.asarray(y), np.asarray(k1),
                                           t_new, np.asarray(y_new),
                                           np.asarray(k7), gvals[i], g_new[i])
                hits.append(o.EventHit(ev.name, t_e, y_e))
                if ev.terminal and (hit is None or t_e < hit.t):
                    hit = hits[-1]
        if hit is not None:
            f_e = tuple(f(hit.t, tuple(hit.y)))
            ts.append(hit.t), ys.append(tuple(hit.y)), fs.append(f_e)
            return end(Termination.EVENT)

        ts.append(t_new), ys.append(y_new), fs.append(tuple(k7))
        mag = 0.0
        comp = 0
        for i in watch:
            av = abs(y_new[i])
            if av > mag:
                mag, comp = av, i
        if mag > cap:
            feedback = y_new[comp] * k7[comp] > 0.0
            if feedback or mag > 1e4 * cap:
                return end(Termination.BLOWUP_DETECTED, blowup_component=comp)

        t, y, k1 = t_new, y_new, k7
        gvals = g_new
        h = h * factor
        if h > h_max:
            h = h_max
    else:
        return end(Termination.STEP_COLLAPSE, note=f"step budget exhausted at t={t}")

    return end(Termination.REACHED_HORIZON)


def _calls_of(monkeypatch, module, run):
    """The (system, y0, config, events, t0) of every integrate call ``run()`` makes
    through ``module``; a call that raises afterwards still counts."""
    calls = []

    def record(system, y0, config, events=(), t0=0.0):
        calls.append((system, list(y0), config, tuple(events), t0))
        return integrate(system, y0, config, events, t0)

    with monkeypatch.context() as m:
        m.setattr(module, "integrate", record)
        try:
            run()
        except IntegrationFailure:
            pass
    return calls


def test_straight_line_attempt_equals_the_generator_loop(monkeypatch):
    # one run or more of every system dimension the package steps, ending
    # every way a run can; records must agree to the byte
    ep1 = ModelParams(n=1)
    ep3 = ModelParams(n=3)
    half = OdeSystem(2, lambda t, y: (-1.0, math.nan if y[0] < 0.5 else y[1]))
    rising = EventSpec("p-zero", lambda t, y: y[0], direction=+1)
    runs = _calls_of(monkeypatch, alignment, lambda: enhanced_curve(
        "sigma_q_plus", AlignmentBounds(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.0), 2, 1.0))
    runs += _calls_of(monkeypatch, euler_poisson, lambda: integrate_qs(ep3, -1.0, 0.3, 5.0))
    runs += _calls_of(monkeypatch, euler_poisson,
                      lambda: integrate_qs(ModelParams(n=1.5), -2.0, 0.3, 5.0))
    runs += [
        (ep_1d_system(ep1), [-2.0, 1.0], IntegratorConfig(t_max=20), (), 0.0),
        (ep_1d_system(ModelParams(n=1, c=1.0)), [-0.5, 1.0], IntegratorConfig(t_max=20),
         (rising,), 0.0),
        (ep_1d_system(ep1), [0.3, 1.0], IntegratorConfig(t_max=1e6, max_steps=40), (), 0.0),
        (qs_system(ModelParams(n=2)), [0.5, 0.2], IntegratorConfig(t_max=50), (), 0.0),
        (half, [1.0, 2.0], IntegratorConfig(t_max=5), (), 0.0),
        (half, [0.2, 2.0], IntegratorConfig(t_max=5), (), 0.0),
        (qs_system(ModelParams(n=2)), [0.5, 0.2], IntegratorConfig(t_max=1e16 + 10), (), 1e16),
        (ep_full_system(ep3), [-1.0, -0.5, 0.2, 1.0], IntegratorConfig(t_max=30), (), 0.0),
        (ep_full_system(ep3), [0.5, 0.5, 0.2, 1.0], IntegratorConfig(t_max=30), (), 0.0),
        (_path_system(ep3), [-1.0, -0.5, 0.2, 1.0, 0.5], IntegratorConfig(t_max=30), (), 0.0),
        (_path_system(ModelParams(n=3, model=Model.DAMPED_BURGERS)), [0.5, 0.5, 0.0, 1.0, 0.5],
         IntegratorConfig(t_max=10), (), 0.0),
        (wv_basis_system(ep3, 0.1), [-0.5, 0.1, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
         IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9), (), 0.0),
        # trial stages that overshoot s below 0 get a NaN force and are rejected
        (wv_basis_system(ep3, 1e-3), [5.0, 1e-3, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
         IntegratorConfig(rel_tol=1e-4, abs_tol=1e-6, h_init=0.5, t_max=50), (), 0.0),
    ]
    o._attempt.cache_clear()
    ends, notes = set(), set()
    for system, y0, config, events, t0 in runs:
        ref = _generator_integrate(system, y0, config, events, t0)
        rec = integrate(system, y0, config, events, t0)
        for name in ("ts", "ys", "fs"):
            assert getattr(rec, name).tobytes() == getattr(ref, name).tobytes(), name
        assert (rec.termination, rec.blowup_component, rec.note, rec.attempts, rec.rejected) \
            == (ref.termination, ref.blowup_component, ref.note, ref.attempts, ref.rejected)
        assert [(h.name, h.t, h.y.tobytes()) for h in rec.hits] == \
            [(h.name, h.t, h.y.tobytes()) for h in ref.hits]
        ends.add(rec.termination)
        notes.add(rec.note.split(" at ")[0])
    # the curve's first run ends at its branch switch, and a second resumes there
    assert len(runs) == 17 and runs[0][3] and runs[1][4] > 0.9
    dims = {system.dimension for system, *_ in runs}
    assert dims == {1, 2, 3, 4, 5, 8}
    assert ends == set(Termination)
    assert notes == {"", "non-finite rhs", "step size collapsed", "time resolution exhausted",
                     "step budget exhausted"}
    info = o._attempt.cache_info()
    assert (info.misses, info.currsize, info.hits) == (len(dims), len(dims), len(runs) - len(dims))
