import math
import re

import numpy as np
import pytest

from radial_euler import (EventSpec, IntegratorConfig, ModelParams, OdeSystem,
                          TailRecord, Termination, estimate_decay_exponent,
                          integrate, integrate_lanes,
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
    rec = integrate(sys, [-1.0], IntegratorConfig(t_max=5), (ev,))
    assert rec.termination is Termination.EVENT
    assert abs(rec.t_event - 1.0) < 1e-9


def test_event_refinement_independent_of_h_init():
    sys = OdeSystem(1, lambda t, y: (1.0,))
    ev = EventSpec("zero", lambda t, y: y[0])
    times = []
    for h0 in (1e-4, 1e-2, 0.5):
        cfg = IntegratorConfig(t_max=5, h_init=h0)
        times.append(integrate(sys, [-1.0], cfg, (ev,)).t_event)
    assert max(times) - min(times) < 1e-9


def test_event_refinement_smooth_system():
    sys = OdeSystem(1, lambda t, y: (math.cos(t),))   # y = sin(t) - 0.5
    ev = EventSpec("zero", lambda t, y: y[0])
    times = []
    for h0 in (1e-4, 0.3):
        cfg = IntegratorConfig(t_max=3, h_init=h0, rel_tol=1e-11, abs_tol=1e-13)
        times.append(integrate(sys, [-0.5], cfg, (ev,)).t_event)
    assert abs(times[0] - math.pi / 6) < 1e-8
    assert abs(times[0] - times[1]) < 1e-9


def test_event_on_qs_dynamics_marks_s_maximum():
    # s' = -n s q changes sign exactly where q crosses zero
    params = ModelParams(n=2, kappa=1, c=0)
    sys = qs_system(params)
    ev = EventSpec("q-zero", lambda t, y: y[0], direction=+1)
    rec = integrate(sys, [-0.3, 1.0], IntegratorConfig(t_max=50), (ev,))
    assert rec.termination is Termination.EVENT
    t_star = rec.t_event
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
    lanes = list(integrate_lanes(RICCATI, np.array([[y for y, _, _ in cases]]),
                                 [cfg for _, _, cfg in cases], event=event,
                                 probe_t=0.5, event_consts=consts))
    # the lanes crossed their levels in different steps, and one bisection
    # located every crossing after the loop
    assert len(batches) == 1
    ends = []
    for j, (lane, (y0, c, cfg)) in enumerate(zip(lanes, cases)):
        closed = EventSpec("level", lambda t, y: g(t, y, consts[:, j]), direction=-1)
        ref = TailRecord.of(integrate(RICCATI, [y0], cfg, events=(closed,)), 0.5)
        _same_tail(lane, ref)
        ends.append((lane.t_final, lane.termination))
    assert {end for _, end in ends} == {Termination.EVENT, Termination.REACHED_HORIZON,
                                        Termination.BLOWUP_DETECTED}
    assert [t for t, _ in ends] != sorted(t for t, _ in ends)
    # some bisection evaluated only part of the lanes it bracketed
    assert any(open_ < bracketed for bracketed, open_ in subsets)
    assert batches == [sum(end is Termination.EVENT for _, end in ends)]
    with pytest.raises(ValueError, match="one column per lane"):
        list(integrate_lanes(RICCATI, np.array([[1.0, 2.0]]), [IntegratorConfig()] * 2,
                             event=event, event_consts=consts))


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
    lanes = list(integrate_lanes(RICCATI, np.array([[y for y, _ in cases]]), configs,
                                 event=cross, probe_t=0.5))
    # the step counts are those of the running lanes, which the scalar runs
    # repeat: 1231 accepted steps, and no rejected one
    [line] = [rec.getMessage() for rec in caplog.records]
    assert line == ("14 lanes in 322 lockstep iterations: 1231 accepted and 0 rejected "
                    "lane-steps; 5 lanes bracketed an event, located in 32 halving rounds")
    ends = []
    for lane, (y0, _), cfg in zip(lanes, cases, configs):
        _same_tail(lane, TailRecord.of(integrate(RICCATI, [y0], cfg, events=(cross,)), 0.5))
        ends.append(lane.note.split(" at ")[0] or lane.termination.value)
    assert ends == ["event", "reached-horizon", "event", "step budget exhausted",
                    "reached-horizon", "event", "step budget exhausted", "event",
                    "reached-horizon", "event", "reached-horizon", "blowup-detected",
                    "blowup-detected", "blowup-detected"]


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
            lanes = list(integrate_lanes(system, np.array([y0]), configs, probe_t=0.5))
            for lane, y in zip(lanes, y0):
                _same_tail(lane, TailRecord.of(integrate(system, [y], cfg), 0.5))


def _counted(system):
    """``system`` with an rhs that counts its calls in ``calls[0]``."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return system.rhs(t, y)
    return OdeSystem(system.dimension, rhs), calls


def test_lane_batch_arrays_and_counters(caplog):
    # one batch whose lanes end every way a run with an event can end, with
    # rejected steps (large first steps, and stiff growth near blowup); each
    # array entry must be lane j's TailRecord and the scalar run's tail, and
    # the counters must repeat the scalar run's work
    from radial_euler.odeint import TERMINATIONS
    cross = EventSpec("cross", lambda t, y: y[0] - 0.25, direction=-1)
    cases = [(0.5, IntegratorConfig(t_max=30)),                          # event
             (0.5, IntegratorConfig(t_max=30, h_init=5.0)),              # event
             (0.2, IntegratorConfig(t_max=1.5, h_init=2.0, rel_tol=1e-10)),  # horizon
             (-1.0, IntegratorConfig(t_max=30)),                         # blowup
             (-3.0, IntegratorConfig(t_max=30, h_init=1.0)),             # blowup
             (-1.0, IntegratorConfig(t_max=30, h_min=1e-2, h_init=1e-2)),  # step size
             (-1e-5, IntegratorConfig(t_max=1e6, magnitude_cap=1e300)),  # time resolution
             (0.2, IntegratorConfig(t_max=1e6, max_steps=7))]            # budget
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
        tail = batch[j]
        _same_tail(tail, TailRecord.of(rec, probe_t))
        ends.add(tail.note.split(" at ")[0] or tail.termination.value)
        # the arrays hold what lane j's record holds
        assert TERMINATIONS[batch.ends[j]] is tail.termination
        assert (batch.t_final[j], batch.max_abs[j]) == (tail.t_final, tail.max_abs)
        assert np.array_equal(batch.y_final[:, j], tail.y_final)
        assert (batch.t_event[j] if tail.t_event is not None else None) == tail.t_event
        assert np.isnan(batch.t_event[j]) == (tail.t_event is None)
        assert batch.blowup_component[j] == (-1 if tail.blowup_component is None
                                             else tail.blowup_component)
        rows = batch.covered[j]
        assert (tail.probe is None) == (rows == 0)
        assert rows == 0 or np.array_equal(batch.probe[:rows, :, j], tail.probe)
        # the scalar run evaluates k1, six stages per attempt, and the rhs
        # at a located event
        event = tail.termination is Termination.EVENT
        assert batch.rhs_evals[j] == 1 + 6 * batch.attempts[j]
        assert calls[0] == batch.rhs_evals[j] + event
        unsettled = event or tail.note.startswith("step size collapsed")
        assert batch.attempts[j] == batch.accepted[j] + batch.rejected[j] + unsettled
        if tail.termination in (Termination.REACHED_HORIZON, Termination.BLOWUP_DETECTED):
            assert batch.accepted[j] == len(rec.ts) - 1
        if event:
            # the event point takes the place of the step that crossed it
            assert batch.accepted[j] == len(rec.ts) - 2
    assert ends == {"event", "reached-horizon", "blowup-detected", "step size collapsed",
                    "time resolution exhausted", "step budget exhausted"}
    assert batch.rejected[1] > 0 and batch.rejected[2] > 0
    # a negative index counts from the end, as in a list
    _same_tail(batch[-1], batch[len(cases) - 1])
    with pytest.raises(IndexError):
        batch[len(cases)]
    # a lane whose rhs is not finite at t = 0 evaluates it once
    root = OdeSystem(1, lambda t, y: (np.sqrt(y[0]),))
    with np.errstate(invalid="ignore"):
        batch = integrate_lanes(root, np.array([[-1.0, 1.0]]), [IntegratorConfig(t_max=5)] * 2)
    assert batch.rhs_evals[0] == 1 and batch.attempts[0] == batch.accepted[0] == 0
    assert batch.rhs_evals[1] == 1 + 6 * (batch.accepted[1] + batch.rejected[1])
