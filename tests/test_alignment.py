import math

import numpy as np
import pytest

from radial_euler import (AlignmentBounds, EventSpec, IntegratorConfig, OdeSystem,
                          Region, Verdict, classify_ea_many,
                          comparison_classify, compute_bounds,
                          constant_influence, enhanced_curve, eval_psi,
                          eval_zeta, exponential_influence, gaussian_bump,
                          indicator, linear_velocity, power_law_influence,
                          rough_threshold_G, rough_threshold_q)
from radial_euler import euler_poisson
from radial_euler.alignment import _kernel_integral
from radial_euler.config import RunConfig
from radial_euler.odeint import VERDICT_CODES, ClassificationOutcome, integrate, outcome_of
from radial_euler.sweep import classify_cells

FIG_BOUNDS = AlignmentBounds.explicit(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.0)


# ---------------------------------------------------------------------------
# kernel evaluations

def test_psi_constant_influence_gives_mass():
    rho = indicator(1.0, 1.0)
    phi = constant_influence(0.7)
    for n in (1, 2, 3):
        want = 0.7 * rho.mass(n)
        for r in (0.0, 0.4, 1.3):
            assert eval_psi(rho, phi, r, n) == pytest.approx(want, rel=1e-10)


def test_psi_point_bump_limit():
    # a narrow normalized bump turns psi into a pointwise phi evaluation
    w = 1e-3
    amp = 1.0 / (math.pi * w * w)     # unit mass in n = 2
    rho = gaussian_bump(amp, w, r_max=8 * w, n_nodes=1201)
    phi = power_law_influence(0.5, 1.0)
    for r in (0.3, 0.9):
        assert eval_psi(rho, phi, r, 2) == pytest.approx(
            float(phi.phi(r)), abs=1e-4)


def test_psi_refinement_oracle():
    rho = indicator(1.0, 1.0, n_nodes=401)
    phi = power_law_influence(1.0, 1.0)   # phi = 1/(1+r)
    val = eval_psi(rho, phi, 0.7, 2)
    ref = _kernel_integral(rho, phi, 0.7, 2, None, radial_order=20,
                           theta_order=480)
    assert val == pytest.approx(ref, abs=1e-8)


def test_psi_within_bounds_on_support():
    rho = indicator(1.0, 1.0)
    u = linear_velocity(1.0, r_max=1.0)
    phi = power_law_influence(0.5, 1.0)
    b = compute_bounds(rho, u, phi, D=1.0, n=2)
    for r in np.linspace(0.0, 1.0, 9):
        v = eval_psi(rho, phi, float(r), 2)
        assert b.psi_min - 1e-10 <= v <= b.psi_max + 1e-10


def test_zeta_constant_influence_vanishes():
    rho = indicator(1.0, 1.0)
    u = linear_velocity(1.0, r_max=1.0)
    phi = constant_influence(1.0)
    for n in (1, 2, 3):
        for r in (0.3, 1.0, 2.0):
            assert abs(eval_zeta(rho, u, phi, r, n)) < 1e-12


def test_zeta_vanishes_at_origin():
    rho = indicator(1.0, 1.0)
    u = linear_velocity(1.0, r_max=1.0)
    phi = exponential_influence(1.0)
    assert abs(eval_zeta(rho, u, phi, 0.0, 2)) < 1e-12


def test_zeta_refinement_oracle_and_bound():
    rho = indicator(1.0, 1.0, n_nodes=401)
    u = linear_velocity(1.0, r_max=1.0, n_nodes=401)
    phi = exponential_influence(1.0)
    b = compute_bounds(rho, u, phi, D=1.0, n=2)
    for r in np.linspace(0.25, 5.0, 8):
        z = eval_zeta(rho, u, phi, float(r), 2)
        ref = _kernel_integral(rho, phi, float(r), 2, u, radial_order=20,
                               theta_order=480)
        assert z == pytest.approx(ref, abs=1e-8)
        assert abs(z) / r <= b.C0 + 1e-10


def test_zeta_requires_vanishing_velocity_at_origin():
    rho = indicator(1.0, 1.0)
    phi = exponential_influence(1.0)
    bad = indicator(1.0, 1.0)    # constant "velocity" with u(0) = 1
    with pytest.raises(ValueError):
        eval_zeta(rho, bad, phi, 0.5, 2)


def test_kernel_symmetry():
    phi = power_law_influence(0.5, 1.0)
    theta = np.linspace(0.0, math.pi, 129)
    for (r, s) in [(0.3, 0.9), (1.2, 0.1), (2.0, 2.0)]:
        d_rs = np.sqrt(r * r + s * s - 2 * r * s * np.cos(theta))
        d_sr = np.sqrt(s * s + r * r - 2 * s * r * np.cos(theta))
        k_rs = np.trapezoid(phi.phi(d_rs) * np.sin(theta), theta)
        k_sr = np.trapezoid(phi.phi(d_sr) * np.sin(theta), theta)
        assert abs(k_rs - k_sr) < 1e-10


def test_dimension_validation():
    rho = indicator(1.0, 1.0)
    with pytest.raises(ValueError):
        eval_psi(rho, constant_influence(1.0), 0.5, 0)
    with pytest.raises(ValueError):
        eval_psi(rho, constant_influence(1.0), 0.5, 2.5)


# ---------------------------------------------------------------------------
# bounds

def test_compute_bounds_power_law_example():
    # phi = (1+r)^(-1/2), unit mass, D = 1: nu = 3^(-1/2), psi_max = 1
    rho = indicator(1.0 / math.pi, 1.0)   # unit mass in n = 2
    u = linear_velocity(1.0, r_max=1.0)
    phi = power_law_influence(0.5, 1.0)
    b = compute_bounds(rho, u, phi, D=1.0, n=2)
    assert b.mass == pytest.approx(1.0)
    assert b.nu == pytest.approx(3 ** -0.5, rel=1e-12)
    assert b.psi_min == b.nu
    assert b.psi_max == pytest.approx(1.0)
    assert b.C0 == pytest.approx(0.5 * 1.0 * 1.0)


def test_compute_bounds_constant_influence_c0_zero():
    rho = indicator(2.0, 1.0)
    u = linear_velocity(3.0, r_max=1.0)
    b = compute_bounds(rho, u, constant_influence(1.0), D=1.0, n=2)
    assert b.C0 == 0.0
    assert b.psi_min == b.psi_max == pytest.approx(rho.mass(2))


def test_compute_bounds_validation():
    rho = indicator(1.0, 2.0)
    u = linear_velocity(1.0, r_max=2.0)
    with pytest.raises(ValueError):
        compute_bounds(rho, u, constant_influence(1.0), D=1.0, n=2)  # support > D
    with pytest.raises(ValueError):
        AlignmentBounds.explicit(psi_min=0.0, psi_max=1.0, nu=0.5, C0=0.0)
    with pytest.raises(ValueError):
        AlignmentBounds.explicit(psi_min=0.5, psi_max=1.0, nu=0.0, C0=0.0)


def test_degenerate_rate_error():
    from radial_euler import InfluenceSpec
    cutoff = InfluenceSpec(
        phi=lambda r: np.maximum(1.0 - np.asarray(r, dtype=float), 0.0),
        phi_prime=lambda r: np.where(np.asarray(r, dtype=float) < 1.0, -1.0, 0.0),
        sup_phi=1.0, sup_phi_prime=1.0, slow_decay=False)
    rho = indicator(1.0, 1.0)
    u = linear_velocity(1.0, r_max=1.0)
    with pytest.raises(ValueError):
        compute_bounds(rho, u, cutoff, D=1.0, n=2)   # phi(2D) = 0


# ---------------------------------------------------------------------------
# rough thresholds

def test_rough_q_derived_numbers():
    b = AlignmentBounds.explicit(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.15)
    # subcritical bound = (-0.8 - sqrt(0.64 - 0.6))/2 = -0.5
    assert rough_threshold_q(-0.5, b) is Region.SUBCRITICAL
    assert rough_threshold_q(-0.51, b) is Region.GAP
    # supercritical bound = (-1 - sqrt(1.6))/2 ~= -1.1325
    assert rough_threshold_q(-1.2, b) is Region.SUPERCRITICAL
    assert rough_threshold_q(-1.1, b) is Region.GAP


def test_rough_q_needs_small_c0():
    b = AlignmentBounds.explicit(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.2)
    assert rough_threshold_q(0.0, b) is Region.GAP   # C0 > psi_min^2 / 4


def test_rough_constant_influence_sharp():
    kappa = 0.7
    b = AlignmentBounds.explicit(psi_min=kappa, psi_max=kappa, nu=kappa, C0=0.0)
    assert rough_threshold_q(-kappa, b) is Region.SUBCRITICAL
    assert rough_threshold_q(-kappa - 1e-12, b) is Region.SUPERCRITICAL
    assert rough_threshold_G(0.0, b, 3) is Region.SUBCRITICAL
    assert rough_threshold_G(-1e-12, b, 3) is Region.SUPERCRITICAL


def test_rough_G_one_dimension_sharp():
    b = AlignmentBounds.explicit(psi_min=0.8, psi_max=1.0, nu=0.8, C0=5.0)
    assert rough_threshold_G(0.0, b, 1) is Region.SUBCRITICAL
    assert rough_threshold_G(-1e-9, b, 1) is Region.SUPERCRITICAL


def test_rough_G_discriminant_zero():
    b = AlignmentBounds.explicit(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.16)
    # n = 2: disc = 0.64 - 4 * 0.16 = 0, bound = 0.4
    assert rough_threshold_G(0.4, b, 2) is Region.SUBCRITICAL
    assert rough_threshold_G(0.39, b, 2) is Region.GAP


# ---------------------------------------------------------------------------
# enhanced curves

def test_curve_endpoints():
    for kind, want in [("sigma_q_plus", -0.8), ("sigma_q_minus", -1.0),
                       ("sigma_G_plus", 0.0), ("sigma_G_minus", 0.0)]:
        c = enhanced_curve(kind, FIG_BOUNDS, 2, 0.3)
        assert c.value_at_zero == pytest.approx(want, abs=1e-12)
        assert c(1e-7) == pytest.approx(want, abs=1e-6)


def test_curve_one_dimension_identically_zero():
    for kind in ("sigma_G_plus", "sigma_G_minus"):
        c = enhanced_curve(kind, FIG_BOUNDS, 1, 0.4)
        assert np.max(np.abs(c.values)) == 0.0


def test_curve_signs_and_ordering():
    cp = enhanced_curve("sigma_G_plus", FIG_BOUNDS, 2, 0.2)
    cm = enhanced_curve("sigma_G_minus", FIG_BOUNDS, 2, 0.2)
    xs = np.linspace(0.01, 0.2, 12)
    assert np.all(cp(xs) > 0.0)
    assert np.all(cm(xs) < 0.0)


def test_curve_contains_rough_region():
    c = enhanced_curve("sigma_q_plus", FIG_BOUNDS, 2, 0.16)
    xs = np.linspace(1e-4, 0.159, 40)
    rough = 0.5 * (-0.8 - np.sqrt(0.64 - 4 * xs))
    assert np.all(c(xs) <= rough + 1e-12)
    cg = enhanced_curve("sigma_G_plus", FIG_BOUNDS, 2, 0.16)
    rough_g = 0.5 * (0.8 - np.sqrt(np.maximum(0.64 - 4 * xs, 0.0)))
    assert np.all(cg(xs) <= rough_g + 1e-12)


def test_curve_gap_grows_with_dimension():
    gaps = []
    for n in (2, 3, 4, 5):
        cp = enhanced_curve("sigma_G_plus", FIG_BOUNDS, n, 0.2)
        cm = enhanced_curve("sigma_G_minus", FIG_BOUNDS, n, 0.2)
        gaps.append(cp(0.2) - cm(0.2))
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_curve_constant_influence_limit():
    kappa = 1.3
    b = AlignmentBounds.explicit(psi_min=kappa, psi_max=kappa, nu=kappa, C0=0.0)
    assert enhanced_curve("sigma_q_plus", b, 2, 0.2).value_at_zero == \
        pytest.approx(-kappa)
    assert enhanced_curve("sigma_q_minus", b, 2, 0.2).value_at_zero == \
        pytest.approx(-kappa)
    assert enhanced_curve("sigma_G_plus", b, 2, 0.2).value_at_zero == 0.0


def test_curve_input_validation():
    with pytest.raises(ValueError):
        enhanced_curve("sigma_x", FIG_BOUNDS, 2, 0.2)
    with pytest.raises(ValueError):
        enhanced_curve("sigma_q_plus", FIG_BOUNDS, 2, -0.1)
    c = enhanced_curve("sigma_q_plus", FIG_BOUNDS, 2, 0.2)
    with pytest.raises(ValueError):
        c(0.3)


# ---------------------------------------------------------------------------
# comparison classifier

def test_comparison_equilibrium_is_bounded():
    out = comparison_classify("q", -0.8, 0.0, FIG_BOUNDS, 2)
    assert out.is_bounded


def test_comparison_matches_curves_both_sides():
    for kind, var, side in [("sigma_q_plus", "q", "+"),
                            ("sigma_q_minus", "q", "-"),
                            ("sigma_G_plus", "G", "+"),
                            ("sigma_G_minus", "G", "-")]:
        curve = enhanced_curve(kind, FIG_BOUNDS, 2, 0.5)
        for x0 in (0.1, 0.35):
            sig = float(curve(x0))
            up = comparison_classify(var, sig + 0.03, x0, FIG_BOUNDS, 2,
                                     side=side)
            dn = comparison_classify(var, sig - 0.03, x0, FIG_BOUNDS, 2,
                                     side=side)
            assert up.is_bounded, (kind, x0)
            assert dn.is_blowup, (kind, x0)


def test_comparison_deep_supercritical_has_finite_estimate():
    b = AlignmentBounds.explicit(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.15)
    out = comparison_classify("q", -3.0, 0.15, b, 2)
    assert out.is_blowup and out.t_estimate is not None
    assert out.t_estimate < 10.0


def test_comparison_validation():
    with pytest.raises(ValueError):
        comparison_classify("x", 0.0, 0.0, FIG_BOUNDS, 2)
    with pytest.raises(ValueError):
        comparison_classify("q", 0.0, 0.0, FIG_BOUNDS, 2, side="*")
    with pytest.raises(ValueError):
        comparison_classify("q", 0.0, -0.1, FIG_BOUNDS, 2)
    with pytest.raises(ValueError, match="finite"):
        comparison_classify("q", float("nan"), 0.0, FIG_BOUNDS, 2)


def _scalar_comparison(kind, y0, C0, bounds, n, cfg, side):
    """One cell through scalar ``integrate``, with Python scalar branching:
    the reference every lane of the lockstep batch must match exactly."""
    pm, pM, nu = bounds.psi_min, bounds.psi_max, bounds.nu
    if kind == "q":
        if side == "+":
            def rhs(t, y):
                v, b = y
                c1 = pm if v < 0.0 else pM
                return (-v * v - c1 * v - b, -nu * b)
            safe = -pm
        else:
            def rhs(t, y):
                v, b = y
                return (-v * v - pM * v + b, -nu * b)
            safe = -pM
    else:
        gain = n - 1.0
        if side == "+":
            def rhs(t, y):
                v, b = y
                return (-v * v + pm * v - gain * b, -nu * b)
        else:
            def rhs(t, y):
                v, b = y
                return (-v * v + pM * v + gain * b, -nu * b)
        safe = 0.0
    b_floor = 1e-10 * max(C0, 1.0)
    basin = EventSpec("bounded-basin",
                      lambda t, y: min(b_floor - y[1], y[0] - (safe + 1e-6)),
                      direction=+1, terminal=True)
    system = OdeSystem(2, rhs, labels=(kind, "B"))
    state0 = np.array([y0, C0])
    diag = {"labels": system.labels}
    if basin.func(0.0, state0) >= 0.0:
        diag["early_exit"] = "initial state inside bounded basin"
        return ClassificationOutcome(Verdict.GLOBAL_BOUNDED, diagnostics=diag)
    rec = integrate(system, state0, cfg, events=(basin,))
    diag["t_final"] = rec.t_final
    diag["final_state"] = rec.y_final
    return outcome_of(rec, diag)


@pytest.fixture
def ea_batches(monkeypatch):
    """The lane count of every integrate_lanes batch the classifiers run."""
    batches = []
    lanes = euler_poisson.integrate_lanes

    def counted(system, y0, *args, **kwargs):
        batches.append(y0.shape[1])
        return lanes(system, y0, *args, **kwargs)

    monkeypatch.setattr(euler_poisson, "integrate_lanes", counted)
    return batches


@pytest.mark.parametrize("kind, side", [("q", "+"), ("q", "-"), ("G", "+"), ("G", "-")])
def test_classify_ea_many_matches_scalar_runs(ea_batches, kind, side):
    cfg = IntegratorConfig(rel_tol=1e-6)
    # C0 on both sides of 1, where the basin floor 1e-10 max(C0, 1) differs
    # per cell; the first 20 cells start outside the basin, so they fill
    # a lockstep batch of 20 lanes
    cells = [(y0, c0) for y0 in np.linspace(-3.0, 1.0, 15)
             for c0 in np.linspace(0.0, 2.0, 10)]
    refs = [_scalar_comparison(kind, y0, c0, FIG_BOUNDS, 2, cfg, side)
            for y0, c0 in cells]
    exits = set()
    for size, lanes in ((1, []), (19, []), (20, [20]), (len(cells), None)):
        ea_batches.clear()
        outs = classify_ea_many(kind, [y0 for y0, _ in cells[:size]],
                                [c0 for _, c0 in cells[:size]], FIG_BOUNDS, 2,
                                config=cfg, side=side)
        assert len(outs) == size
        if lanes is not None:
            assert ea_batches == lanes
        else:
            assert len(ea_batches) == 1
        for cell, out, ref in zip(cells, outs, refs):
            assert (out.verdict, out.t_estimate, out.reason) == \
                (ref.verdict, ref.t_estimate, ref.reason), cell
            diag, ref_diag = dict(out.diagnostics), dict(ref.diagnostics)
            assert np.array_equal(diag.pop("final_state", None),
                                  ref_diag.pop("final_state", None)), cell
            assert diag == ref_diag, cell
            exits.add(out.diagnostics.get("early_exit", out.verdict.value))
    assert exits == {"initial state inside bounded basin", "global-bounded",
                     "finite-time-blowup"}


def test_sweep_codes_match_comparison_classify():
    # a sweep takes its codes from the lanes' terminations and builds no
    # outcome; every cell's code must be the one of its one-cell verdict
    cfg = IntegratorConfig(rel_tol=1e-6)
    run = RunConfig({"model": {"kind": "euler-alignment", "n": 2.0},
                     "alignment": {"psi_min": 0.8, "psi_max": 1.0, "nu": 0.8,
                                   "kind": "q", "side": "+"},
                     "integrator": {"rel_tol": 1e-6}})
    cells = [(y0, c0) for y0 in np.linspace(-3.0, 1.0, 15) for c0 in np.linspace(0.0, 2.0, 10)]
    codes = classify_cells(run, y0=np.array([y0 for y0, _ in cells]),
                           C0=np.array([c0 for _, c0 in cells])).codes
    assert sorted(set(codes.tolist())) == [0, 2]
    for (y0, c0), code in zip(cells, codes):
        ref = comparison_classify("q", y0, c0, FIG_BOUNDS, 2, config=cfg, side="+")
        assert code == VERDICT_CODES[ref.verdict], (y0, c0)


def test_classify_ea_many_refuses_negative_C0_before_running(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a lane ran")

    monkeypatch.setattr(euler_poisson, "integrate_lanes", refuse)
    monkeypatch.setattr(euler_poisson, "integrate", refuse)
    y0s = np.linspace(-2.0, 0.5, 30)
    for bad in (0, 29):
        C0s = np.full(30, 0.3)
        C0s[bad] = -1e-3
        with pytest.raises(ValueError, match="C0 must be nonnegative"):
            classify_ea_many("q", y0s, C0s, FIG_BOUNDS, 2)


def test_classify_ea_many_logs_its_batch(caplog):
    caplog.set_level("INFO", logger="radial_euler.alignment")
    # y0 >= -0.8 with C0 = 0 starts inside the basin of kind q, side +
    y0s = [-1.5, -0.5, 0.2, -1.0, 0.0]
    C0s = [0.1, 0.0, 0.0, 0.0, 0.4]
    classify_ea_many("q", y0s, C0s, FIG_BOUNDS, 2)
    [line] = [rec.getMessage() for rec in caplog.records
              if rec.name == "radial_euler.alignment"]
    assert line == "5 cells, 2 inside the basin at t = 0; 3 runs of the rest"


def test_ea_char_state():
    from radial_euler import EaCharState
    st = EaCharState(q=0.2, G=1.1, rho=0.5, B=0.3)
    assert st.p(psi=0.9) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        EaCharState(q=0.0, G=0.0, rho=-1.0, B=0.0)
    with pytest.raises(ValueError):
        EaCharState(q=0.0, G=0.0, rho=1.0, B=-0.1)


def test_unsettled_kernel_quadrature_raises(monkeypatch):
    from radial_euler import IntegrationFailure, alignment
    values = iter([1.0, 2.0, 3.0])
    monkeypatch.setattr(alignment, "_kernel_integral", lambda *args: next(values))
    rho = gaussian_bump(1.0, 1.0, r_max=2.0, n_nodes=201)
    with pytest.raises(IntegrationFailure, match="did not settle"):
        eval_psi(rho, power_law_influence(0.5, 1.0), 0.5, 2)
