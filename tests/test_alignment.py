import math

import numpy as np
import pytest

from radial_euler import (AlignmentBounds, EventSpec, IntegratorConfig, OdeSystem,
                          Region, Verdict, classify_ea_many,
                          comparison_classify, compute_bounds,
                          constant_influence, enhanced_curve, eval_psi,
                          eval_zeta, exponential_influence, gaussian_bump,
                          gaussian_velocity, indicator, linear_velocity, power_law_influence,
                          rough_threshold_G, rough_threshold_q)
from radial_euler import euler_poisson
from radial_euler.alignment import _kernel_integral
from radial_euler.core import sphere_area
from radial_euler.config import RunConfig
from radial_euler.odeint import (VERDICT_CODES, ClassificationOutcome, LaneBatch, integrate,
                                 outcome_of)
from radial_euler.sweep import classify_cells

FIG_BOUNDS = AlignmentBounds(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.0)


# ---------------------------------------------------------------------------
# kernel evaluations

SPECIAL_X = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 2.5, 1e300, math.inf, math.nan]


@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_library_influences_are_their_formula_bit_for_bit(scale):
    # at scale 1 the influences skip the division: IEEE x / 1.0 is x for every
    # double, so phi keeps every bit of the written formula there too
    x = np.concatenate((SPECIAL_X, np.random.default_rng(3).uniform(0.0, 10.0, 500)))
    pairs = [(exponential_influence(scale), lambda v: np.exp(-v / scale))] + [
        (power_law_influence(a, scale), lambda v, a=a: (1.0 + v / scale) ** -a)
        for a in (0.0, 0.5, 1.0, 1.5, 2.0)]
    for phi, formula in pairs:
        assert np.array_equal(phi.phi(x), formula(x), equal_nan=True), phi.name
        # compute_bounds reads phi at one float
        for v in SPECIAL_X:
            got, want = phi.phi(v), formula(np.asarray(v))
            assert np.ndim(got) == 0
            assert np.array_equal(got, want, equal_nan=True), (phi.name, v)


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


def _quad_kernel(rho, phi, r, n, u=None):
    """The kernel by adaptive quadrature: scipy's quad in s, split at every
    profile node and at r, of quad in theta for n >= 2; ``phi`` takes a float.
    The profiles enter through the cubic spline ``smooth_eval`` reads."""
    from scipy.interpolate import CubicSpline
    from scipy.integrate import quad
    rho_s = CubicSpline(rho.nodes, rho.values)
    u_s = None if u is None else CubicSpline(u.nodes, u.values)
    weight = rho_s if u is None else (lambda s: rho_s(s) * u_s(s))
    sign = 1.0 if u is None else -1.0
    points = sorted({*rho.nodes[1:-1].tolist(), r})
    tight = dict(epsabs=1e-15, epsrel=1e-13)

    def radial(s):
        if n == 1:
            return phi(abs(r - s)) + sign * phi(r + s)

        def angular(t):
            dist = math.sqrt(max(r * r + s * s - 2.0 * r * s * math.cos(t), 0.0))
            return phi(dist) * (1.0 if u is None else math.cos(t)) * math.sin(t) ** (n - 2)
        return sphere_area(n - 1) * s ** (n - 1) * quad(angular, 0.0, math.pi, limit=200,
                                                         **tight)[0]

    return quad(lambda s: float(weight(s)) * radial(s), 0.0, rho.r_max, points=points,
                limit=4 * len(points), **tight)[0]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n, r", [(1, 0.3125), (1, 1.25), (1, 2.5), (2, 0.3125), (2, 2.5)])
def test_kernels_match_adaptive_quadrature(n, r):
    # phi(|r - s|) has a kink at s = r inside a profile interval; with the
    # interval split there every order settles (before, these raised
    # IntegrationFailure).  Measured worst relative gaps to the oracle:
    # 2.6e-15 for n = 1 and 4.3e-12 for n = 2.
    rho = gaussian_bump(0.5, 0.7, r_max=3.0, n_nodes=401)
    u = gaussian_velocity(0.4, 0.6, r_max=3.0, n_nodes=401)
    phi = power_law_influence(1.5, 0.5)
    tol = 1e-13 if n == 1 else 1e-10
    exact = _quad_kernel(rho, lambda d: (1.0 + d / 0.5) ** -1.5, r, n)
    assert eval_psi(rho, phi, r, n) == pytest.approx(exact, rel=tol)
    exact = _quad_kernel(rho, lambda d: (1.0 + d / 0.5) ** -1.5, r, n, u)
    assert eval_zeta(rho, u, phi, r, n) == pytest.approx(exact, rel=tol)


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
    assert rho.mass(2) == pytest.approx(1.0)
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
        AlignmentBounds(psi_min=0.0, psi_max=1.0, nu=0.5, C0=0.0)
    with pytest.raises(ValueError):
        AlignmentBounds(psi_min=0.5, psi_max=1.0, nu=0.0, C0=0.0)


def test_degenerate_rate_error():
    from radial_euler import InfluenceSpec
    cutoff = InfluenceSpec(
        phi=lambda r: np.maximum(1.0 - np.asarray(r, dtype=float), 0.0),
        sup_phi=1.0, sup_phi_prime=1.0)
    rho = indicator(1.0, 1.0)
    u = linear_velocity(1.0, r_max=1.0)
    with pytest.raises(ValueError):
        compute_bounds(rho, u, cutoff, D=1.0, n=2)   # phi(2D) = 0


# ---------------------------------------------------------------------------
# rough thresholds

def test_rough_q_derived_numbers():
    b = AlignmentBounds(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.15)
    # subcritical bound = (-0.8 - sqrt(0.64 - 0.6))/2 = -0.5
    assert rough_threshold_q(-0.5, b) is Region.SUBCRITICAL
    assert rough_threshold_q(-0.51, b) is Region.GAP
    # supercritical bound = (-1 - sqrt(1.6))/2 ~= -1.1325
    assert rough_threshold_q(-1.2, b) is Region.SUPERCRITICAL
    assert rough_threshold_q(-1.1, b) is Region.GAP


def test_rough_q_needs_small_c0():
    b = AlignmentBounds(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.2)
    assert rough_threshold_q(0.0, b) is Region.GAP   # C0 > psi_min^2 / 4


def test_rough_constant_influence_sharp():
    kappa = 0.7
    b = AlignmentBounds(psi_min=kappa, psi_max=kappa, nu=kappa, C0=0.0)
    assert rough_threshold_q(-kappa, b) is Region.SUBCRITICAL
    assert rough_threshold_q(-kappa - 1e-12, b) is Region.SUPERCRITICAL
    assert rough_threshold_G(0.0, b, 3) is Region.SUBCRITICAL
    assert rough_threshold_G(-1e-12, b, 3) is Region.SUPERCRITICAL


def test_rough_G_one_dimension_sharp():
    b = AlignmentBounds(psi_min=0.8, psi_max=1.0, nu=0.8, C0=5.0)
    assert rough_threshold_G(0.0, b, 1) is Region.SUBCRITICAL
    assert rough_threshold_G(-1e-9, b, 1) is Region.SUPERCRITICAL


def test_rough_G_discriminant_zero():
    b = AlignmentBounds(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.16)
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
    b = AlignmentBounds(psi_min=kappa, psi_max=kappa, nu=kappa, C0=0.0)
    assert enhanced_curve("sigma_q_plus", b, 2, 0.2).value_at_zero == \
        pytest.approx(-kappa)
    assert enhanced_curve("sigma_q_minus", b, 2, 0.2).value_at_zero == \
        pytest.approx(-kappa)
    assert enhanced_curve("sigma_G_plus", b, 2, 0.2).value_at_zero == 0.0


def _bessel_separatrix(a, g, nu, x):
    """The exact separatrix of v' = -v^2 - a v - g B, B = x e^{-nu t}, for g <= 0.

    Under v = z'/z the system is z'' + a z' + g x e^{-nu t} z = 0, Bessel's
    modified equation in kappa e^{-nu t / 2} with kappa = 2 sqrt(|g| x) / nu
    and order mu = |a| / nu, so sigma(x) = max(0, -a) - sqrt(|g| x)
    I_{mu-1}(kappa) / I_mu(kappa); at g = 0 that is its limit max(0, -a) - |a|.
    """
    from scipy.special import iv
    if g == 0.0:
        return np.full_like(x, max(0.0, -a) - abs(a))
    kappa, mu = 2.0 * np.sqrt(-g * x) / nu, abs(a) / nu
    return max(0.0, -a) - np.sqrt(-g * x) * iv(mu - 1.0, kappa) / iv(mu, kappa)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0], ids=["nu-below", "nu-at", "nu-above"])
def test_minus_curves_match_the_exact_bessel_separatrix(n, nu):
    # the favorable instantiations: q with rate psi_max and g = -1, G with
    # rate -psi_max and g = -(n - 1); psi_min = 1, so nu lies below, at and
    # above it.  Distances at the nodes, measured: up to 4.3e-11 (q, nu = 0.5)
    # and 2.7e-11 (G, n = 3, nu = 0.5); G at n = 1 is 0 exactly.
    b = AlignmentBounds(psi_min=1.0, psi_max=1.5, nu=nu, C0=0.0)
    for kind, a, g in (("sigma_q_minus", 1.5, -1.0), ("sigma_G_minus", -1.5, -(n - 1.0))):
        c = enhanced_curve(kind, b, n, 2.0)
        assert c.xs[-1] == 2.0 and len(c.xs) > 50
        assert c.value_at_zero == max(0.0, -a) - abs(a)
        exact = _bessel_separatrix(a, g, nu, c.xs[1:])
        assert np.max(np.abs(c.values[1:] - exact)) <= 1e-10, kind


def test_curve_input_validation():
    with pytest.raises(ValueError):
        enhanced_curve("sigma_x", FIG_BOUNDS, 2, 0.2)
    with pytest.raises(ValueError):
        enhanced_curve("sigma_q_plus", FIG_BOUNDS, 2, -0.1)
    # the curve starts at a series offset of 1e-6 max(1, psi_min^2)
    with pytest.raises(ValueError, match=r"^x_max must exceed the series start offset "
                                         r"1e-06, got 5e-07$"):
        enhanced_curve("sigma_q_plus", FIG_BOUNDS, 2, 5e-7)
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
    b = AlignmentBounds(psi_min=0.8, psi_max=1.0, nu=0.8, C0=0.15)
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
    return outcome_of(LaneBatch.of([rec], None, 2), 0, diag)


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


# the horizon of the exact-verdict checks below
_EA_T = 40.0


class _ZOracle:
    """Exact verdicts of the comparison system v' = -v^2 - a v - g C0 e^{-nu t}.

    Under v = z'/z it is the linear z'' + a z' + g C0 e^{-nu t} z = 0 with
    z(0) = 1 and z'(0) = y0, and v escapes to -inf exactly at z's first
    zero.  With a constant rate, z = z1 + y0 z2 of one basis run (scipy's
    DOP853 at rtol 1e-12), read eight times inside each of its steps and
    bisected on its dense output.  On side q+ the rate is psi_max while
    v >= 0 and psi_min below, and v, once negative, stays so while B > 0:
    a state with y0 <= 0 reads the psi_min basis, and one with y0 > 0 runs
    alone, switching rate where z' falls through 0.
    """

    def __init__(self, kind, side, bounds, n, C0):
        from scipy.integrate import solve_ivp
        pm, pM, nu = bounds.psi_min, bounds.psi_max, bounds.nu
        a, g = {("q", "+"): (pm, 1.0), ("q", "-"): (pM, -1.0),
                ("G", "+"): (-pm, n - 1.0), ("G", "-"): (-pM, 1.0 - n)}[kind, side]
        self.switching, self.pm, self.pM = (kind, side) == ("q", "+"), pm, pM

        def rhs(rate):
            return lambda t, y: [y[1], -rate * y[1] - g * C0 * math.exp(-nu * t) * y[0]]

        self.run = lambda rate, t0, z0, *events: solve_ivp(
            rhs(rate), (t0, _EA_T), z0, method="DOP853", rtol=1e-12, atol=1e-14,
            events=events)
        two = rhs(a)
        sol = solve_ivp(lambda t, y: two(t, y[:2]) + two(t, y[2:]), (0.0, _EA_T),
                        [1.0, 0.0, 0.0, 1.0], method="DOP853", rtol=1e-12, atol=1e-14,
                        dense_output=True).sol
        self.sol, self.grid = sol, np.append(np.linspace(
            sol.ts[:-1], sol.ts[1:], 8, endpoint=False).T.ravel(), _EA_T)
        self.z1, _, self.z2, _ = sol(self.grid)

    def blows(self, y0):
        """Whether z vanishes in [0, _EA_T]."""
        if self.switching and y0 > 0.0:
            return self._switching_zero(y0) < _EA_T
        return bool(np.any(self.z1 + y0 * self.z2 <= 0.0))

    def zeros(self, y0s):
        """The first zero of z for each y0, inf where there is none."""
        y0s = np.atleast_1d(np.asarray(y0s, dtype=float))
        down = self.z1 + y0s[:, None] * self.z2 <= 0.0
        k = np.maximum(np.argmax(down, axis=1), 1)
        lo, hi = self.grid[k - 1], self.grid[k]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            w1, _, w2, _ = self.sol(mid)
            pos = w1 + y0s * w2 > 0.0
            lo, hi = np.where(pos, mid, lo), np.where(pos, hi, mid)
        zeros = np.where(down.any(axis=1), hi, np.inf)
        if self.switching:
            zeros[y0s > 0.0] = [self._switching_zero(y0) for y0 in y0s[y0s > 0.0].tolist()]
        return zeros

    def _switching_zero(self, y0):
        def zero(t, y):
            return y[0]

        def turn(t, y):
            return y[1]
        zero.terminal = turn.terminal = True
        zero.direction = turn.direction = -1
        run = self.run(self.pM, 0.0, [1.0, y0], zero, turn)
        if run.t_events[1].size:
            run = self.run(self.pm, run.t_events[1][0], [run.y_events[1][0][0], 0.0], zero)
        return run.t_events[0][0] if run.t_events[0].size else math.inf


def _oracle_threshold(oracle, lo, hi):
    """The y0 between a blown ``lo`` and a bounded ``hi`` where blowup before
    _EA_T stops, to 32 halvings: a larger y0 stays above a smaller one's v."""
    for _ in range(32):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if oracle.blows(mid) else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind, side", [("q", "+"), ("q", "-"), ("G", "+"), ("G", "-")])
def test_classify_ea_many_matches_the_exact_linear_form(kind, side):
    # every kind and side, each n in {1, 2, 3}, and nu below, at and above
    # psi_min = 1: a y0 x C0 grid, and states at y0* +- delta (relative) on
    # several C0, with the threshold y0* bisected on the oracle.  Codes must
    # equal the oracle's off the threshold itself and off the last 1% of the
    # horizon.  Blowup times are within 1e-6 on the grid (measured: 1.8e-7),
    # and within 1e-6 + 5e-8 / delta at y0* +- delta, whose blowup time
    # moves like 1 / delta with the state (measured: 1.5e-4 at delta 1e-4,
    # 1.6e-2 at 1e-6, both on side q+).  A state 1e-8 from the threshold,
    # inside the integrator's 1e-8 tolerance, was called a blowup on side q+
    # at C0 = 1 and 2, and is left out.
    y0s = np.linspace(-3.0, 1.0, 21)
    deltas = np.array([-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2])
    for n, nu in ((1, 0.5), (2, 1.0), (3, 2.0)) if side == "+" else \
            ((1, 1.0), (2, 2.0), (3, 0.5)):
        bounds = AlignmentBounds(psi_min=1.0, psi_max=1.5, nu=nu, C0=0.0)
        cells, zeros, tols, kept = [], [], [], 0
        for C0 in (0.0, 0.5, 1.0, 2.0):
            oracle = _ZOracle(kind, side, bounds, n, C0)
            col = oracle.zeros(y0s)
            blown = np.flatnonzero(col < _EA_T)
            edge = None
            if 0 < len(blown) and blown[-1] < len(y0s) - 1:
                edge = _oracle_threshold(oracle, y0s[blown[-1]], y0s[blown[-1] + 1])
                near = edge + deltas * max(1.0, abs(edge))
                cells += [(y0, C0) for y0 in near]
                zeros += oracle.zeros(near).tolist()
                tols += (1e-6 + 5e-8 / np.abs(deltas)).tolist()
            # a grid state on the threshold (an equilibrium at C0 = 0) is
            # decided by roundoff in the oracle
            on_edge = (np.zeros(len(y0s), dtype=bool) if edge is None
                       else np.abs(y0s - edge) <= 1e-9 * max(1.0, abs(edge)))
            cells += [(y0, C0) for y0 in y0s[~on_edge]]
            zeros += col[~on_edge].tolist()
            tols += [1e-6] * int(np.count_nonzero(~on_edge))
        zeros, tols = np.array(zeros), np.array(tols)
        got = classify_ea_many(kind, [y0 for y0, _ in cells], [C0 for _, C0 in cells],
                               bounds, n, side=side, config=IntegratorConfig(t_max=_EA_T))
        late = (0.99 * _EA_T <= zeros) & (zeros < _EA_T)
        want = np.where(zeros < _EA_T, VERDICT_CODES[Verdict.FINITE_TIME_BLOWUP],
                        VERDICT_CODES[Verdict.GLOBAL_BOUNDED])
        assert np.array_equal(got.codes[~late], want[~late]), (n, nu)
        for j in np.flatnonzero((want == VERDICT_CODES[Verdict.FINITE_TIME_BLOWUP]) & ~late):
            assert abs(got[int(j)].t_estimate - zeros[j]) <= tols[j], (n, nu, cells[j])
            kept += 1
        assert kept > len(cells) // 10 and np.count_nonzero(want == 0) > len(cells) // 10


def test_unsettled_kernel_quadrature_raises(monkeypatch):
    from radial_euler import IntegrationFailure, alignment
    values = iter([1.0, 2.0, 3.0])
    monkeypatch.setattr(alignment, "_kernel_integral", lambda *args: next(values))
    rho = gaussian_bump(1.0, 1.0, r_max=2.0, n_nodes=201)
    with pytest.raises(IntegrationFailure, match="did not settle"):
        eval_psi(rho, power_law_influence(0.5, 1.0), 0.5, 2)
