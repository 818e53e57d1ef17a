import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from radial_euler import (DENSITY_LIBRARY, VELOCITY_LIBRARY, ProfileKind,
                          RadialProfile, constant, gaussian_bump, indicator,
                          integrate_weighted, linear_velocity,
                          polynomial_decay, rexp_velocity, sphere_area,
                          zero_velocity)
from radial_euler.profiles import _pchip_coeffs, _piecewise_cubic


def test_node_validation():
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.1, 0.5]), np.array([1.0, 1.0]))   # no r=0
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 0.5, 0.5]), np.ones(3))        # not strict
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0]), np.array([1.0]))             # too short


def test_velocity_must_vanish_at_origin():
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 1.0]), np.array([0.5, 1.0]),
                      ProfileKind.VELOCITY)


def test_density_origin_slope_check():
    r = np.linspace(0, 1, 101)
    RadialProfile(r, np.exp(-r * r))               # even profile passes
    with pytest.raises(ValueError):
        RadialProfile(r, 1.0 - r)                  # O(1) slope at the origin


def test_interpolation_and_derivative():
    u = rexp_velocity(2.0, 1.5, r_max=4.0, n_nodes=2001)
    rr = np.array([0.3, 1.0, 2.5])
    exact = 2.0 * rr * np.exp(-rr / 1.5)
    dexact = 2.0 * np.exp(-rr / 1.5) * (1 - rr / 1.5)
    assert np.allclose(u(rr), exact, atol=1e-9)
    assert np.allclose(u.derivative(rr), dexact, atol=1e-6)
    with pytest.raises(ValueError):
        u(5.0)


def test_integrate_weighted_polynomials_exact():
    r = np.linspace(0, 2, 41)
    vals = 3.0 + 2.0 * r - r ** 2
    # integral of tau^2 (3 + 2 tau - tau^2) over [0, 2]
    exact = 3 * 8 / 3 + 2 * 16 / 4 - 32 / 5
    assert integrate_weighted(r, vals, 0.0, 2.0, 2.0) == pytest.approx(
        exact, rel=1e-13)


def test_integrate_weighted_gaussian_vs_quad():
    prof = gaussian_bump(1.0, 1.0, r_max=3.0, n_nodes=1501)
    val = integrate_weighted(prof.nodes, prof.values, 0.0, 3.0, 1.5)
    ref, _ = quad(lambda t: t ** 1.5 * math.exp(-t * t), 0.0, 3.0,
                  epsabs=1e-13, epsrel=1e-13)
    assert val == pytest.approx(ref, abs=1e-10)


def test_integrate_weighted_range_errors():
    prof = indicator(1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_weighted(prof.nodes, prof.values, 0.0, 2.0, 1.0)
    assert integrate_weighted(prof.nodes, prof.values, 0.5, 0.5, 1.0) == 0.0


def test_closed_form_masses():
    assert indicator(1.0, 1.0).mass(2) == pytest.approx(math.pi)
    assert indicator(2.0, 0.5).mass(3) == pytest.approx(
        2.0 * 4 * math.pi / 3 * 0.125)
    assert gaussian_bump(1.0, 1.0).mass(3) == pytest.approx(math.pi ** 1.5)
    assert constant(0.5, r_max=2.0).mass(1) == pytest.approx(0.5 * 2 * 2.0)
    # polynomial decay in n=2 with k=4: integral r (1+r^2)^-2 = 1/2
    assert polynomial_decay(1.0, 1.0, 4.0).mass(2) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        polynomial_decay(1.0, 1.0, 2.0).mass(3)   # k <= n diverges


def test_numeric_mass_matches_closed_form():
    prof = gaussian_bump(1.3, 0.8, r_max=6.0, n_nodes=1601)
    raw = RadialProfile(prof.nodes, prof.values)   # no mass_exact attached
    for n in (1, 2, 3):
        assert raw.mass(n) == pytest.approx(prof.mass(n), rel=1e-9)


def test_support_radius():
    prof = indicator(1.0, 1.0)
    assert prof.support_radius() == pytest.approx(1.0)
    z = zero_velocity(2.0)
    assert z.support_radius() == 0.0


def test_velocity_library_shapes():
    u = linear_velocity(0.7, r_max=2.0)
    assert u(1.5) == pytest.approx(1.05)
    assert u.derivative(0.0) == pytest.approx(0.7, abs=1e-9)


def test_integrate_weighted_limits_array_matches_scalar_calls():
    prof = gaussian_bump(1.0, 1.0, r_max=2.5, n_nodes=201)
    nodes, vals = prof.nodes, prof.values
    rng = np.random.default_rng(3)
    for a in (0.0, 0.3, nodes[40]):
        # off-node limits, limits on nodes, a repeated limit, b = a and b = r_max
        b = np.sort(np.concatenate((rng.uniform(a, 2.5, 25), nodes[nodes > a][::17],
                                    [a, 1.7, 1.7, 2.5])))
        for power in (0.0, 1.0, 2.0, 1.5):
            got = integrate_weighted(nodes, vals, a, b, power)
            want = [integrate_weighted(nodes, vals, a, float(b_k), power) for b_k in b]
            assert got.tolist() == want
    with pytest.raises(ValueError):
        integrate_weighted(nodes, vals, 0.0, np.array([1.0, 0.5]), 2.0)
    with pytest.raises(ValueError):
        integrate_weighted(nodes, vals, 0.5, np.array([0.4, 1.0]), 2.0)


def test_derivative_cached_and_unchanged():
    u = rexp_velocity(2.0, 1.5, r_max=4.0, n_nodes=201)
    rr = np.linspace(0.0, 4.0, 57)
    fresh = PchipInterpolator(u.nodes, u.values, extrapolate=False).derivative()(rr)
    assert np.array_equal(u.derivative(rr), fresh)
    slope = u._slope
    assert np.array_equal(u.derivative(rr), fresh) and u._slope is slope
    assert [float(u.derivative(r)) for r in rr] == fresh.tolist()


def _same_bits(got, want):
    """Equal shape, NaN positions and bits (so the sign of zero too)."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(np.isnan(got), np.isnan(want))
            and np.array_equal(np.where(np.isnan(got), 0.0, got).view(np.int64),
                               np.where(np.isnan(want), 0.0, want).view(np.int64)))


def _pchip_cases():
    for library in (DENSITY_LIBRARY, VELOCITY_LIBRARY):
        for name, factory in sorted(library.items()):
            for n_nodes in (2, 3, 4, 5, 201, 801):
                try:
                    prof = factory(n_nodes=n_nodes)
                except ValueError:   # two nodes cannot give a bump zero slope at r = 0
                    assert n_nodes == 2 and name in ("gaussian-bump", "polynomial-decay")
                    continue
                yield prof.nodes, prof.values
    rng = np.random.default_rng(20)
    for _ in range(400):
        size = int(rng.integers(2, 30))
        x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 2.0, size - 1))))
        y = rng.normal(size=size) * 10.0 ** float(rng.integers(-3, 4))
        y[rng.random(size) < 0.3] = 0.0          # exact zeros
        if rng.random() < 0.4:
            y = np.round(y)                      # flat runs
        if rng.random() < 0.5:
            y = -y                               # sign changes both ways
        yield x, y


def test_pchip_matches_scipy_bit_for_bit():
    cases = 0
    for x, y in _pchip_cases():
        ref = PchipInterpolator(x, y, extrapolate=False)
        coeffs = _pchip_coeffs(x, y)
        slope = coeffs[:-1] * np.array([[3.0], [2.0], [1.0]])
        mids = 0.5 * (x[1:] + x[:-1])
        points = np.concatenate((x, mids, [np.nan, np.nextafter(x[0], -np.inf),
                                           np.nextafter(x[-1], np.inf), x[0] - 1.0,
                                           x[-1] + 1.0]))
        for r in (points, points[:6].reshape(2, 3), float(x[-1]), float(mids[-1]),
                  np.nan, np.nextafter(x[-1], np.inf)):
            assert _same_bits(_piecewise_cubic(x, coeffs, r), ref(r)), (x, y, r)
            assert _same_bits(_piecewise_cubic(x, slope, r), ref.derivative()(r)), (x, y, r)
        cases += 1
    assert cases == 46 + 400


def test_profile_pchip_public_calls():
    u = rexp_velocity(2.0, 1.5, r_max=4.0, n_nodes=201)
    ref = PchipInterpolator(u.nodes, u.values, extrapolate=False)
    rr = np.linspace(0.0, 4.0, 57)
    assert _same_bits(u(rr), ref(rr))
    assert _same_bits(u(4.0), ref(4.0)) and np.ndim(u(4.0)) == 0
    with pytest.raises(ValueError):
        u(np.nextafter(4.0, np.inf))
    with pytest.raises(ValueError):
        u.derivative(-1e-300)
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 1.0]), np.array([1.0, np.nan]))


def test_smooth_eval_short_profile_is_pchip():
    # fewer than four nodes: no cubic spline, PCHIP values, and NaN (not a
    # raise) inside the 1e-12 tolerance just past the last node
    for nodes, values in ((np.array([0.0, 1.0]), np.array([2.0, 2.0])),
                          (np.array([0.0, 0.5, 2.0]), np.array([1.0, 1.0, 0.25]))):
        prof = RadialProfile(nodes, values)
        ref = PchipInterpolator(nodes, values, extrapolate=False)
        rr = np.linspace(0.0, nodes[-1], 9)
        assert _same_bits(prof.smooth_eval(rr), ref(rr))
        past = nodes[-1] * (1 + 1e-13)
        assert past > nodes[-1] and np.isnan(prof.smooth_eval(past))
        with pytest.raises(ValueError):
            prof.smooth_eval(nodes[-1] * (1 + 1e-11))
