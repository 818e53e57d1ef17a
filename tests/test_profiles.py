import math

import numpy as np
import pytest
from scipy.integrate import quad

from radial_euler import (ProfileKind, RadialProfile, constant, gaussian_bump,
                          indicator, integrate_weighted, linear_velocity,
                          polynomial_decay, rexp_velocity, sphere_area,
                          zero_velocity)


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
    fresh = u._interp.derivative()(rr)
    assert np.array_equal(u.derivative(rr), fresh)
    slope = u._slope
    assert np.array_equal(u.derivative(rr), fresh) and u._slope is slope
    assert [float(u.derivative(r)) for r in rr] == fresh.tolist()
