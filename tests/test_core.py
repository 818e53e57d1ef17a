import numpy as np
import pytest

from radial_euler import (CharState, Model, ModelParams, divergence,
                          gap_consistency_check, grad_u_matrix, spectral_gap,
                          sphere_area)
from radial_euler.core import check_rules


def gap_by_enumeration(p, q, n):
    """Independent oracle: (1/2) sum_ij (l_i - l_j)^2 over {p, q x (n-1)}."""
    lam = [p] + [q] * (n - 1)
    return 0.5 * sum((a - b) ** 2 for a in lam for b in lam)


def test_divergence_examples():
    assert divergence(2, 1, 3) == 4
    assert divergence(0.37, 0.0, 1) == 0.37
    for n in (1, 2, 3, 5):
        assert divergence(1, 1, n) == n


def test_spectral_gap_examples():
    assert spectral_gap(2, 1, 3) == 2
    assert spectral_gap(0.7, 0.7, 5) == 0
    assert spectral_gap(3.2, -1.1, 1) == 0


def test_spectral_gap_matches_enumeration():
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        for _ in range(50):
            p, q = rng.uniform(-10, 10, 2)
            assert spectral_gap(p, q, n) == pytest.approx(
                gap_by_enumeration(p, q, n), abs=1e-10)


def test_grad_u_matrix_axis_aligned():
    m = grad_u_matrix(np.array([1.5, 0.0]), 2.0, 1.0)
    assert np.allclose(m, [[2, 0], [0, 1]])


def test_grad_u_matrix_isotropic():
    x = np.array([0.3, -0.2, 0.9])
    assert np.allclose(grad_u_matrix(x, 0.7, 0.7), 0.7 * np.eye(3), atol=1e-15)


def test_grad_u_matrix_eigenvalues():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=3)
        m = grad_u_matrix(x, 2.0, 1.0)
        lam = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(lam, [1, 1, 2], atol=1e-12)


def test_grad_u_trace_is_divergence():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(30):
            x = rng.normal(size=n)
            p, q = rng.uniform(-5, 5, 2)
            assert np.trace(grad_u_matrix(x, p, q)) == pytest.approx(
                divergence(p, q, n), rel=1e-14, abs=1e-13)


def test_grad_u_matrix_origin_rejected():
    with pytest.raises(ValueError):
        grad_u_matrix(np.zeros(3), 1.0, 1.0)


def test_velocity_gradient_sample():
    lam = np.sort(np.linalg.eigvalsh(grad_u_matrix(np.array([0.0, 2.0]), 3.0, -1.0)))
    assert np.allclose(lam, [-1, 3])


def test_gap_consistency_examples():
    assert gap_consistency_check(2, 1, 3) < 1e-12
    assert gap_consistency_check(0, 0, 4) == 0
    assert gap_consistency_check(1, 1, 2) < 1e-12


def test_gap_consistency_randomized():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        p, q = rng.uniform(-1e3, 1e3, 2)
        n = int(rng.integers(2, 7))
        assert gap_consistency_check(p, q, n) < 1e-12 * max(1.0, p * p, q * q)


def test_gap_consistency_requires_integer_dimension():
    with pytest.raises(ValueError):
        gap_consistency_check(1.0, 1.0, 2.5)
    with pytest.raises(ValueError):
        gap_consistency_check(1.0, 1.0, 1)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * np.pi)
    assert sphere_area(3) == pytest.approx(4 * np.pi)


def test_sphere_area_refuses_an_overflowing_dimension():
    # Gamma(n/2) overflows above n = 343, where math.gamma once raised OverflowError
    assert 0.0 < sphere_area(343) < np.inf
    with pytest.raises(ValueError, match=r"^sphere_area requires n <= 343$"):
        sphere_area(344)


def test_check_rules_names_the_first_broken_value():
    rules = {"a": (lambda v: v > 0, "positive"), "b": (lambda v: ~np.isnan(v), "not NaN")}
    check_rules(rules, {"a": 1.0, "b": np.array([0.0, 1.0])})
    with pytest.raises(KeyError, match=r"^'\[s\] a must be positive, got -1'$"):
        check_rules(rules, {"a": -1, "b": 0.0}, "[s] ", KeyError)
    # an elementwise test names the first element that fails it, as a float
    with pytest.raises(ValueError, match=r"^b must be not NaN, got nan$"):
        check_rules(rules, {"a": 1.0, "b": np.array([0.0, np.nan, 2.0])})


def test_model_params_validation():
    ModelParams(n=2.5, kappa=0.3, c=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=2, kappa=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=2, c=-1.0)
    with pytest.raises(ValueError):
        ModelParams(n=2, model=Model.DAMPED_BURGERS, kappa_damp=0.0)


def test_char_state_array():
    st = CharState(p=1.0, q=2.0, s=3.0, rho=4.0)
    assert np.allclose(st.as_array(), [1, 2, 3, 4])
