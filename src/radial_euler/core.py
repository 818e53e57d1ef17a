"""Shared domain types and the algebra of radial velocity gradients.

A radially symmetric, swirl-free velocity field in R^n has the form
u(x) = (x/r) u(r) with r = |x|.  Its gradient is fully described by two
scalars,

    p = u_r (radial stretching rate),
    q = u/r (angular stretching rate),

which are the eigenvalues of grad(u): p with multiplicity 1 (along x/r)
and q with multiplicity n-1 (on the orthogonal complement).  All flow
diagnostics used elsewhere in the package (divergence, spectral gap,
full gradient matrix) are exact closed forms in (p, q).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


# (test, wanted) rules for check_rules
AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")
AT_LEAST_TWO = (lambda v: v >= 2, "at least 2")
FINITE = (math.isfinite, "finite")
FINITE_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and positive")
FINITE_NONNEGATIVE = (lambda v: math.isfinite(v) and v >= 0, "finite and nonnegative")
# the largest n whose sphere area is a float: Gamma(n/2) overflows above it
MAX_SPHERE_DIMENSION = 343


def check_rules(rules: dict, values, where: str = "", error=ValueError):
    """Raise ``error`` ``<where><name> must be <wanted>, got <value>`` for the first
    ``{name: (test, wanted)}`` rule whose value in ``values`` fails its test; an
    elementwise test over an array names the first failing element, as a float."""
    for name, (ok, wanted) in rules.items():
        value = values[name]
        passed = ok(value)
        if not (passed.all() if isinstance(passed, np.ndarray) else passed):
            if np.ndim(passed):
                value = float(np.asarray(value)[~passed][0])
            raise error(f"{where}{name} must be {wanted}, got {value!r}")


class Model(enum.Enum):
    """Which forcing closes the characteristic dynamics."""

    EULER_POISSON = "euler-poisson"
    EULER_ALIGNMENT = "euler-alignment"
    INVISCID_BURGERS = "inviscid-burgers"
    DAMPED_BURGERS = "damped-burgers"


class Region(enum.Enum):
    """Membership of an initial state relative to a threshold condition.

    GAP marks the band where a (non-sharp) criterion decides neither way.
    """

    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"
    GAP = "gap"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters shared by all models.

    n is real-valued: the characteristic ODE systems make sense for any
    n >= 1 even though the PDE ensemble solver requires an integer
    dimension.  kappa is the force strength (> 0), c the constant
    background density (>= 0, Euler-Poisson only).  DAMPED_BURGERS
    carries its own damping constant kappa_damp.  Every parameter must be
    finite.
    """

    n: float
    kappa: float = 1.0
    c: float = 0.0
    model: Model = Model.EULER_POISSON
    kappa_damp: float = 1.0

    def __post_init__(self):
        check_rules({
            "n": (lambda v: math.isfinite(v) and v >= 1, "finite and at least 1"),
            "kappa": FINITE_POSITIVE, "c": FINITE_NONNEGATIVE,
            "kappa_damp": (lambda v: math.isfinite(v) and (
                self.model is not Model.DAMPED_BURGERS or v > 0),
                "finite, and positive for damped Burgers")}, vars(self))


@dataclass(frozen=True)
class CharState:
    """Scalar state carried along one characteristic path.

    p = u_r, q = u/r, rho = density.  For Euler-Poisson, s = -phi_r/r is
    the scaled potential slope; it must satisfy s > -c/n whenever the
    central density is positive.  Other models ignore s.
    """

    p: float
    q: float = 0.0
    s: float = 0.0
    rho: float = 1.0

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.q, self.s, self.rho], dtype=float)


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError("sphere_area requires n >= 1")
    if n > MAX_SPHERE_DIMENSION:
        raise ValueError(f"sphere_area requires n <= {MAX_SPHERE_DIMENSION}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def divergence(p: float, q: float, n: float) -> float:
    """Divergence of the radial field: div u = p + (n-1) q."""
    return p + (n - 1.0) * q


def spectral_gap(p: float, q: float, n: float) -> float:
    """Spectral gap of grad(u): eta = (n-1) (p - q)^2.

    This is (1/2) sum_ij (lambda_i - lambda_j)^2 evaluated on the
    eigenvalue multiset {p, q x (n-1)}; it vanishes iff the gradient is
    isotropic (p = q) or the flow is one-dimensional.
    """
    return (n - 1.0) * (p - q) ** 2


def grad_u_matrix(x: np.ndarray, p: float, q: float) -> np.ndarray:
    """Velocity gradient matrix at a point x != 0.

    Entry (i,j) = (x_i x_j / r^2) p + (delta_ij - x_i x_j / r^2) q.
    Eigenvalues are p along x/r and q on the orthogonal complement;
    the trace equals divergence(p, q, n).
    """
    x = np.asarray(x, dtype=float)
    r2 = float(np.dot(x, x))
    if r2 == 0.0:
        raise ValueError("grad_u_matrix is undefined at the origin (direction undefined)")
    proj = np.outer(x, x) / r2
    return proj * p + (np.eye(len(x)) - proj) * q


def gap_consistency_check(p: float, q: float, n: int) -> float:
    """Residual between the two closed forms of d^2 - tr((grad u)^2).

    The left side evaluates 2(n-1) p q + (n-1)(n-2) q^2 directly; the
    right side combines divergence and spectral gap as
    (n-1)/n d^2 - eta/n.  Both are exact, so the residual is pure
    floating-point noise (< 1e-12 for |p|, |q| <= 1e3).
    """
    if n < 2 or int(n) != n:
        raise ValueError("gap consistency check requires integer n >= 2")
    lhs = 2.0 * (n - 1.0) * p * q + (n - 1.0) * (n - 2.0) * q * q
    d = divergence(p, q, n)
    eta = spectral_gap(p, q, n)
    rhs = (n - 1.0) / n * d * d - eta / n
    return abs(lhs - rhs)
