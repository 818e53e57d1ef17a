"""Sampled radial profiles and the built-in initial-data library.

A RadialProfile stores one scalar field on a strictly increasing node
set starting at r = 0, with the origin regularity conditions enforced:
velocities vanish at the origin, densities have zero radial slope there.
Evaluation and differentiation use monotone cubic (PCHIP) interpolation,
computed here in NumPy so that importing this module does not load
scipy; weighted integrals against tau^power handle the radial volume element
analytically on piecewise-quadratic reconstructions, so they lose no
order at the origin.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import sphere_area


class ProfileKind(enum.Enum):
    DENSITY = "density"
    VELOCITY = "velocity"


@dataclass
class RadialProfile:
    nodes: np.ndarray
    values: np.ndarray
    kind: ProfileKind = ProfileKind.DENSITY
    # closed-form total mass in dimension n, when known (canned profiles)
    mass_exact: Optional[Callable[[float], float]] = None
    # (4, nodes - 1) PCHIP power-basis coefficients, highest power first
    _pchip: np.ndarray = field(init=False, repr=False)
    _smooth: object = field(init=False, repr=False, default=None)
    _slope: object = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if len(self.nodes) < 2:
            raise ValueError("a profile needs at least two nodes")
        if not (np.all(np.isfinite(self.nodes)) and np.all(np.isfinite(self.values))):
            raise ValueError("nodes and values must be finite")
        if self.nodes[0] != 0.0:
            raise ValueError("the first node must sit at r = 0")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if self.kind is ProfileKind.VELOCITY and self.values[0] != 0.0:
            raise ValueError("velocity profiles must satisfy u(0) = 0")
        if self.kind is ProfileKind.DENSITY:
            self._check_origin_slope()
        self._pchip = _pchip_coeffs(self.nodes, self.values)

    def _check_origin_slope(self):
        # one-sided slope at the origin must be curvature-sized, not O(1)
        d0 = self.nodes[1] - self.nodes[0]
        slope = (self.values[1] - self.values[0]) / d0
        scale = float(np.max(np.abs(self.values))) or 1.0
        if len(self.nodes) >= 3:
            f01 = slope
            f12 = (self.values[2] - self.values[1]) / (self.nodes[2] - self.nodes[1])
            curv = 2.0 * abs(f12 - f01) / (self.nodes[2] - self.nodes[0])
            bound = 3.0 * curv * d0 + 1e-8 * scale
        else:
            bound = 1e-8 * scale
        if abs(slope) > bound:
            raise ValueError(
                f"density profile violates d(rho)/dr = 0 at the origin "
                f"(one-sided slope {slope:.3g}, allowed {bound:.3g})")

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    def support_radius(self) -> float:
        """Largest node carrying a nonzero value."""
        nz = np.nonzero(self.values)[0]
        return float(self.nodes[nz[-1]]) if len(nz) else 0.0

    def __call__(self, r):
        return _within_support(_piecewise_cubic(self.nodes, self._pchip, r))

    def smooth_eval(self, r):
        """Fourth-order (cubic-spline) evaluation for quadrature kernels.

        PCHIP is only third-order accurate, which shows up when kernel
        integrals are compared against closed-form masses at 1e-10.
        Profiles with fewer than four nodes fall back to PCHIP.
        """
        if self._smooth is None:
            if len(self.nodes) >= 4:
                # imported here: only kernel quadrature builds a spline, and
                # scipy.interpolate costs most of the package's start-up
                from scipy.interpolate import CubicSpline
                self._smooth = CubicSpline(self.nodes, self.values)
            else:
                self._smooth = functools.partial(_piecewise_cubic, self.nodes, self._pchip)
        r = np.asarray(r, dtype=float)
        if np.any(r < self.nodes[0]) or np.any(r > self.nodes[-1] * (1 + 1e-12)):
            raise ValueError("evaluation outside the profile support")
        return self._smooth(r)

    def derivative(self, r):
        if self._slope is None:
            self._slope = self._pchip[:-1] * np.array([[3.0], [2.0], [1.0]])
        return _within_support(_piecewise_cubic(self.nodes, self._slope, r))

    def mass(self, n: float) -> float:
        """Total mass in R^n: omega_{n-1} * integral of rho(s) s^(n-1)."""
        if self.mass_exact is not None:
            return self.mass_exact(n)
        return sphere_area(max(int(round(n)), 1)) * integrate_weighted(
            self.nodes, self.values, 0.0, self.r_max, n - 1.0)


def _within_support(out: np.ndarray) -> np.ndarray:
    if np.any(np.isnan(out)):
        raise ValueError("evaluation outside the profile support")
    return out


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving (Moler, pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the PCHIP interpolant, highest power first.

    The arithmetic repeats scipy's ``PchipInterpolator`` operation for
    operation, so the interpolant is bit for bit the same: node slopes
    are the Fritsch-Butland weighted harmonic mean of the neighbouring
    secants (zero where they differ in sign or one vanishes), with the
    one-sided rule at both ends and a straight line for two nodes.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.zeros_like(y)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _piecewise_cubic(nodes: np.ndarray, coeffs: np.ndarray, r) -> np.ndarray:
    """Evaluate power-basis pieces on the node intervals, as scipy's PPoly.

    Interval k is [nodes[k], nodes[k+1]), the last one closed; points
    outside [nodes[0], nodes[-1]] and NaN give NaN.  The sum runs from
    the constant term up with a running power of (r - nodes[k]), as
    PPoly does, so the results are the same bits.  The shape is that of
    ``r`` (0-d for a scalar).
    """
    r = np.asarray(r, dtype=float)
    x = r.ravel()
    inside = (nodes[0] <= x) & (x <= nodes[-1])
    k = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    s = np.where(inside, x - nodes[k], 0.0)   # no overflow far outside
    out = 0.0 + coeffs[-1, k]                 # PPoly's sum starts at 0.0: -0.0 reads 0.0
    power = s
    for j in range(len(coeffs) - 2, -1, -1):
        out = out + coeffs[j, k] * power
        if j:
            power = power * s
    out[~inside] = np.nan
    return out.reshape(r.shape)


def integrate_weighted(nodes: np.ndarray, values: np.ndarray,
                       a: float, b, power: float):
    """integral_a^b tau^power f(tau) d tau for a sampled f.

    On each node interval f is replaced by the quadratic through the
    interval's endpoints and one flanking node; the monomial moments
    tau^(power+k) are integrated exactly.  Exact for f quadratic, and
    the tau^power weight costs no accuracy at the origin.

    ``b`` may also be a nondecreasing array of upper limits.  The node
    intervals are then walked once and entry k of the returned array is
    bit for bit the scalar call with upper limit ``b[k]``: the running
    total over the whole intervals below b[k], plus the part of the
    interval b[k] ends in.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    limits = np.atleast_1d(np.asarray(b, dtype=float))
    if limits.ndim != 1 or np.any(np.diff(limits) < 0):
        raise ValueError("upper limits must be nondecreasing")
    if len(limits) and not (nodes[0] <= a <= limits[0]
                            and limits[-1] <= nodes[-1] + 1e-12):
        raise ValueError(f"integration range [{a}, {b}] outside profile support")

    def quad_coeffs(i0, i1, i2):
        x0, x1, x2 = nodes[i0], nodes[i1], nodes[i2]
        y0, y1, y2 = values[i0], values[i1], values[i2]
        f01 = (y1 - y0) / (x1 - x0)
        f12 = (y2 - y1) / (x2 - x1)
        c2 = (f12 - f01) / (x2 - x0)
        c1 = f01 - c2 * (x0 + x1)
        c0 = y0 - f01 * x0 + c2 * x0 * x1
        return c0, c1, c2

    def add_moments(total, coeffs, lo, hi):
        for k, coeff in enumerate(coeffs):
            pk = power + k + 1.0
            total += coeff * (hi ** pk - lo ** pk) / pk
        return total

    out = np.zeros(len(limits))
    last = len(nodes) - 1
    j0 = max(int(np.searchsorted(nodes, a, side="right")) - 1, 0)
    # one past the last interval each limit reaches
    j1 = np.minimum(np.searchsorted(nodes, limits, side="left"), last)
    k = int(np.searchsorted(limits, a, side="right"))   # limits equal to a give 0
    total = 0.0
    for j in range(j0, int(j1[-1]) if len(limits) else j0):
        lo = max(a, nodes[j])
        if last == 1:  # two-node profile: straight line
            f01 = (values[1] - values[0]) / (nodes[1] - nodes[0])
            coeffs = (values[0] - f01 * nodes[0], f01, 0.0)
        else:
            # average the two flanking quadratic stencils: the leading
            # interpolation errors cancel, giving 4th-order accuracy
            stencils = []
            if j >= 1:
                stencils.append(quad_coeffs(j - 1, j, j + 1))
            if j + 2 <= last:
                stencils.append(quad_coeffs(j, j + 1, j + 2))
            coeffs = tuple(sum(c) / len(stencils) for c in zip(*stencils))
        while k < len(limits) and j1[k] == j + 1:
            hi = min(limits[k], nodes[j + 1])
            out[k] = add_moments(total, coeffs, lo, hi) if hi > lo else total
            k += 1
        hi = nodes[j + 1]
        if hi > lo:
            total = add_moments(total, coeffs, lo, hi)
    return float(out[0]) if np.ndim(b) == 0 else out


def _sample(fn, r_max: float, n_nodes: int) -> np.ndarray:
    r = np.linspace(0.0, r_max, n_nodes)
    return r, np.asarray(fn(r), dtype=float)


def gaussian_bump(amp: float = 1.0, width: float = 1.0, r_max: float = 6.0,
                  n_nodes: int = 1201) -> RadialProfile:
    """rho(r) = amp * exp(-(r/width)^2); mass in R^n is amp pi^(n/2) width^n."""
    r, v = _sample(lambda rr: amp * np.exp(-((rr / width) ** 2)), r_max, n_nodes)
    return RadialProfile(r, v, ProfileKind.DENSITY,
                         mass_exact=lambda n: amp * math.pi ** (n / 2.0) * width ** n)


def indicator(amp: float = 1.0, radius: float = 1.0,
              n_nodes: int = 801) -> RadialProfile:
    """rho = amp on [0, radius]; mass = amp * omega_{n-1} radius^n / n."""
    r, v = _sample(lambda rr: np.full_like(rr, amp), radius, n_nodes)
    return RadialProfile(r, v, ProfileKind.DENSITY,
                         mass_exact=lambda n: amp * sphere_area(int(round(n)))
                         * radius ** n / n)


def constant(amp: float = 1.0, r_max: float = 4.0,
             n_nodes: int = 401) -> RadialProfile:
    """Uniform density amp out to r_max (mass reported over the sampled ball)."""
    r, v = _sample(lambda rr: np.full_like(rr, amp), r_max, n_nodes)
    return RadialProfile(r, v, ProfileKind.DENSITY,
                         mass_exact=lambda n: amp * sphere_area(int(round(n)))
                         * r_max ** n / n)


def polynomial_decay(amp: float = 1.0, width: float = 1.0, k: float = 4.0,
                     r_max: float = 12.0, n_nodes: int = 1201) -> RadialProfile:
    """rho(r) = amp (1 + (r/width)^2)^(-k/2), sampled on [0, r_max].

    The even form keeps the origin slope zero.  The closed-form mass
    integrates over all of R^n and requires k > n; the sampled tail
    beyond r_max is the usual truncation.
    """
    r, v = _sample(lambda rr: amp * (1.0 + (rr / width) ** 2) ** (-k / 2.0),
                   r_max, n_nodes)

    def mass(n: float) -> float:
        if k <= n:
            raise ValueError("polynomial-decay mass needs k > n")
        return (amp * sphere_area(int(round(n))) * width ** n
                * math.gamma(n / 2.0) * math.gamma((k - n) / 2.0)
                / (2.0 * math.gamma(k / 2.0)))

    return RadialProfile(r, v, ProfileKind.DENSITY, mass_exact=mass)


def linear_velocity(amp: float = 1.0, r_max: float = 6.0,
                    n_nodes: int = 801) -> RadialProfile:
    """u(r) = amp * r (rigid expansion/compression)."""
    r, v = _sample(lambda rr: amp * rr, r_max, n_nodes)
    return RadialProfile(r, v, ProfileKind.VELOCITY)


def rexp_velocity(amp: float = 1.0, width: float = 1.0, r_max: float = 6.0,
                  n_nodes: int = 801) -> RadialProfile:
    """u(r) = amp * r * exp(-r/width)."""
    r, v = _sample(lambda rr: amp * rr * np.exp(-rr / width), r_max, n_nodes)
    return RadialProfile(r, v, ProfileKind.VELOCITY)


def gaussian_velocity(amp: float = 1.0, width: float = 1.0, r_max: float = 6.0,
                      n_nodes: int = 801) -> RadialProfile:
    """u(r) = amp * r * exp(-(r/width)^2)."""
    r, v = _sample(lambda rr: amp * rr * np.exp(-((rr / width) ** 2)), r_max, n_nodes)
    return RadialProfile(r, v, ProfileKind.VELOCITY)


def zero_velocity(r_max: float = 6.0, n_nodes: int = 401) -> RadialProfile:
    r, v = _sample(lambda rr: np.zeros_like(rr), r_max, n_nodes)
    return RadialProfile(r, v, ProfileKind.VELOCITY)


DENSITY_LIBRARY = {
    "gaussian-bump": gaussian_bump,
    "indicator": indicator,
    "constant": constant,
    "polynomial-decay": polynomial_decay,
}

VELOCITY_LIBRARY = {
    "linear": linear_velocity,
    "rexp": rexp_velocity,
    "gaussian": gaussian_velocity,
    "zero": zero_velocity,
}
