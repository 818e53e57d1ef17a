"""Reference work: fixed work owned by the benchmark, timed to gauge host speed.

On a shared virtual machine the speed of a core switches between levels
up to about 2x apart, for seconds to minutes at a time, and process CPU
time slows with it (it is not steal time).  Raw seconds of runs made
minutes apart then say more about the host than about the program.

``SpeedProbe`` times a small fixed piece of work every ``PERIOD_S`` of
wall time from a ``SIGALRM`` handler, in the process and on the core
that runs the program, while the program runs.  A command's time scaled
by ``REFERENCE_S`` over the mean sample taken during it is its time at
the reference speed: the speed at which one sample takes
``REFERENCE_S``.  The samples add about 1% to the command's time.  A
change to the program cannot change this work, so a slower program still
reads slower; only through the core's caches, which the probe shares
with the program, can the program slow the probe, and the probe's data
is small.  Each sample times two kinds of work, and a command is scaled
by the kind that resembles it:

* ``python``: explicit steps in scalar floats and in tuples built by
  generator expressions, the shape of the program's ODE stepping (sweeps,
  EP ensembles, interpreter start-up);
* ``numpy``: a sphere-averaged pair-kernel sum over whole arrays, the
  shape of the alignment ensemble's kernel.

Over ten runs with ten seeds on a 2-vCPU Xeon KVM guest, the quartile
distance over the median of ``wall_s`` was 25% raw and 6% scaled on
``sweeps``, 15% raw and 1.4% scaled on ``ensembles``.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
KINDS = ("python", "numpy")
# seconds each kind of work takes at the reference speed (about the
# faster of the two levels seen on a 2-vCPU Xeon KVM guest)
REFERENCE_S = {"python": 0.5e-3, "numpy": 0.45e-3}

_R = np.linspace(0.05, 1.0, 40)
_COS = np.cos(np.linspace(0.0, math.pi, 16))
_W = np.full(16, 1.0 / 16)


def _rhs(t, y):
    return (y[1], -y[0] - 0.1 * y[1] + 0.01 * y[2], -0.05 * y[2] * y[0])


def _python_work() -> float:
    """Explicit steps of a damped oscillator in scalars, then in tuples."""
    a, b, c = 1.0, 0.0, 0.5
    for _ in range(1200):
        a, b, c = a + 1e-3 * b, b - 1e-3 * (a + 0.1 * b - 0.01 * c), c - 5e-5 * c * a
    t, y, h, rng = 0.0, (a, b, c), 1e-2, range(3)
    for _ in range(120):
        k1 = _rhs(t, y)
        k2 = _rhs(t + 0.5 * h, tuple(y[i] + 0.5 * h * k1[i] for i in rng))
        y = tuple(y[i] + h * k2[i] for i in rng)
        t += h
    return y[0]


def _numpy_work() -> float:
    """Pair-kernel sums over a 40 x 40 x 16 grid, as in an alignment step."""
    rr = _R[:, None, None]
    ss = _R[None, :, None]
    dist = np.sqrt(np.maximum(rr * rr + ss * ss - 2.0 * rr * ss * _COS, 0.0))
    vals = (1.0 + dist * dist) ** -0.25
    return float(np.sum(vals @ _W)) + float(np.sum(vals @ (_W * _COS)))


def sample() -> tuple[float, float]:
    """Seconds the python and the numpy work take now."""
    t0 = perf_counter()
    _python_work()
    t1 = perf_counter()
    _numpy_work()
    return t1 - t0, perf_counter() - t1


def measure(n: int = 50) -> float:
    """Mean seconds of the python work over ``n`` samples taken back to back."""
    return sum(sample()[0] for _ in range(n)) / n


class SpeedProbe:
    """Samples the reference work every ``PERIOD_S`` while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(sample())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Take one sample now and return its index, to open a window."""
        self.samples.append(sample())
        return len(self.samples) - 1

    def scale(self, since: int, kind: str) -> float:
        """Reference-speed seconds per second by ``kind``, from sample ``since`` on."""
        window = [s[KINDS.index(kind)] for s in self.samples[since:]]
        return REFERENCE_S[kind] / (sum(window) / len(window))
