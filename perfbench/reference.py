"""Reference kernel: a fixed amount of CPU work that stands for the host's speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
20% or more over tens of seconds while the process itself is never
descheduled (its CPU time equals its wall time), so neither CPU time nor a
longer run takes the drift out. The benchmark therefore reports each op's
time at the host speed of a reference machine: `HostClock` runs the kernel
before an op, at every step boundary inside it and after it, and scales each
segment between two kernel runs:

    normalized seconds = segment seconds * NOMINAL_S / (mean kernel seconds at its two ends)

The kernel does what the programs under test do per mini-batch: small
numpy matrix products, elementwise maths, a sort, interpreter-level loops
and a float text round trip. It never calls into wsml, so a change to the
package moves the normalized times and a change in host speed does not.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

STEPS = 500

# median time of `kernel()` over 15 benchmark runs on the machine the
# benchmark was defined on (2 shared cores of an "Intel(R) Xeon(R)
# Processor", Python 3.11, numpy 2.4, OpenBLAS pinned to one thread), so that
# normalized seconds read about like wall seconds there
NOMINAL_S = 0.042


def kernel(steps: int = STEPS) -> float:
    """One fixed unit of work; returns a checksum so that nothing is skipped."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 20))
    y = (rng.random((16, 10)) < 0.3).astype(np.float64)
    w1 = rng.standard_normal((20, 64)) * 0.1
    w2 = rng.standard_normal((64, 10)) * 0.1
    m1 = np.zeros_like(w1)
    m2 = np.zeros_like(w2)
    total = 0.0
    for step in range(steps):
        h = np.maximum(x @ w1, 0.0)
        p = 1.0 / (1.0 + np.exp(-(h @ w2)))
        loss = -(y * np.log(p + 1e-12) + (1.0 - y) * np.log(1.0 - p + 1e-12))
        total += float(loss.ravel()[np.argsort(loss, axis=None)[-3:]].sum())
        g = (p - y) / len(x)
        g1 = x.T @ ((g @ w2.T) * (h > 0))
        m1 = 0.9 * m1 + 0.1 * g1
        m2 = 0.9 * m2 + 0.1 * (h.T @ g)
        w1 -= 1e-3 * m1 / (np.abs(m1) + 1e-8)
        w2 -= 1e-3 * m2 / (np.abs(m2) + 1e-8)
        for i in range(30):
            total += i * 1e-9
        if step % 10 == 0:
            text = " ".join(f"{v:.9g}" for v in x[step % len(x)])
            total += float(np.array(text.split(), dtype=np.float64).sum())
    return total


def seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class HostClock:
    """Times ops in wall seconds and in normalized seconds.

    The kernel's own time counts in neither figure.
    """

    def __init__(self):
        self.kernel_s = [seconds()]  # every kernel time, in order

    def recheck(self) -> None:
        """Run the kernel again, after work that belongs to no op."""
        self.kernel_s.append(seconds())

    def start(self) -> None:
        self.wall = self.normalized = 0.0
        self._t = perf_counter()

    def step(self) -> None:
        """End the current segment and start the next one."""
        segment = perf_counter() - self._t
        before = self.kernel_s[-1]
        self.kernel_s.append(seconds())
        self.wall += segment
        self.normalized += segment * NOMINAL_S * 2.0 / (before + self.kernel_s[-1])
        self._t = perf_counter()
