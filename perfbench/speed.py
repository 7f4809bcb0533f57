"""Core-speed probe, for timings that do not swing with a shared host's load.

On a host shared with other tenants the same call can run up to 2x slower
for tens of seconds at a time, so a whole run can land in a slow spell.  The
probe times a fixed mix of work that never calls ``biortho`` but is of the
kinds the library does: a small-array numpy loop, interpreter-bound dict and
string work, a 3 MB dot product, a batch of 3x3 eigenvalue solves and an
8 MB in-place update, bound by memory bandwidth as the large oracle tensors
are.  Its time follows the current speed of the core, and the benchmark
reports timings at the reference speed::

    t_ref = t_measured * REFERENCE_S / t_probe

``REFERENCE_S`` is the probe's time on an uncontended core of the reference
host (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread), so
there ``t_ref`` equals ``t_measured``.  The raw timings are printed too.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1.3e-3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = rng.standard_normal(400_000)
        sym = rng.standard_normal((500, 3, 3))
        self._mats = sym + sym.transpose(0, 2, 1)
        self._x = np.linspace(0.1, 5.0, 48)
        self._big = np.zeros(1 << 20)

    def _work(self) -> None:
        term = np.ones_like(self._x)
        acc = np.ones_like(self._x)
        for k in range(30):
            term = term * self._x / ((1.5 + k) * (k + 1))
            acc += term
        table = {}
        for i in range(300):
            table[str(i)] = [i, i * 0.5]
        float(self._vec @ self._vec)
        np.linalg.eigvalsh(self._mats)
        self._big += 1.0

    def _seconds(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """``REFERENCE_S`` over the probe's time now (best of three, so an
        interrupt during one repetition does not count)."""
        return REFERENCE_S / min(self._seconds() for _ in range(3))
