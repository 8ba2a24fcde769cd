"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30% over tens of seconds to minutes, while the work of a repetition
repeats exactly.  Every repetition of a workload is therefore bracketed by
runs of this kernel, and a repetition's times are scaled by
``REF_S / kernel time``: they are seconds at the reference speed, the speed
at which the kernel takes REF_S.  The kernel mixes the kinds of work the
workloads do (interpreter loops, numpy calls on small arrays, vectorised
cos/sin, sparse matrix products, SuperLU triangular solves and SuperLU
factorizations of a 12k-unknown system) and uses only
Python, numpy and scipy, never ensddm, so no change to the package moves it.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Kernel time at the reference speed, a fixed constant that sets the scale of
# the reported times, not their spread.  Over 201 passes on a 2-vCPU x86-64
# VM (OpenBLAS with 1 thread) the kernel took 0.47-0.99 s, median 0.72 s.
REF_S = 0.6


class Calibration:
    def __init__(self):
        n = 90                                 # 8,100 unknowns, like the channel systems
        t = sp.diags([-1.0, 2.05, -1.0], [-1, 0, 1], shape=(n, n))
        self._a = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsc()
        self._lu = spla.splu(self._a)
        m = 110                                # 12,100 unknowns, like the manufactured systems
        t = sp.diags([-1.0, 2.05, -1.0], [-1, 0, 1], shape=(m, m))
        self._big = (sp.kron(sp.eye(m), t) + sp.kron(t, sp.eye(m))).tocsc()
        rng = np.random.default_rng(0)
        self._b = rng.standard_normal(n * n)
        self._small = rng.standard_normal(48)
        self._y = np.linspace(0.0, 1.0, 400)

    def _python(self):
        acc, table = 0.0, {}
        for i in range(750_000):
            table[i & 255] = acc
            acc += (i % 7) * 0.5 - table.get((i * 31) & 255, 0.0) * 1e-3
        return acc

    def _numpy(self):
        x, k = self._small.copy(), np.zeros_like(self._y)
        for i in range(18_000):
            x = np.sqrt(x * x + 1.0) - 0.5 * x
            x[::2] += x[1::2].sum() * 1e-6
        for i in range(1, 1_200):
            k = k + 1e-3 * (np.cos(i * np.pi * self._y) + np.sin(i * np.pi * self._y))
        return x, k

    def _sparse(self):
        x = self._b
        for _ in range(150):
            x = self._lu.solve(x) * 0.1 + self._a @ self._b * 1e-3
        return x

    def _factorize(self):
        for _ in range(3):
            lu = spla.splu(self._big)
        return lu

    def run(self):
        """Wall time of one pass of the kernel, in seconds."""
        t0 = time.perf_counter()
        self._python()
        self._numpy()
        self._sparse()
        self._factorize()
        return time.perf_counter() - t0

