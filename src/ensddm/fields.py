"""Diagonal conductivity tensor fields K(x) = diag(k11(y), k22(y)).

All scenarios use diagonal tensors whose entries depend on y at most, so a
field exposes vectorized evaluations of the diagonal (`diag`) and of the
inverse tensor's diagonal (`inv_diag`); the assembly reads nothing else.
Both evaluate elementwise: the value at a height does not depend on the
other heights of the call.  So callers evaluate a field once per distinct
height and gather (`darcy_fem.inverse_diagonal`, `bench_cli.channel_samples`),
which gives bitwise the values at the points themselves.
"""

import numpy as np

from .random_field import evaluate_k


class ConductivityField:
    """Base class; subclasses implement diag(y) -> (k11, k22) arrays,
    elementwise in the heights y."""

    def diag(self, y):
        raise NotImplementedError

    def inv_diag(self, y):
        k11, k22 = self.diag(y)
        return 1.0 / k11, 1.0 / k22


class ConstantConductivity(ConductivityField):
    def __init__(self, k11, k22=None):
        self.k11 = float(k11)
        self.k22 = float(k11 if k22 is None else k22)

    def diag(self, y):
        y = np.asarray(y, dtype=np.float64)
        return np.full_like(y, self.k11), np.full_like(y, self.k22)


class KLConductivity(ConductivityField):
    """k11 = k22 = scale * k(y) from one Karhunen-Loeve draw."""

    def __init__(self, spec, draw, scale=1.0):
        self.spec = spec
        self.draw = draw
        self.scale = float(scale)

    def diag(self, y):
        k = self.scale * evaluate_k(self.spec, self.draw, y)
        return k, k.copy() if isinstance(k, np.ndarray) else k


class MeanInverseField:
    """Pointwise ensemble mean of the sample inverse tensors; not itself a
    conductivity.  No package code uses it: the tests take it as the oracle
    of the set-up's group mean, and the ensbench tracer hooks its methods."""

    def __init__(self, samples):
        if len(samples) == 0:
            raise ValueError("empty sample list")
        self.samples = list(samples)

    def inv_diag(self, y):
        y = np.asarray(y, dtype=np.float64)
        acc11 = np.zeros_like(y)
        acc22 = np.zeros_like(y)
        for s in self.samples:
            i11, i22 = s.inv_diag(y)
            acc11 += i11
            acc22 += i22
        return acc11 / len(self.samples), acc22 / len(self.samples)

    def inv_tensor(self, points):
        """Full (n, 2, 2) mean inverse tensors at (n, 2) points."""
        pts = np.atleast_2d(points)
        i11, i22 = self.inv_diag(pts[:, 1])
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = i11
        out[:, 1, 1] = i22
        return out
