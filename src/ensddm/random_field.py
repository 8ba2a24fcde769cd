"""Truncated Karhunen-Loeve sampler for the random conductivity.

The field varies in y only:

    k(y, Y) = a0 + sigma sqrt(l0) Y0
              + sum_i sigma sqrt(l_i) [Y_i cos(i pi y) + Y_{nf+i} sin(i pi y)]

with Y uniform on [-sqrt(3), sqrt(3)] (zero mean, unit variance).  Sample j
is drawn from its own substream keyed by (seed, j), so enlarging J keeps the
existing draws.
"""

import numbers
from dataclasses import dataclass

import numpy as np

SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class RandomFieldSpec:
    a0: float = 1.0
    sigma: float = 0.15
    L_c: float = 0.25
    n_f: int = 3

    def __post_init__(self):
        # NaN fails these too
        if (not (0 < self.a0 < np.inf and 0 <= self.sigma < np.inf and 0 < self.L_c < np.inf)
                or not isinstance(self.n_f, numbers.Integral) or isinstance(self.n_f, bool)
                or self.n_f < 0):
            raise ValueError("invalid random field parameters: a0 and L_c must be positive "
                             "and finite, sigma non-negative and finite, n_f an integer >= 0")


@dataclass(frozen=True)
class Draw:
    """One realization: 2*n_f + 1 uniform variables on [-sqrt(3), sqrt(3)]."""

    Y: tuple

    def __post_init__(self):
        if any(abs(y) > SQRT3 + 1e-12 for y in self.Y):
            raise ValueError("draw outside [-sqrt(3), sqrt(3)]")


def kl_eigenvalues(spec):
    """Eigenvalue sequence (l0, l1, ..., l_{n_f}); positive and decreasing."""
    l0 = np.sqrt(np.pi * spec.L_c) / 2
    i = np.arange(1, spec.n_f + 1)
    li = np.sqrt(np.pi) * spec.L_c * np.exp(-((i * np.pi * spec.L_c) ** 2) / 4)
    return np.concatenate([[l0], li])


def evaluate_k(spec, draw, y):
    """Field value at height y (scalar or array) for one draw."""
    lam = kl_eigenvalues(spec)
    Y = np.asarray(draw.Y)
    y = np.asarray(y, dtype=np.float64)
    k = spec.a0 + spec.sigma * np.sqrt(lam[0]) * Y[0]
    for i in range(1, spec.n_f + 1):
        k = k + spec.sigma * np.sqrt(lam[i]) * (
            Y[i] * np.cos(i * np.pi * y) + Y[spec.n_f + i] * np.sin(i * np.pi * y))
    return k


def draw_samples(spec, J, seed):
    """J independent draws; draw j depends only on (seed, j)."""
    if not isinstance(J, numbers.Integral) or isinstance(J, bool) or J < 1:
        raise ValueError("J must be an integer of at least 1")
    n = 2 * spec.n_f + 1
    draws = []
    for j in range(J):
        rng = np.random.default_rng([seed, j])
        draws.append(Draw(Y=tuple(rng.uniform(-SQRT3, SQRT3, size=n))))
    return draws
