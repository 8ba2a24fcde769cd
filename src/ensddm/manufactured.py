"""Closed-form benchmark solution on the stacked rectangles
[0, pi] x [0, 1] (free flow) over [0, pi] x [-1, 0] (porous medium),
interface at y = 0, and the forcing that manufactures it.

With k11 = k22 the pair is incompressible and satisfies all three interface
conditions; the divergence residual scales with k22 - k11.
"""

import numpy as np


def _split(points):
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return pts[:, 0], pts[:, 1]


class ManufacturedSolution:
    """Evaluators for the exact fields, their derivatives and forcing
    terms for one diagonal conductivity sample."""

    def __init__(self, k11, k22, nu=1.0, g=1.0):
        self.k11 = float(k11)
        self.k22 = float(k22)
        self.nu = float(nu)
        self.g = float(g)

    # free-flow fields -------------------------------------------------

    def u_S(self, points):
        x, y = _split(points)
        ux = (self.k11 / np.pi) * np.sin(2 * np.pi * y) * np.cos(x)
        uy = (-2 * self.k22 + (self.k22 / np.pi**2) * np.sin(np.pi * y) ** 2) * np.sin(x)
        return np.column_stack([ux, uy])

    def grad_u_S(self, points):
        """Row i of the result is grad of component i: out[:, i, j] = d u_i / d x_j."""
        x, y = _split(points)
        c1 = self.k11 / np.pi
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = -c1 * np.sin(2 * np.pi * y) * np.sin(x)
        out[:, 0, 1] = 2 * np.pi * c1 * np.cos(2 * np.pi * y) * np.cos(x)
        out[:, 1, 0] = (-2 * self.k22 + (self.k22 / np.pi**2) * np.sin(np.pi * y) ** 2) * np.cos(x)
        out[:, 1, 1] = (self.k22 / np.pi) * np.sin(2 * np.pi * y) * np.sin(x)
        return out

    def p_S(self, points):
        x, _ = _split(points)
        return np.zeros_like(x)

    def f_S(self, points):
        """Forcing -div T(u_S, p_S), derived symbolically from the fields."""
        x, y = _split(points)
        k11, k22, nu = self.k11, self.k22, self.nu
        fx = (nu / np.pi) * np.sin(2 * np.pi * y) * np.cos(x) * ((2 + 4 * np.pi**2) * k11 - k22)
        fy = -nu * np.sin(x) * (2 * k22 - (k22 / np.pi**2) * np.sin(np.pi * y) ** 2
                                + (4 * k22 - 2 * k11) * np.cos(2 * np.pi * y))
        return np.column_stack([fx, fy])

    # porous-medium fields ----------------------------------------------

    def phi_D(self, points):
        x, y = _split(points)
        return (np.exp(y) - np.exp(-y)) * np.sin(x)

    def grad_phi_D(self, points):
        x, y = _split(points)
        gx = (np.exp(y) - np.exp(-y)) * np.cos(x)
        gy = (np.exp(y) + np.exp(-y)) * np.sin(x)
        return np.column_stack([gx, gy])

    def u_D(self, points):
        grad = self.grad_phi_D(points)
        return np.column_stack([-self.k11 * grad[:, 0], -self.k22 * grad[:, 1]])

    def div_u_D(self, points):
        x, y = _split(points)
        return (self.k11 - self.k22) * (np.exp(y) - np.exp(-y)) * np.sin(x)

    def f_D(self, points):
        return self.div_u_D(points)
