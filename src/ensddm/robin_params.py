"""Robin transmission parameters: convergence factor, min-max optimizer,
and the scalar interface-symbol recursion that validates the factor.

The interface iteration damps the Fourier mode of frequency m at rate
rho = |2 nu |m| - delta_D| / (2 nu |m| + delta_S), independent of the
iteration index and of the per-sample conductivity deviation.  Over the
resolvable band [pi/L, pi/h] the optimal delta_D balances rho at the two
endpoint frequencies (equioscillation); delta_S remains a free knob.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FrequencyBand:
    m_min: float
    m_max: float

    def __post_init__(self):
        if not (0 < self.m_min < self.m_max):
            raise ValueError("band requires 0 < m_min < m_max")


def convergence_factor(delta_s, delta_d, nu, m):
    """Damping factor of the frequency-m interface error mode."""
    if delta_s <= 0 or delta_d <= 0 or nu <= 0:
        raise ValueError("delta_s, delta_d, nu must be positive")
    if m == 0:
        raise ValueError("m must be nonzero")
    am = abs(m)
    return abs((2 * nu * am - delta_d) / (2 * nu * am + delta_s))


def frequency_band(L, h):
    """Resolvable frequency band (pi/L, pi/h) for interface length L and
    mesh size h; requires h < L."""
    if L <= 0 or h <= 0:
        raise ValueError("L and h must be positive")
    if h >= L:
        raise ValueError("mesh size must be smaller than the interface length")
    return FrequencyBand(np.pi / L, np.pi / h)


def optimized_delta_d(delta_s, nu, band):
    """Optimal Darcy Robin parameter for a given delta_s over `band`.

    Solves the min-max problem over the band in closed form; the returned
    value equioscillates rho at m_min and m_max and exceeds delta_s.
    """
    if delta_s <= 0:
        raise ValueError("delta_s must be positive")
    m1, m2 = band.m_min, band.m_max
    return (4 * nu**2 * m1 * m2 + nu * (m1 + m2) * delta_s) / (nu * (m1 + m2) + delta_s)


def worst_case_rho(delta_s, delta_d, nu, band):
    """Supremum of the convergence factor over the band.

    rho has a single interior zero at m = delta_d / (2 nu) and increases
    monotonically away from it, so the supremum sits at a band endpoint.
    """
    return max(convergence_factor(delta_s, delta_d, nu, band.m_min),
               convergence_factor(delta_s, delta_d, nu, band.m_max))


@dataclass
class SymbolTrace:
    """History of the interface recursion: the coefficient sequence A (index
    0 is the initial state) and the combined quantity per step (index n
    holds C_{n}, defined for n >= 2)."""

    A: list
    combined: list


def symbol_iteration(delta_s, delta_d, nu, k_bar, k_j_inv, m, n_steps):
    """Run the scalar interface recursion from (A_0, B_0, Q_0) = (1, 0.7,
    -0.3) and track its contracted quantity.

    Per step, with am = |m| (the porous solve uses the free-flow data of the
    previous step and its own lagged coefficient deviation):

        A_n = -(Q_{n-1} - delta_s * B_{n-1}) / (2 nu am + delta_s)
        B_n = [(k_bar - k_j_inv) B_{n-1} + am (delta_d - 2 nu am) A_{n-1}]
              / (k_bar + delta_d am)
        Q_n = (delta_d - 2 nu am) A_{n-1} - delta_d * B_n

    Eliminating Q from the free-flow step leaves the exact two-step identity

        C_n := A_n - (delta_s + delta_d)/(2 nu am + delta_s) * B_{n-1}
             = (2 nu am - delta_d)/(2 nu am + delta_s) * A_{n-2},

    so |C_n| / |A_{n-2}| equals the closed-form damping factor at every step
    and for every k_j_inv: the lagged coefficient deviation feeds back only
    through B, which the combination removes.  (The same elimination applied
    on the porous side collapses to the zero sequence, because the porous
    step constructs B_n from exactly that combination.)
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    if n_steps < 4:
        raise ValueError("need at least 4 steps")
    am = abs(m)
    s = 2 * nu * am + delta_s
    A, B, Q = [1.0], 0.7, -0.3
    combined = [np.nan, np.nan]
    for n in range(1, n_steps + 1):
        A_new = -(Q - delta_s * B) / s
        B_new = ((k_bar - k_j_inv) * B + am * (delta_d - 2 * nu * am) * A[-1]) \
            / (k_bar + delta_d * am)
        Q = (delta_d - 2 * nu * am) * A[-1] - delta_d * B_new
        A.append(A_new)
        if n >= 2:
            combined.append(A_new - (delta_s + delta_d) / s * B)
        B = B_new
    return SymbolTrace(A=A, combined=combined)


def measured_contraction(trace, rtol=1e-13):
    """Measured damping ratios |C_n| / |A_{n-2}| for n >= 2.

    Ratios with a (numerically) vanishing reference are reported as 0,
    matching the exact-optimum case rho = 0.
    """
    scale = max(abs(a) for a in trace.A) or 1.0
    out = []
    for n in range(2, len(trace.combined)):
        ref = abs(trace.A[n - 2])
        out.append(0.0 if ref <= rtol * scale else abs(trace.combined[n]) / ref)
    return out
