"""Per-sample Robin interface data, lagged traces, and the update sweep.

The update and the stopping norm act on any set of samples in one call.

All interface quantities are linear on each interface edge and are stored as
endpoint values in x-order, shape (n_pairs, 2) per sample.  This family is
closed under the affine trace updates, so the sweep introduces no projection
error.  Updates read the previous traces before overwriting them (the c
propagation across the interface ping-pongs with period two).
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TraceFunction:
    """Discontinuous piecewise-linear function on the interface, stored as
    endpoint values per pair (x-ordered)."""

    values: np.ndarray  # (n_pairs, 2)

    @classmethod
    def zeros(cls, n_pairs):
        return cls(np.zeros((n_pairs, 2)))

    @classmethod
    def from_callable(cls, fn, mesh, pairing):
        """Sample a callable of x at the pair endpoints."""
        xs = mesh.verts[pairing.nodes_s, 0]  # (n_pairs, 2)
        return cls(np.asarray(fn(xs), dtype=np.float64))


@dataclass
class RobinTraceState:
    """Mutable per-sample iteration state.

    g_S, g_S_tau, g_D : (J, n_pairs, 2) Robin traces
    us_tau : (J, n_pairs, 2) lagged free-flow tangential trace
    ud_prev : (J, n_darcy_vel) lagged porous-medium velocity dof vectors
    """

    pairing: object
    J: int
    n_darcy_vel: int
    g_S: np.ndarray = field(init=False)
    g_S_tau: np.ndarray = field(init=False)
    g_D: np.ndarray = field(init=False)
    us_tau: np.ndarray = field(init=False)
    ud_prev: np.ndarray = field(init=False)

    def __post_init__(self):
        shape = (self.J, self.pairing.n_pairs, 2)
        self.g_S = np.zeros(shape)
        self.g_S_tau = np.zeros(shape)
        self.g_D = np.zeros(shape)
        self.us_tau = np.zeros(shape)
        self.ud_prev = np.zeros((self.J, self.n_darcy_vel))


def init_state(ctx, pairing, n_darcy_vel=0):
    """All-zero initial traces and lagged fields for every sample."""
    return RobinTraceState(pairing=pairing, J=ctx.J, n_darcy_vel=n_darcy_vel)


def update_robin(state, idx, us_n, us_tau, ud_n, ud_tau, ctx, ud_vec=None):
    """Apply the trace updates for the samples `idx` (an index, a slice or
    an index array) from their new subdomain solutions:

        g_D^new  = g_S^old + (delta_S + delta_D) u_S.n_S + g z
        g_S^new  = g_D^old + (delta_S + delta_D) u_D.n_D - g z
        g_St^new = -xi_j u_D.tau

    The traces are shaped like state.g_S[idx] and ud_vec like
    state.ud_prev[idx].  Both new traces are computed from the old ones
    before either is stored.  The lagged tangential trace and the lagged
    porous velocity are then replaced by the new iterate.
    """
    dsum = ctx.delta_s + ctx.delta_d
    gz = ctx.g * ctx.z
    new_g_D = state.g_S[idx] + dsum * us_n + gz
    new_g_S = state.g_D[idx] + dsum * ud_n - gz
    state.g_D[idx] = new_g_D
    state.g_S[idx] = new_g_S
    state.g_S_tau[idx] = -ctx.xi[idx][..., None, None] * ud_tau
    state.us_tau[idx] = us_tau
    if ud_vec is not None:
        state.ud_prev[idx] = ud_vec
    return state


def stopping_norm(space_s, space_d, prev_us, new_us, prev_ud, new_ud):
    """Combined L2 norm of the velocity increments,
    sqrt(||du_S||^2 + ||du_D||^2): a float for one sample's dof vectors,
    one value per column for (n_dofs, k) blocks."""
    nv_s, nv_d = space_s.n_velocity, space_d.n_velocity
    sq = space_s.velocity_sq(np.subtract(new_us[:nv_s], prev_us[:nv_s], order="C"))
    sq += space_d.velocity_sq(np.subtract(new_ud[:nv_d], prev_ud[:nv_d], order="C"))
    return float(np.sqrt(sq)) if np.ndim(sq) == 0 else np.sqrt(sq)
