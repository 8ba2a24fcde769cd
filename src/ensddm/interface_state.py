"""Per-sample Robin interface data, lagged traces, and the update sweep.

The update and the stopping norm act on any set of samples in one call.

All interface quantities are linear on each interface edge and are stored as
endpoint values: column j of a (2 n_pairs, J) block is sample j, and row
2p+i is endpoint i (x-order) of pair p, the row order of the sparse
interface operators.  This family is closed under the affine trace updates,
so the sweep introduces no projection error.  Updates read the previous
traces before overwriting them (the c propagation across the interface
ping-pongs with period two).
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class RobinTraceState:
    """Mutable iteration state, one (2 n_pairs, J) column block each.

    g_S, g_S_tau, g_D : Robin traces
    us_tau : lagged free-flow tangential trace
    """

    g_S: np.ndarray
    g_S_tau: np.ndarray
    g_D: np.ndarray
    us_tau: np.ndarray


def init_state(ctx, pairing):
    """All-zero initial traces for every sample."""
    shape = (2 * pairing.n_pairs, ctx.J)
    return RobinTraceState(*(np.zeros(shape) for _ in range(4)))


def update_robin(state, idx, us_n, us_tau, ud_n, ud_tau, ctx):
    """Apply the trace updates for the sample columns `idx` (an index, a
    slice or an index array) from their new subdomain solutions:

        g_D^new  = g_S^old + (delta_S + delta_D) u_S.n_S + g z
        g_S^new  = g_D^old + (delta_S + delta_D) u_D.n_D - g z
        g_St^new = -xi_j u_D.tau

    The traces are shaped like state.g_S[:, idx].  Both new traces are
    computed from the old ones before either is stored.  The lagged
    tangential trace is then replaced by the new iterate.
    """
    dsum = ctx.delta_s + ctx.delta_d
    gz = ctx.g * ctx.z
    new_g_D = state.g_S[:, idx] + dsum * us_n + gz
    new_g_S = state.g_D[:, idx] + dsum * ud_n - gz
    state.g_D[:, idx] = new_g_D
    state.g_S[:, idx] = new_g_S
    state.g_S_tau[:, idx] = -ctx.xi[idx] * ud_tau
    state.us_tau[:, idx] = us_tau
    return state


def stopping_norm(space_s, space_d, prev_us, new_us, prev_ud, new_ud):
    """Combined L2 norm of the velocity increments,
    sqrt(||du_S||^2 + ||du_D||^2): a float for one sample's dof vectors,
    one value per column for (n_dofs, k) blocks."""
    nv_s, nv_d = space_s.n_velocity, space_d.n_velocity
    sq = space_s.velocity_sq(np.subtract(new_us[:nv_s], prev_us[:nv_s], order="C"))
    sq += space_d.velocity_sq(np.subtract(new_ud[:nv_d], prev_ud[:nv_d], order="C"))
    return float(np.sqrt(sq)) if np.ndim(sq) == 0 else np.sqrt(sq)
