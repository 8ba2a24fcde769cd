"""The Robin trace state of the iteration, its update and the stopping norm.

The update and the stopping norm act on any set of samples in one call.

All interface quantities are linear on each interface edge and are stored as
endpoint values: column j of a (2 n_pairs, J) block is sample j, and row
2p+i is endpoint i (x-order) of pair p, the row order of the sparse
interface operators.  This family is closed under the affine trace updates,
so the sweep introduces no projection error.  The update reads only the
previous blocks (the c propagation across the interface ping-pongs with
period two).
"""

from typing import NamedTuple

import numpy as np


class RobinTraceState(NamedTuple):
    """The iteration state, one (2 n_pairs, J) column block each: the Robin
    data g_S and g_D and the tangential datum g_tau of the free-flow side."""

    g_S: np.ndarray
    g_D: np.ndarray
    g_tau: np.ndarray


def init_state(ctx, pairing):
    """All-zero initial traces for every sample."""
    shape = (2 * pairing.n_pairs, ctx.J)
    return RobinTraceState(*(np.zeros(shape) for _ in range(3)))


def update_robin(state, us_n, us_tau, ud_n, ud_tau, xi, dxi, ctx):
    """The next state of some sample columns from their `state` and new
    subdomain traces, with `xi` the columns' slip coefficients and `dxi`
    their deviations xi_bar - xi_j from the mean of their group:

        g_D^new   = g_S + (delta_S + delta_D) u_S.n_S + g z
        g_S^new   = g_D + (delta_S + delta_D) u_D.n_D - g z
        g_tau^new = -xi_j u_D.tau - (xi_bar - xi_j) u_S.tau

    The traces are shaped like the blocks of `state`.  The last term lags
    the slip deviation of the shared Stokes matrix (built with xi_bar).
    """
    dsum = ctx.delta_s + ctx.delta_d
    gz = ctx.g * ctx.z
    return RobinTraceState(g_S=state.g_D + dsum * ud_n - gz,
                           g_D=state.g_S + dsum * us_n + gz,
                           g_tau=-xi * ud_tau - dxi * us_tau)


def stopping_norm(space_s, space_d, prev_us, new_us, prev_ud, new_ud):
    """Combined L2 norm of the velocity increments,
    sqrt(||du_S||^2 + ||du_D||^2): a float for one sample's dof vectors,
    one value per column for (n_dofs, k) blocks."""
    nv_s, nv_d = space_s.n_velocity, space_d.n_velocity
    sq = space_s.velocity_sq(np.subtract(new_us[:nv_s], prev_us[:nv_s], order="C"))
    sq += space_d.velocity_sq(np.subtract(new_ud[:nv_d], prev_ud[:nv_d], order="C"))
    return float(np.sqrt(sq)) if np.ndim(sq) == 0 else np.sqrt(sq)
