"""The iterate block of the iteration, its Robin trace update and the
stopping norm.

A group's iterate is one C-order (m, k) block x, column i sample i: the
Robin data g_S and g_D and the tangential datum g_tau of the free-flow
side, 2 n_pairs rows each, then the whole Darcy dof block ud that the next
sweep lags, so m = 6 n_pairs + n_darcy_dofs (`split_block`).  The update
and the stopping norm act on any set of samples in one call.

All interface quantities are linear on each interface edge and are stored as
endpoint values: row 2p+i of a trace block is endpoint i (x-order) of pair
p, the row order of the sparse interface operators.  This family is closed
under the affine trace updates, so the sweep introduces no projection
error.  The update reads only the trace rows of the previous block and
swaps g_S and g_D, so under zero traces a datum crosses the interface and
comes back every two sweeps.
"""

import numpy as np


def split_block(x, n2):
    """The row views (g_S, g_D, g_tau, ud) of an iterate block, or of one
    column of it, whose trace blocks have n2 = 2 n_pairs rows each."""
    return np.split(x, [n2, 2 * n2, 3 * n2])


def update_robin(x, us_n, us_tau, ud_n, ud_tau, xi, dxi, ctx):
    """The next trace blocks (g_S, g_D, g_tau) of some sample columns from
    their iterate block `x` and new subdomain traces, with `xi` the
    columns' slip coefficients and `dxi` their deviations xi_bar - xi_j
    from the mean of their group:

        g_D^new   = g_S + (delta_S + delta_D) u_S.n_S + g z
        g_S^new   = g_D + (delta_S + delta_D) u_D.n_D - g z
        g_tau^new = -xi_j u_D.tau - (xi_bar - xi_j) u_S.tau

    The traces are shaped like the trace blocks of `x`, of which only g_S
    and g_D are read.  The last term lags the slip deviation of the shared
    Stokes matrix (built with xi_bar).
    """
    g_S, g_D, _, _ = split_block(x, len(us_n))
    dsum = ctx.delta_s + ctx.delta_d
    gz = ctx.g * ctx.z
    return g_D + dsum * ud_n - gz, g_S + dsum * us_n + gz, -xi * ud_tau - dxi * us_tau


def stopping_norm(space_s, space_d, prev_us, new_us, prev_ud, new_ud):
    """Combined L2 norm of the velocity increments,
    sqrt(||du_S||^2 + ||du_D||^2): a float for one sample's dof vectors,
    one value per column for (n_dofs, k) blocks."""
    nv_s, nv_d = space_s.n_velocity, space_d.n_velocity
    sq = space_s.velocity_sq(np.subtract(new_us[:nv_s], prev_us[:nv_s], order="C"))
    sq += space_d.velocity_sq(np.subtract(new_ud[:nv_d], prev_ud[:nv_d], order="C"))
    return float(np.sqrt(sq)) if np.ndim(sq) == 0 else np.sqrt(sq)
