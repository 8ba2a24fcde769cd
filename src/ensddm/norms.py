"""Error norms against closed-form evaluators, and convergence orders.

The norms take the converged solutions of k samples as (n_dofs, k) blocks,
with one exact solution per column, and return (k,) arrays.  Each space
evaluates its own fields; this module integrates the differences with a
degree-6 triangle rule, well beyond the polynomial degree of either element
pair.  Relative norms divide by the exact-field norm; in a column where its
square is at most 1e-28 the absolute error takes its place, with no marker
(the README notes this for `err_ps_l2`).
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature

RULE = quadrature.triangle_rule(6)
# the columns `error_rows` evaluates in one pass: a pass holds the fields of
# its columns at every point of the rule, so this bounds a call's memory
PASS_COLUMNS = 8
# a reference squared norm at most this counts as vanishing (`_rel`)
TINY = 1e-28


@dataclass
class ErrorTableRow:
    h: float
    j: int
    iterations: int
    err_us_l2: float
    err_us_h1: float
    err_ps_l2: float
    err_phid_l2: float
    err_ud_l2: float
    err_ud_div: float


def _rel(err2, ref2):
    """Relative errors per column, or the absolute one where the reference
    vanishes."""
    return np.sqrt(np.divide(err2, ref2, out=err2.copy(), where=ref2 > TINY))


def _squared_norms(mesh, fields, evaluators):
    """Per column, the squared L2 norms of the error and of the exact field
    of each discrete field (nt, q or 1, ..., k) at the rule's points;
    `evaluators` holds per column the exact evaluators of the fields."""
    bary, w = RULE
    points = quadrature.physical_points(mesh.verts, mesh.tris, bary).reshape(-1, 2)
    weights = (mesh.tri_area[:, None] * w).ravel()

    def integral(f):
        return (weights @ f.reshape(len(weights), -1)).reshape(-1, f.shape[-1]).sum(axis=0)

    out = []
    for field, column_evaluators in zip(fields, zip(*evaluators)):
        exact = np.stack([ev(points) for ev in column_evaluators], axis=-1)
        exact = exact.reshape(mesh.n_tris, len(w), *field.shape[2:])
        out.append((integral((field - exact) ** 2), integral(exact ** 2)))
    return out


def stokes_errors(space, block, exacts):
    """Relative L2 and H1 velocity errors and the pressure L2 error of each
    column of an (n_dofs, k) block against its exact solution (u_S,
    grad_u_S and p_S at points): three (k,) arrays."""
    (du2, ue2), (dg2, ge2), (dp2, pe2) = _squared_norms(
        space.mesh, space.evaluate(block, RULE[0]), [(e.u_S, e.grad_u_S, e.p_S) for e in exacts])
    return _rel(du2, ue2), _rel(du2 + dg2, ue2 + ge2), _rel(dp2, pe2)


def darcy_errors(space, block, exacts):
    """Relative L2 and H(div) velocity errors and the L2 head error of each
    column of an (n_dofs, k) block against its exact solution (u_D,
    div_u_D and phi_D at points): three (k,) arrays."""
    uh, divh, phih = space.evaluate(block, RULE[0])
    (du2, ue2), (dd2, de2), (dp2, pe2) = _squared_norms(
        space.mesh, (uh, divh[:, None], phih[:, None]),
        [(e.u_D, e.div_u_D, e.phi_D) for e in exacts])
    return _rel(du2, ue2), _rel(du2 + dd2, ue2 + de2), _rel(dp2, pe2)


def error_rows(space_s, space_d, us, ud, exacts, h, iterations):
    """One benchmark-table row per sample from the converged subdomain
    solutions of k samples, (n_dofs, k) blocks `us` and `ud`, with their
    exact solutions and iteration counts; row j is column j.  The norms
    take PASS_COLUMNS columns at a time."""
    passes = [stokes_errors(space_s, us[:, i:i + PASS_COLUMNS], exacts[i:i + PASS_COLUMNS])
              + darcy_errors(space_d, ud[:, i:i + PASS_COLUMNS], exacts[i:i + PASS_COLUMNS])
              for i in range(0, len(exacts), PASS_COLUMNS)]
    us_l2, us_h1, ps_l2, ud_l2, ud_div, phi_l2 = map(np.concatenate, zip(*passes))
    columns = zip(iterations, us_l2, us_h1, ps_l2, phi_l2, ud_l2, ud_div)
    return [ErrorTableRow(h, j, int(n), *map(float, errs)) for j, (n, *errs) in enumerate(columns)]


def error_norms(space_s, space_d, full_s, full_d, exact, h):
    """One benchmark-table row from the converged subdomain solutions of one
    sample: `error_rows` on one column, with j and iterations 0."""
    row, = error_rows(space_s, space_d, full_s[:, None], full_d[:, None], [exact], h, [0])
    return row


def convergence_order(errors, hs):
    """Observed orders log(e_k/e_{k+1}) / log(h_k/h_{k+1})."""
    errors = np.asarray(errors, dtype=np.float64)
    hs = np.asarray(hs, dtype=np.float64)
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need matching error/h sequences of length >= 2")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive to compute orders")
    return np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:])
