"""Error norms against closed-form evaluators, and convergence orders.

All integrals use a degree-6 triangle rule, well beyond the polynomial
degree of either element pair.  Relative norms divide by the exact-field
norm; when its square is at most 1e-28 the absolute error takes its place
in the same column, with no marker (the README notes this for `err_ps_l2`).
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .stokes_fem import mini_basis


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


def _rel(err2, ref2, tiny=1e-28):
    """Relative error, or the absolute one where the reference vanishes."""
    if ref2 <= tiny:
        return float(np.sqrt(err2))
    return float(np.sqrt(err2 / ref2))


def stokes_errors(space, full, exact):
    """Relative L2 and H1 velocity errors and pressure L2 error.

    `exact` provides u_S(points), grad_u_S(points), p_S(points).
    """
    mesh = space.mesh
    bary, w = quadrature.triangle_rule(6)
    pts = quadrature.physical_points(mesh.verts, mesh.tris, bary)
    flat = pts.reshape(-1, 2)
    nq = len(w)
    A = mesh.tri_area

    N, dN = mini_basis(bary, mesh.tri_grads)
    vd = space.vel_elem_dofs
    cx = full[vd[:, :4]]
    cy = full[vd[:, 4:]]
    uh = np.stack([np.einsum("qi,ti->tq", N, cx), np.einsum("qi,ti->tq", N, cy)], axis=-1)
    guh = np.stack([np.einsum("tqid,ti->tqd", dN, cx), np.einsum("tqid,ti->tqd", dN, cy)], axis=2)
    ph = np.einsum("qi,ti->tq", N[:, :3], full[space.p_elem_dofs])

    ue = exact.u_S(flat).reshape(mesh.n_tris, nq, 2)
    gue = exact.grad_u_S(flat).reshape(mesh.n_tris, nq, 2, 2)
    pe = exact.p_S(flat).reshape(mesh.n_tris, nq)

    def vol(f):
        return float(np.einsum("q,tq,t->", w, f, A))

    du2 = vol(((uh - ue) ** 2).sum(-1))
    ue2 = vol((ue ** 2).sum(-1))
    dgu2 = vol(((guh - gue) ** 2).sum(axis=(-1, -2)))
    gue2 = vol((gue ** 2).sum(axis=(-1, -2)))
    dp2 = vol((ph - pe) ** 2)
    pe2 = vol(pe ** 2)

    return _rel(du2, ue2), _rel(du2 + dgu2, ue2 + gue2), _rel(dp2, pe2)


def darcy_errors(space, full, exact):
    """Relative L2 velocity, H(div) velocity, and L2 head errors.

    `exact` provides u_D(points), div_u_D(points), phi_D(points).
    """
    mesh = space.mesh
    bary, w = quadrature.triangle_rule(6)
    pts = quadrature.physical_points(mesh.verts, mesh.tris, bary)
    flat = pts.reshape(-1, 2)
    nq = len(w)
    A = mesh.tri_area

    uh = (space.evaluation_operator(bary) @ full[:space.n_velocity]).reshape(mesh.n_tris, nq, 2)
    divh = space.elementwise_div(full)
    phih = full[space.head_slice]

    ue = exact.u_D(flat).reshape(mesh.n_tris, nq, 2)
    dive = exact.div_u_D(flat).reshape(mesh.n_tris, nq)
    phie = exact.phi_D(flat).reshape(mesh.n_tris, nq)

    def vol(f):
        return float(np.einsum("q,tq,t->", w, f, A))

    du2 = vol(((uh - ue) ** 2).sum(-1))
    ue2 = vol((ue ** 2).sum(-1))
    ddiv2 = vol((divh[:, None] - dive) ** 2)
    dive2 = vol(dive ** 2)
    dphi2 = vol((phih[:, None] - phie) ** 2)
    phie2 = vol(phie ** 2)

    return _rel(du2, ue2), _rel(du2 + ddiv2, ue2 + dive2), _rel(dphi2, phie2)


def error_norms(space_s, space_d, full_s, full_d, exact, h, j=0, iterations=0):
    """Assemble one benchmark-table row from converged subdomain solutions."""
    us_l2, us_h1, ps_l2 = stokes_errors(space_s, full_s, exact)
    ud_l2, ud_div, phi_l2 = darcy_errors(space_d, full_d, exact)
    return ErrorTableRow(h=h, j=j, iterations=iterations,
                         err_us_l2=us_l2, err_us_h1=us_h1, err_ps_l2=ps_l2,
                         err_phid_l2=phi_l2, err_ud_l2=ud_l2, err_ud_div=ud_div)


def convergence_order(errors, hs):
    """Observed orders log(e_k/e_{k+1}) / log(h_k/h_{k+1})."""
    errors = np.asarray(errors, dtype=np.float64)
    hs = np.asarray(hs, dtype=np.float64)
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need matching error/h sequences of length >= 2")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive to compute orders")
    return np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:])
