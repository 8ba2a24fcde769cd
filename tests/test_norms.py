"""The block error norms against the per-sample oracle.

The oracles are the per-sample forms the block norms replaced: one dof
vector per call, the MINI basis and a sparse Darcy evaluation operator
built in each call, and einsum contractions over (triangles, points).
"""

import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.sparse as sp

from ensddm import quadrature
from ensddm.bench_cli import _SUBCOMMAND_DEFAULTS, manufactured_samples, run_manufactured
from ensddm.manufactured import ManufacturedSolution
from ensddm.norms import PASS_COLUMNS, darcy_errors, error_norms, error_rows, stokes_errors
from ensddm.stokes_fem import mini_basis

from test_darcy_fem import _solve_subproblem as darcy_subproblem
from test_stokes_fem import _solve_subproblem as stokes_subproblem

H = 1 / 16
COLUMNS = ("err_us_l2", "err_us_h1", "err_ps_l2", "err_phid_l2", "err_ud_l2", "err_ud_div")


# -- oracles: one sample per call ----------------------------------------------

def _oracle_rel(err2, ref2, tiny=1e-28):
    if ref2 <= tiny:
        return float(np.sqrt(err2))
    return float(np.sqrt(err2 / ref2))


def oracle_stokes_errors(space, full, exact):
    mesh = space.mesh
    bary, w = quadrature.triangle_rule(6)
    flat = quadrature.physical_points(mesh.verts, mesh.tris, bary).reshape(-1, 2)
    nq, A = len(w), mesh.tri_area
    N, dN = mini_basis(bary, mesh.tri_grads)
    vd = space.vel_elem_dofs
    cx, cy = full[vd[:, :4]], full[vd[:, 4:]]
    uh = np.stack([np.einsum("qi,ti->tq", N, cx), np.einsum("qi,ti->tq", N, cy)], axis=-1)
    guh = np.stack([np.einsum("tqid,ti->tqd", dN, cx), np.einsum("tqid,ti->tqd", dN, cy)],
                   axis=2)
    ph = np.einsum("qi,ti->tq", N[:, :3], full[space.p_elem_dofs])
    ue = exact.u_S(flat).reshape(mesh.n_tris, nq, 2)
    gue = exact.grad_u_S(flat).reshape(mesh.n_tris, nq, 2, 2)
    pe = exact.p_S(flat).reshape(mesh.n_tris, nq)

    def vol(f):
        return float(np.einsum("q,tq,t->", w, f, A))

    du2, ue2 = vol(((uh - ue) ** 2).sum(-1)), vol((ue ** 2).sum(-1))
    dgu2, gue2 = vol(((guh - gue) ** 2).sum(axis=(-1, -2))), vol((gue ** 2).sum(axis=(-1, -2)))
    dp2, pe2 = vol((ph - pe) ** 2), vol(pe ** 2)
    return _oracle_rel(du2, ue2), _oracle_rel(du2 + dgu2, ue2 + gue2), _oracle_rel(dp2, pe2)


def oracle_darcy_errors(space, full, exact):
    mesh = space.mesh
    nt = mesh.n_tris
    bary, w = quadrature.triangle_rule(6)
    flat = quadrature.physical_points(mesh.verts, mesh.tris, bary).reshape(-1, 2)
    nq, A = len(w), mesh.tri_area
    vals = space.basis_values(bary)
    rows = np.broadcast_to(np.arange(nt * nq * 2).reshape(nt, nq, 2, 1), vals.shape)
    cols = np.broadcast_to(space.elem_dofs[:, None, None, :], vals.shape)
    evaluation = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                               shape=(nt * nq * 2, space.n_dofs))
    uh = (evaluation @ full).reshape(nt, nq, 2)
    divh = np.einsum("tl,tl->t", space.div, full[space.elem_dofs])
    phih = full[space.head_slice]
    ue = exact.u_D(flat).reshape(nt, nq, 2)
    dive = exact.div_u_D(flat).reshape(nt, nq)
    phie = exact.phi_D(flat).reshape(nt, nq)

    def vol(f):
        return float(np.einsum("q,tq,t->", w, f, A))

    du2, ue2 = vol(((uh - ue) ** 2).sum(-1)), vol((ue ** 2).sum(-1))
    ddiv2, dive2 = vol((divh[:, None] - dive) ** 2), vol(dive ** 2)
    dphi2, phie2 = vol((phih[:, None] - phie) ** 2), vol(phie ** 2)
    return (_oracle_rel(du2, ue2), _oracle_rel(du2 + ddiv2, ue2 + dive2),
            _oracle_rel(dphi2, phie2))


def oracle_row(report, j, exact):
    us_l2, us_h1, ps_l2 = oracle_stokes_errors(report.space_s, report.us[j], exact)
    ud_l2, ud_div, phi_l2 = oracle_darcy_errors(report.space_d, report.ud[j], exact)
    return dict(err_us_l2=us_l2, err_us_h1=us_h1, err_ps_l2=ps_l2,
                err_phid_l2=phi_l2, err_ud_l2=ud_l2, err_ud_div=ud_div)


class PressureSolution(ManufacturedSolution):
    """A test double with a nonzero exact free-flow pressure."""

    def p_S(self, points):
        return np.cos(points[:, 0]) * (1.0 + points[:, 1])


# -- the block norms ---------------------------------------------------------------

@pytest.fixture(scope="module", params=["converge", "small-k"])
def cli_run(request):
    """The rows and report of a subcommand's scenario at h = 1/16 (J = 3),
    and its exact solutions."""
    cfg = replace(_SUBCOMMAND_DEFAULTS[request.param], h_list=(H,))
    rows, reports = run_manufactured(cfg)
    _, exacts = manufactured_samples(cfg, reports[H].space_d.mesh)
    return rows, reports[H], exacts


def test_cli_rows_match_the_oracle(cli_run):
    rows, report, exacts = cli_run
    assert len(rows) == len(exacts) == 3
    for j, row in enumerate(rows):
        want = oracle_row(report, j, exacts[j])
        for col in COLUMNS:
            assert row[col] == pytest.approx(want[col], rel=1e-12, abs=0), (j, col)


def test_relative_or_absolute_error_is_chosen_per_column(cli_run):
    # column 0's exact pressure vanishes (absolute error), column 1's does not
    _, report, exacts = cli_run
    double = PressureSolution(exacts[1].k11, exacts[1].k22, nu=exacts[1].nu, g=exacts[1].g)
    mixed = [exacts[0], double, exacts[2]]
    us, ud = report.us.T, report.ud.T
    got_s = stokes_errors(report.space_s, us, mixed)
    got_d = darcy_errors(report.space_d, ud, mixed)
    for j, exact in enumerate(mixed):
        want_s = oracle_stokes_errors(report.space_s, report.us[j], exact)
        want_d = oracle_darcy_errors(report.space_d, report.ud[j], exact)
        assert [a[j] for a in got_s] == pytest.approx(want_s, rel=1e-12, abs=0)
        assert [a[j] for a in got_d] == pytest.approx(want_d, rel=1e-12, abs=0)


def test_one_column_equals_its_row_of_the_block(cli_run):
    rows, report, exacts = cli_run
    for j, exact in enumerate(exacts):
        one = asdict(error_norms(report.space_s, report.space_d, report.us[j], report.ud[j],
                                 exact, H, j=j, iterations=int(report.iterations[j])))
        assert one == pytest.approx({key: rows[j][key] for key in one}, rel=1e-14, abs=0)


def test_error_rows_evaluate_a_bounded_number_of_columns_at_once(cli_run):
    # 24 columns, the run's 3 each scaled 8 ways, peak no higher than 8,
    # but for the results of the finished passes (some 200 bytes a column;
    # one pass over 24 columns would peak 3x as high), and give the values
    # of one pass over all 24
    _, report, exacts = cli_run
    scale = 1.0 + 0.01 * np.arange(3 * PASS_COLUMNS)
    us, ud = (np.tile(block.T, PASS_COLUMNS) * scale for block in (report.us, report.ud))
    exacts = exacts * PASS_COLUMNS
    peaks = []
    tracemalloc.start()
    try:
        for k in (PASS_COLUMNS, 3 * PASS_COLUMNS):
            rows = None
            tracemalloc.reset_peak()
            rows = error_rows(report.space_s, report.space_d, us[:, :k], ud[:, :k], exacts[:k],
                              H, [0] * k)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1024 * 2 * PASS_COLUMNS, peaks
    one_pass = (stokes_errors(report.space_s, us, exacts)
                + darcy_errors(report.space_d, ud, exacts))
    names = ("err_us_l2", "err_us_h1", "err_ps_l2", "err_ud_l2", "err_ud_div", "err_phid_l2")
    for name, want in zip(names, one_pass):
        assert [getattr(row, name) for row in rows] == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [8, 16])
def test_subproblem_solves_match_the_oracle(n):
    space, full, exact = stokes_subproblem(n)
    got = stokes_errors(space, full[:, None], [exact])
    assert [a[0] for a in got] == pytest.approx(oracle_stokes_errors(space, full, exact),
                                                rel=1e-12, abs=0)
    space, full, exact = darcy_subproblem(n)
    got = darcy_errors(space, full[:, None], [exact])
    assert [a[0] for a in got] == pytest.approx(oracle_darcy_errors(space, full, exact),
                                                rel=1e-12, abs=0)
