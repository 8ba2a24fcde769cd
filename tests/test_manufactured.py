import numpy as np
import pytest

from ensddm.manufactured import ManufacturedSolution
from ensddm.norms import convergence_order

PI = np.pi


def on_interface(xs):
    return np.column_stack([xs, np.zeros_like(xs)])


def interface_stresses(ms, xs):
    """-n_S.T.n_S and tau.T.n_S at y = 0, with n_S = (0, -1), tau = (1, 0)
    and T = -p I + 2 nu D(u_S)."""
    pts = on_interface(xs)
    grad = ms.grad_u_S(pts)
    t_xy = ms.nu * (grad[:, 0, 1] + grad[:, 1, 0])
    t_yy = -ms.p_S(pts) + 2 * ms.nu * grad[:, 1, 1]
    return -t_yy, -t_xy


def test_head_vanishes_on_interface():
    ms = ManufacturedSolution(2.21, 2.21)
    xs = np.linspace(0, PI, 11)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    np.testing.assert_allclose(ms.phi_D(pts), 0.0, atol=1e-15)


def test_velocity_reference_value():
    ms = ManufacturedSolution(2.21, 2.21)
    pt = np.array([[PI / 2, 0.25]])
    u, p = ms.u_S(pt)[0], ms.p_S(pt)[0]
    assert u[0] == pytest.approx(0.0, abs=1e-14)
    assert u[1] == pytest.approx(-4.30804, abs=1e-5)
    assert p == 0.0


def test_interface_mass_conservation():
    ms = ManufacturedSolution(2.21, 2.21)
    xs = np.linspace(0, PI, 23)
    # u_S.n_S + u_D.n_D with n_S = (0, -1) = -n_D
    pts = on_interface(xs)
    np.testing.assert_allclose(-ms.u_S(pts)[:, 1] + ms.u_D(pts)[:, 1], 0.0, atol=1e-13)


def test_divergence_free_when_isotropic():
    ms = ManufacturedSolution(4.11, 4.11)
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, PI, 50), rng.uniform(0, 1, 50)])
    grad = ms.grad_u_S(pts)
    np.testing.assert_allclose(grad[:, 0, 0] + grad[:, 1, 1], 0.0, atol=1e-12)
    assert np.allclose(ms.f_D(pts), 0.0)


def test_f_d_scales_with_anisotropy():
    ms = ManufacturedSolution(2.0, 3.0)
    pts = np.array([[1.0, -0.5]])
    expect = (2.0 - 3.0) * (np.exp(-0.5) - np.exp(0.5)) * np.sin(1.0)
    assert ms.f_D(pts)[0] == pytest.approx(expect, rel=1e-12)


def _fd_stress_divergence(ms, pts, eps=1e-5):
    """Finite-difference -div T(u, p) with T = -p I + 2 nu D(u)."""
    def stress(p):
        g = ms.grad_u_S(p)
        D = 0.5 * (g + np.transpose(g, (0, 2, 1)))
        return 2 * ms.nu * D - ms.p_S(p)[:, None, None] * np.eye(2)

    out = np.zeros((len(pts), 2))
    for d, e in [(0, np.array([eps, 0.0])), (1, np.array([0.0, eps]))]:
        out += (stress(pts + e) - stress(pts - e))[:, :, d] / (2 * eps)
    return -out


def test_forcing_matches_finite_difference():
    rng = np.random.default_rng(12)
    pts = np.column_stack([rng.uniform(0.2, PI - 0.2, 100), rng.uniform(0.1, 0.9, 100)])
    for k11, k22, nu in [(2.21, 2.21, 1.0), (1.0, 3.0, 0.7)]:
        ms = ManufacturedSolution(k11, k22, nu=nu)
        fd = _fd_stress_divergence(ms, pts)
        f = ms.f_S(pts)
        scale = np.abs(f).max()
        assert np.abs(fd - f).max() <= 1e-6 * max(scale, 1.0)


def test_forcing_linear_in_nu():
    pt = np.array([[0.7, 0.3]])
    f1 = ManufacturedSolution(2.21, 2.21, nu=1.0).f_S(pt)[0]
    f2 = ManufacturedSolution(2.21, 2.21, nu=2.0).f_S(pt)[0]
    np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-14)


def test_interface_stresses_vanish_for_isotropic():
    ms = ManufacturedSolution(6.21, 6.21)
    xs = np.linspace(0, PI, 9)
    normal, shear = interface_stresses(ms, xs)
    np.testing.assert_allclose(normal, 0.0, atol=1e-15)
    np.testing.assert_allclose(shear, 0.0, atol=1e-15)


def test_convergence_order_basic():
    np.testing.assert_allclose(convergence_order([4.0, 1.0], [2.0, 1.0]), [2.0])
    np.testing.assert_allclose(convergence_order([2.0, 1.0], [2.0, 1.0]), [1.0])


def test_convergence_order_reference_column():
    errs = [0.0019640, 0.0004933, 0.0001234]
    hs = [1 / 16, 1 / 32, 1 / 64]
    orders = convergence_order(errs, hs)
    assert orders[0] == pytest.approx(1.99, abs=0.01)
    assert orders[1] == pytest.approx(2.00, abs=0.01)


def test_convergence_order_rejects_zero_errors():
    with pytest.raises(ValueError):
        convergence_order([1.0, 0.0], [2.0, 1.0])
