import numpy as np
import pytest

from ensddm.mesh import Rect, build_rect_mesh, pair_interface
from ensddm.fields import ConstantConductivity
from ensddm.ensemble_driver import make_sample, make_context
from ensddm.interface_state import RobinTraceState, init_state, update_robin, stopping_norm
from ensddm.stokes_fem import build_stokes_space
from ensddm.darcy_fem import build_darcy_space


def setup(J=3, delta_s=1.0, delta_d=2.0, g=1.0, z=0.0):
    ms = build_rect_mesh(Rect(0, 1, 0, 1), 4, 4, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 1, -1, 0), 4, 4, side_tags={"top": "INTERFACE"})
    pairing = pair_interface(ms, md)
    samples = [make_sample(ConstantConductivity(2.0 + j)) for j in range(J)]
    ctx, _ = make_context(samples, delta_s=delta_s, delta_d=delta_d, g=g, z=z)
    return ctx, pairing


def test_init_state_zero_and_idempotent():
    ctx, pairing = setup(J=3)
    st = init_state(ctx, pairing)
    for arr in st:
        assert arr.shape == (2 * pairing.n_pairs, 3)
        assert not arr.any()
    st2 = init_state(ctx, pairing)
    assert np.array_equal(st.g_S, st2.g_S)


def xis(ctx):
    return np.array([s.xi for s in ctx.samples])


def dxis(ctx):
    """Slip deviations, mean minus sample, as a run's set-up forms them."""
    return sum(s.xi for s in ctx.samples) / ctx.J - xis(ctx)


def zeros(ctx, pairing):
    return np.zeros((2 * pairing.n_pairs, ctx.J))


def test_zero_stays_zero():
    ctx, pairing = setup(J=1)
    z = zeros(ctx, pairing)
    st = update_robin(init_state(ctx, pairing), z, z, z, z, xis(ctx), dxis(ctx), ctx)
    assert not st.g_S.any() and not st.g_D.any() and not st.g_tau.any()


def test_constant_propagates_across_interface():
    ctx, pairing = setup(J=1, z=0.0)
    st = init_state(ctx, pairing)
    c = 0.8
    st.g_S[:, 0].fill(c)
    z = zeros(ctx, pairing)
    st = update_robin(st, z, z, z, z, xis(ctx), dxis(ctx), ctx)
    np.testing.assert_allclose(st.g_D[:, 0], c)
    np.testing.assert_allclose(st.g_S[:, 0], 0.0)
    st = update_robin(st, z, z, z, z, xis(ctx), dxis(ctx), ctx)
    # the value ping-pongs: after two sweeps it is back on the g_S side
    np.testing.assert_allclose(st.g_S[:, 0], c)
    np.testing.assert_allclose(st.g_D[:, 0], 0.0)


def test_update_weights():
    ctx, pairing = setup(J=1, delta_s=1.0, delta_d=2.0, g=1.0, z=0.0)
    z = zeros(ctx, pairing)
    us_n = np.full_like(z, 0.5)
    st = update_robin(init_state(ctx, pairing), us_n, z, z, z, xis(ctx), dxis(ctx), ctx)
    np.testing.assert_allclose(st.g_D[:, 0], (1.0 + 2.0) * 0.5)


def test_gz_offset():
    ctx, pairing = setup(J=1, g=2.0, z=0.25)
    z = zeros(ctx, pairing)
    st = update_robin(init_state(ctx, pairing), z, z, z, z, xis(ctx), dxis(ctx), ctx)
    np.testing.assert_allclose(st.g_D[:, 0], 2.0 * 0.25)
    np.testing.assert_allclose(st.g_S[:, 0], -2.0 * 0.25)


def test_tangential_update_uses_sample_coefficient():
    ctx, pairing = setup(J=2)
    z = zeros(ctx, pairing)
    ud_tau = z.copy()
    ud_tau[:, 1] = 1.0
    st = update_robin(init_state(ctx, pairing), z, z, z, ud_tau, xis(ctx), dxis(ctx), ctx)
    np.testing.assert_allclose(st.g_tau[:, 1], -ctx.samples[1].xi)
    assert not st.g_tau[:, 0].any()


def test_block_update_matches_column_updates():
    ctx, pairing = setup(J=3, g=1.5, z=0.5)
    rng = np.random.default_rng(3)
    n2 = 2 * pairing.n_pairs
    start = RobinTraceState(*rng.standard_normal((3, n2, 3)))
    traces = rng.standard_normal((4, n2, 2))
    idx = np.array([0, 2])
    xi, dxi = xis(ctx), dxis(ctx)
    block = update_robin(RobinTraceState(*(b[:, idx] for b in start)), *traces,
                         xi[idx], dxi[idx], ctx)
    for k, j in enumerate(idx):
        col = update_robin(RobinTraceState(*(b[:, j] for b in start)),
                           *traces[:, :, k], xi[j], dxi[j], ctx)
        for got, want in zip(block, col):
            np.testing.assert_array_equal(got[:, k], want)
    us_tau, ud_tau = traces[1, :, 1], traces[3, :, 1]
    np.testing.assert_array_equal(block.g_tau[:, 1],
                                  -xi[2] * ud_tau - dxi[2] * us_tau)
    np.testing.assert_array_equal(block.g_D[:, 1],
                                  start.g_S[:, 2] + 3.0 * traces[0, :, 1] + 1.5 * 0.5)


def test_lagged_fields_replaced():
    # the free-flow tangential trace enters g_tau with the slip deviation
    # of its sample, and only the latest trace counts
    ctx, pairing = setup(J=2)
    z = zeros(ctx, pairing)
    st = init_state(ctx, pairing)
    for us_tau in (7.0, 2.5):
        st = update_robin(st, z, np.full_like(z, us_tau), z, z, xis(ctx), dxis(ctx), ctx)
    lag = dxis(ctx)
    assert np.all(lag != 0.0)
    np.testing.assert_array_equal(st.g_tau, np.broadcast_to(-lag * 2.5, z.shape))


def test_stopping_norm_pythagorean():
    ms = build_rect_mesh(Rect(0, 1, 0, 1), 6, 6, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 1, -1, 0), 6, 6, side_tags={"top": "INTERFACE"})
    sp_s = build_stokes_space(ms)
    sp_d = build_darcy_space(md)
    a = np.zeros(sp_s.n_dofs)
    b = np.zeros(sp_d.n_dofs)
    assert stopping_norm(sp_s, sp_d, a, a, b, b) == 0.0
    # constant fields with unit-area domains: L2 norms are the constants
    u3 = np.zeros(sp_s.n_dofs)
    u3[:ms.n_verts] = 3.0                      # u_x nodal = 3, bubbles 0
    d4 = np.zeros(sp_d.n_dofs)
    # constant field (4, 0): set every edge dof to the matching normal trace
    const = np.array([4.0, 0.0])
    d4[0::2][np.arange(md.n_edges)] = sp_d.edge_normal @ const
    d4[1::2][np.arange(md.n_edges)] = sp_d.edge_normal @ const
    d4 = d4[:sp_d.n_dofs]
    got = stopping_norm(sp_s, sp_d, np.zeros_like(u3), u3, np.zeros_like(d4), d4)
    # nodal-3 interpolates u_x = 3 exactly; bubble part absent
    assert got == pytest.approx(5.0, rel=1e-12)
