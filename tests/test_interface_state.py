import numpy as np
import pytest

from ensddm.mesh import Rect, build_rect_mesh, pair_interface
from ensddm.fields import ConstantConductivity
from ensddm.ensemble_driver import make_sample, make_context
from ensddm.interface_state import split_block, update_robin, stopping_norm
from ensddm.stokes_fem import build_stokes_space
from ensddm.darcy_fem import build_darcy_space


def setup(J=3, delta_s=1.0, delta_d=2.0, g=1.0, z=0.0):
    ms = build_rect_mesh(Rect(0, 1, 0, 1), 4, 4, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 1, -1, 0), 4, 4, side_tags={"top": "INTERFACE"})
    pairing = pair_interface(ms, md)
    samples = [make_sample(ConstantConductivity(2.0 + j), scan_points=[[0.0, 0.0]])
               for j in range(J)]
    ctx, _ = make_context(samples, delta_s=delta_s, delta_d=delta_d, g=g, z=z)
    return ctx, pairing


def xis(ctx):
    return np.array([s.xi for s in ctx.samples])


def dxis(ctx):
    """Slip deviations, mean minus sample, as a run's set-up forms them."""
    return sum(s.xi for s in ctx.samples) / ctx.J - xis(ctx)


def zeros(ctx, pairing):
    return np.zeros((2 * pairing.n_pairs, ctx.J))


def zero_block(ctx, pairing, n_darcy=5):
    """An all-zero iterate block of the samples of ctx with n_darcy Darcy rows."""
    return np.zeros((6 * pairing.n_pairs + n_darcy, ctx.J))


def step(x, traces, ctx):
    """The next block after update_robin, its Darcy rows kept, as a sweep
    stacks it."""
    n2 = len(traces[0])
    return np.concatenate([*update_robin(x, *traces, xis(ctx), dxis(ctx), ctx),
                           split_block(x, n2)[3]])


def test_split_block_gives_row_views_in_order():
    ctx, pairing = setup(J=3)
    n2 = 2 * pairing.n_pairs
    x = np.arange(float((3 * n2 + 5) * 3)).reshape(-1, 3)
    parts = split_block(x, n2)
    assert [p.shape for p in parts] == [(n2, 3)] * 3 + [(5, 3)]
    for i, p in enumerate(parts):
        assert np.shares_memory(p, x)
        assert p[0, 0] == x[i * n2, 0]
    for got, want in zip(split_block(x[:, 1], n2), parts):
        np.testing.assert_array_equal(got, want[:, 1])


def test_zero_stays_zero():
    ctx, pairing = setup(J=1)
    z = zeros(ctx, pairing)
    st = update_robin(zero_block(ctx, pairing), z, z, z, z, xis(ctx), dxis(ctx), ctx)
    g_S, g_D, g_tau = st
    assert not g_S.any() and not g_D.any() and not g_tau.any()


def test_update_reads_only_the_traces_g_S_and_g_D():
    # the previous g_tau and Darcy rows of the block do not enter the traces
    ctx, pairing = setup(J=2, g=1.5, z=0.5)
    rng = np.random.default_rng(4)
    n2 = 2 * pairing.n_pairs
    traces = rng.standard_normal((4, n2, 2))
    x = rng.standard_normal((3 * n2 + 5, 2))
    y = x.copy()
    y[2 * n2:] = rng.standard_normal((n2 + 5, 2))
    for got, want in zip(update_robin(y, *traces, xis(ctx), dxis(ctx), ctx),
                         update_robin(x, *traces, xis(ctx), dxis(ctx), ctx)):
        np.testing.assert_array_equal(got, want)


def test_constant_propagates_across_interface():
    ctx, pairing = setup(J=1, z=0.0)
    x = zero_block(ctx, pairing)
    n2 = 2 * pairing.n_pairs
    c = 0.8
    x[:n2, 0] = c
    z = zeros(ctx, pairing)
    x = step(x, (z, z, z, z), ctx)
    g_S, g_D, _, _ = split_block(x, n2)
    np.testing.assert_allclose(g_D[:, 0], c)
    np.testing.assert_allclose(g_S[:, 0], 0.0)
    x = step(x, (z, z, z, z), ctx)
    g_S, g_D, _, _ = split_block(x, n2)
    # the value ping-pongs: after two sweeps it is back on the g_S side
    np.testing.assert_allclose(g_S[:, 0], c)
    np.testing.assert_allclose(g_D[:, 0], 0.0)


def test_update_weights():
    ctx, pairing = setup(J=1, delta_s=1.0, delta_d=2.0, g=1.0, z=0.0)
    z = zeros(ctx, pairing)
    us_n = np.full_like(z, 0.5)
    _, g_D, _ = update_robin(zero_block(ctx, pairing), us_n, z, z, z, xis(ctx), dxis(ctx), ctx)
    np.testing.assert_allclose(g_D[:, 0], (1.0 + 2.0) * 0.5)


def test_gz_offset():
    ctx, pairing = setup(J=1, g=2.0, z=0.25)
    z = zeros(ctx, pairing)
    g_S, g_D, _ = update_robin(zero_block(ctx, pairing), z, z, z, z, xis(ctx), dxis(ctx), ctx)
    np.testing.assert_allclose(g_D[:, 0], 2.0 * 0.25)
    np.testing.assert_allclose(g_S[:, 0], -2.0 * 0.25)


def test_tangential_update_uses_sample_coefficient():
    ctx, pairing = setup(J=2)
    z = zeros(ctx, pairing)
    ud_tau = z.copy()
    ud_tau[:, 1] = 1.0
    _, _, g_tau = update_robin(zero_block(ctx, pairing), z, z, z, ud_tau, xis(ctx), dxis(ctx),
                               ctx)
    np.testing.assert_allclose(g_tau[:, 1], -ctx.samples[1].xi)
    assert not g_tau[:, 0].any()


def test_block_update_matches_column_updates():
    ctx, pairing = setup(J=3, g=1.5, z=0.5)
    rng = np.random.default_rng(3)
    n2 = 2 * pairing.n_pairs
    start = rng.standard_normal((3 * n2 + 5, 3))
    traces = rng.standard_normal((4, n2, 2))
    idx = np.array([0, 2])
    xi, dxi = xis(ctx), dxis(ctx)
    block = update_robin(start[:, idx], *traces, xi[idx], dxi[idx], ctx)
    for k, j in enumerate(idx):
        col = update_robin(start[:, j], *traces[:, :, k], xi[j], dxi[j], ctx)
        for got, want in zip(block, col):
            np.testing.assert_array_equal(got[:, k], want)
    us_tau, ud_tau = traces[1, :, 1], traces[3, :, 1]
    np.testing.assert_array_equal(block[2][:, 1],
                                  -xi[2] * ud_tau - dxi[2] * us_tau)
    np.testing.assert_array_equal(block[1][:, 1],
                                  start[:n2, 2] + 3.0 * traces[0, :, 1] + 1.5 * 0.5)


def test_lagged_fields_replaced():
    # the free-flow tangential trace enters g_tau with the slip deviation
    # of its sample, and only the latest trace counts
    ctx, pairing = setup(J=2)
    z = zeros(ctx, pairing)
    x = zero_block(ctx, pairing)
    for us_tau in (7.0, 2.5):
        x = step(x, (z, np.full_like(z, us_tau), z, z), ctx)
    lag = dxis(ctx)
    assert np.all(lag != 0.0)
    np.testing.assert_array_equal(split_block(x, len(z))[2], np.broadcast_to(-lag * 2.5, z.shape))


def test_stopping_norm_pythagorean():
    ms = build_rect_mesh(Rect(0, 1, 0, 1), 6, 6, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 1, -1, 0), 6, 6, side_tags={"top": "INTERFACE"})
    sp_s = build_stokes_space(ms, pressure_multiplier=True)
    sp_d = build_darcy_space(md)
    # constant fields with unit-area domains: L2 norms are the constants
    u3 = np.zeros(sp_s.n_dofs)
    u3[:ms.n_verts] = 3.0                      # u_x nodal = 3, bubbles 0
    d4 = np.zeros(sp_d.n_dofs)
    # constant field (4, 0): set every edge dof to the matching normal trace
    const = np.array([4.0, 0.0])
    d4[0::2][np.arange(md.n_edges)] = sp_d.edge_normal @ const
    d4[1::2][np.arange(md.n_edges)] = sp_d.edge_normal @ const
    d4 = d4[:sp_d.n_dofs]
    # column 0 has no increment, column 1 the two fields
    us, ud = np.column_stack([0 * u3, u3]), np.column_stack([0 * d4, d4])
    got = stopping_norm(sp_s, sp_d, 0 * us, us, 0 * ud, ud)
    # nodal-3 interpolates u_x = 3 exactly; bubble part absent
    assert got.shape == (2,) and got[0] == 0.0
    assert got[1] == pytest.approx(5.0, rel=1e-12)
