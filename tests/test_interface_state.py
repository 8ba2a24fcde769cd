import numpy as np
import pytest

from ensddm.mesh import Rect, build_rect_mesh, pair_interface
from ensddm.fields import ConstantConductivity
from ensddm.ensemble_driver import make_sample, make_context
from ensddm.interface_state import init_state, update_robin, stopping_norm, TraceFunction
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
    st = init_state(ctx, pairing, n_darcy_vel=10)
    assert st.g_S.shape == (3, 4, 2)
    for arr in (st.g_S, st.g_S_tau, st.g_D, st.us_tau, st.ud_prev):
        assert not arr.any()
    st2 = init_state(ctx, pairing, n_darcy_vel=10)
    assert np.array_equal(st.g_S, st2.g_S)


def test_zero_stays_zero():
    ctx, pairing = setup(J=1)
    st = init_state(ctx, pairing)
    z = np.zeros((pairing.n_pairs, 2))
    update_robin(st, 0, z, z, z, z, ctx)
    assert not st.g_S.any() and not st.g_D.any() and not st.g_S_tau.any()


def test_constant_propagates_across_interface():
    ctx, pairing = setup(J=1, z=0.0)
    st = init_state(ctx, pairing)
    c = 0.8
    st.g_S[0].fill(c)
    z = np.zeros((pairing.n_pairs, 2))
    update_robin(st, 0, z, z, z, z, ctx)
    np.testing.assert_allclose(st.g_D[0], c)
    np.testing.assert_allclose(st.g_S[0], 0.0)
    update_robin(st, 0, z, z, z, z, ctx)
    # the value ping-pongs: after two sweeps it is back on the g_S side
    np.testing.assert_allclose(st.g_S[0], c)
    np.testing.assert_allclose(st.g_D[0], 0.0)


def test_update_weights():
    ctx, pairing = setup(J=1, delta_s=1.0, delta_d=2.0, g=1.0, z=0.0)
    st = init_state(ctx, pairing)
    z = np.zeros((pairing.n_pairs, 2))
    us_n = np.full((pairing.n_pairs, 2), 0.5)
    update_robin(st, 0, us_n, z, z, z, ctx)
    np.testing.assert_allclose(st.g_D[0], (1.0 + 2.0) * 0.5)


def test_gz_offset():
    ctx, pairing = setup(J=1, g=2.0, z=0.25)
    st = init_state(ctx, pairing)
    z = np.zeros((pairing.n_pairs, 2))
    update_robin(st, 0, z, z, z, z, ctx)
    np.testing.assert_allclose(st.g_D[0], 2.0 * 0.25)
    np.testing.assert_allclose(st.g_S[0], -2.0 * 0.25)


def test_tangential_update_uses_sample_coefficient():
    ctx, pairing = setup(J=2)
    st = init_state(ctx, pairing)
    z = np.zeros((pairing.n_pairs, 2))
    ud_tau = np.ones((pairing.n_pairs, 2))
    update_robin(st, 1, z, z, z, ud_tau, ctx)
    np.testing.assert_allclose(st.g_S_tau[1], -ctx.samples[1].xi)
    assert not st.g_S_tau[0].any()


def test_lagged_fields_replaced():
    ctx, pairing = setup(J=1)
    st = init_state(ctx, pairing, n_darcy_vel=7)
    z = np.zeros((pairing.n_pairs, 2))
    tau = np.full((pairing.n_pairs, 2), 2.5)
    vec = np.arange(7.0)
    update_robin(st, 0, z, tau, z, z, ctx, ud_vec=vec)
    np.testing.assert_array_equal(st.us_tau[0], tau)
    np.testing.assert_array_equal(st.ud_prev[0], vec)


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


def test_trace_function_from_callable():
    ms = build_rect_mesh(Rect(0, 2, 0, 1), 4, 2, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 2, -1, 0), 4, 2, side_tags={"top": "INTERFACE"})
    pairing = pair_interface(ms, md)
    tf = TraceFunction.from_callable(lambda x: 2.0 * x, ms, pairing)
    assert tf.values.shape == (4, 2)
    np.testing.assert_allclose(tf.values[:, 1] - tf.values[:, 0], 2.0 * 0.5)


def test_full_rhs_contract_functions():
    """The one-call RHS assemblers match the composed pieces and reject
    missing sample indices."""
    import numpy as np
    from ensddm.stokes_fem import (build_stokes_space, assemble_stokes_rhs,
                                   assemble_stokes_volume_rhs, add_interface_rhs)
    from ensddm.darcy_fem import (build_darcy_space, assemble_darcy_rhs,
                                  DarcyInterfaceInfo)
    import pytest

    ctx, pairing = setup(J=2, delta_s=1.0, delta_d=3.0)
    ms = build_rect_mesh(Rect(0, 1, 0, 1), 4, 4, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 1, -1, 0), 4, 4, side_tags={"top": "INTERFACE"})
    pairing = pair_interface(ms, md)
    sp_s = build_stokes_space(ms)
    sp_d = build_darcy_space(md)
    st = init_state(ctx, pairing, n_darcy_vel=sp_d.n_velocity)
    rng = np.random.default_rng(5)
    st.g_S[:] = rng.standard_normal(st.g_S.shape)
    st.g_S_tau[:] = rng.standard_normal(st.g_S.shape)
    st.g_D[:] = rng.standard_normal(st.g_S.shape)
    st.us_tau[:] = rng.standard_normal(st.g_S.shape)
    st.ud_prev[:] = rng.standard_normal(st.ud_prev.shape)

    j = 1
    got = assemble_stokes_rhs(sp_s, j, ctx, st)
    want = assemble_stokes_volume_rhs(sp_s, ctx.samples[j].f_S)
    lag = (ctx.xi_bar - ctx.samples[j].xi) * st.us_tau[j]
    add_interface_rhs(want, sp_s, pairing, g_n=st.g_S[j], g_tau=st.g_S_tau[j] - lag)
    np.testing.assert_array_equal(got, want)
    with pytest.raises(KeyError):
        assemble_stokes_rhs(sp_s, 5, ctx, st)

    got = assemble_darcy_rhs(sp_d, j, ctx, st)
    assert got.shape == (sp_d.n_dofs,)
    assert np.isfinite(got).all()
    # zero state and zero forcing give the zero vector
    st0 = init_state(ctx, pairing, n_darcy_vel=sp_d.n_velocity)
    z = assemble_darcy_rhs(sp_d, 0, ctx, st0, iface=DarcyInterfaceInfo(sp_d, pairing))
    assert not z.any()
    with pytest.raises(KeyError):
        assemble_darcy_rhs(sp_d, 5, ctx, st0)
