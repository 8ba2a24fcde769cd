import numpy as np
import pytest

from ensddm.random_field import (RandomFieldSpec, Draw, kl_eigenvalues, evaluate_k,
                                 draw_samples, SQRT3)


def test_eigenvalues_reference_lc():
    spec = RandomFieldSpec(L_c=0.25, n_f=3)
    lam = kl_eigenvalues(spec)
    assert lam[0] == pytest.approx(np.sqrt(np.pi) / 4, abs=1e-12)
    # coincidence at this correlation length: l0 == sqrt(pi) * L_c
    assert lam[0] == pytest.approx(np.sqrt(np.pi) * 0.25, abs=1e-12)
    assert lam[1] == pytest.approx(np.sqrt(np.pi) * 0.25 * np.exp(-(np.pi / 4) ** 2 / 4), abs=1e-12)
    assert lam[1] == pytest.approx(0.379786, abs=5e-6)


def test_eigenvalues_positive_decreasing():
    for lc in (0.1, 0.25, 0.5, 1.0, 2.0):
        lam = kl_eigenvalues(RandomFieldSpec(L_c=lc, n_f=6))
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) < 0)


def test_eigenvalues_nf_zero():
    lam = kl_eigenvalues(RandomFieldSpec(n_f=0))
    assert len(lam) == 1


def test_evaluate_zero_draw():
    spec = RandomFieldSpec()
    d = Draw(Y=(0.0,) * 7)
    assert evaluate_k(spec, d, 0.37) == pytest.approx(1.0)


def test_evaluate_first_mode_only():
    spec = RandomFieldSpec()
    d = Draw(Y=(SQRT3, 0, 0, 0, 0, 0, 0))
    got = evaluate_k(spec, d, 0.0)
    assert got == pytest.approx(1 + 0.15 * SQRT3 * np.sqrt(np.sqrt(np.pi) / 4), abs=1e-12)
    assert got == pytest.approx(1.17295, abs=1e-5)


def test_evaluate_periodic_in_two():
    spec = RandomFieldSpec()
    d = draw_samples(spec, 1, seed=5)[0]
    ys = np.linspace(-3, 0, 17)
    np.testing.assert_allclose(evaluate_k(spec, d, ys), evaluate_k(spec, d, ys + 2.0),
                               rtol=0, atol=1e-12)


def test_draws_deterministic_and_prefix_stable():
    spec = RandomFieldSpec()
    a = draw_samples(spec, 3, seed=9)
    b = draw_samples(spec, 3, seed=9)
    assert a == b
    c = draw_samples(spec, 5, seed=9)
    assert c[:3] == a


def test_draw_moments():
    spec = RandomFieldSpec(n_f=1)
    draws = draw_samples(spec, 30000, seed=123)
    ys = np.array([d.Y for d in draws]).ravel()
    assert abs(ys.mean()) <= 0.02
    assert abs(ys.var() - 1.0) <= 0.02


def test_positivity_bound():
    # worst-case modal sum stays below a0 with the default constants
    spec = RandomFieldSpec()
    lam = kl_eigenvalues(spec)
    worst = spec.sigma * SQRT3 * (np.sqrt(lam[0]) + np.sqrt(2.0) * np.sqrt(lam[1:]).sum())
    assert worst < 0.71
    draws = draw_samples(spec, 20000, seed=77)
    ys = np.linspace(-3.0, 0.0, 13)
    lo = min(evaluate_k(spec, d, ys).min() for d in draws)
    assert lo >= 0.29
