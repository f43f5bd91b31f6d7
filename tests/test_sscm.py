import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signcorr.eigenmap import forward_p2
from signcorr.exceptions import InvalidInputError
from signcorr.robust import spatial_median, spatial_signs
from signcorr.sscm import sscm, sscm_auto

CROSS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def test_signs_on_one_axis():
    est = sscm([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
    assert np.array_equal(est.matrix, [[1.0, 0.0], [0.0, 0.0]])
    assert est.n_effective == 2


def test_symmetric_cross():
    est = sscm(CROSS, [0.0, 0.0])
    assert np.array_equal(est.matrix, [[0.5, 0.0], [0.0, 0.5]])


def test_diagonal_direction():
    # outer product of (1,1)/sqrt(2) appears for both observations
    est = sscm([[1.0, 1.0], [-1.0, -1.0]], [0.0, 0.0])
    assert np.allclose(est.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_auto_uses_spatial_median():
    est = sscm_auto(CROSS)
    assert np.allclose(est.matrix, [[0.5, 0.0], [0.0, 0.5]], atol=1e-9)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    auto = sscm_auto(x)
    two_step = sscm(x, spatial_median(x))
    assert np.array_equal(auto.matrix, two_step.matrix)


def test_observation_at_center_drops_out():
    # spatial median of this collinear set is the middle data point
    x = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    est = sscm_auto(x)
    assert est.n_effective == est.n - 1
    assert np.trace(est.matrix) == pytest.approx((est.n - 1) / est.n, abs=1e-15)


def test_trace_and_psd_invariants():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        p = int(rng.integers(1, 6))
        x = rng.normal(size=(n, p))
        est = sscm(x, rng.normal(size=p))
        assert np.trace(est.matrix) == pytest.approx(est.n_effective / n, abs=1e-12)
        assert np.linalg.eigvalsh(est.matrix).min() >= -1e-12
        assert np.array_equal(est.matrix, est.matrix.T)


def test_orthogonal_equivariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 3))
    t = rng.normal(size=3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    lhs = sscm(x @ q.T, q @ t).matrix
    rhs = q @ sscm(x, t).matrix @ q.T
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), p=st.integers(2, 6),
       center_on_a_point=st.booleans(), scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e4, 1e150]))
def test_orthogonal_equivariance_property(seed, n, p, center_on_a_point, scale):
    # Heavy-tailed data at extreme scales, centered off the data or on an
    # observation, whose sign is zero before and after the rotation.
    rng = np.random.default_rng(seed)
    x = rng.standard_t(2, size=(n, p)) * scale
    c = x[rng.integers(n)] if center_on_a_point else rng.normal(size=p) * scale
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    lhs = sscm(x @ q.T, q @ c).matrix
    rhs = q @ sscm(x, c).matrix @ q.T
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_scale_invariance_exact_for_binary_scalings():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 3))
    t = rng.normal(size=3)
    base, signs = sscm(x, t).matrix, spatial_signs(x, t)
    for e in (-1, 1, 10, -20, 600, -600, 700, -700, 1000, -1000):
        y, c = np.ldexp(x, e), np.ldexp(t, e)
        assert np.array_equal(sscm(y, c).matrix, base)
        assert np.array_equal(spatial_signs(y, c), signs)


def test_scale_invariance_general_factor():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 3))
    t = rng.normal(size=3)
    base = sscm(x, t).matrix
    assert np.max(np.abs(sscm(3.7 * x, 3.7 * t).matrix - base)) <= 1e-14


def test_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        sscm([[1.0, 2.0]], [0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        sscm_auto([[1.0, 2.0]])


def test_monte_carlo_consistency():
    # eigenvalues of the SSCM of N(0, diag(0.8, 0.2)) data must approach
    # the closed-form image (2/3, 1/3) of the shape spectrum
    rng = np.random.default_rng(20260811)
    x = rng.normal(size=(50_000, 2)) * np.sqrt([0.8, 0.2])
    est = sscm_auto(x)
    eig = np.sort(np.linalg.eigvalsh(est.matrix))[::-1]
    target = forward_p2([0.8, 0.2])
    assert np.allclose(eig, target, atol=0.01)
    assert np.allclose(target, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
