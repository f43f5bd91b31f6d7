import numpy as np
import pytest

from signcorr.exceptions import DegenerateScaleError, InvalidInputError
from signcorr.linalg import sym_eigen, symmetrize, to_correlation


def test_identity_spectrum():
    w, u = sym_eigen(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-12)
    recon = (u * w) @ u.T
    assert np.max(np.abs(recon - np.eye(3))) <= 1e-10


def test_diagonal_spectrum():
    w, u = sym_eigen(np.diag([0.5, 0.3, 0.2]))
    assert np.allclose(w, [0.5, 0.3, 0.2], atol=1e-12)
    # columns must be signed unit basis vectors; sign convention makes them positive
    assert np.allclose(np.abs(u), np.eye(3)[:, [0, 1, 2]], atol=1e-12)


def test_two_by_two_hand_solved():
    # char. polynomial of [[2,1],[1,2]]: (2-t)^2 - 1 = 0 -> t = 3, 1
    w, u = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [3.0, 1.0], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(u[:, 0], [s, s], atol=1e-12)
    assert np.allclose(u[:, 1], [s, -s], atol=1e-12)


def test_eigenvector_orthogonality_and_reconstruction():
    rng = np.random.default_rng(5)
    for p in (1, 2, 3, 5, 8):
        for _ in range(20):
            a = symmetrize(rng.normal(size=(p, p)))
            w, u = sym_eigen(a)
            assert np.all(np.diff(w) <= 1e-15)
            assert np.max(np.abs(u.T @ u - np.eye(p))) <= 1e-10
            err = np.max(np.abs((u * w) @ u.T - a))
            assert err <= 1e-8 * (1.0 + np.max(np.abs(a)))


def test_eigenvalue_shift():
    rng = np.random.default_rng(6)
    a = symmetrize(rng.normal(size=(4, 4)))
    c = 2.75
    w0, _ = sym_eigen(a)
    w1, _ = sym_eigen(a + c * np.eye(4))
    assert np.max(np.abs(w1 - (w0 + c))) <= 1e-10


def test_sign_convention_is_deterministic():
    rng = np.random.default_rng(7)
    a = symmetrize(rng.normal(size=(5, 5)))
    u1 = sym_eigen(a).eigenvectors
    u2 = sym_eigen(a.copy()).eigenvectors
    assert np.array_equal(u1, u2)
    lead = np.argmax(np.abs(u1), axis=0)
    assert np.all(u1[lead, np.arange(5)] > 0)


def test_nonfinite_rejected():
    with pytest.raises(InvalidInputError):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        sym_eigen(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        sym_eigen(np.zeros((2, 3)))


def test_symmetrize_averages():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = symmetrize(a)
    assert np.array_equal(s, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_to_correlation_diagonal_input():
    assert np.array_equal(to_correlation(np.diag([4.0, 9.0])), np.eye(2))


def test_to_correlation_hand_value():
    # 3 / sqrt(4 * 9) = 0.5
    r = to_correlation(np.array([[4.0, 3.0], [3.0, 9.0]]))
    assert np.allclose(r, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)


def test_to_correlation_identity_fixed_point():
    for p in (1, 3, 6):
        assert np.array_equal(to_correlation(np.eye(p)), np.eye(p))


def test_to_correlation_idempotent_on_unit_diagonal():
    rng = np.random.default_rng(8)
    for _ in range(10):
        b = rng.normal(size=(4, 4))
        v = to_correlation(symmetrize(b @ b.T + 4 * np.eye(4)))
        again = to_correlation(v)
        assert np.max(np.abs(again - v)) <= 1e-15


def test_to_correlation_preserves_psd():
    rng = np.random.default_rng(9)
    for _ in range(10):
        b = rng.normal(size=(5, 5))
        v = b @ b.T + 1e-3 * np.eye(5)
        r = to_correlation(v)
        assert np.all(np.diag(r) == 1.0)
        assert np.linalg.eigvalsh(r).min() >= -1e-10


def test_to_correlation_rejects_bad_diagonal():
    with pytest.raises(DegenerateScaleError, match="index 1"):
        to_correlation(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(DegenerateScaleError):
        to_correlation(np.diag([1.0, -2.0]))


def test_to_correlation_message_prints_a_plain_float():
    with pytest.raises(DegenerateScaleError) as exc_info:
        to_correlation(np.diag([1.0, 0.0, 2.0]))
    assert str(exc_info.value) == "nonpositive diagonal entry 0.0 at index 1"
