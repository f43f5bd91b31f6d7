import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import elliprd

from signcorr import eigenmap as em
from signcorr.exceptions import (
    ConvergenceError,
    InvalidInputError,
    RankDeficiencyError,
)


def random_spectrum(rng, p, min_value=0.0):
    while True:
        v = rng.uniform(0.0, 1.0, p)
        v /= v.sum()
        if v.min() >= min_value:
            return np.sort(v)[::-1]


class TestSpectrumConstruction:
    def test_sorts_descending(self):
        assert np.array_equal(em.as_spectrum([0.2, 0.8]), [0.8, 0.2])

    def test_renormalizes_small_drift(self):
        v = em.as_spectrum([0.6, 0.4 + 5e-10])
        assert v.sum() == 1.0

    def test_rejects_large_drift(self):
        with pytest.raises(InvalidInputError):
            em.as_spectrum([0.6, 0.5])

    def test_sum_error_names_a_plain_float(self):
        with pytest.raises(InvalidInputError, match=r"must sum to 1, got 1\.1$"):
            em.forward([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            em.as_spectrum([1.1, -0.1])

    def test_clips_eigensolver_noise(self):
        v = em.as_spectrum([1.0 + 1e-13, -1e-13])
        assert v[1] == 0.0


class TestForwardP2:
    def test_symmetric(self):
        assert np.allclose(em.forward_p2([0.5, 0.5]), [0.5, 0.5], atol=1e-15)

    def test_hand_derived(self):
        # sqrt(0.8) = 2 sqrt(0.2), so the image is exactly (2/3, 1/3)
        out = em.forward_p2([0.8, 0.2])
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_rank_one_limit(self):
        assert np.array_equal(em.forward_p2([1.0, 0.0]), [1.0, 0.0])


class TestInverseP2:
    def test_symmetric(self):
        assert np.allclose(em.inverse_p2([0.5, 0.5]), [0.5, 0.5], atol=1e-15)

    def test_hand_derived(self):
        out = em.inverse_p2([2.0 / 3.0, 1.0 / 3.0])
        assert np.allclose(out, [0.8, 0.2], atol=1e-15)

    def test_degenerate(self):
        assert np.array_equal(em.inverse_p2([1.0, 0.0]), [1.0, 0.0])

    def test_round_trip_with_forward_p2(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lam = random_spectrum(rng, 2)
            assert np.max(np.abs(em.inverse_p2(em.forward_p2(lam)) - lam)) <= 1e-12


class TestForward:
    def test_uniform_spectrum_fixed(self):
        for p in (2, 3, 7):
            u = np.full(p, 1.0 / p)
            assert np.max(np.abs(em.forward(u) - u)) <= 1e-12

    def test_agrees_with_closed_form_p2(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            lam = random_spectrum(rng, 2)
            assert np.max(np.abs(em.forward(lam) - em.forward_p2(lam))) <= 1e-10

    def test_matches_quadpack(self):
        # independent evaluation of the raw semi-infinite integrals
        rng = np.random.default_rng(2)
        for p in (3, 5, 8):
            lam = random_spectrum(rng, p, min_value=1e-3)

            def raw(i):
                def f(x):
                    prod = np.prod(np.sqrt(1.0 + lam * x))
                    return 1.0 / ((1.0 + lam[i] * x) * prod)

                val, _ = quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
                return 0.5 * lam[i] * val

            expected = np.array([raw(i) for i in range(p)])
            expected /= expected.sum()
            assert np.max(np.abs(em.forward(lam) - expected)) <= 1e-9

    def test_matches_carlson_rd_p3(self):
        # for p = 3, d_i = (1/3) (prod lam)^(-1/2) R_D(1/lam_j, 1/lam_k, 1/lam_i)
        # (Carlson 1995); the eps spectra put one eigenvalue far below the rest
        rng = np.random.default_rng(9)
        batch = [v for v in rng.dirichlet(np.full(3, 0.3), 300) if v.min() > 1e-12]
        eps = [[0.6, 0.4 - e, e] for e in (1e-9, 1e-10, 1e-11)]
        for lam in batch + eps:
            lam = em.as_spectrum(lam)
            inv = 1.0 / lam
            rd = np.array([elliprd(*np.roll(inv, 2 - i)) for i in range(3)])
            expected = rd / (3.0 * np.sqrt(np.prod(lam)))
            expected /= expected.sum()
            t0 = time.perf_counter()
            delta = em.forward(lam)
            assert time.perf_counter() - t0 <= 1.0
            assert np.max(np.abs(delta - expected) / expected) <= 1e-13

    def test_matches_monte_carlo_oracle(self):
        # eigenvalues of E[s s^T] under N(0, diag(lam)) estimated directly;
        # for a diagonal shape the estimate's standard error per component
        # follows from the variance of the squared sign coordinates
        lam = np.array([0.5, 1.0 / 3.0, 1.0 / 6.0])
        rng = np.random.default_rng(3)
        z = rng.normal(size=(1_000_000, 3)) * np.sqrt(lam)
        s = z / np.linalg.norm(z, axis=1)[:, None]
        sscm_mc = s.T @ s / s.shape[0]
        eig = np.sort(np.linalg.eigvalsh(sscm_mc))[::-1]
        stderr = np.std(s * s, axis=0, ddof=1) / np.sqrt(s.shape[0])
        delta = em.forward(lam)
        assert np.all(np.abs(delta - eig) <= 3.0 * stderr)

    def test_zero_eigenvalue_maps_to_zero(self):
        out = em.forward([0.7, 0.3, 0.0])
        assert out[2] == 0.0
        assert np.max(np.abs(out[:2] - em.forward_p2([0.7, 0.3]))) <= 1e-10

    def test_rank_one_by_continuity(self):
        out = em.forward([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])

    def test_requires_p_at_least_two(self):
        with pytest.raises(InvalidInputError):
            em.forward([1.0])

    def test_ratio_contraction(self):
        # eigenvalue ratios never grow under the map
        rng = np.random.default_rng(4)
        for p in (2, 3, 5, 9):
            for _ in range(25):
                lam = random_spectrum(rng, p, min_value=1e-6)
                delta = em.forward(lam)
                for i in range(p):
                    for j in range(i + 1, p):
                        assert lam[i] / lam[j] >= delta[i] / delta[j] - 1e-12

    def test_order_preservation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = random_spectrum(rng, 6)
            delta = em.forward(lam)
            assert np.all(np.diff(delta) <= 1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-6.0, 0.0), min_size=3, max_size=12))
    def test_ratio_lower_bound_property(self, exponents):
        # the map contracts ratios at most to their square root:
        # sqrt(lam_i / lam_j) <= delta_i / delta_j for lam_i >= lam_j
        w = 10.0 ** np.array(exponents)
        lam = em.as_spectrum(w / w.sum())
        delta = em.forward(lam)
        i, j = np.triu_indices(lam.size, k=1)
        assert np.min(delta[i] / delta[j] - np.sqrt(lam[i] / lam[j])) >= -1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-6.0, 0.0), min_size=3, max_size=12))
    def test_majorization_property(self, exponents):
        # lam majorizes delta: no partial sum of the largest sign eigenvalues
        # exceeds the same partial sum of shape eigenvalues
        w = 10.0 ** np.array(exponents)
        lam = em.as_spectrum(w / w.sum())
        assert np.min(np.cumsum(lam) - np.cumsum(em.forward(lam))) >= -1e-12


class TestInverse:
    def test_uniform_fixed_point(self):
        for p in (2, 4, 11):
            u = np.full(p, 1.0 / p)
            result = em.inverse_full(u)
            assert np.max(np.abs(result.spectrum - u)) <= 1e-11

    def test_hand_derived_p2(self):
        out = em.inverse([2.0 / 3.0, 1.0 / 3.0])
        assert np.max(np.abs(out - [0.8, 0.2])) <= 1e-10

    def test_agrees_with_closed_form_p2(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            delta = random_spectrum(rng, 2, min_value=1e-4)
            assert np.max(np.abs(em.inverse(delta) - em.inverse_p2(delta))) <= 1e-10

    def test_spiked_p11_round_trip(self):
        p = 11
        weights = np.append(np.arange(1, p, dtype=float), 5.0 * (p - 1))
        lam = np.sort(weights / weights.sum())[::-1]
        assert np.max(np.abs(em.inverse(em.forward(lam)) - lam)) <= 1e-8

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for p in (2, 5, 9, 12):
            for _ in range(10):
                lam = random_spectrum(rng, p, min_value=1e-4)
                result = em.inverse_full(em.forward(lam))
                assert np.max(np.abs(result.spectrum - lam)) <= 1e-8
                assert result.iterations <= 20

    def test_zero_components_stay_zero(self):
        delta = em.forward([0.6, 0.4, 0.0])
        out = em.inverse(delta)
        assert out[2] == 0.0
        assert np.max(np.abs(out[:2] - [0.6, 0.4])) <= 1e-8

    def test_two_nonzero_entries_in_closed_form(self):
        delta = em.forward([0.6, 0.4, 0.0])
        result = em.inverse_full(delta)
        assert result.iterations == 0
        assert result.spectrum[2] == 0.0
        assert np.max(np.abs(result.spectrum[:2] - em.inverse_p2(delta[:2]))) <= 1e-15

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficiencyError):
            em.inverse([1.0, 0.0, 0.0])

    def test_rank_one_p2_maps_to_itself(self):
        result = em.inverse_full([1.0, 0.0])
        assert np.array_equal(result.spectrum, [1.0, 0.0])
        assert (result.iterations, result.residual) == (0, 0.0)

    def test_nonconvergence_error_payload(self, monkeypatch):
        monkeypatch.setattr(em, "_FP_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as exc_info:
            em.inverse([0.7, 0.2, 0.1])
        err = exc_info.value
        assert err.iterations == 1
        assert err.residual > 0
        assert err.last_iterate is not None


def relative_gap(out, lam):
    return float(np.max(np.abs(out - lam) / lam))


class TestInverseRelativeAccuracy:
    # Small eigenvalues are recovered to a relative, not only an absolute,
    # accuracy: a step that fell back to linear convergence would stop with
    # the small entries still far off in relative terms.

    @pytest.mark.parametrize("lam", [
        [1.0 - 2e-6, 1e-6, 1e-6],
        [0.6, 0.4 - 1e-10, 1e-10],
        0.15 ** np.arange(12) / np.sum(0.15 ** np.arange(12)),
    ], ids=["two-tiny", "one-1e-10", "geometric-p12"])
    def test_round_trip_of_small_eigenvalues(self, lam):
        lam = em.as_spectrum(lam)
        assert relative_gap(em.inverse(em.forward(lam)), lam) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-6.9, 0.0), min_size=3, max_size=12))
    def test_round_trip_property(self, exponents):
        # 10**exponents / sum: every entry is at least 10**-6.9 / 12 > 1e-8
        w = 10.0 ** np.array(exponents)
        lam = em.as_spectrum(w / w.sum())
        result = em.inverse_full(em.forward(lam))
        assert relative_gap(result.spectrum, lam) <= 1e-11
        assert result.iterations <= 20

    def test_zero_tolerance_returns_or_fails_fast(self, monkeypatch):
        # A zero tolerance asks for more than float64 can give. The inverse
        # then stops only at an exact fixed point, or raises when the step
        # budget runs out; either way within a second.
        monkeypatch.setattr(em, "_FP_TOL", 0.0)
        for lam in ([0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]):
            lam = em.as_spectrum(lam)
            delta = em.forward(lam)
            start = time.perf_counter()
            try:
                result = em.inverse_full(delta)
            except ConvergenceError as exc:
                assert exc.iterations == em._FP_MAX_ITER
            else:
                assert relative_gap(result.spectrum, lam) <= 1e-14
            assert time.perf_counter() - start < 1.0


def test_equidistant_high_dimension_regime():
    # for p = 101 equidistant shape eigenvalues the two spectra nearly agree
    p = 101
    lam = np.sort(2.0 * np.arange(1, p + 1) / (p * (p + 1)))[::-1]
    gap = np.max(np.abs(em.forward(lam) - lam))
    assert 1e-4 <= gap <= 4e-4
