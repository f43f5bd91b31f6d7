import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import signcorr as sc
from signcorr import elliptical as el
from signcorr import robust

from signcorr.exceptions import (
    ConvergenceError,
    DegenerateScaleError,
    InvalidInputError,
)
from signcorr.robust import mad, spatial_median, spatial_sign, spatial_signs


def _objective(x, mu):
    return np.sum(np.linalg.norm(x - mu, axis=1))


def _first_order_ok(x, mu, tol=1e-9):
    """First-order condition: small mean sign residual, or optimal data point."""
    d = np.linalg.norm(x - mu, axis=1)
    at = d == 0.0
    signs = np.zeros_like(x)
    signs[~at] = (x[~at] - mu) / d[~at, None]
    r = np.linalg.norm(signs.sum(axis=0))
    if at.any():
        return r <= at.sum()
    return r / x.shape[0] <= tol


def _optimal_data_point(x, mu):
    """Whether ``mu`` is a row of the integer data ``x`` at which the sign sum
    of the other rows has norm at most the multiplicity, in 40-digit
    arithmetic: where it holds with equality, float64 can round either way."""
    if not np.any(np.all(x == mu, axis=1)):
        return False
    with localcontext() as ctx:
        ctx.prec = 40
        d = [[Decimal(int(a)) - Decimal(int(b)) for a, b in zip(row, mu)] for row in x]
        norms = [sum(t * t for t in row).sqrt() for row in d]
        r = [sum(row[j] / nr for row, nr in zip(d, norms) if nr) for j in range(x.shape[1])]
        return sum(t * t for t in r).sqrt() <= norms.count(0) + Decimal("1e-30")


class TestSpatialSign:
    def test_three_four_five(self):
        assert np.allclose(spatial_sign([3.0, 4.0], [0.0, 0.0]), [0.6, 0.8], atol=1e-15)

    def test_zero_at_center(self):
        assert np.array_equal(spatial_sign([1.0, 1.0], [1.0, 1.0]), [0.0, 0.0])

    def test_axis_vector(self):
        out = spatial_sign([-2.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert np.array_equal(out, [-1.0, 0.0, 0.0])

    def test_unit_norm_or_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.normal(size=3) * 10.0 ** rng.integers(-8, 8)
            c = rng.normal(size=3)
            s = spatial_sign(x, c)
            n = np.linalg.norm(s)
            assert n == 0.0 or abs(n - 1.0) <= 1e-12

    def test_noise_residual_maps_to_zero(self):
        x = np.array([1.0, 1.0])
        c = x * (1.0 + 1e-16)
        assert np.array_equal(spatial_sign(x, c), [0.0, 0.0])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 4))
        c = rng.normal(size=4)
        batch = spatial_signs(x, c)
        for i in range(50):
            assert np.array_equal(batch[i], spatial_sign(x[i], c))


class TestSpatialMedian:
    def test_single_observation(self):
        assert np.array_equal(spatial_median([[1.0, 2.0]]), [1.0, 2.0])

    def test_symmetric_cross(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert np.allclose(spatial_median(x), [0.0, 0.0], atol=1e-9)

    def test_collinear_reduces_to_univariate_median(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        assert np.allclose(spatial_median(x), [1.0, 0.0], atol=1e-12)

    def test_first_order_condition_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            p = int(rng.integers(1, 6))
            x = rng.standard_t(3, size=(n, p))
            mu = spatial_median(x)
            assert _first_order_ok(x, mu)

    def test_objective_matches_coordinatewise_median_restart(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 3))
        mu = spatial_median(x)
        restart = spatial_median(x)  # same deterministic initialization
        obj = _objective(x, mu)
        assert abs(obj - _objective(x, restart)) <= 1e-8 * (1.0 + obj)

    def test_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=(30, 3))
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            c = float(rng.uniform(0.5, 3.0))
            b = rng.normal(size=3)
            lhs = spatial_median(c * x @ q.T + b)
            rhs = c * q @ spatial_median(x) + b
            assert np.max(np.abs(lhs - rhs)) <= 1e-7

    def test_breakdown_sanity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 2))
        diameter = np.max(
            np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
        )
        clean = spatial_median(x)
        y = x.copy()
        y[0] = [1e6, 1e6]
        moved = spatial_median(y)
        assert np.linalg.norm(moved - clean) < diameter

    def test_duplicate_points(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [5.0, -2.0]])
        assert np.array_equal(spatial_median(x), [1.0, 1.0])

    @pytest.mark.parametrize("family, df, seed, rep", [
        ("laplace", None, 14323281278118823144, 27),
        ("t", 5.0, 1776680473139111193, 12),
    ])
    def test_minimizer_next_to_a_data_point(self, family, df, seed, rep, monkeypatch):
        # After MAD standardization the minimizer lies a few 1e-6 from a data
        # point whose sign sum just exceeds its multiplicity; plain Weiszfeld
        # needs more than 10000 steps there, safeguarded Newton a dozen.
        x = el.sample(el.spherical_model(family, 2, df), 100, el.replication_rng(seed, rep))
        z = x / np.array([mad(x[:, 0]), mad(x[:, 1])])
        monkeypatch.setattr(robust, "_MEDIAN_MAX_STEPS", 50)
        assert _first_order_ok(z, spatial_median(z))
        rho = sc.sscor_two_stage(x).rho
        assert abs(sc.multivariate_matrix(x).matrix[0, 1] - rho) <= 1e-15

    def test_minimizer_near_a_data_point_along_a_valley(self, monkeypatch):
        # The minimizer lies about 0.005 from the data point (2, 1, 1), reached
        # along a valley where the full Newton step overshoots past the point
        # at every step; Weiszfeld steps alone need about 500 iterations, with
        # the half Newton step tried first it takes 10.
        x = np.array([[-2.0, -3.0, -2.0], [3.0, 2.0, 2.0], [2.0, 1.0, 1.0], [-2.0, -1.0, -2.0]])
        monkeypatch.setattr(robust, "_MEDIAN_MAX_STEPS", 50)
        assert _first_order_ok(x, spatial_median(x))

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(3, 8), st.integers(2, 3)),
                  elements=st.integers(-3, 3)))
    @example(np.array([[-2.0, -3.0], [-1.0, -2.0], [1.0, 1.0], [2.0, 1.0]]))
    def test_first_order_condition_on_small_integer_data(self, x):
        # Ties and duplicates are common here, and so are minimizers at a
        # data point whose sign sum has norm exactly its multiplicity. In the
        # example the minimizer is (-1, -2), the sign sum there is (2, 3)/13**0.5
        # and float64 computes its norm as 1 + 2**-52, so _first_order_ok
        # rejects it; such a point is checked in 40-digit arithmetic instead.
        mu = spatial_median(x)
        assert _first_order_ok(x, mu) or _optimal_data_point(x, mu)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_past_the_overflow_threshold(self):
        # MAD-standardized, the first column reaches 1.7e192: its squared
        # distances overflow unless the sample is scaled down first. The
        # scaling is by a power of two, so it changes no bit of the median.
        x = np.column_stack([[-831642.0, 1e-209, -860436.0, 593162.0, 5e-187, 0.0, 0.0],
                             [0.3, -1.2, 2.5, 0.7, -0.4, 1.9, -2.2]])
        z = x / np.array([mad(x[:, 0]), mad(x[:, 1])])
        mu = spatial_median(z)
        assert np.all(np.isfinite(mu))
        assert np.array_equal(mu, np.ldexp(spatial_median(np.ldexp(z, -600)), 600))

    def test_nonconvergence_raises_with_payload(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 2))
        monkeypatch.setattr(robust, "_MEDIAN_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError) as exc_info:
            spatial_median(x)
        err = exc_info.value
        assert err.iterations == 1
        assert err.residual > 0
        assert err.last_iterate.shape == (2,)

    def test_nonconvergence_fails_fast(self, monkeypatch):
        # A zero tolerance cannot be met off the data points, so the
        # iteration runs out its whole step budget: it fails after a bounded
        # number of steps instead of stalling.
        x = el.sample(el.spherical_model("t", 50, 5.0), 1000, np.random.default_rng(13))
        monkeypatch.setattr(robust, "_MEDIAN_TOL", 0.0)
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError) as exc_info:
            spatial_median(x)
        assert time.perf_counter() - t0 < 5.0
        assert exc_info.value.iterations == robust._MEDIAN_MAX_STEPS

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(3, 40), st.integers(2, 4)),
                  elements=st.integers(-3, 3)),
           st.sampled_from([1e-150, 1.0, 1e150]))
    def test_a_fifth_of_the_step_budget_suffices(self, x, scale):
        # The budget is over ten times the most steps a converging sample
        # took in a fuzz; integer data with ties, scaled far from one, still
        # converge within a fifth of it.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(robust, "_MEDIAN_MAX_STEPS", robust._MEDIAN_MAX_STEPS // 5)
            mu = spatial_median(x * scale)
        # At a data point the optimality test is exact on the integer data.
        at = np.flatnonzero(np.all(x * scale == mu, axis=1))
        assert _first_order_ok(x * scale, mu) or (at.size and _optimal_data_point(x, x[at[0]]))


class TestMad:
    def test_hand_value(self):
        assert mad([1.0, 2.0, 3.0]) == 1.0

    def test_constant_sequence_degenerate(self):
        with pytest.raises(DegenerateScaleError):
            mad([5.0, 5.0, 5.0])

    def test_majority_tie_degenerate(self):
        with pytest.raises(DegenerateScaleError):
            mad([0.0, 0.0, 0.0, 1000.0])

    def test_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=11)
            c = float(rng.uniform(-4.0, 4.0))
            if c == 0.0:
                continue
            b = float(rng.normal())
            assert mad(c * x + b) == pytest.approx(abs(c) * mad(x), rel=1e-12)

    def test_no_overflow_near_the_float_maximum(self):
        # Three of four values tie, so the MAD is zero; the plain median of
        # the middle pair and the deviations from it overflow.
        with pytest.raises(DegenerateScaleError):
            mad([1.7e308, 1.7e308, 1.7e308, -1.7e308])
        # Only such columns are halved: halving would zero this subnormal MAD.
        assert mad([5e-324, 0.0, 5e-324, 1.0, -5e-324]) == 5e-324
        x = np.array([[1.7e308, 1.0], [1.7e308, 2.0], [1.7e308, 0.5], [-1.7e308, 3.0]])
        for estimator in (sc.sscor_two_stage, sc.pairwise_matrix, sc.multivariate_matrix):
            with pytest.raises(DegenerateScaleError, match="column 0: zero mad"):
                estimator(x)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            mad([])
        with pytest.raises(InvalidInputError):
            mad([1.0, np.nan])
