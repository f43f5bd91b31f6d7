import numpy as np
import pytest

import signcorr as sc
from signcorr import elliptical as el

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
    def test_minimizer_next_to_a_data_point(self, family, df, seed, rep):
        # After MAD standardization the minimizer lies a few 1e-6 from a data
        # point whose sign sum just exceeds its multiplicity; plain Weiszfeld
        # needs more than 10000 steps there.
        x = el.sample(el.spherical_model(family, 2, df), 100, el.replication_rng(seed, rep))
        z = x / np.array([mad(x[:, 0]), mad(x[:, 1])])
        assert _first_order_ok(z, spatial_median(z, max_iter=3100))
        rho = sc.sscor_two_stage(x).rho
        assert abs(sc.multivariate_matrix(x).matrix[0, 1] - rho) <= 1e-15

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

    def test_nonconvergence_raises_with_payload(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 2))
        with pytest.raises(ConvergenceError) as exc_info:
            spatial_median(x, max_iter=1)
        err = exc_info.value
        assert err.iterations == 1
        assert err.residual > 0
        assert err.last_iterate.shape == (2,)


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

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            mad([])
        with pytest.raises(InvalidInputError):
            mad([1.0, np.nan])
