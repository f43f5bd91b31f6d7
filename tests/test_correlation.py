import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import signcorr as sc
from signcorr import elliptical as el
from signcorr.correlation import CorrelationEstimate
from signcorr.exceptions import (
    DegenerateDataError,
    DegenerateScaleError,
    InvalidInputError,
    SignCorrError,
)

CROSS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


@pytest.fixture(scope="module")
def correlated_sample():
    """50k draws of a bivariate normal with rho = 0.5 and unit scales."""
    model = el.EllipticalModel("normal", [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    return el.sample(model, 50_000, el.make_rng(42))


class TestAsv:
    def test_reference_point(self):
        assert sc.asv_sscor(0.0, 1.0) == 2.0
        assert sc.asv_two_stage(0.0) == 2.0

    def test_perfect_correlation_vanishes(self):
        for a in (0.5, 1.0, 7.0):
            assert sc.asv_sscor(1.0, a) == 0.0
            assert sc.asv_sscor(-1.0, a) == 0.0
        assert sc.asv_two_stage(1.0) == 0.0

    def test_hand_values(self):
        # a = 4: 1 + (4 + 0.25) / 2 = 3.125
        assert sc.asv_sscor(0.0, 4.0) == pytest.approx(3.125, abs=1e-15)
        # rho = 0.6: 0.64^2 + 0.64^1.5 = 0.4096 + 0.512
        assert sc.asv_two_stage(0.6) == pytest.approx(0.9216, abs=1e-15)

    def test_minimal_at_equal_scales(self):
        for rho in (-0.8, 0.0, 0.3, 0.95):
            base = sc.asv_sscor(rho, 1.0)
            for a in (0.05, 0.3, 0.9, 1.1, 2.5, 40.0):
                assert sc.asv_sscor(rho, a) >= base

    def test_scale_ratio_symmetry(self):
        for a in (0.25, 2.0, 8.0):  # binary ratios invert exactly
            assert sc.asv_sscor(0.4, a) == sc.asv_sscor(0.4, 1.0 / a)
        for a in (0.3, 1.7, 9.9):
            assert sc.asv_sscor(0.4, a) == pytest.approx(
                sc.asv_sscor(0.4, 1.0 / a), rel=1e-14
            )

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            sc.asv_sscor(1.5, 1.0)
        with pytest.raises(InvalidInputError):
            sc.asv_sscor(0.0, 0.0)
        with pytest.raises(InvalidInputError):
            sc.asv_sscor(0.0, -2.0)


class TestSscor:
    def test_symmetric_cross_is_zero(self):
        assert sc.sscor(CROSS).rho == 0.0

    def test_near_line_data(self):
        t = np.linspace(-1.0, 1.0, 12)
        wiggle = 0.001 * np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        est = sc.sscor(np.column_stack([t, t + wiggle]))
        assert est.rho > 0.95

    def test_monte_carlo_consistency(self, correlated_sample):
        est = sc.sscor(correlated_sample)
        assert est.rho == pytest.approx(0.5, abs=0.02)
        assert est.method == "sscor"
        assert est.n == 50_000

    def test_common_scaling_invariance(self, correlated_sample):
        x = correlated_sample[:200]
        base = sc.sscor(x).rho
        assert sc.sscor(2.0 * x).rho == base  # binary factor: exact
        assert sc.sscor(3.7 * x).rho == pytest.approx(base, abs=1e-14)

    def test_degenerate_axis_data(self):
        with pytest.raises(DegenerateDataError):
            sc.sscor([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            sc.sscor(np.zeros((2, 2)))  # n too small
        with pytest.raises(InvalidInputError):
            sc.sscor(np.random.default_rng(0).normal(size=(9, 3)))  # p != 2


class TestSscorTwoStage:
    def test_column_rescaling_invariance(self, correlated_sample):
        x = correlated_sample[:500]
        base = sc.sscor_two_stage(x).rho
        for scales in ([1e-3, 1.0], [1.0, 1e3], [1e-3, 1e3]):
            scaled = sc.sscor_two_stage(x * np.asarray(scales)).rho
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_symmetric_cross_is_zero(self):
        assert sc.sscor_two_stage(CROSS).rho == 0.0

    def test_monte_carlo_with_unequal_scales(self, correlated_sample):
        x = correlated_sample * np.array([1.0, 100.0])
        est = sc.sscor_two_stage(x)
        assert est.rho == pytest.approx(0.5, abs=0.02)
        assert est.method == "two_stage"

    def test_constant_column_names_the_column(self):
        x = np.column_stack([np.arange(6.0), np.full(6, 3.0)])
        with pytest.raises(DegenerateScaleError, match="column 1"):
            sc.sscor_two_stage(x)


class TestConfidenceInterval:
    def test_formula_against_normal_quantile(self):
        est = CorrelationEstimate(rho=0.0, method="two_stage", n=100)
        ci = sc.confidence_interval(est, 0.95)
        half = stats.norm.ppf(0.975) * np.sqrt(2.0 / 100.0)
        assert ci.lower == pytest.approx(-half, abs=1e-12)
        assert ci.upper == pytest.approx(half, abs=1e-12)
        assert ci.lower == pytest.approx(-0.277, abs=5e-4)

    def test_degenerate_at_perfect_correlation(self):
        est = CorrelationEstimate(rho=1.0, method="two_stage", n=10)
        ci = sc.confidence_interval(est, 0.95)
        assert (ci.lower, ci.upper) == (1.0, 1.0)

    def test_clipping(self):
        est = CorrelationEstimate(rho=0.95, method="two_stage", n=4)
        ci = sc.confidence_interval(est, 0.99)
        assert ci.upper == 1.0
        assert ci.lower >= -1.0

    def test_requires_two_stage(self):
        est = CorrelationEstimate(rho=0.0, method="sscor", n=100)
        with pytest.raises(InvalidInputError):
            sc.confidence_interval(est, 0.95)
        est = CorrelationEstimate(rho=0.0, method="two_stage", n=100)
        with pytest.raises(InvalidInputError):
            sc.confidence_interval(est, 1.5)


class TestPairwiseMatrix:
    def test_p2_reduces_to_single_pair(self, correlated_sample):
        x = correlated_sample[:300]
        r = sc.pairwise_matrix(x)
        assert r.matrix[0, 1] == sc.sscor_two_stage(x).rho
        assert np.array_equal(np.diag(r.matrix), [1.0, 1.0])

    def test_independent_spherical(self):
        x = el.sample(el.spherical_model("normal", 3), 50_000, el.make_rng(10))
        r = sc.pairwise_matrix(x)
        off = r.matrix[np.triu_indices(3, k=1)]
        assert np.all(np.abs(off) <= 0.02)
        assert np.array_equal(r.matrix, r.matrix.T)

    def test_duplicated_column_with_noise(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=200)
        x = np.column_stack([a, a + 0.01 * rng.normal(size=200), rng.normal(size=200)])
        r = sc.pairwise_matrix(x)
        assert r.matrix[0, 1] > 0.99

    def test_degenerate_pair_reported(self):
        x = np.column_stack([
            np.arange(8.0),
            np.arange(8.0) ** 2,
            np.full(8, 1.0),
        ])
        with pytest.raises(DegenerateScaleError, match="column 2"):
            sc.pairwise_matrix(x)


class TestMultivariateMatrix:
    def test_p2_agrees_with_two_stage(self, correlated_sample):
        worst = 0.0
        for lo in range(0, 1500, 300):
            x = correlated_sample[lo:lo + 300]
            gap = abs(sc.multivariate_matrix(x).matrix[0, 1] - sc.sscor_two_stage(x).rho)
            worst = max(worst, gap)
        assert worst <= 1e-15

    def test_p2_identical_columns(self):
        a = np.random.default_rng(14).standard_t(3, size=50)
        assert sc.multivariate_matrix(np.column_stack([a, a])).matrix[0, 1] == 1.0
        assert sc.multivariate_matrix(np.column_stack([a, -a])).matrix[0, 1] == -1.0

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 30), st.just(2)),
               elements=st.floats(-1e6, 1e6)),
        st.sampled_from(["none", "copy", "negate"]),
    )
    def test_p2_same_as_two_stage_property(self, x, tie):
        if tie == "copy":
            x[:, 1] = x[:, 0]
        elif tie == "negate":
            x[:, 1] = -x[:, 0]
        outcomes = []
        for estimate in (
            lambda: sc.multivariate_matrix(x).matrix[0, 1],
            lambda: sc.sscor_two_stage(x).rho,
        ):
            try:
                outcomes.append(estimate())
            except SignCorrError as exc:
                outcomes.append(type(exc))
        multivariate, two_stage = outcomes
        if isinstance(two_stage, type):
            assert multivariate is two_stage
        else:
            assert abs(multivariate - two_stage) <= 1e-15

    def test_independent_spherical_p5(self):
        x = el.sample(el.spherical_model("normal", 5), 50_000, el.make_rng(12))
        r = sc.multivariate_matrix(x)
        off = r.matrix[np.triu_indices(5, k=1)]
        assert np.all(np.abs(off) <= 0.02)

    def test_correlated_pair_embedded(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=300)
        x = np.column_stack([a, a, rng.normal(size=300)])
        r = sc.multivariate_matrix(x)
        assert r.matrix[0, 1] > 0.99
        assert np.linalg.eigvalsh(r.matrix).min() >= -1e-10
        assert r.shape_estimate is not None

    def test_psd_and_unit_diagonal(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            p = int(rng.integers(2, 7))
            x = rng.standard_t(4, size=(40, p))
            r = sc.multivariate_matrix(x)
            assert np.array_equal(np.diag(r.matrix), np.ones(p))
            assert np.linalg.eigvalsh(r.matrix).min() >= -1e-10
            assert np.max(np.abs(r.matrix)) <= 1.0


class TestMomentMatrix:
    def test_perfect_linear(self):
        x = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0) + 1.0])
        assert sc.moment_matrix(x).matrix[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_anti_linear(self):
        x = np.column_stack([np.arange(5.0), -3.0 * np.arange(5.0)])
        assert sc.moment_matrix(x).matrix[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_covariance_by_hand(self):
        # deviations ((-1.5, -0.5, 0.5, 1.5) x (-0.5, 0.5, 0.5, -0.5)):
        # cross products 0.75 - 0.25 + 0.25 - 0.75 sum to zero exactly
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 0.0]])
        assert sc.moment_matrix(x).matrix[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateScaleError, match="column 1"):
            sc.moment_matrix(np.column_stack([np.arange(4.0), np.full(4, 2.0)]))
