import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import signcorr as sc
from signcorr import eigenmap, linalg, robust
from signcorr import elliptical as el
from signcorr.correlation import CorrelationEstimate
from signcorr.exceptions import (
    DegenerateDataError,
    DegenerateScaleError,
    InvalidInputError,
    SignCorrError,
)

CROSS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
# MAD 5e-187: MAD-standardized, the column reaches 1.7e192, whose square
# overflows, while the 1 it maps 5e-187 to is 1e-192 of that.
OVERFLOW_COLUMN = [-831642.0, 1e-209, -860436.0, 593162.0, 5e-187, 0.0, 0.0]


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

    def test_errors_name_plain_floats(self):
        with pytest.raises(InvalidInputError, match=r"got 1\.5$"):
            sc.asv_sscor(np.float64(1.5), 1.0)
        with pytest.raises(InvalidInputError, match=r"got -2\.0$"):
            sc.asv_sscor(0.0, np.float64(-2.0))


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPowerOfTwoPrescale:
    """Each sample is scaled by a power of two before its spatial median.

    Unscaled, the squared distances of OVERFLOW_COLUMN overflow, with a
    RuntimeWarning that these tests turn into an error.
    """

    def test_two_stage_gives_a_typed_error(self):
        # Relative to the standardized column the other coordinate is
        # 1e-192, so every spatial sign lies on the first axis.
        x = np.column_stack([OVERFLOW_COLUMN, [0.3, -1.2, 2.5, 0.7, -0.4, 1.9, -2.2]])
        with pytest.raises(DegenerateDataError, match="collapsed onto a coordinate axis"):
            sc.sscor_two_stage(x)

    def test_subnormal_mad_standardizes_without_overflow(self):
        # MAD 2.2e-309 next to a 1: the plain quotient 4.5e308 overflows.
        a = [2.22507386e-309, 0.0, 1.0]
        x = np.column_stack([a, a])
        assert sc.sscor_two_stage(x).rho == 1.0
        assert sc.multivariate_matrix(x).matrix[0, 1] == 1.0

    def test_scaling_changes_no_bit(self, correlated_sample):
        x = correlated_sample[:200]
        rho = sc.sscor(x).rho
        for e in (-1000, -600, 600, 1000):
            assert sc.sscor(np.ldexp(x, e)).rho == rho

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), p=st.integers(2, 5),
           exponents=st.lists(st.integers(-900, 900), min_size=5, max_size=5))
    def test_column_and_joint_scalings_change_no_bit(self, seed, n, p, exponents):
        # t3 draws pushed 1/2 away from zero, so that every entry and every
        # MAD stays normal once scaled; standardization removes the exponents.
        rng = np.random.default_rng(seed)
        x = rng.standard_t(3, size=(n, p))
        x += np.copysign(0.5, x)
        base_pairwise = sc.pairwise_matrix(x).matrix
        base = sc.multivariate_matrix(x)
        for e in (np.array(exponents[:p]), exponents[0]):
            y = np.ldexp(x, e)
            if p == 2:
                assert sc.sscor_two_stage(y).rho == sc.sscor_two_stage(x).rho
            assert np.array_equal(sc.pairwise_matrix(y).matrix, base_pairwise)
            est = sc.multivariate_matrix(y)
            assert np.array_equal(est.matrix, base.matrix)
            assert np.array_equal(est.shape_estimate, base.shape_estimate)


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

    def test_level_error_names_a_plain_float(self):
        est = CorrelationEstimate(rho=0.0, method="two_stage", n=100)
        with pytest.raises(InvalidInputError, match=r"got 1\.5$"):
            sc.confidence_interval(est, np.float64(1.5))


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
        with pytest.raises(DegenerateScaleError, match="column 2: zero mad"):
            sc.pairwise_matrix(x)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 60),
        st.integers(2, 6),
        st.sampled_from(["t3", "rounded", "copy", "constant"]),
    )
    def test_entries_are_the_two_stage_estimate_bitwise(self, seed, n, p, kind):
        # All pairs go through one batched kernel; each entry must still be
        # exactly the two-stage estimate on its own pair, and a failing
        # estimate must fail like the first failing pair in row-major order.
        rng = np.random.default_rng(seed)
        x = rng.standard_t(3, size=(n, p))
        if kind == "rounded":  # ties and coinciding observations
            x = np.round(x)
        elif kind == "copy":
            x[:, -1] = x[:, 0]
        elif kind == "constant":
            x[: n // 2 + 1, -1] = 0.0
        pairs = list(zip(*np.triu_indices(p, k=1)))
        try:
            r = sc.pairwise_matrix(x).matrix
        except DegenerateScaleError as exc:
            j = int(str(exc).split(":")[0].removeprefix("column "))
            mads = [np.median(np.abs(c - np.median(c))) for c in x.T]
            assert mads[j] == 0.0 and all(m > 0.0 for m in mads[:j])
            return
        except SignCorrError as exc:
            for i, j in pairs:
                try:
                    sc.sscor_two_stage(x[:, [i, j]])
                except SignCorrError as pair_exc:
                    assert type(pair_exc) is type(exc)
                    if isinstance(exc, DegenerateDataError):
                        assert str(exc) == f"pair ({i}, {j}): {pair_exc}"
                    return
            raise AssertionError(f"pairwise raised {exc!r} where every pair succeeds")
        for i, j in pairs:
            assert r[i, j] == r[j, i] == sc.sscor_two_stage(x[:, [i, j]]).rho

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 60), st.permutations(range(5)))
    def test_column_permutation_permutes_the_matrix(self, seed, n, perm):
        # Bitwise where the permutation keeps the order of a pair. Where it
        # swaps the pair, the entry is read off v[1, 0] instead of v[0, 1]
        # of the rebuilt shape matrix (u * lam) @ u.T, whose products are
        # rounded in another order: a few units of 2**-53.
        x = np.random.default_rng(seed).standard_t(3, size=(n, 5))
        try:
            r = sc.pairwise_matrix(x).matrix
        except SignCorrError:
            return
        q = sc.pairwise_matrix(x[:, perm]).matrix
        for i, j in zip(*np.triu_indices(5, k=1)):
            expected = r[perm[i], perm[j]]
            if perm[i] < perm[j]:
                assert q[i, j] == expected
            else:
                assert abs(q[i, j] - expected) <= 1e-15

    @pytest.mark.parametrize("family, df, seed, rep", [
        ("laplace", None, 14323281278118823144, 27),
        ("t", 5.0, 1776680473139111193, 12),
    ])
    def test_stalling_pair_in_a_wider_matrix(self, family, df, seed, rep):
        # The samples of test_robust's minimizer-next-to-a-data-point test,
        # stacked with pairs that converge in a few steps.
        x = el.sample(el.spherical_model(family, 2, df), 100, el.replication_rng(seed, rep))
        noise = np.random.default_rng(0).normal(size=(100, 2))
        wide = np.column_stack([noise[:, 0], x[:, 0], noise[:, 1], x[:, 1]])
        r = sc.pairwise_matrix(wide).matrix
        assert r[1, 3] == sc.sscor_two_stage(x).rho

    def test_minimizer_at_a_data_point_of_exact_multiplicity(self):
        # The spatial median of pair (0, 1) is a data point whose sign sum
        # has norm exactly its multiplicity, which plain Weiszfeld approaches
        # only sublinearly: 10000 steps ended in a ConvergenceError.
        x = [[-1, -2, 0], [-2, -2, 1], [2, 2, -1], [1, 1, -1]]
        start = time.perf_counter()
        r = sc.pairwise_matrix(x).matrix
        assert time.perf_counter() - start < 1.0
        assert np.all(np.isfinite(r))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_column_fails_its_first_pair(self):
        # Every pair with column 2 collapses (see TestPowerOfTwoPrescale);
        # the error names the first of them in row-major order.
        other = np.random.default_rng(22).standard_t(3, size=(7, 3))
        x = np.column_stack([other[:, 0], other[:, 1], OVERFLOW_COLUMN, other[:, 2]])
        with pytest.raises(DegenerateDataError) as exc_info:
            sc.pairwise_matrix(x)
        with pytest.raises(DegenerateDataError) as pair_info:
            sc.sscor_two_stage(x[:, [0, 2]])
        assert str(exc_info.value) == f"pair (0, 2): {pair_info.value}"


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

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 60),
        st.integers(2, 6),
        st.sampled_from(["t3", "rounded", "copy", "constant"]),
        st.randoms(use_true_random=False),
    )
    def test_psd_and_permutation_equivariant(self, seed, n, p, kind, random):
        # Permuting the columns permutes the matrix, and a failing input
        # fails with the same exception class in any order. Not bitwise: the
        # permuted SSCM is eigendecomposed with other rounding, which moves
        # about a quarter of the entries by 1e-15 to 3e-15.
        rng = np.random.default_rng(seed)
        x = rng.standard_t(3, size=(n, p))
        if kind == "rounded":  # ties and coinciding observations
            x = np.round(x)
        elif kind == "copy":
            x[:, -1] = x[:, 0]
        elif kind == "constant":
            x[: n // 2 + 1, -1] = 0.0
        perm = list(range(p))
        random.shuffle(perm)
        outcomes = []
        for columns in (list(range(p)), perm):
            try:
                outcomes.append(sc.multivariate_matrix(x[:, columns]).matrix)
            except SignCorrError as exc:
                outcomes.append(type(exc))
        r, q = outcomes
        if isinstance(r, type):
            assert q is r
            return
        assert np.linalg.eigvalsh(r).min() >= -1e-12
        assert np.max(np.abs(q - r[np.ix_(perm, perm)])) <= 1e-14

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

    def test_shape_estimate_is_exactly_symmetric(self):
        for p in (3, 5, 10, 20, 50):
            for r in range(4):
                x = el.sample(el.spherical_model("t", p, 5.0), 100, el.replication_rng(15, r))
                est = sc.multivariate_matrix(x)
                assert np.array_equal(est.shape_estimate, est.shape_estimate.T), (p, r)
                assert np.array_equal(est.matrix, linalg.to_correlation(est.shape_estimate))


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

    def test_extreme_column_scale(self):
        # corrcoef on columns near 1e200 or 1e-200 overflows or underflows;
        # the estimate must still match the unscaled data, and a power-of-two
        # scale must leave it bitwise unchanged
        x = np.random.default_rng(8).normal(size=(50, 3))
        expected = sc.moment_matrix(x).matrix
        for scale in (1e200, 1e-200):
            r = sc.moment_matrix(x * [1.0, scale, 1.0]).matrix
            assert np.max(np.abs(r - expected)) <= 1e-14
        for e in (664, -664):
            r = sc.moment_matrix(np.ldexp(x, [0, e, 0])).matrix
            assert np.array_equal(r, expected)

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateScaleError, match="column 1"):
            sc.moment_matrix(np.column_stack([np.arange(4.0), np.full(4, 2.0)]))


class TestPublicCallChain:
    # The estimators equal, bitwise, the same pipeline written as a chain of
    # public calls, one sample and one pair at a time: per-column MAD,
    # spatial median, SSCM, eigendecomposition, inversion of the eigenvalue
    # map, rescaling. A change to one stage of the batched kernel alone
    # (its rescaling, say) breaks this equality.

    @staticmethod
    def shape_parts(x):
        z = x / np.array([robust.mad(x[:, j]) for j in range(x.shape[1])])
        est = sc.sscm(z, robust.spatial_median(z))
        w, u = linalg.sym_eigen(est.matrix)
        w = np.maximum(w, 0.0)
        return eigenmap.as_spectrum(w / w.sum(), kind="sign"), u

    def pairwise(self, x):
        p = x.shape[1]
        r = np.eye(p)
        for i in range(p):
            for j in range(i + 1, p):
                delta, u = self.shape_parts(x[:, [i, j]])
                v = (u * eigenmap.inverse_p2(delta)) @ u.T
                r[i, j] = r[j, i] = np.clip(v[0, 1] / np.sqrt(v[0, 0] * v[1, 1]), -1.0, 1.0)
        return r

    def multivariate(self, x):
        delta, u = self.shape_parts(x)
        v = (u * eigenmap.inverse_full(delta).spectrum) @ u.T
        return linalg.to_correlation(v)

    @pytest.mark.parametrize("p", [2, 3, 5, 10])
    @pytest.mark.parametrize("family,df", [("normal", None), ("t", 5.0), ("laplace", None)])
    def test_estimators_equal_the_chain(self, family, df, p):
        model = el.spherical_model(family, p, df)
        for r in range(3):
            x = el.sample(model, 100, el.replication_rng(16, r))
            assert np.array_equal(sc.pairwise_matrix(x).matrix, self.pairwise(x)), r
            assert np.array_equal(sc.multivariate_matrix(x).matrix, self.multivariate(x)), r

    def test_wide_sample_equals_the_chain(self):
        x = el.sample(el.spherical_model("t", 50, 5.0), 200, el.make_rng(17))
        assert np.array_equal(sc.pairwise_matrix(x).matrix, self.pairwise(x))
        assert np.array_equal(sc.multivariate_matrix(x).matrix, self.multivariate(x))
