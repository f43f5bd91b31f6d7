import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signcorr import correlation
from signcorr import elliptical as el
from signcorr import simulation as sim
from signcorr.exceptions import DegenerateDataError, InvalidInputError, SignCorrError


class TestConfigValidation:
    def test_rejects_single_rep(self):
        with pytest.raises(InvalidInputError):
            sim.ExperimentConfig(family="normal", p=2, n=100, reps=1, seed=0)

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidInputError):
            sim.ExperimentConfig(family="cauchy", p=2, n=100, reps=10, seed=0)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(InvalidInputError):
            sim.ExperimentConfig(
                family="normal", p=2, n=100, reps=10, seed=0, estimators=("tyler",)
            )

    def test_rejects_small_dimension_and_sample(self):
        with pytest.raises(InvalidInputError):
            sim.ExperimentConfig(family="normal", p=1, n=100, reps=10, seed=0)
        with pytest.raises(InvalidInputError):
            sim.ExperimentConfig(family="normal", p=2, n=2, reps=10, seed=0)

    @pytest.mark.parametrize("field,value", [
        ("p", 2.0), ("n", 30.0), ("reps", 10.0), ("seed", 1.5), ("seed", "3"), ("n", None),
    ])
    def test_rejects_non_integer_fields(self, field, value):
        fields = dict(family="normal", p=2, n=30, reps=10, seed=0)
        fields[field] = value
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            sim.ExperimentConfig(**fields)

    def test_accepts_numpy_integers(self):
        cfg = sim.ExperimentConfig(family="normal", p=np.int64(2), n=np.int32(30),
                                   reps=np.uint8(10), seed=np.int64(-1))
        assert cfg == sim.ExperimentConfig(family="normal", p=2, n=30, reps=10, seed=-1)
        assert all(type(getattr(cfg, f)) is int for f in ("p", "n", "reps", "seed"))


class TestRunExperiment:
    def test_reproducible_bitwise(self):
        cfg = sim.ExperimentConfig(family="t10", p=2, n=30, reps=50, seed=7)
        a = sim.run_experiment(cfg)
        b = sim.run_experiment(cfg)
        assert a == b

    def test_thread_count_does_not_change_result(self):
        cfg = sim.ExperimentConfig(family="laplace", p=3, n=30, reps=40, seed=8)
        serial = sim.run_experiment(cfg, threads=1)
        pooled = sim.run_experiment(cfg, threads=4)
        assert serial == pooled

    def test_failures_counted(self, monkeypatch):
        calls = {"i": 0}
        real = correlation.ESTIMATORS["moment"]

        def flaky(x):
            calls["i"] += 1
            if calls["i"] <= 3:
                raise DegenerateDataError("synthetic failure")
            return real(x)

        monkeypatch.setitem(correlation.ESTIMATORS, "moment", flaky)
        cfg = sim.ExperimentConfig(
            family="normal", p=2, n=20, reps=10, seed=9, estimators=("moment",)
        )
        result = sim.run_experiment(cfg)
        assert result.stats[0].reps_failed == 3

    def test_all_failures_raise(self, monkeypatch):
        def broken(x):
            raise DegenerateDataError("synthetic failure")

        monkeypatch.setitem(correlation.ESTIMATORS, "moment", broken)
        cfg = sim.ExperimentConfig(
            family="normal", p=2, n=20, reps=5, seed=10, estimators=("moment",)
        )
        with pytest.raises(SignCorrError):
            sim.run_experiment(cfg)

    def test_stats_shape(self):
        cfg = sim.ExperimentConfig(family="normal", p=2, n=50, reps=30, seed=11)
        result = sim.run_experiment(cfg)
        assert tuple(s.estimator for s in result.stats) == sim.ESTIMATORS
        for s in result.stats:
            assert s.scaled_variance >= 0.0
            assert s.mc_stderr >= 0.0
            assert s.reps_failed == 0


class TestEigenScenarios:
    def test_equidistant_p3(self):
        s = sim.eigen_scenario("equidistant", 3)
        assert np.allclose(s.spectrum, [0.5, 1.0 / 3.0, 1.0 / 6.0], atol=1e-15)

    def test_spiked_ratio(self):
        for p in (3, 7, 11):
            s = sim.eigen_scenario("spiked", p)
            assert s.spectrum[0] / s.spectrum[1] == pytest.approx(5.0, rel=1e-12)

    def test_spectra_sum_to_one(self):
        for kind in ("equidistant", "spiked"):
            for p in (2, 5, 31, 101):
                s = sim.eigen_scenario(kind, p)
                assert abs(s.spectrum.sum() - 1.0) <= 1e-12

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            sim.eigen_scenario("flat", 3)


class TestFigureTable:
    def test_equidistant_p3_rows(self):
        rows = sim.figure_table("equidistant", 3)
        assert [r[0] for r in rows] == [1, 2, 3]
        assert np.allclose([r[1] for r in rows], [0.5, 1.0 / 3.0, 1.0 / 6.0])

    def test_delta_ordering_matches_lambda(self):
        for kind in ("equidistant", "spiked"):
            rows = sim.figure_table(kind, 9)
            deltas = [r[2] for r in rows]
            assert all(deltas[i] >= deltas[i + 1] for i in range(len(deltas) - 1))

    def test_spiked_ratio_contracts(self):
        rows = sim.figure_table("spiked", 11)
        lam1, lam2 = rows[0][1], rows[1][1]
        d1, d2 = rows[0][2], rows[1][2]
        assert d1 / d2 <= lam1 / lam2


class TestCsvOutput:
    def test_csv_layout(self):
        cfg = sim.ExperimentConfig(
            family="normal", p=2, n=30, reps=20, seed=3, estimators=("moment",)
        )
        text = sim.result_to_csv(sim.run_experiment(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(sim.CSV_COLUMNS)
        fields = lines[1].split(",")
        assert fields[:4] == ["normal", "2", "30", "moment"]
        assert float(fields[4]) >= 0.0
        assert fields[6:] == ["20", "0"]

    def test_floats_round_trip(self):
        cfg = sim.ExperimentConfig(
            family="normal", p=2, n=30, reps=20, seed=3, estimators=("moment",)
        )
        result = sim.run_experiment(cfg)
        text = sim.result_to_csv(result)
        value = float(text.strip().split("\n")[1].split(",")[4])
        assert value == result.stats[0].scaled_variance

    def test_figure_csv(self):
        text = sim.figure_to_csv(sim.figure_table("equidistant", 3))
        lines = text.strip().split("\n")
        assert lines[0] == "index,lambda,delta"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == 0.5

    def test_pretty_table_mentions_all_estimators(self):
        cfg = sim.ExperimentConfig(family="normal", p=2, n=30, reps=20, seed=3)
        out = sim.format_table(sim.run_experiment(cfg))
        for name in sim.ESTIMATORS:
            assert name in out


def test_generator_free_pairwise_variance():
    # the scaled variance of a pairwise entry is about 2 for every family
    for family in ("normal", "t10", "t5", "laplace"):
        cfg = sim.ExperimentConfig(
            family=family, p=2, n=100, reps=10_000, seed=17,
            estimators=("pairwise",),
        )
        value = sim.run_experiment(cfg, threads=4).stats[0].scaled_variance
        assert 1.8 <= value <= 2.2, (family, value)


# --- stacked replications against one public call per sample -------------


def reference_values(cfg, sampler=el.sample):
    """Entry (1,2) per estimator and replication, from one public estimator
    call per sample (NaN where it raises), and the stats they aggregate to
    (or the error of the first estimator with fewer than two successes)."""
    family, df = sim.FAMILY_TAGS[cfg.family]
    model = el.spherical_model(family, cfg.p, df)
    values = {name: [] for name in cfg.estimators}
    for r in range(cfg.reps):
        x = sampler(model, cfg.n, el.replication_rng(cfg.seed, r))
        for name in cfg.estimators:
            try:
                values[name].append(float(correlation.ESTIMATORS[name](x).matrix[0, 1]))
            except SignCorrError:
                values[name].append(np.nan)
    return {name: np.array(v) for name, v in values.items()}


def outcome(fn, *args):
    """The stats ``fn`` returns, or the class and message of its SignCorrError."""
    try:
        return fn(*args)
    except SignCorrError as exc:
        return type(exc), str(exc)


def reference_stats(cfg, values):
    return tuple(sim._estimator_stats(cfg, name, values[name]) for name in cfg.estimators)


def experiment_stats(cfg):
    return sim.run_experiment(cfg).stats


def chunk_entries(cfg, reps_per_chunk):
    """A ``_STACK_ENTRIES`` that samples ``reps_per_chunk`` replications per chunk."""
    return reps_per_chunk * cfg.p * cfg.n


def assert_stacking_changes_no_bit(cfg, sampler=el.sample):
    expected = outcome(reference_stats, cfg, reference_values(cfg, sampler))
    assert outcome(experiment_stats, cfg) == expected
    for reps_per_chunk in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlation, "_STACK_ENTRIES", chunk_entries(cfg, reps_per_chunk))
            assert outcome(experiment_stats, cfg) == expected, reps_per_chunk
    return expected


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(tuple(sim.FAMILY_TAGS)),
    p=st.integers(2, 5),
    n=st.integers(3, 40),
    reps=st.integers(2, 30),
    seed=st.integers(0, 2**64 - 1),
)
def test_stacked_replications_equal_one_call_per_sample(family, p, n, reps, seed):
    # Chunks of one and of three replications also stack the pairs of a
    # single sample in kernel calls of one and of a few pairs.
    cfg = sim.ExperimentConfig(family=family, p=p, n=n, reps=reps, seed=seed)
    assert_stacking_changes_no_bit(cfg)


def spoiling(faults):
    """A sampler that spoils the replications named in ``faults``.

    ``tie`` makes more than half of column 1 equal (a zero MAD), ``inf``
    puts an infinite entry in, and ``axis`` adds an outlier 1e296 along
    the last axis, which collapses the sign covariance of every pair with
    that column while pair (0, 1) stays fine.
    """
    def sampler(model, n, rng):
        index = rng.bit_generator.seed_seq.entropy[1]
        x = el.sample(model, n, rng)
        fault = faults.get(index)
        if fault == "tie":
            x[: n // 2 + 1, 1] = 0.25
        elif fault == "inf":
            x[n - 1, 0] = np.inf
        elif fault == "axis":
            x[0, -1] = -1e296
        return x
    return sampler


@pytest.mark.parametrize("family", ["normal", "laplace"])
def test_failing_rows_inside_a_stack(family, monkeypatch):
    faults = {0: "tie", 3: "axis", 4: "inf", 5: "tie", 9: "axis", 10: "axis"}
    sampler = spoiling(faults)
    monkeypatch.setattr(sim, "sample", sampler)
    cfg = sim.ExperimentConfig(family=family, p=4, n=15, reps=12, seed=5)
    expected = assert_stacking_changes_no_bit(cfg, sampler)
    failed = {s.estimator: s.reps_failed for s in expected}
    assert failed["pairwise"] == len(faults)
    assert failed["moment"] == 1  # only the infinite entry


@pytest.mark.parametrize("family,p,failing", [("normal", 3, 2), ("t5", 12, 1), ("laplace", 12, 1)])
def test_real_failures_counted_as_one_call_per_sample(family, p, failing):
    # At n=4 a few spatial medians of these samples do not converge.
    cfg = sim.ExperimentConfig(family=family, p=p, n=4, reps=200, seed=3,
                               estimators=("pairwise",))
    result = sim.run_experiment(cfg)
    assert result.stats == reference_stats(cfg, reference_values(cfg))
    assert result.stats[0].reps_failed == failing
