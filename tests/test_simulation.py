import numpy as np
import pytest

from signcorr import correlation
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
