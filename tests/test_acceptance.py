"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for a pass/fail line per
criterion (add ``-s`` to see the summary prints).
"""

import numpy as np
import pytest

import signcorr as sc
from signcorr import eigenmap as em
from signcorr import elliptical as el
from signcorr import simulation as sim
from signcorr.cli import main
from signcorr.robust import spatial_median

RNG_SEED = 20260811


def random_spectrum(rng, p, min_value=0.0):
    while True:
        v = rng.uniform(0.0, 1.0, p)
        v /= v.sum()
        if v.min() >= min_value:
            return np.sort(v)[::-1]


@pytest.fixture(scope="module")
def round_trip_bank():
    """Criterion 2 workload, shared with criterion 3: spectra, their images
    and their reconstructions for 200 random spectra per p in 2..12."""
    rng = np.random.default_rng(RNG_SEED)
    bank = []
    for p in range(2, 13):
        for _ in range(200):
            lam = random_spectrum(rng, p, min_value=1e-4)
            delta = em.forward(lam)
            result = em.inverse_full(delta)
            bank.append((lam, delta, result))
    return bank


@pytest.fixture(scope="module")
def table_runs():
    """Criterion 5 experiments: reps=2000, n=100, fixed seed."""
    out = {}

    def run(family, p, estimators):
        cfg = sim.ExperimentConfig(
            family=family, p=p, n=100, reps=2000, seed=1, estimators=estimators
        )
        for s in sim.run_experiment(cfg, threads=2).stats:
            out[(family, p, s.estimator)] = (s.scaled_variance, s.mc_stderr, s.reps_failed)

    run("normal", 2, ("moment", "pairwise", "multivariate"))
    run("normal", 3, ("multivariate",))
    run("normal", 5, ("multivariate",))
    run("normal", 10, ("multivariate",))
    run("t5", 2, ("moment", "pairwise"))
    run("laplace", 2, ("pairwise",))
    return out


def test_c01_forward_agrees_with_closed_form():
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for _ in range(1000):
        lam = random_spectrum(rng, 2)
        worst = max(worst, float(np.max(np.abs(em.forward(lam) - em.forward_p2(lam)))))
    assert worst <= 1e-10
    print(f"\nCRITERION 1 PASS: forward vs closed form, worst gap {worst:.2e} <= 1e-10")


def test_c02_round_trip_inversion(round_trip_bank):
    worst_gap, worst_iters = 0.0, 0
    for lam, _, result in round_trip_bank:
        worst_gap = max(worst_gap, float(np.max(np.abs(result.spectrum - lam))))
        worst_iters = max(worst_iters, result.iterations)
    assert worst_gap <= 1e-8
    assert worst_iters <= 500
    print(
        f"\nCRITERION 2 PASS: round trip worst {worst_gap:.2e} <= 1e-8, "
        f"max iterations {worst_iters} <= 500"
    )


def test_c02_relative_accuracy_in_few_steps(round_trip_bank):
    # Newton steps converge quadratically; a silent fall back to the linear
    # fixed point would take 15-33 steps and leave errors near 1e-10.
    worst_gap, worst_iters = 0.0, 0
    for lam, _, result in round_trip_bank:
        worst_gap = max(worst_gap, float(np.max(np.abs(result.spectrum - lam) / lam)))
        worst_iters = max(worst_iters, result.iterations)
    assert worst_gap <= 1e-12
    assert worst_iters <= 12
    print(
        f"\nCRITERION 2 (relative) PASS: round trip worst {worst_gap:.2e} <= 1e-12, "
        f"max iterations {worst_iters} <= 12"
    )


def test_c03_ratio_inequality(round_trip_bank):
    worst = np.inf
    for lam, delta, _ in round_trip_bank:
        p = lam.size
        for i in range(p):
            for j in range(i + 1, p):
                slack = lam[i] / lam[j] - delta[i] / delta[j]
                worst = min(worst, float(slack))
                assert slack >= -1e-12
    print(f"\nCRITERION 3 PASS: ratio inequality, minimum slack {worst:.2e} >= -1e-12")


def test_c04_equidistant_high_dimension():
    scenario = sim.eigen_scenario("equidistant", 101)
    gap = float(np.max(np.abs(em.forward(scenario.spectrum) - scenario.spectrum)))
    assert 1e-4 <= gap <= 4e-4
    print(f"\nCRITERION 4 PASS: p=101 equidistant max gap {gap:.2e} in [1e-4, 4e-4]")


def test_c05_variance_table_desk_scale(table_runs):
    targets = {
        ("normal", 2, "moment"): 1.0,
        ("normal", 2, "pairwise"): 1.9,
        ("normal", 2, "multivariate"): 1.9,
        ("normal", 3, "multivariate"): 1.6,
        ("normal", 5, "multivariate"): 1.4,
        ("normal", 10, "multivariate"): 1.2,
        ("t5", 2, "moment"): 2.05,  # reference range 2.0 - 2.1
        ("t5", 2, "pairwise"): 2.0,
        ("laplace", 2, "pairwise"): 1.95,  # reference range 1.9 - 2.0
    }
    lines = []
    for key, target in targets.items():
        value, stderr, failed = table_runs[key]
        assert abs(value - target) <= 0.2, (key, value, target)
        lines.append(f"  {key}: {value:.3f} (target {target} +- 0.2, failed {failed})")

    # efficiency of the multivariate estimator must not degrade with p
    trend = [table_runs[("normal", p, "multivariate")] for p in (2, 3, 5, 10)]
    for (v_lo, se_lo, _), (v_hi, se_hi, _) in zip(trend[1:], trend):
        assert v_lo <= v_hi + 2.0 * float(np.hypot(se_lo, se_hi))
    print("\nCRITERION 5 PASS: scaled variances within +-0.2 of reference\n"
          + "\n".join(lines))


def test_c06_sscm_consistency_oracle():
    model = el.EllipticalModel("normal", [0.0, 0.0], np.diag([0.8, 0.2]))
    x = el.sample(model, 50_000, el.make_rng(RNG_SEED + 6))
    eig = np.sort(np.linalg.eigvalsh(sc.sscm_auto(x).matrix))[::-1]
    target = em.forward_p2([0.8, 0.2])
    gap = float(np.max(np.abs(eig - target)))
    assert gap <= 0.01
    assert np.allclose(target, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    print(f"\nCRITERION 6 PASS: SSCM eigenvalues within {gap:.4f} <= 0.01 of (2/3, 1/3)")


def test_c07_spatial_median_contract():
    rng = np.random.default_rng(RNG_SEED + 7)
    worst_resid, worst_equiv = 0.0, 0.0
    data_point_cases = 0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        p = int(rng.integers(2, 6))
        x = rng.standard_t(4, size=(n, p))
        mu = spatial_median(x)

        d = np.linalg.norm(x - mu, axis=1)
        at = d == 0.0
        signs = np.zeros_like(x)
        signs[~at] = (x[~at] - mu) / d[~at, None]
        r = float(np.linalg.norm(signs.sum(axis=0)))
        if at.any():
            data_point_cases += 1
            assert r <= at.sum()
        else:
            resid = r / n
            worst_resid = max(worst_resid, resid)
            assert resid <= 1e-9

        q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        gap = float(np.max(np.abs(spatial_median(x @ q.T) - q @ mu)))
        worst_equiv = max(worst_equiv, gap)
        assert gap <= 1e-7
    print(
        f"\nCRITERION 7 PASS: residual worst {worst_resid:.2e} <= 1e-9 "
        f"({data_point_cases} data-point cases), equivariance worst {worst_equiv:.2e} <= 1e-7"
    )


def test_c08_two_stage_scale_invariance():
    rng = np.random.default_rng(RNG_SEED + 8)
    x = rng.normal(size=(80, 2)) @ np.linalg.cholesky([[1.0, 0.4], [0.4, 1.0]]).T
    base = sc.sscor_two_stage(x).rho
    worst = 0.0
    for s1 in (1e-3, 1.0, 1e3):
        for s2 in (1e-3, 1.0, 1e3):
            value = sc.sscor_two_stage(x * np.array([s1, s2])).rho
            worst = max(worst, abs(value - base))
    assert worst <= 1e-12
    print(f"\nCRITERION 8 PASS: two-stage rescaling drift {worst:.2e} <= 1e-12")


def test_c09_confidence_interval_coverage():
    model = el.EllipticalModel("normal", [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    hits = 0
    reps = 5000
    for r in range(reps):
        x = el.sample(model, 50, el.replication_rng(2026, r))
        ci = sc.confidence_interval(sc.sscor_two_stage(x), 0.95)
        hits += ci.lower <= 0.5 <= ci.upper
    coverage = hits / reps
    assert 0.91 <= coverage <= 0.97
    print(f"\nCRITERION 9 PASS: 95% CI coverage {coverage:.4f} in [0.91, 0.97]")


def test_c10_psd_contrast():
    rng = np.random.default_rng(RNG_SEED + 10)
    families = (("normal", None), ("t", 5.0), ("t", 10.0), ("laplace", None))
    worst = 0.0
    for k in range(500):
        family, df = families[k % len(families)]
        p = int(rng.integers(2, 9))
        n = int(rng.integers(20, 120))
        x = el.sample(el.spherical_model(family, p, df), n, el.make_rng(int(rng.integers(1 << 32))))
        r = sc.multivariate_matrix(x)
        low = float(np.linalg.eigvalsh(r.matrix).min())
        worst = min(worst, low) if k else low
        assert low >= -1e-10

    # the pairwise construction carries no PSD guarantee: exhibit a failure
    adversarial = el.sample(el.spherical_model("t", 3, 5.0), 8, el.make_rng(11))
    pw = sc.pairwise_matrix(adversarial)
    pw_low = float(np.linalg.eigvalsh(pw.matrix).min())
    assert pw_low < -1e-6
    print(
        f"\nCRITERION 10 PASS: 500 multivariate estimates PSD (worst eigenvalue "
        f"{worst:.2e} >= -1e-10); adversarial pairwise eigenvalue {pw_low:.2e} < -1e-6"
    )


def test_c11_simulation_determinism(capsys):
    args = ["simulate", "--dist", "t10", "--p", "3", "--n", "50",
            "--reps", "200", "--seed", "99"]
    outputs = []
    for threads in ("1", "1", "4"):
        assert main(args + ["--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
    with capsys.disabled():
        print("\nCRITERION 11 PASS: simulate CSV byte-identical across runs "
              "and thread counts {1, 4}")
