"""Monte Carlo harness for estimator efficiency and eigenvalue scenarios.

An experiment draws spherical data repeatedly, applies the requested
correlation estimators and reports n times the empirical variance of one
off-diagonal entry. Each replication gets its own RNG stream derived from
(seed, replication index), so the result is byte-identical from run to
run. The harness samples the replications in chunks of at most
``correlation._STACK_ENTRIES`` entries; ``pairwise`` and ``multivariate``
fit each chunk as one stack in the shape kernel, whose rows are computed on
their own, so no value depends on the chunk. ``moment`` runs sample by
sample.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from . import correlation, eigenmap
from .elliptical import replication_rng, sample, spherical_model
from .exceptions import DegenerateDataError, InvalidInputError, SignCorrError

ESTIMATORS = ("moment", "pairwise", "multivariate")

FAMILY_TAGS = {
    "normal": ("normal", None),
    "t5": ("t", 5.0),
    "t10": ("t", 10.0),
    "laplace": ("laplace", None),
}

CSV_COLUMNS = (
    "family", "p", "n", "estimator",
    "scaled_variance", "mc_stderr", "reps", "reps_failed",
)


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    p: int
    n: int
    reps: int
    seed: int
    estimators: tuple = ESTIMATORS

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise InvalidInputError(
                f"unknown family {self.family!r}, expected one of {tuple(FAMILY_TAGS)}"
            )
        for name in ("p", "n", "reps", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
        if self.p < 2:
            raise InvalidInputError(f"p must be >= 2, got {self.p}")
        if self.n < 3:
            raise InvalidInputError(f"n must be >= 3, got {self.n}")
        if self.reps < 2:
            raise InvalidInputError(f"reps must be >= 2, got {self.reps}")
        est = tuple(self.estimators)
        unknown = [e for e in est if e not in ESTIMATORS]
        if unknown or not est:
            raise InvalidInputError(
                f"estimators must be a nonempty subset of {ESTIMATORS}, got {est}"
            )
        object.__setattr__(self, "estimators", est)


@dataclass(frozen=True)
class EstimatorStats:
    estimator: str
    scaled_variance: float
    mc_stderr: float
    reps_failed: int


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    stats: tuple = field(default_factory=tuple)


def _entries(name: str, x: np.ndarray) -> np.ndarray:
    """Entry (1,2) of estimator ``name`` on each sample of the stack ``x``
    (R, n, p); NaN where the estimator fails. ``pairwise`` and
    ``multivariate`` fit the whole stack at once; ``moment`` is called
    sample by sample through ``correlation.ESTIMATORS``."""
    if name == "pairwise":
        return correlation._pairwise_fits(x)[0][:, 0, 1]
    if name == "multivariate":
        return correlation._multivariate_fits(x)[0][:, 0, 1]
    out = np.empty(len(x))
    for i, sample_i in enumerate(x):
        try:
            out[i] = correlation.ESTIMATORS[name](sample_i).matrix[0, 1]
        except SignCorrError:
            out[i] = np.nan
    return out


def run_experiment(cfg: ExperimentConfig, *, threads: int = 1) -> ExperimentResult:
    """Run all replications and aggregate per-estimator scaled variances.

    Replication r draws its sample from ``replication_rng(seed, r)``; the
    samples are drawn and fitted in chunks of at most
    ``correlation._STACK_ENTRIES`` entries (replications times p times n).
    The standard error of the scaled variance comes from the empirical
    fourth moment of the replication values. Failed replications are
    counted, never silently dropped; an estimator with fewer than two
    successes fails the experiment. ``threads`` is accepted for
    compatibility; replications run in the calling thread.
    """
    family, df = FAMILY_TAGS[cfg.family]
    model = spherical_model(family, cfg.p, df)
    values = {name: np.empty(cfg.reps) for name in cfg.estimators}
    chunk = max(1, correlation._STACK_ENTRIES // (cfg.p * cfg.n))
    for lo in range(0, cfg.reps, chunk):
        x = np.stack([sample(model, cfg.n, replication_rng(cfg.seed, r))
                      for r in range(lo, min(lo + chunk, cfg.reps))])
        for name in cfg.estimators:
            values[name][lo:lo + len(x)] = _entries(name, x)
    stats = tuple(_estimator_stats(cfg, name, values[name]) for name in cfg.estimators)
    return ExperimentResult(config=cfg, stats=stats)


def _estimator_stats(cfg: ExperimentConfig, name: str, values: np.ndarray) -> EstimatorStats:
    """Scaled variance and its standard error from the replication values of
    one estimator, NaN where a replication failed."""
    ok = values[np.isfinite(values)]
    failed = cfg.reps - ok.size
    if ok.size < 2:
        raise DegenerateDataError(
            f"estimator {name!r}: {failed} of {cfg.reps} replications failed; "
            "variance undefined"
        )
    r = ok.size
    var = float(np.var(ok, ddof=1))
    centred = ok - ok.mean()
    m2 = float(np.mean(centred**2))
    m4 = float(np.mean(centred**4))
    var_of_var = max(m4 - (r - 3) / (r - 1) * m2 * m2, 0.0) / r
    return EstimatorStats(
        estimator=name,
        scaled_variance=cfg.n * var,
        mc_stderr=cfg.n * float(np.sqrt(var_of_var)),
        reps_failed=failed,
    )


@dataclass(frozen=True)
class EigenScenario:
    kind: str  # equidistant | spiked
    p: int
    spectrum: np.ndarray


def eigen_scenario(kind: str, p: int) -> EigenScenario:
    """Shape spectra used in the eigenvalue comparison figures.

    equidistant: values proportional to 1, 2, ..., p.
    spiked: p-1 equidistant values plus one value 5 times the largest of
    the rest (dependence driven mainly by one principal component). Both
    are normalized to sum one.
    """
    if p < 2:
        raise InvalidInputError(f"p must be >= 2, got {p}")
    if kind == "equidistant":
        values = 2.0 * np.arange(1, p + 1) / (p * (p + 1))
    elif kind == "spiked":
        weights = np.append(np.arange(1, p, dtype=float), 5.0 * (p - 1))
        values = weights / weights.sum()
    else:
        raise InvalidInputError(f"unknown scenario kind {kind!r}")
    return EigenScenario(kind=kind, p=p, spectrum=eigenmap.as_spectrum(values))


def figure_table(kind: str, p: int) -> list:
    """Rows (index, shape eigenvalue, sign eigenvalue) for plotting."""
    scenario = eigen_scenario(kind, p)
    delta = eigenmap.forward(scenario.spectrum)
    return [
        (i + 1, float(scenario.spectrum[i]), float(delta[i]))
        for i in range(p)
    ]


def csv_row(values) -> str:
    """One CSV line: floats in 17 significant digits, which round-trip, the rest as str."""
    return ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in values) + "\n"


def result_to_csv(result: ExperimentResult) -> str:
    """Experiment result as CSV, one row per estimator, 17-digit floats."""
    cfg = result.config
    return csv_row(CSV_COLUMNS) + "".join(
        csv_row((cfg.family, cfg.p, cfg.n, s.estimator,
                 s.scaled_variance, s.mc_stderr, cfg.reps, s.reps_failed))
        for s in result.stats
    )


def figure_to_csv(rows) -> str:
    return csv_row(("index", "lambda", "delta")) + "".join(
        csv_row((idx, float(lam), float(delta))) for idx, lam, delta in rows
    )


def format_table(result: ExperimentResult) -> str:
    """Human-readable summary of an experiment result."""
    cfg = result.config
    lines = [
        f"family={cfg.family}  p={cfg.p}  n={cfg.n}  reps={cfg.reps}  seed={cfg.seed}",
        f"{'estimator':<14}{'n*variance':>12}{'stderr':>10}{'failed':>8}",
    ]
    for s in result.stats:
        lines.append(
            f"{s.estimator:<14}{s.scaled_variance:>12.4f}"
            f"{s.mc_stderr:>10.4f}{s.reps_failed:>8d}"
        )
    return "\n".join(lines)
