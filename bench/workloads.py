"""Untraced workloads: time the public entry points and check their outputs.

Each workload returns a list of ``Measured`` values. Those with a ``key``
are the end-to-end metrics of the result line; the others are printed in
the report only.
"""

import contextlib
import io
import json
import os
import statistics
import time
from collections import Counter, namedtuple

import numpy as np

from signcorr import cli, correlation, eigenmap, elliptical, simulation
from signcorr.exceptions import SignCorrError

N_OBS = 100
TABLE_REPS = 50
# The six acceptance criterion c05 configurations, in the suite's order.
TABLE = (
    ("normal", 2, ("moment", "pairwise", "multivariate")),
    ("normal", 3, ("multivariate",)),
    ("normal", 5, ("multivariate",)),
    ("normal", 10, ("multivariate",)),
    ("t5", 2, ("moment", "pairwise")),
    ("laplace", 2, ("pairwise",)),
)
PUBLIC = {
    "moment": correlation.moment_matrix,
    "pairwise": correlation.pairwise_matrix,
    "multivariate": correlation.multivariate_matrix,
}
HEAVY_CONFIG = TABLE[1]  # inverse_full does most of its work
LIGHT_CONFIG = TABLE[5]  # robust.spatial_median does most of its work
C05_REFERENCE = {
    ("normal", 2, "moment"): 1.0,
    ("normal", 2, "pairwise"): 1.9,
    ("normal", 2, "multivariate"): 1.9,
    ("normal", 3, "multivariate"): 1.6,
    ("normal", 5, "multivariate"): 1.4,
    ("normal", 10, "multivariate"): 1.2,
    ("t5", 2, "moment"): 2.05,
    ("t5", 2, "pairwise"): 2.0,
    ("laplace", 2, "pairwise"): 1.95,
}
# c05 accepts +-0.2 around the reference at 2000 replications; the pooled
# passes of one run get that plus four of their own Monte Carlo stderrs.
C05_TOLERANCE = 0.2
C05_STDERRS = 4.0

WIDE_P = 50
WIDE_N = 1000
WIDE_DF = 5.0
MULTIVARIATE_PER_PAIRWISE = 10
CHECKED_PAIRS = 8
PSD_TOL = -1e-10

BANK_DIMS = range(2, 13)
BANK_PER_DIM = 10
# The c02 regime. p=3 spectra whose smallest eigenvalue lies in
# [1e-11, 1e-9] make ``forward`` raise QuadratureError after about 8 s; one
# of them would dominate every run, so the bank keeps clear of them.
BANK_MIN_EIGENVALUE = 1e-4
FIGURE_P = 101
ROUND_TRIP_TOL = 1e-8  # c02
CLOSED_FORM_TOL = 1e-10  # c01
EQUIDISTANT_GAP = (1e-4, 4e-4)  # c04

Measured = namedtuple("Measured", "key label value unit samples")


class Tally:
    """Operations attempted, and failures counted by cause.

    An operation fails when it raises or exits nonzero (``error``) or when
    its output fails a correctness check (``check``); only the second kind
    makes the run's outputs incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.wrong = 0

    @property
    def failed(self):
        return sum(self.failures.values())

    def check(self, ok, cause):
        self.attempted += 1
        if not ok:
            self.failures[cause] += 1
            self.wrong += 1
        return ok

    def error(self, cause, ops=1):
        self.attempted += ops
        self.failures[cause] += ops


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def attempt(tally, fn, *args, **kwargs):
    """(result, seconds) of one operation; the result is None if it raised.

    A failed operation is timed too: its caller waited for it.
    """
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a failing operation is counted, not fatal
        tally.error(type(exc).__name__)
        out = None
    return out, time.perf_counter() - t0


WARM_UP = 2**32  # pass index of the untimed warm-up inputs


def pass_seed(seed, index):
    """Seed of pass ``index`` of a run; the same run seed gives the same passes."""
    ss = np.random.SeedSequence([seed, index])
    return int(ss.generate_state(1, np.uint64)[0])


def until(seconds):
    """Pass indices 0, 1, ... until ``seconds`` have elapsed (at least one)."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        yield index
        index += 1


def table_config(entry, reps, seed):
    family, p, estimators = entry
    return simulation.ExperimentConfig(
        family=family, p=p, n=N_OBS, reps=reps, seed=seed, estimators=estimators
    )


def random_spectrum(rng, p):
    while True:
        v = rng.uniform(0.0, 1.0, p)
        v /= v.sum()
        if v.min() >= BANK_MIN_EIGENVALUE:
            return np.sort(v)[::-1]


def spectrum_bank(seed, index):
    rng = np.random.default_rng([seed, index])
    return [random_spectrum(rng, p) for _ in range(BANK_PER_DIM) for p in BANK_DIMS]


def ms(seconds):
    return 1e3 * seconds


# --- inputs --------------------------------------------------------------


def prepare(workload, seed, workdir):
    """Generate the inputs of ``workload``; this is the timed set-up work."""
    if workload == "estimate-wide":
        idx = np.arange(WIDE_P)
        shape = 0.5 ** np.abs(np.subtract.outer(idx, idx))
        model = elliptical.EllipticalModel("t", np.zeros(WIDE_P), shape, df=WIDE_DF)
        data = elliptical.sample(model, WIDE_N, elliptical.make_rng(seed))
        path = os.path.join(workdir, "wide.csv")
        header = ",".join(f"x{j + 1}" for j in range(WIDE_P))
        # 17 significant digits round-trip exactly, so the CLI reads ``data``.
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
        return data, path
    if workload == "eigenmap-roundtrip":
        return [simulation.eigen_scenario(kind, FIGURE_P) for kind in ("equidistant", "spiked")]
    return None  # run_experiment draws its own samples from the pass seed


# --- simulate-table ------------------------------------------------------


def spherical_model(family, p):
    name, df = simulation.FAMILY_TAGS[family]
    return elliptical.spherical_model(name, p, df)


def replay(cfg):
    """The replications of ``cfg`` through the public estimators, without the harness.

    Returns entry (1, 2) per estimator and replication (NaN where the
    estimator raised) and the exception classes counted. ``run_experiment``
    records only how many replications failed; the replay names the cause.
    """
    model = spherical_model(cfg.family, cfg.p)
    values = {e: [] for e in cfg.estimators}
    causes = Counter()
    for r in range(cfg.reps):
        x = elliptical.sample(model, cfg.n, elliptical.replication_rng(cfg.seed, r))
        for e in cfg.estimators:
            try:
                values[e].append(float(PUBLIC[e](x).matrix[0, 1]))
            except SignCorrError as exc:
                values[e].append(np.nan)
                causes[f"{type(exc).__name__} in {cfg.family} p={cfg.p} {e}"] += 1
    return values, causes


def simulate_table(inputs, seed, seconds, tally):
    for entry in TABLE:  # first-call costs stay out of the timing
        simulation.run_experiment(table_config(entry, 2, seed))
    per_rep = {entry: [] for entry in TABLE}
    pooled = {}
    busy, reps_done = 0.0, 0
    for index in until(seconds):
        for entry in TABLE:
            cfg = table_config(entry, TABLE_REPS, pass_seed(seed, index))
            result, dt = attempt(tally, simulation.run_experiment, cfg, threads=1)
            busy += dt
            reps_done += TABLE_REPS
            per_rep[entry].append(dt / TABLE_REPS)
            if result is None:
                continue
            failed = sum(s.reps_failed for s in result.stats)
            if failed:
                causes = replay(cfg)[1]
                causes["replication NaN, cause not replayed"] = failed - causes.total()
                for cause, count in (+causes).items():
                    tally.error(cause, count)
            for s in result.stats:
                # One operation per replication and estimator.
                tally.attempted += TABLE_REPS - s.reps_failed
                if tally.check(np.isfinite(s.scaled_variance) and np.isfinite(s.mc_stderr),
                               "scaled variance not finite"):
                    key = (cfg.family, cfg.p, s.estimator)
                    pooled.setdefault(key, []).append((s.scaled_variance, s.mc_stderr))
    report = []
    for key, target in C05_REFERENCE.items():
        runs = pooled.get(key)
        if not runs:
            continue  # its failures are already counted
        value = float(np.mean([v for v, _ in runs]))
        stderr = float(np.sqrt(sum(se * se for _, se in runs))) / len(runs)
        margin = C05_TOLERANCE + C05_STDERRS * stderr
        tally.check(abs(value - target) <= margin, f"c05 {key} off its reference")
        report.append(Measured(None, f"c05 {key[0]} p={key[1]} {key[2]} scaled variance",
                               value, f"(ref {target} +- {margin:.3f})", len(runs) * TABLE_REPS))
    for entry in TABLE:
        family, p, estimators = entry
        report.append(Measured(None, f"simulate.{family}_p{p}_{'+'.join(estimators)}_ms_per_rep",
                               ms(statistics.median(per_rep[entry])), "ms", len(per_rep[entry])))
    return [
        Measured("ops_per_s", "simulate.reps_per_s", reps_done / busy, "1/s", reps_done),
        Measured("heavy_op_ms", "simulate.normal_p3_ms_per_rep",
                 ms(statistics.median(per_rep[HEAVY_CONFIG])), "ms", len(per_rep[HEAVY_CONFIG])),
        Measured("light_op_ms", "simulate.laplace_p2_ms_per_rep",
                 ms(statistics.median(per_rep[LIGHT_CONFIG])), "ms", len(per_rep[LIGHT_CONFIG])),
    ] + report


# --- estimate-wide -------------------------------------------------------


def checked_pairs(data, seed):
    """Expected ``sscor_two_stage`` value of a few pairs chosen by the seed."""
    rng = np.random.default_rng([seed, 1])
    pairs = set()
    while len(pairs) < CHECKED_PAIRS:
        i, j = sorted(rng.choice(WIDE_P, 2, replace=False).tolist())
        pairs.add((i, j))
    return {(i, j): correlation.sscor_two_stage(data[:, [i, j]]).rho for i, j in sorted(pairs)}


def estimate(method, path):
    """``estimate`` through ``cli.main`` in-process: (exit code, report text).

    The report goes to a string, not to ``--output``: writing the file
    takes longer, and varies more, than the whole estimate.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["estimate", "--method", method, "--input", path, "--format", "json"])
    return code, out.getvalue()


def estimate_fault(method, text, expected_pairs):
    """Why the report of an ``estimate`` call is wrong, or None if it is right."""
    m = np.array(json.loads(text)["correlation"])
    if m.shape != (WIDE_P, WIDE_P) or not np.array_equal(m, m.T) or np.any(np.diag(m) != 1.0):
        return f"{method}: not symmetric with unit diagonal"
    if method == "multivariate" and np.linalg.eigvalsh(m).min() < PSD_TOL:
        return "multivariate: not positive semi-definite"
    if method == "pairwise" and any(m[ij] != rho for ij, rho in expected_pairs.items()):
        return "pairwise: entry differs from sscor_two_stage on its pair"
    return None


def estimate_wide(inputs, seed, seconds, tally):
    data, path = inputs
    expected_pairs = checked_pairs(data, seed)
    methods = ("pairwise", "multivariate")
    for method in methods:  # first-call costs stay out of the timing
        estimate(method, path)
    times = {m: [] for m in methods}
    for _ in until(seconds):
        for method in ["pairwise"] + ["multivariate"] * MULTIVARIATE_PER_PAIRWISE:
            (code, text), dt = timed(estimate, method, path)
            times[method].append(dt)
            if code != 0:
                tally.error(f"estimate --method {method} exit code {code}")
            else:
                fault = estimate_fault(method, text, expected_pairs)
                tally.check(fault is None, fault)
    calls = len(times["pairwise"]) + len(times["multivariate"])
    busy = sum(times["pairwise"]) + sum(times["multivariate"])
    return [
        Measured("ops_per_s", "estimate.calls_per_s", calls / busy, "1/s", calls),
        Measured("heavy_op_ms", "estimate.pairwise_ms", ms(statistics.median(times["pairwise"])),
                 "ms", len(times["pairwise"])),
        Measured("light_op_ms", "estimate.multivariate_ms",
                 ms(statistics.median(times["multivariate"])), "ms", len(times["multivariate"])),
        Measured(None, "estimate.pairwise_s", statistics.median(times["pairwise"]), "s",
                 len(times["pairwise"])),
    ]


# --- eigenmap-roundtrip --------------------------------------------------


def round_trip_fault(lam, delta, result):
    if np.max(np.abs(result.spectrum - lam)) > ROUND_TRIP_TOL:
        return "c02: round-trip gap above 1e-8"
    if lam.size == 2 and np.max(np.abs(delta - eigenmap.forward_p2(lam))) > CLOSED_FORM_TOL:
        return "c01: forward differs from forward_p2"
    return None


def figure_fault(scenario, delta):
    if scenario.kind != "equidistant":
        return None
    gap = np.max(np.abs(delta - scenario.spectrum))
    lo, hi = EQUIDISTANT_GAP
    return None if lo <= gap <= hi else "c04: equidistant gap outside [1e-4, 4e-4]"


def eigenmap_roundtrip(inputs, seed, seconds, tally):
    scenarios = inputs
    for lam in spectrum_bank(seed, WARM_UP)[:len(BANK_DIMS)]:  # first-call costs
        eigenmap.inverse_full(eigenmap.forward(lam))
    forward_t, inverse_t, figure_t = [], [], []
    for index in until(seconds):
        for lam in spectrum_bank(seed, index):
            delta, tf = attempt(tally, eigenmap.forward, lam)
            forward_t.append(tf)
            if delta is None:
                continue
            result, ti = attempt(tally, eigenmap.inverse_full, delta)
            inverse_t.append(ti)
            if result is not None:
                fault = round_trip_fault(lam, delta, result)
                tally.check(fault is None, fault)
        for scenario in scenarios:
            delta, dt = attempt(tally, eigenmap.forward, scenario.spectrum)
            figure_t.append(dt)
            if delta is not None:
                fault = figure_fault(scenario, delta)
                tally.check(fault is None, fault)
    trips = len(inverse_t)
    p95 = float(np.percentile(inverse_t, 95))
    return [
        Measured("ops_per_s", "eigenmap.roundtrips_per_s",
                 trips / (sum(forward_t) + sum(inverse_t)), "1/s", trips),
        Measured("heavy_op_ms", "eigenmap.inverse_ms_p50", ms(statistics.median(inverse_t)),
                 "ms", trips),
        Measured("light_op_ms", "eigenmap.forward_ms_p50", ms(statistics.median(forward_t)),
                 "ms", len(forward_t)),
        Measured(None, "eigenmap.inverse_ms_p95", ms(p95), "ms", trips),
        Measured(None, "eigenmap.figure_forward_ms_p50", ms(statistics.median(figure_t)),
                 "ms", len(figure_t)),
    ]


WORKLOADS = {
    "simulate-table": simulate_table,
    "estimate-wide": estimate_wide,
    "eigenmap-roundtrip": eigenmap_roundtrip,
}
