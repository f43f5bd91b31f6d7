"""Traced workloads: each estimator rebuilt from public calls, with spans.

The rebuilt pipelines repeat, call for call, what ``correlation`` does
(MAD, spatial median, SSCM, ``sym_eigen``, eigenvalue inversion, rescaling),
so a span around each call gives the time of each layer. Every rebuilt
result is compared bitwise with the public estimator on the same input.

The library keeps Weiszfeld iteration counts and quadrature node counts
inside private functions; the benchmark does not patch or wrap private
functions to get them, so they are not reported.
"""

import contextlib
import importlib
import io
import json
import statistics
import time

import numpy as np

from signcorr import cli, correlation, eigenmap, elliptical, linalg, robust, simulation
from workloads import (
    BANK_DIMS,
    MULTIVARIATE_PER_PAIRWISE,
    N_OBS,
    PUBLIC,
    TABLE,
    TABLE_REPS,
    estimate,
    figure_fault,
    pass_seed,
    replay,
    round_trip_fault,
    spectrum_bank,
    spherical_model,
    table_config,
    timed,
    until,
)

# ``signcorr/__init__.py`` re-binds the name ``sscm`` to the function
# ``signcorr.sscm.sscm``, so ``from signcorr import sscm`` (and
# ``import signcorr.sscm as ...``) yield the function, not the module.
sscm_module = importlib.import_module("signcorr.sscm")

LAYER_CALLS = (
    "elliptical.sample",
    "robust.mad",
    "robust.spatial_median",
    "sscm.sscm",
    "linalg.sym_eigen",
    "eigenmap.forward",
    "eigenmap.inverse_full",
    "eigenmap.inverse_p2",
    "linalg.to_correlation",
    "correlation.moment_matrix",
)
PROBE_CONFIG = TABLE[0]
PROBE_REPS = 100
PROBE_REPEATS = 3


class Tracer:
    """Spans kept in memory as [name, parent index, start, end].

    The parent index is -1 for a root span; a root span is one operation
    of the workload and its children are the library calls it made.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, self._open[-1] if self._open else -1, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[3] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def summary(self):
        """{(root name, span name): [calls, total s, self s]} and the traced total."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        table = {}
        total = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            duration = end - start
            if parent < 0:
                total += duration
            row = table.setdefault((self.spans[root[i]][0], name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return table, total


class Counts:
    """Work counts taken from the public results at the layer boundaries."""

    def __init__(self):
        self.fp_iterations = 0
        self.fp_calls = 0
        self.fp_worst_residual = 0.0
        self.n_effective = 0
        self.n_observations = 0
        self.mad_columns = 0  # distinct columns the MAD calls were made on

    def fixed_point(self, result):
        self.fp_iterations += result.iterations
        self.fp_calls += 1
        self.fp_worst_residual = max(self.fp_worst_residual, result.residual)


# --- estimators rebuilt from public calls --------------------------------


def mad_scaled(tr, x):
    return x / np.array([tr.call("robust.mad", robust.mad, x[:, j]) for j in range(x.shape[1])])


def sign_spectrum(tr, counts, z):
    center = tr.call("robust.spatial_median", robust.spatial_median, z)
    est = tr.call("sscm.sscm", sscm_module.sscm, z, center)
    counts.n_effective += est.n_effective
    counts.n_observations += est.n
    w, u = tr.call("linalg.sym_eigen", linalg.sym_eigen, est.matrix)
    w = np.maximum(w, 0.0)
    return eigenmap.as_spectrum(w / w.sum(), kind="sign"), u


def two_stage_rho(tr, counts, xy):
    delta, u = sign_spectrum(tr, counts, mad_scaled(tr, xy))
    lam = tr.call("eigenmap.inverse_p2", eigenmap.inverse_p2, delta)
    v = (u * lam) @ u.T
    return float(np.clip(v[0, 1] / np.sqrt(v[0, 0] * v[1, 1]), -1.0, 1.0))


def pairwise(tr, counts, x):
    p = x.shape[1]
    counts.mad_columns += p
    r = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            r[i, j] = r[j, i] = two_stage_rho(tr, counts, x[:, [i, j]])
    return r


def multivariate(tr, counts, x):
    counts.mad_columns += x.shape[1]
    delta, u = sign_spectrum(tr, counts, mad_scaled(tr, x))
    result = tr.call("eigenmap.inverse_full", eigenmap.inverse_full, delta)
    counts.fixed_point(result)
    v = (u * result.spectrum) @ u.T
    return tr.call("linalg.to_correlation", linalg.to_correlation, v)


def moment(tr, counts, x):
    return tr.call("correlation.moment_matrix", correlation.moment_matrix, x).matrix


REBUILT = {"moment": moment, "pairwise": pairwise, "multivariate": multivariate}


def mismatch(name):
    return f"rebuilt {name} differs from the public estimator"


def compare(tally, tr, counts, root, estimator, x):
    """The public estimator untraced, then its rebuild traced, on ``x``.

    Returns the untraced seconds and the public matrix (None if a call
    raised).
    """
    try:
        expected, dt = timed(PUBLIC[estimator], x)
        with tr.span(root):
            got = REBUILT[estimator](tr, counts, x)
    except Exception as exc:  # a failing operation is counted, not fatal
        tally.error(type(exc).__name__)
        return 0.0, None
    tally.check(np.array_equal(got, expected.matrix), mismatch(estimator))
    return dt, expected.matrix


# --- traced workloads ----------------------------------------------------
# Each returns (untraced seconds, CLI overhead seconds or None). The
# untraced seconds are the public calls on the inputs of the traced ones.


def trace_simulate_table(inputs, seed, seconds, tally, tr, counts):
    untraced = 0.0
    for index in until(seconds):
        cfg_seed = pass_seed(seed, index)
        for family, p, estimators in TABLE:
            model = spherical_model(family, p)
            for r in range(TABLE_REPS):
                try:
                    t0 = time.perf_counter()
                    x = elliptical.sample(model, N_OBS, elliptical.replication_rng(cfg_seed, r))
                    expected = {e: PUBLIC[e](x).matrix for e in estimators}
                    untraced += time.perf_counter() - t0
                    with tr.span("simulate.replication"):
                        rng = elliptical.replication_rng(cfg_seed, r)
                        xt = tr.call("elliptical.sample", elliptical.sample, model, N_OBS, rng)
                        got = {e: REBUILT[e](tr, counts, xt) for e in estimators}
                except Exception as exc:  # a failing operation is counted, not fatal
                    tally.error(type(exc).__name__)
                    continue
                for e in estimators:
                    tally.check(np.array_equal(got[e], expected[e]), mismatch(e))
    return untraced, None  # the probe times the simulate CLI


def trace_estimate_wide(inputs, seed, seconds, tally, tr, counts):
    data, path = inputs
    tally.check(np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), data),
                "CSV does not round-trip the data")
    untraced = 0.0
    cli_extra = []
    for _ in until(seconds):
        dt, _ = compare(tally, tr, counts, "estimate.pairwise", "pairwise", data)
        untraced += dt
        for _ in range(MULTIVARIATE_PER_PAIRWISE):
            (code, text), dt_cli = timed(estimate, "multivariate", path)
            dt, expected = compare(tally, tr, counts, "estimate.multivariate", "multivariate", data)
            untraced += dt
            if expected is None:
                continue
            cli_extra.append(dt_cli - dt)
            tally.check(code == 0 and np.array_equal(
                np.array(json.loads(text)["correlation"]), expected),
                "estimate --method multivariate differs from multivariate_matrix")
    return untraced, statistics.median(cli_extra)


def cli_inverse(delta):
    out, err = io.StringIO(), io.StringIO()
    argv = ["eigenmap", "inverse", "--deltas", ",".join(format(v, ".17g") for v in delta)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def trace_eigenmap_roundtrip(inputs, seed, seconds, tally, tr, counts):
    untraced = 0.0
    cli_extra = []
    for index in until(seconds):
        for k, lam in enumerate(spectrum_bank(seed, index)):
            try:
                t0 = time.perf_counter()
                delta = eigenmap.forward(lam)
                result = eigenmap.inverse_full(delta)
                untraced += time.perf_counter() - t0
                with tr.span("eigenmap.roundtrip"):
                    delta_t = tr.call("eigenmap.forward", eigenmap.forward, lam)
                    result_t = tr.call("eigenmap.inverse_full", eigenmap.inverse_full, delta_t)
            except Exception as exc:  # a failing operation is counted, not fatal
                tally.error(type(exc).__name__)
                continue
            counts.fixed_point(result_t)
            tally.check(np.array_equal(delta_t, delta)
                        and np.array_equal(result_t.spectrum, result.spectrum),
                        mismatch("round trip"))
            fault = round_trip_fault(lam, delta, result)
            tally.check(fault is None, fault)
            if k < len(BANK_DIMS):  # one CLI call per dimension and pass
                (code, text), dt_cli = timed(cli_inverse, delta)
                _, dt = timed(eigenmap.inverse_full, delta)
                cli_extra.append(dt_cli - dt)
                spectrum = np.array([float(f) for f in text.split(",")]) if code == 0 else None
                tally.check(code == 0 and np.array_equal(spectrum, result.spectrum),
                            "eigenmap inverse differs from inverse_full")
        for scenario in inputs:
            try:
                delta, dt = timed(eigenmap.forward, scenario.spectrum)
                untraced += dt
                with tr.span("eigenmap.figure"):
                    delta_t = tr.call("eigenmap.forward", eigenmap.forward, scenario.spectrum)
            except Exception as exc:  # a failing operation is counted, not fatal
                tally.error(type(exc).__name__)
                continue
            tally.check(np.array_equal(delta_t, delta), mismatch("figure forward"))
            fault = figure_fault(scenario, delta)
            tally.check(fault is None, fault)
    return untraced, statistics.median(cli_extra)


TRACED = {
    "simulate-table": trace_simulate_table,
    "estimate-wide": trace_estimate_wide,
    "eigenmap-roundtrip": trace_eigenmap_roundtrip,
}


# --- simulation harness probe --------------------------------------------


def finite(values):
    values = np.array(values)
    return values[np.isfinite(values)]


def simulation_probe(seed, tally):
    """Harness overhead, thread-pool speed-up and CLI overhead of ``simulate``.

    All on one configuration: normal p=2 with the three estimators.
    """
    cfg = table_config(PROBE_CONFIG, PROBE_REPS, pass_seed(seed, 0))
    argv = ["simulate", "--dist", cfg.family, "--p", str(cfg.p), "--n", str(cfg.n),
            "--reps", str(cfg.reps), "--seed", str(cfg.seed), "--threads", "1"]
    direct, serial, pooled, via_cli = [], [], [], []
    for _ in range(PROBE_REPEATS):
        (values, _), dt = timed(replay, cfg)
        direct.append(dt)
        result, dt = timed(simulation.run_experiment, cfg, threads=1)
        serial.append(dt)
        result2, dt = timed(simulation.run_experiment, cfg, threads=2)
        pooled.append(dt)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, dt = timed(cli.main, argv)
        via_cli.append(dt)
        tally.check(result2 == result, "run_experiment threads=2 differs from threads=1")
        tally.check(code == 0 and out.getvalue() == simulation.result_to_csv(result),
                    "simulate CLI output differs from run_experiment")
        tally.check(all(cfg.n * float(np.var(finite(values[s.estimator]), ddof=1))
                        == s.scaled_variance for s in result.stats),
                    "run_experiment differs from the estimators called directly")
    med = statistics.median
    return {
        "simulation.harness_overhead_s": med(serial) - med(direct),
        "simulation.pool_speedup": med(serial) / med(pooled),
        "simulate_cli_overhead_s": med(via_cli) - med(serial),
    }


# --- per-layer metrics ---------------------------------------------------

PER_LAYER = (
    [(f"{name}_pct", "%", "lower") for name in LAYER_CALLS]
    + [("bench.glue_pct", "%", "lower")]
    + [(f"{name}_calls", "count", "lower") for name in LAYER_CALLS]
    + [
        ("eigenmap.fp_iterations", "count", "lower"),
        ("eigenmap.fp_iterations_per_call", "count", "lower"),
        ("eigenmap.fp_worst_residual", "1", "lower"),
        ("sscm.n_effective_ratio", "ratio", "higher"),
        ("robust.mad_useful_ratio", "ratio", "higher"),
        ("cli.overhead_s", "s", "lower"),
        ("simulation.harness_overhead_s", "s", "lower"),
        ("simulation.pool_speedup", "ratio", "higher"),
        ("trace.total_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def run_traced(workload, inputs, seed, seconds, tally):
    """Run the traced workload and the probe; return (metrics, report lines)."""
    tr, counts = Tracer(), Counts()
    untraced, cli_overhead = TRACED[workload](inputs, seed, seconds, tally, tr, counts)
    probe = simulation_probe(seed, tally)
    if cli_overhead is None:
        cli_overhead = probe["simulate_cli_overhead_s"]
    table, total = tr.summary()

    by_name = {}
    for (_, name), (calls, _, self_s) in table.items():
        row = by_name.setdefault(name, [0, 0.0])
        row[0] += calls
        row[1] += self_s
    values = {}
    for name in LAYER_CALLS:
        calls, self_s = by_name.get(name, (0, 0.0))
        values[f"{name}_pct"] = 100.0 * self_s / total
        values[f"{name}_calls"] = calls
    glue = sum(self_s for (root, name), (_, _, self_s) in table.items() if root == name)
    values["bench.glue_pct"] = 100.0 * glue / total
    values["eigenmap.fp_iterations"] = counts.fp_iterations
    values["eigenmap.fp_iterations_per_call"] = counts.fp_iterations / max(counts.fp_calls, 1)
    values["eigenmap.fp_worst_residual"] = counts.fp_worst_residual
    values["sscm.n_effective_ratio"] = counts.n_effective / max(counts.n_observations, 1)
    values["robust.mad_useful_ratio"] = counts.mad_columns / max(by_name.get("robust.mad", [1])[0], 1)
    values["cli.overhead_s"] = cli_overhead
    values["simulation.harness_overhead_s"] = probe["simulation.harness_overhead_s"]
    values["simulation.pool_speedup"] = probe["simulation.pool_speedup"]
    values["trace.total_s"] = total
    values["trace.overhead_s"] = total - untraced

    report = [f"traced total {total:.4f} s, untraced total of the same calls {untraced:.4f} s "
              f"(tracing overhead {100.0 * (total - untraced) / untraced:.1f}%)"]
    roots = sorted({root for root, _ in table})
    for root in roots:
        root_total = table[(root, root)][1]
        report.append(f"{root}: {table[(root, root)][0]} operations, {root_total:.4f} s")
        rows = sorted(((k[1], v) for k, v in table.items() if k[0] == root),
                      key=lambda kv: -kv[1][2])
        for name, (calls, total_s, self_s) in rows:
            label = "(benchmark glue)" if name == root else name
            report.append(f"  {label:<28}{calls:>9} calls {self_s:>10.4f} s self "
                          f"{100.0 * self_s / root_total:>6.1f}%")
    return values, report
