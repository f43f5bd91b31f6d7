"""Command-line interface.

Subcommands
-----------
estimate   correlation matrix of a CSV dataset (rows = observations)
eigenmap   evaluate or invert the eigenvalue map on a given spectrum
simulate   Monte Carlo variance study, emitted as CSV
figure     eigenvalue-scenario tables (index, lambda, delta) as CSV

Exit codes: 0 success, 2 usage or input error, 3 numeric/estimation
failure, 4 internal invariant violation.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import correlation, eigenmap, simulation
from .exceptions import InvalidInputError, SignCorrError
from .linalg import sym_eigen
from .simulation import csv_row


def _read_data_csv(path):
    """Parse a CSV of observations; auto-detect an optional header row.

    Returns an (n, p) float array. Malformed fields are reported with their
    line number.
    """
    if not os.path.exists(path):
        raise InvalidInputError(f"input file not found: {path}")
    if not os.access(path, os.R_OK):
        raise InvalidInputError(f"input file not readable: {path}")
    rows, width = [], None
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(f.strip() == "" for f in record):
                continue
            if width is None:
                width = len(record)
                try:
                    rows.append([float(f) for f in record])
                    continue
                except ValueError:
                    continue  # header row
            if len(record) != width:
                raise InvalidInputError(
                    f"line {lineno}: expected {width} fields, got {len(record)}"
                )
            try:
                rows.append([float(f) for f in record])
            except ValueError as exc:
                raise InvalidInputError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise InvalidInputError(f"no data rows in {path}")
    return np.array(rows, dtype=float)


def _check_writable(path):
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise InvalidInputError(f"output location not writable: {path}")


def _emit(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _estimate_report(args, payload) -> str:
    if args.format == "json":
        return json.dumps(payload, indent=2) + "\n"
    parts = ["# correlation\n", *map(csv_row, payload["correlation"])]
    if "shape" in payload:
        parts += ["# shape\n", *map(csv_row, payload["shape"])]
    if "lambdas" in payload:
        parts += ["# lambdas\n", csv_row(payload["lambdas"])]
    if "ci" in payload:
        ci = payload["ci"]
        parts += ["# ci\n", csv_row((ci["lower"], ci["upper"], ci["level"]))]
    return "".join(parts)


def cmd_estimate(args) -> int:
    _check_writable(args.output)
    data = _read_data_csv(args.input)
    n, p = data.shape
    method = args.method
    # confidence_interval checks the level; the matrix methods would ignore --ci
    if args.ci is not None and method != "two-stage":
        raise InvalidInputError("--ci is only available for the two-stage method")

    payload = {"method": method.replace("-", "_"), "p": int(p), "n": int(n)}
    est = correlation.ESTIMATORS[method](data)
    if method == "two-stage":
        payload["correlation"] = [[1.0, est.rho], [est.rho, 1.0]]
        if args.ci is not None:
            ci = correlation.confidence_interval(est, args.ci)
            payload["ci"] = {"lower": ci.lower, "upper": ci.upper, "level": ci.level}
    else:
        payload["correlation"] = est.matrix.tolist()
        if est.shape_estimate is not None:
            payload["shape"] = est.shape_estimate.tolist()
            payload["lambdas"] = sym_eigen(est.shape_estimate).eigenvalues.tolist()
    _emit(_estimate_report(args, payload), args.output)
    return 0


def _parse_spectrum(text: str) -> np.ndarray:
    """The comma-separated values, divided by their sum with a warning when it
    is finite, positive and off one by more than ``eigenmap._SUM_TOL``. The
    map checks size, finiteness, sign and sum (``eigenmap.as_spectrum``)."""
    try:
        values = np.array([float(f) for f in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InvalidInputError(f"invalid spectrum: {exc}") from exc
    with np.errstate(over="ignore"):  # an infinite sum is left to the map
        total = values.sum()
    if np.isfinite(total) and total > 0.0 and abs(total - 1.0) > eigenmap._SUM_TOL:
        print(
            f"warning: spectrum sums to {total:.17g}; normalizing",
            file=sys.stderr,
        )
        values = values / total
    return values


def cmd_eigenmap(args) -> int:
    if args.direction == "forward":
        if args.lambdas is None:
            raise InvalidInputError("eigenmap forward requires --lambdas")
        out = eigenmap.forward(_parse_spectrum(args.lambdas))
    else:
        if args.deltas is None:
            raise InvalidInputError("eigenmap inverse requires --deltas")
        result = eigenmap.inverse_full(_parse_spectrum(args.deltas))
        print(
            f"iterations={result.iterations} residual={result.residual:.3e}",
            file=sys.stderr,
        )
        out = result.spectrum
    sys.stdout.write(csv_row(out))
    return 0


def cmd_simulate(args) -> int:
    cfg = simulation.ExperimentConfig(
        family=args.dist, p=args.p, n=args.n, reps=args.reps, seed=args.seed
    )
    result = simulation.run_experiment(cfg)
    sys.stdout.write(simulation.result_to_csv(result))
    return 0


def cmd_figure(args) -> int:
    kind = "equidistant" if args.figure == 1 else "spiked"
    sys.stdout.write(simulation.figure_to_csv(simulation.figure_table(kind, args.p)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signcorr",
        description="Robust correlation estimation from spatial signs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a correlation matrix from CSV data")
    est.add_argument("--method", choices=tuple(correlation.ESTIMATORS), required=True)
    est.add_argument("--input", required=True, help="CSV file, rows = observations")
    est.add_argument("--ci", type=float, default=None, metavar="LEVEL",
                     help="confidence level for the two-stage method (p=2)")
    est.add_argument("--format", choices=("csv", "json"), default="csv")
    est.add_argument("--output", default=None, help="write report here instead of stdout")
    est.set_defaults(func=cmd_estimate)

    eig = sub.add_parser("eigenmap", help="evaluate or invert the eigenvalue map")
    eig.add_argument("direction", choices=("forward", "inverse"))
    eig.add_argument("--lambdas", default=None, help="comma-separated shape eigenvalues")
    eig.add_argument("--deltas", default=None, help="comma-separated sign eigenvalues")
    eig.set_defaults(func=cmd_eigenmap)

    sim = sub.add_parser("simulate", help="Monte Carlo variance study (CSV to stdout)")
    sim.add_argument("--dist", choices=tuple(simulation.FAMILY_TAGS), required=True)
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; replications run in the "
                          "calling thread")
    sim.set_defaults(func=cmd_simulate)

    fig = sub.add_parser("figure", help="eigenvalue scenario table (CSV to stdout)")
    fig.add_argument("--figure", type=int, choices=(1, 2), required=True)
    fig.add_argument("--p", type=int, required=True)
    fig.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SignCorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
