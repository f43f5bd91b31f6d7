"""Benchmark of the signcorr library and its command line.

    python3 bench/run.py --workload simulate-table --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``signcorr`` from
``src/``. All workloads run in one process, and ``run_experiment`` runs with
``threads=1``.

simulate-table
    The six acceptance criterion c05 configurations in order (n=100, 50
    replications each), pass after pass with a new seed per pass.
estimate-wide
    ``cli.main(["estimate", ...])`` in-process on a CSV of t5 data with
    p=50 and n=1000: one ``--method pairwise`` call, then ten
    ``--method multivariate`` calls, round after round.
eigenmap-roundtrip
    ``eigenmap.forward`` then ``eigenmap.inverse_full`` on a bank of random
    trace-one spectra for p=2..12 (smallest eigenvalue at least 1e-4), and
    ``forward`` on both figure scenarios at p=101, pass after pass.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics below. The same names serve every
workload; the report lines above it give each its workload's own name and
sample count.

    metric        simulate-table            estimate-wide          eigenmap-roundtrip
    setup_s       import in a fresh interpreter plus input generation (and the CSV)
    ops_per_s     replications per second   estimate calls per s   round trips per second
    heavy_op_ms   normal p=3 ms per rep     pairwise call, median  inverse_full, median
    light_op_ms   laplace p=2 ms per rep    multivariate call      forward, median

Failed operations are counted in ``attempted`` and ``failed`` (their ratio
is the fail ratio): a replication that ends as NaN, a CLI call with a
nonzero exit, an eigenmap call that raises, or an output that fails its
correctness check. Failures are listed by exception class or check.

With ``--trace 1`` the run rebuilds each estimator from public calls with a
span around each call (see ``traced.py``) and reports per-layer metrics.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7


def import_library():
    if not os.path.isfile(os.path.join(SRC, "signcorr", "__init__.py")):
        sys.exit(f"error: no signcorr sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


def blas_facts(np):
    """BLAS name, version and thread count of the numpy build."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        get_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        threads = get_threads()
    return f"{blas.get('name')} {blas.get('version')}", threads


def machine_facts():
    import numpy as np

    blas, threads = blas_facts(np)
    return (f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas} blas_threads={threads}")


def measure_setup(workload, seed, workdir):
    """Median over repeats of: import in a fresh interpreter, then the inputs.

    One unmeasured round first, so the timing does not include compiling
    the bytecode, which users pay once.
    """
    from workloads import prepare

    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for repeat in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import signcorr"], env=env, check=True)
        inputs = prepare(workload, seed, workdir)
        if repeat:
            times.append(time.perf_counter() - t0)
    return statistics.median(times), inputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate-table", "estimate-wide", "eigenmap-roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()

    from workloads import WORKLOADS, Tally, prepare

    seed = args.seed % 2**63
    print(machine_facts())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as workdir:
        if args.trace:
            from traced import PER_LAYER, run_traced

            inputs = prepare(args.workload, seed, workdir)
            values, report = run_traced(args.workload, inputs, seed, args.seconds, tally)
            for line in report:
                print(line)
            metrics = {}
            for name, unit, _ in PER_LAYER:
                print(f"{name:<44}{values[name]:>14.6g} {unit}")
                metrics[name] = {"value": values[name], "unit": unit}
        else:
            setup_s, inputs = measure_setup(args.workload, seed, workdir)
            measured = WORKLOADS[args.workload](inputs, seed, args.seconds, tally)
            print(f"{'setup_s':<44}{setup_s:>14.6g} s  (n={SETUP_REPEATS} set-ups)")
            metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
            for m in measured:
                name = m.label if m.key is None else f"{m.label} [{m.key}]"
                print(f"{name:<44}{m.value:>14.6g} {m.unit}  (n={m.samples})")
                if m.key is not None:
                    metrics[m.key] = {"value": m.value, "unit": m.unit}
    print(f"fail_ratio {tally.failed}/{tally.attempted} = {tally.failed / max(tally.attempted, 1):.3g}")
    for cause, count in sorted(tally.failures.items()):
        print(f"  failed: {cause}: {count}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
