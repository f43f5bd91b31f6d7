import json
import os
import subprocess
import sys

import numpy as np
import pytest

from signcorr import multivariate_matrix
from signcorr.cli import main

CROSS_CSV = "1,0\n0,1\n-1,0\n0,-1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestEstimate:
    def test_cross_pairwise_identity(self, tmp_path, capsys):
        path = write(tmp_path, "cross.csv", CROSS_CSV)
        assert main(["estimate", "--method", "pairwise", "--input", path]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.strip().split("\n") if not line.startswith("#")]
        matrix = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(matrix, np.eye(2))

    def test_header_detected(self, tmp_path, capsys):
        path = write(tmp_path, "h.csv", "a,b\n" + CROSS_CSV)
        assert main(["estimate", "--method", "moment", "--input", path]) == 0

    def test_constant_column_two_stage_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "const.csv", "1,5\n2,5\n3,5\n4,5\n")
        code = main(["estimate", "--method", "two-stage", "--input", path])
        assert code == 3
        assert "column 1" in capsys.readouterr().err

    def test_json_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 3))
        text = "\n".join(",".join(format(v, ".17g") for v in row) for row in data) + "\n"
        path = write(tmp_path, "data.csv", text)
        data = np.loadtxt(path, delimiter=",")  # exactly what the CLI parses
        out_path = tmp_path / "report.json"
        code = main([
            "estimate", "--method", "multivariate", "--input", path,
            "--format", "json", "--output", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        expected = multivariate_matrix(data)
        reparsed = np.array(payload["correlation"])
        assert np.max(np.abs(reparsed - expected.matrix)) <= 1e-15
        assert payload["method"] == "multivariate"
        assert payload["p"] == 3 and payload["n"] == 40
        assert np.max(np.abs(np.array(payload["shape"]) - expected.shape_estimate)) <= 1e-15
        assert len(payload["lambdas"]) == 3

    def test_two_stage_ci_json(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(60, 2))
        text = "\n".join(",".join(format(v, ".17g") for v in row) for row in data) + "\n"
        path = write(tmp_path, "d2.csv", text)
        code = main([
            "estimate", "--method", "two-stage", "--input", path,
            "--ci", "0.95", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        ci = payload["ci"]
        assert ci["level"] == 0.95
        assert -1.0 <= ci["lower"] <= ci["upper"] <= 1.0
        rho = payload["correlation"][0][1]
        assert ci["lower"] <= rho <= ci["upper"]

    def test_ci_requires_two_stage(self, tmp_path, capsys):
        path = write(tmp_path, "cross.csv", CROSS_CSV)
        code = main(["estimate", "--method", "moment", "--input", path, "--ci", "0.9"])
        assert code == 2

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = write(tmp_path, "bad.csv", "1,2\n3,oops\n5,6\n")
        code = main(["estimate", "--method", "moment", "--input", path])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_ragged_row_reports_line(self, tmp_path, capsys):
        path = write(tmp_path, "ragged.csv", "1,2\n3,4,5\n")
        code = main(["estimate", "--method", "moment", "--input", path])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert main(["estimate", "--method", "moment", "--input", "/nope.csv"]) == 2

    def test_two_stage_needs_two_columns(self, tmp_path, capsys):
        path = write(tmp_path, "p3.csv", "1,2,3\n4,5,6\n7,8,10\n")
        assert main(["estimate", "--method", "two-stage", "--input", path]) == 2

    def test_unwritable_output(self, tmp_path, capsys):
        path = write(tmp_path, "cross.csv", CROSS_CSV)
        code = main([
            "estimate", "--method", "moment", "--input", path,
            "--output", "/no/such/dir/out.csv",
        ])
        assert code == 2


class TestEigenmapCommand:
    def test_forward_closed_form(self, capsys):
        assert main(["eigenmap", "forward", "--lambdas", "0.8,0.2"]) == 0
        values = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        assert np.allclose(values, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_inverse_closed_form(self, capsys):
        assert main(["eigenmap", "inverse", "--deltas", "0.666666666666667,0.333333333333333"]) == 0
        captured = capsys.readouterr()
        values = [float(v) for v in captured.out.strip().split(",")]
        assert np.allclose(values, [0.8, 0.2], atol=1e-9)
        assert "iterations=" in captured.err

    def test_spherical_fixed_point(self, capsys):
        assert main(["eigenmap", "forward", "--lambdas", "0.25,0.25,0.25,0.25"]) == 0
        values = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        assert np.allclose(values, 0.25, atol=1e-12)

    def test_negative_rejected(self, capsys):
        assert main(["eigenmap", "forward", "--lambdas", "1.1,-0.1"]) == 2

    @pytest.mark.parametrize("direction, flag, text, message", [
        ("forward", "--lambdas", "1", "forward requires dimension >= 2"),
        ("inverse", "--deltas", "nan,1", "spectrum entries must be finite"),
        ("inverse", "--deltas", "0,0,0", "sign spectrum must sum to 1"),
    ])
    def test_spectrum_checked_by_the_map(self, capsys, direction, flag, text, message):
        assert main(["eigenmap", direction, flag, text]) == 2
        assert message in capsys.readouterr().err

    def test_unnormalized_warns_and_normalizes(self, capsys):
        assert main(["eigenmap", "forward", "--lambdas", "8,2"]) == 0
        captured = capsys.readouterr()
        assert "normalizing" in captured.err
        values = [float(v) for v in captured.out.strip().split(",")]
        assert np.allclose(values, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    @pytest.mark.parametrize("direction, flag", [("forward", "--lambdas"), ("inverse", "--deltas")])
    def test_overflowing_sum_is_one_error_line(self, direction, flag):
        proc = python("-m", "signcorr", "eigenmap", direction, flag, "1e308,1e308")
        assert proc.returncode == 2
        assert proc.stderr.endswith("spectrum must sum to 1, got inf\n")
        assert proc.stderr.count("\n") == 1

    def test_missing_spectrum_flag(self, capsys):
        assert main(["eigenmap", "forward"]) == 2
        assert main(["eigenmap", "inverse"]) == 2


class TestSimulateCommand:
    def test_reference_window(self, capsys):
        code = main([
            "simulate", "--dist", "normal", "--p", "2", "--n", "100",
            "--reps", "2000", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        row = [l for l in out.strip().split("\n") if ",pairwise," in l][0]
        value = float(row.split(",")[4])
        assert 1.7 <= value <= 2.1

    def test_single_rep_rejected(self, capsys):
        code = main([
            "simulate", "--dist", "normal", "--p", "2", "--n", "100",
            "--reps", "1", "--seed", "1",
        ])
        assert code == 2


class TestFigureCommand:
    def test_equidistant_p3(self, capsys):
        assert main(["figure", "--figure", "1", "--p", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "index,lambda,delta"
        lams = [float(l.split(",")[1]) for l in lines[1:]]
        assert np.allclose(lams, [0.5, 1.0 / 3.0, 1.0 / 6.0], atol=1e-15)

    def test_spiked_p3_ratio(self, capsys):
        assert main(["figure", "--figure", "2", "--p", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        lams = [float(l.split(",")[1]) for l in lines]
        assert lams[0] / lams[1] == pytest.approx(5.0, rel=1e-12)

    def test_delta_ordering(self, capsys):
        assert main(["figure", "--figure", "2", "--p", "8"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        deltas = [float(l.split(",")[2]) for l in lines]
        assert deltas == sorted(deltas, reverse=True)


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_method(self, tmp_path, capsys):
        path = write(tmp_path, "cross.csv", CROSS_CSV)
        assert main(["estimate", "--method", "tyler", "--input", path]) == 2


def python(*args):
    """Run a fresh interpreter that imports this checkout's ``signcorr``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_python_dash_m_runs_the_cli():
    proc = python("-m", "signcorr", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: signcorr ")


def test_python_dash_m_cli_module_runs_without_warning():
    # runpy warns when the package has imported the module it is asked to run
    proc = python("-m", "signcorr.cli", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_import_leaves_the_cli_and_thread_pool_unloaded():
    # The benchmark's setup time is this import in a fresh interpreter: it
    # loads no test-only dependency, builds no quadrature rule, and leaves
    # the modules that only sampling, the rule and intervals use unloaded.
    proc = python("-c", "import sys, signcorr; print(sorted(m for m in "
                  "('concurrent.futures', 'argparse', 'signcorr.cli', 'scipy', 'hypothesis', "
                  "'numpy.random', 'numpy.polynomial', 'statistics') "
                  "if m in sys.modules), signcorr.eigenmap._panel_rule.cache_info().currsize)")
    assert proc.returncode == 0
    assert proc.stdout == "[] 0\n"
