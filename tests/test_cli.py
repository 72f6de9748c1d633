import csv
import dataclasses
import json

import numpy as np
import pytest

from desinc import cli
from desinc.cli import EXIT_BAD_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, main
from desinc.problems import example1


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSolveCommand:
    def test_example1_reaches_roundoff(self, tmp_path):
        out = tmp_path / "e1.csv"
        rc = main(["solve", "--problem", "example1", "--n", "32,64", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["N", "h", "E1", "sweeps", "converged"]
        assert [r[0] for r in rows[1:]] == ["32", "64"]
        for r in rows[1:]:
            assert float(r[2]) < 1e-12
            assert r[4] == "true"

    def test_dimension_independent_accuracy(self, tmp_path):
        e1 = {}
        for n in (11, 101):
            out = tmp_path / f"n{n}.csv"
            rc = main(["solve", "--problem", f"example2:n={n}", "--n", "64", "--out", str(out)])
            assert rc == EXIT_OK
            e1[n] = float(read_csv(out)[1][2])
        assert e1[11] < 1e-10 and e1[101] < 1e-10

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["solve", "--problem", "example3", "--n", "8,16", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_nonconvergence_exit_code_and_partial_csv(self, tmp_path):
        out = tmp_path / "nc.csv"
        rc = main(["solve", "--problem", "example3", "--n", "16",
                   "--max-sweeps", "2", "--out", str(out)])
        assert rc == EXIT_NOT_CONVERGED
        rows = read_csv(out)
        assert len(rows) == 2
        assert rows[1][4] == "false"


class TestTraceCommand:
    def test_example1_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(["trace", "--problem", "example1", "--n", "64",
                   "--max-sweeps", "10", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["nu", "E2", "z_norm"]
        e2 = [float(r[1]) for r in rows[1:]]
        # roughly two orders of magnitude per sweep until roundoff
        for a, b in zip(e2, e2[1:]):
            if a > 1e-13:
                assert b <= 0.05 * a

    def test_dimension_independent_trace(self, tmp_path):
        cols = {}
        for n in (11, 101):
            out = tmp_path / f"t{n}.csv"
            main(["trace", "--problem", f"example2:n={n}", "--n", "32",
                  "--max-sweeps", "8", "--out", str(out)])
            cols[n] = [float(r[1]) for r in read_csv(out)[1:]]
        assert np.allclose(cols[11], cols[101], atol=1e-12)

    def test_requires_single_n(self, tmp_path):
        rc = main(["trace", "--problem", "example1", "--n", "8,16",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_BAD_CONFIG


class TestAnalyzeCommand:
    def test_example1_values(self, tmp_path):
        out = tmp_path / "an.csv"
        rc = main(["analyze", "--problem", "example1", "--n", "64", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_csv(out)
        row = dict(zip(rows[0], rows[1]))
        assert float(row["mgs_norm"]) == pytest.approx(0.02, abs=0.01)
        assert float(row["mgs_bound"]) == pytest.approx(0.06197, abs=5e-4)
        assert row["contraction"] == "true"
        assert row["cond_iii_ok"] == "true" and row["cond_lbound_ok"] == "true"

    def test_example2_matches_example1_matrix(self, tmp_path):
        # both problems have L*(b-a) = 1/2, so the analysis rows coincide
        vals = {}
        for name in ("example1", "example2:n=11"):
            out = tmp_path / f"{name.split(':')[0]}.csv"
            main(["analyze", "--problem", name, "--n", "32", "--out", str(out)])
            rows = read_csv(out)
            row = dict(zip(rows[0], rows[1]))
            vals[name] = (float(row["mgs_norm"]), float(row["mgs_bound"]))
        a, b = vals.values()
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-15)

    def test_bound_column_empty_without_hypothesis(self, tmp_path, monkeypatch):
        # lv problems carry no L at all: no analysis is possible
        rc = main(["analyze", "--problem", "lv:m=2:seed=0", "--n", "8",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_BAD_CONFIG
        # example1 with L = 2 has 1.1*L*(b-a) = 1.1 >= 1: no closed-form bound
        tp = example1()
        steep = dataclasses.replace(tp, problem=dataclasses.replace(tp.problem, lip=2.0))
        monkeypatch.setattr(cli, "problem_from_name", lambda spec: steep)
        out = tmp_path / "steep.csv"
        rc = main(["analyze", "--problem", "example1", "--n", "8", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_csv(out)
        row = dict(zip(rows[0], rows[1]))
        assert row["L"] == "2.0"
        assert row["mgs_bound"] == ""
        assert row["cond_lbound_ok"] == "false"

    def test_bound_sweep_decreasing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["analyze", "--problem", "example1", "--n", "8,16,32,64,128,256",
              "--out", str(out)])
        rows = read_csv(out)
        bounds = [float(r[8]) for r in rows[1:]]
        assert all(x > y for x, y in zip(bounds, bounds[1:]))


class TestDumpWeights:
    def test_matrix_shape_and_precision(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["dump-weights", "--problem", "example1", "--n", "4", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 9 and all(len(r) == 9 for r in rows)
        mat = np.array(rows, dtype=float)
        from desinc import Interval, build_grid, build_weights
        wm = build_weights(build_grid(Interval(0.0, 0.5), 4))
        assert np.max(np.abs(mat - wm.w)) < 1e-16


# flag, config key, value in the file, value on the command line, and the
# RunConfig value that flag gives
FLAG_CASES = [
    ("--problem", "problem", "example2:n=3", "example3", "example3"),
    ("--n", "n_list", [8], "16,32", [16, 32]),
    ("--method", "method", "jacobi", "gauss_seidel", "gauss_seidel"),
    ("--tol", "tol", 1e-10, "1e-12", 1e-12),
    ("--max-sweeps", "max_sweeps", 40, "7", 7),
    ("--h", "h_override", 0.25, "0.5", 0.5),
    ("--out", "output", "a.csv", "b.csv", "b.csv"),
    ("--plot-script", "plot_script", "a.py", "b.py", "b.py"),
]


class TestConfigHandling:
    @pytest.mark.parametrize("flag, key, file_val, flag_val, flag_cfg_val",
                             [pytest.param(*case, id=case[0]) for case in FLAG_CASES])
    def test_config_file_with_flag_override(self, tmp_path,
                                            flag, key, file_val, flag_val, flag_cfg_val):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: file_val}))

        def load(*flags):
            args = cli._build_parser().parse_args(["solve", "--config", str(cfgfile), *flags])
            return cli._load_config(args)

        assert getattr(load(flag, flag_val), key) == flag_cfg_val  # the flag wins
        assert getattr(load(), key) == file_val  # an unset flag keeps the file value

    def test_invalid_inputs_exit_2(self, tmp_path):
        assert main(["solve", "--problem", "nope", "--out", "-"]) == EXIT_BAD_CONFIG
        assert main(["solve", "--problem", "example1", "--n", "1"]) == EXIT_BAD_CONFIG
        assert main(["solve", "--problem", "example1", "--n", "abc"]) == EXIT_BAD_CONFIG
        assert main(["solve", "--problem", "example1", "--tol", "-1"]) == EXIT_BAD_CONFIG
        assert main(["solve", "--config", str(tmp_path / "missing.json")]) == EXIT_BAD_CONFIG
        bad = tmp_path / "bad.json"
        bad.write_text('{"frobnicate": 1}')
        assert main(["solve", "--config", str(bad)]) == EXIT_BAD_CONFIG

    def test_plot_script_emitted(self, tmp_path):
        out = tmp_path / "out.csv"
        script = tmp_path / "plot.py"
        rc = main(["solve", "--problem", "example1", "--n", "8",
                   "--out", str(out), "--plot-script", str(script)])
        assert rc == EXIT_OK
        assert script.exists()
        compile(script.read_text(), str(script), "exec")
