import contextlib
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import desinc
from desinc import cli
from desinc.cli import EXIT_BAD_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, RunConfig, main
from desinc.problems import example1

from oracles import dense_weights


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _run_python(args, check=False):
    """A new Python process with args, which imports this desinc."""
    src = str(Path(desinc.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=check)


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


    def test_exact_called_once_per_n(self, tmp_path, monkeypatch):
        # E1 takes the exact solution at all nodes in one call per N
        calls = []
        factory = cli.problem_from_name

        def traced_problem(spec):
            tp = factory(spec)
            return dataclasses.replace(
                tp, exact=lambda t: calls.append(np.shape(t)) or tp.exact(t))

        monkeypatch.setattr(cli, "problem_from_name", traced_problem)
        out = tmp_path / "lv.csv"
        rc = main(["solve", "--problem", "lv:m=3:seed=1", "--n", "16,8", "--out", str(out)])
        assert rc == EXIT_OK
        assert calls == [(17,), (33,)]
        assert [r[0] for r in read_csv(out)[1:]] == ["8", "16"]


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

    def test_bound_column_empty_when_w_exceeds_interval(self, tmp_path):
        # h = 20 makes w = 8.56 > 1.1 * (b - a) = 0.55; the column read
        # 15.40 there, below the exact norm of 33.60
        out = tmp_path / "h20.csv"
        rc = main(["analyze", "--problem", "example1", "--n", "8", "--h", "20",
                   "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_csv(out)
        row = dict(zip(rows[0], rows[1]))
        assert float(row["mgs_norm"]) == pytest.approx(33.60, abs=0.01)
        assert row["mgs_bound"] == ""
        assert row["cond_lbound_ok"] == "false"

    def test_loads_no_further_scipy_subpackage(self, tmp_path):
        # importing the package, a first analyze and an lv solve with its
        # Toda exact solution load no scipy module at all; each scipy
        # subpackage adds to the start-up time
        code = ("import sys; import desinc, desinc.cli; "
                "mods = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
                "print(mods()); "
                "desinc.cli.main(['analyze', '--n', '64', '--out', sys.argv[1] + '/an.csv']); "
                "print(mods()); "
                "desinc.cli.main(['solve', '--problem', 'lv:m=3:seed=5', '--n', '8', "
                "'--out', sys.argv[1] + '/lv.csv']); "
                "print(mods())")
        out = _run_python(["-c", code, str(tmp_path)], check=True)
        assert out.stdout.split("\n")[:3] == ["[]", "[]", "[]"]

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
        assert np.array_equal(mat, dense_weights(wm))

    # m = 129 and 513: several row blocks, the last one partial
    @pytest.mark.parametrize("n", [64, 256])
    def test_bytes_match_dense_oracle(self, n, tmp_path):
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        assert main(["dump-weights", "--problem", "example3", "--n", str(n),
                     "--out", str(out)]) == EXIT_OK
        iv = desinc.problem_from_name("example3").problem.iv
        wm = desinc.build_weights(desinc.build_grid(iv, n))
        np.savetxt(ref, dense_weights(wm), fmt="%.17e", delimiter=",")
        assert out.read_bytes() == ref.read_bytes()

    def test_forms_no_dense_weights(self, peak_bytes, monkeypatch):
        # formatting the 4.2 million values of N = 1024 under tracemalloc
        # takes most of a minute, so savetxt only records the shape of each
        # block it is handed; its own memory is one row of text at a time
        shapes = []
        monkeypatch.setattr(cli.np, "savetxt", lambda fh, a, **kw: shapes.append(a.shape))
        cfg = RunConfig(n_list=[1024], output=os.devnull)
        peak = peak_bytes(lambda: cli.cmd_dump_weights(cfg))
        m = 2 * 1024 + 1
        assert sum(rows for rows, _ in shapes) == m and {cols for _, cols in shapes} == {m}
        assert peak < 8 * m**2 / 8


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


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "8,16"],
    ["trace", "--n", "8", "--max-sweeps", "4"],
    ["analyze", "--n", "4,8"],
    ["dump-weights", "--n", "8"],
], ids=lambda argv: argv[0])
def test_stdout_matches_file_output(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(argv + ["--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
    # the command wrote to stdout without closing it
    assert not sys.stdout.closed


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_keeps_short_metavars(capsys, command):
    # argparse names a metavar after its dest: the options keep the dests
    # of their flags (args.n), not of their RunConfig fields (n_list)
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    usage = capsys.readouterr().out
    for item in ("[--n N]", "[--h H]", "[--out OUT]"):
        assert item in usage


# (flag, its RunConfig field, a text that the flag does not read as a
# number): 1.5 and 1e3 are floats, so valid values of --tol and --h
UNREAD_FLAG_TEXTS = [(flag, key, text) for flag, key, texts in [
    ("--tol", "tol", ["abc", "0x10", ""]),
    ("--h", "h_override", ["abc", "0x10", ""]),
    ("--max-sweeps", "max_sweeps", ["abc", "0x10", "1.5", "1e3", ""]),
    ("--n", "n_list", ["abc", "0x10", "1.5", "1e3", ""]),
    ("--method", "method", ["abc", "0x10", "1.5", "1e3", ""]),
] for text in texts]


def _rejected_by_main(data, capsys) -> str:
    """The message with which RunConfig(**data) raises, after checking that
    main, run in an empty directory, rejects a config file holding data
    with that message and writes nothing."""
    with pytest.raises(ValueError) as err:
        RunConfig(**data)
    Path("cfg.json").write_text(json.dumps(data))
    assert main(["solve", "--config", "cfg.json"]) == EXIT_BAD_CONFIG
    assert capsys.readouterr() == ("", f"error: {err.value}\n")
    assert os.listdir() == ["cfg.json"]
    return str(err.value)


class TestConfigHandling:
    @pytest.mark.parametrize("flag, key, file_val, flag_val, flag_cfg_val",
                             [pytest.param(*case, id=case[0]) for case in FLAG_CASES])
    def test_config_file_with_flag_override(self, tmp_path,
                                            flag, key, file_val, flag_val, flag_cfg_val):
        cfgfile = tmp_path / "cfg.json"
        # an output file, because --plot-script needs one
        cfgfile.write_text(json.dumps({"output": "out.csv", key: file_val}))

        def load(*flags):
            args = cli._build_parser().parse_args(["solve", "--config", str(cfgfile), *flags])
            return cli._load_config(args)

        assert getattr(load(flag, flag_val), key) == flag_cfg_val  # the flag wins
        assert getattr(load(), key) == file_val  # an unset flag keeps the file value

    @pytest.mark.parametrize("n_arg, item", [("abc", "abc"), ("8,x", "x")])
    def test_non_integer_n_names_the_item(self, capsys, n_arg, item):
        # int()'s own message used to reach stderr
        assert main(["solve", "--n", n_arg]) == EXIT_BAD_CONFIG
        assert capsys.readouterr() == ("", "error: N must be an integer of at least 2, "
                                           f"got {item!r}\n")

    def test_non_integer_n_checked_in_field_order(self, tmp_path, capsys):
        # RunConfig checks problem before N, as for a config file's n_list
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"problem": 3}))
        assert main(["solve", "--config", str(cfgfile), "--n", "x,1"]) == EXIT_BAD_CONFIG
        assert capsys.readouterr() == ("", "error: problem must be a string, got 3\n")

    @pytest.mark.parametrize("data, message", [
        pytest.param({"n_list": [8], "tol": 0.0}, "tol must be positive and finite, got 0.0",
                     id="tol-zero"),
        pytest.param({"n_list": []}, "N list must be nonempty", id="n_list-empty"),
        pytest.param({"method": "bogus"}, "unknown method 'bogus'", id="method-unknown"),
        pytest.param({"plot_script": "p.py"},
                     "--plot-script needs --out FILE: the script reads the CSV file",
                     id="plot_script-to-stdout"),
        pytest.param({"output": "a.csv", "plot_script": "a.csv"},
                     "--plot-script names the --out file 'a.csv': "
                     "the script would overwrite the CSV", id="plot_script-is-output"),
    ])
    def test_invalid_config_cannot_be_built(self, tmp_path, monkeypatch, capsys, data, message):
        # a direct cmd_solve call used to run the first three: 50 sweeps and
        # exit 0 unconverged at tol 0, or a header and then exit 0 or a raise
        monkeypatch.chdir(tmp_path)
        assert _rejected_by_main(data, capsys) == message

    @pytest.mark.parametrize("data, message", [
        pytest.param({"problem": 3}, "problem must be a string, got 3", id="problem-int"),
        pytest.param({"output": 3}, "output must be a string, got 3", id="output-int"),
        pytest.param({"output": "x.csv", "plot_script": 3}, "plot_script must be a string, got 3",
                     id="plot_script-int"),
        pytest.param({"n_list": 8}, "n_list must be a list, got 8", id="n_list-int"),
    ])
    def test_mistyped_field_cannot_be_built(self, tmp_path, monkeypatch, capsys, data, message):
        # each was built, and problem=3 and n_list=8 failed only when run
        monkeypatch.chdir(tmp_path)
        assert _rejected_by_main(data, capsys) == message

    def test_descriptor_output_rejected_and_left_open(self):
        # an int output was taken for a file descriptor: cmd_solve wrote the
        # CSV into it and closed it
        read_end, write_end = os.pipe()
        try:
            with pytest.raises(ValueError, match=f"^output must be a string, got {write_end}$"):
                cli.cmd_solve(RunConfig(n_list=[8], output=write_end))
            os.fstat(write_end)  # OSError if the descriptor was closed
        finally:
            os.close(read_end)
            with contextlib.suppress(OSError):
                os.close(write_end)

    def test_config_is_frozen(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tol = 1e-10
        assert not hasattr(RunConfig, "validate")

    def test_invalid_inputs_exit_2(self, tmp_path):
        assert main(["solve", "--problem", "nope", "--out", "-"]) == EXIT_BAD_CONFIG
        assert main(["solve", "--problem", "example1", "--n", "1"]) == EXIT_BAD_CONFIG
        assert main(["solve", "--problem", "example1", "--n", "abc"]) == EXIT_BAD_CONFIG
        assert main(["solve", "--problem", "example1", "--tol", "-1"]) == EXIT_BAD_CONFIG
        for flag in ("--tol", "--h"):
            for val in ("nan", "inf"):
                assert main(["solve", "--n", "8", flag, val]) == EXIT_BAD_CONFIG
        nan_tol = tmp_path / "nan.json"
        nan_tol.write_text('{"tol": NaN}')
        assert main(["solve", "--config", str(nan_tol)]) == EXIT_BAD_CONFIG
        assert main(["solve", "--config", str(tmp_path / "missing.json")]) == EXIT_BAD_CONFIG
        bad = tmp_path / "bad.json"
        bad.write_text('{"frobnicate": 1}')
        assert main(["solve", "--config", str(bad)]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("spec", ["lv:x=3", "example2:m=3", "lv", "example1:n=3"])
    def test_bad_problem_parameter_exits_2(self, capsys, spec):
        assert main(["solve", "--problem", spec, "--n", "8"]) == EXIT_BAD_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: bad parameters in problem {spec!r}")

    @pytest.mark.parametrize("spec, reason", [pytest.param(spec, reason, id=spec) for spec, reason in [
        ("lv:m=3:m=4", "m given twice"),
        ("example2:n=11:n=13", "n given twice"),
        ("example2:n=abc", "n must be an integer of at least 3, got 'abc'"),
        ("lv:m=3:seed=-1", "seed must be an integer of at least 0, got -1"),
        ("example2:n=4", "n must be odd and at least 3, got 4"),
        ("lv:m=1", "m must be an integer of at least 2, got 1"),
        ("lv:m=x", "m must be an integer of at least 2, got 'x'"),
        ("lv:m=1.5", "m must be an integer of at least 2, got '1.5'"),
        ("lv:m=3:seed=x", "seed must be an integer of at least 0, got 'x'"),
    ]])
    def test_problem_spec_errors_name_the_spec(self, capsys, spec, reason):
        # a repeated key used to solve with its last value and exit 0; the
        # others exited 2 without naming the spec.  A text that is no
        # integer is judged by the factory, as an integer out of range is
        assert main(["solve", "--problem", spec, "--n", "8"]) == EXIT_BAD_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: bad parameters in problem {spec!r}: ")
        if reason is not None:
            assert err.endswith(f": {reason}\n")

    @pytest.mark.parametrize("key, val", [
        pytest.param(f.name, val, id=f"{f.name}-{kind}") for f in dataclasses.fields(RunConfig)
        for kind, val in [("null", None), ("bool", True), ("int", 8), ("huge-int", 10**400),
                          ("float", 2.5), ("nan", math.nan), ("string", "8"), ("list", [8]),
                          ("object", {"a": 1})]])
    def test_mistyped_config_value_exits_2(self, tmp_path, monkeypatch, capsys, key, val):
        # RunConfig is the loader's only check of a value: a value it
        # rejects fails main with RunConfig's own message, and one it
        # accepts reaches the config unchanged
        monkeypatch.chdir(tmp_path)
        try:
            RunConfig(**{key: val})
        except ValueError:
            _rejected_by_main({key: val}, capsys)
        else:
            Path("cfg.json").write_text(json.dumps({key: val}))
            args = cli._build_parser().parse_args(["solve", "--config", "cfg.json"])
            assert getattr(cli._load_config(args), key) == val

    @pytest.mark.parametrize("flag, key, text", UNREAD_FLAG_TEXTS,
                             ids=[f"{flag}={text!r}" for flag, _, text in UNREAD_FLAG_TEXTS])
    def test_flag_text_judged_as_in_a_config_file(self, tmp_path, monkeypatch, capsys,
                                                  flag, key, text):
        # argparse judged --tol, --h, --max-sweeps and --method itself, with
        # a usage block and a message of its own; now RunConfig alone does
        def run(argv, data=None):
            work = tmp_path / ("file" if data else "flag")
            work.mkdir()
            monkeypatch.chdir(work)
            if data:
                Path("cfg.json").write_text(json.dumps(data))
            status = main(["solve", "--out", "out.csv", *argv])
            return status, capsys.readouterr(), sorted(os.listdir())

        # the flag's items, as a config file's n_list holds them
        val = [v for v in text.split(",") if v] if key == "n_list" else text
        by_flag = run([flag, text])
        by_file = run(["--config", "cfg.json"], {key: val})
        assert by_flag[:2] == by_file[:2]
        assert by_flag[0] == EXIT_BAD_CONFIG and by_flag[1].out == ""
        assert by_flag[1].err.startswith("error: ") and "usage" not in by_flag[1].err
        assert (by_flag[2], by_file[2]) == ([], ["cfg.json"])

    @pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe{}"], ids=["not-json", "not-utf-8"])
    def test_config_file_not_json_is_named(self, tmp_path, monkeypatch, capsys, content):
        # the decoder's message used to reach stderr alone
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_bytes(content)
        assert main(["solve", "--config", "cfg.json", "--out", "out.csv"]) == EXIT_BAD_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: config file 'cfg.json' is not JSON: ")
        assert os.listdir() == ["cfg.json"]

    @pytest.mark.parametrize("text", ["5", "null", "[8]"])
    def test_config_file_not_an_object_exits_2(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        assert main(["solve", "--config", str(cfgfile)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith("error: config file must hold a JSON object")

    def test_config_number_and_null_values_accepted(self, tmp_path):
        # an integer is a valid float, and null a valid value of a field
        # whose default is None
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"tol": 1, "h_override": None, "plot_script": None}))
        args = cli._build_parser().parse_args(["solve", "--config", str(cfgfile)])
        cfg = cli._load_config(args)
        assert (cfg.tol, cfg.h_override, cfg.plot_script) == (1, None, None)

    def test_integer_config_step_writes_what_the_flag_writes(self, tmp_path, monkeypatch):
        # the grid stores h as a float, so the h column read "1" from the
        # config but "1.0" from --h 1
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"h_override": 1, "output": "a.csv"}))
        assert main(["solve", "--n", "8", "--config", "cfg.json"]) == EXIT_OK
        assert main(["solve", "--n", "8", "--h", "1", "--out", "b.csv"]) == EXIT_OK
        assert Path("a.csv").read_text().splitlines()[1].startswith("8,1.0,")
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()

    def test_plot_script_emitted(self, tmp_path):
        out = tmp_path / "out.csv"
        script = tmp_path / "plot.py"
        rc = main(["solve", "--problem", "example1", "--n", "8",
                   "--out", str(out), "--plot-script", str(script)])
        assert rc == EXIT_OK
        assert script.exists()
        compile(script.read_text(), str(script), "exec")

    def test_plot_script_without_output_file_rejected(self, tmp_path, capsys):
        script = tmp_path / "plot.py"
        rc = main(["solve", "--problem", "example1", "--n", "8", "--plot-script", str(script)])
        assert rc == EXIT_BAD_CONFIG
        assert not script.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --plot-script needs --out FILE")

    @pytest.mark.parametrize("script", ["out.csv", "./out.csv"])
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_plot_script_naming_the_output_rejected(self, tmp_path, monkeypatch, capsys,
                                                    script, via):
        # the script used to overwrite the CSV, with exit 0
        monkeypatch.chdir(tmp_path)
        if via == "flags":
            argv = ["--out", "out.csv", "--plot-script", script]
        else:
            Path("cfg.json").write_text(json.dumps({"output": "out.csv", "plot_script": script}))
            argv = ["--config", "cfg.json"]
        assert main(["solve", "--problem", "example1", "--n", "8", *argv]) == EXIT_BAD_CONFIG
        assert not Path("out.csv").exists()
        assert capsys.readouterr() == ("", "error: --plot-script names the --out file 'out.csv': "
                                           "the script would overwrite the CSV\n")

    @pytest.mark.parametrize("flag, key", [("--out", "output"), ("--plot-script", "plot_script")])
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_output_naming_the_config_rejected(self, tmp_path, monkeypatch, capsys, flag, key,
                                               via):
        # --out and --plot-script used to replace the config file, with exit 0
        monkeypatch.chdir(tmp_path)
        data = {"n_list": [8]} if key == "output" else {"n_list": [8], "output": "x.csv"}
        if via == "config":
            data[key] = "./c.json"
        Path("c.json").write_text(json.dumps(data))
        before = Path("c.json").read_bytes()
        argv = ["--config", "c.json"] + ([flag, "c.json"] if via == "flags" else [])
        assert main(["solve", "--problem", "example1", *argv]) == EXIT_BAD_CONFIG
        assert Path("c.json").read_bytes() == before and not Path("x.csv").exists()
        assert capsys.readouterr() == ("", f"error: {flag} names the --config file 'c.json': "
                                           "it would overwrite the config\n")

    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_plot_script_rejected_by_dump_weights(self, tmp_path, monkeypatch, capsys, via):
        monkeypatch.chdir(tmp_path)
        if via == "flags":
            argv = ["--out", "w.csv", "--plot-script", "plot.py"]
        else:
            Path("cfg.json").write_text(json.dumps({"output": "w.csv", "plot_script": "plot.py"}))
            argv = ["--config", "cfg.json"]
        rc = main(["dump-weights", "--problem", "example1", "--n", "4", *argv])
        assert rc == EXIT_BAD_CONFIG
        assert not Path("w.csv").exists() and not Path("plot.py").exists()
        assert capsys.readouterr() == ("", "error: dump-weights writes no plot script; "
                                           "drop --plot-script\n")
        # a direct call wrote the CSV and silently no script
        with pytest.raises(ValueError, match="^dump-weights writes no plot script; "
                                             "drop --plot-script$"):
            cli.cmd_dump_weights(RunConfig(n_list=[4], output="w.csv", plot_script="plot.py"))
        assert sorted(os.listdir()) == (["cfg.json"] if via == "config" else [])

    @pytest.mark.parametrize("via", ["flags", "config"])
    @pytest.mark.parametrize("command", ["trace", "dump-weights"])
    def test_requires_single_n(self, tmp_path, monkeypatch, capsys, command, via):
        monkeypatch.chdir(tmp_path)
        if via == "flags":
            argv = ["--n", "8,16", "--out", "x.csv"]
        else:
            Path("cfg.json").write_text(json.dumps({"n_list": [8, 16], "output": "x.csv"}))
            argv = ["--config", "cfg.json"]
        assert main([command, "--problem", "example1", *argv]) == EXIT_BAD_CONFIG
        assert capsys.readouterr() == ("", f"error: {command} needs exactly one N\n")
        # a direct call refuses with main's message; it failed to unpack
        # the two grids
        with pytest.raises(ValueError, match=f"^{command} needs exactly one N$"):
            cli._COMMANDS[command][0](RunConfig(n_list=[8, 16], output="x.csv"))
        assert not Path("x.csv").exists()

    def test_overflowing_step_writes_nothing(self, tmp_path, capsys):
        # N*h = 6.4e308 made s = j*h infinite at N = 64: the CSV got a
        # header and NaN rows, with RuntimeWarnings, and the exit code was 1
        out = tmp_path / "out.csv"
        for target in (str(out), "-"):
            rc = main(["solve", "--n", "8,64", "--h", "1e307", "--out", target])
            assert rc == EXIT_BAD_CONFIG
            assert capsys.readouterr() == ("", "error: h must be small enough that N*h is "
                                               "finite, got 1e+307 at N = 64\n")
        assert not out.exists()

    def test_step_beyond_the_float_range_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # an integer h_override above the largest double passed the
        # positive-finite check, and float(h) raised an OverflowError that
        # main printed as a traceback, exit 1
        monkeypatch.chdir(tmp_path)
        Path("big.json").write_text('{"n_list": [8], "h_override": 1' + "0" * 400 + "}")
        assert main(["solve", "--config", "big.json", "--out", "out.csv"]) == EXIT_BAD_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: h must be positive and finite, got 1000")
        assert sorted(os.listdir()) == ["big.json"]

    def test_count_beyond_the_float_range_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # an N above the largest double passed the count check, and
        # log(N)/N raised an OverflowError that main printed as a
        # traceback, exit 1; the grid's bound on N, 2**59 - 1 on a 64-bit
        # host, now rejects it
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--n", "1" + "0" * 400, "--out", "out.csv"]) == EXIT_BAD_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: N must be at most ") and "got 1000" in err
        assert os.listdir() == []


class TestParserReuse:
    # main parses with one parser per process
    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("stop_argv, code", [(["solve", "--frobnicate"], 2),
                                                 (["solve", "--help"], 0)],
                             ids=["usage-error", "help"])
    def test_main_runs_after_parser_exit(self, tmp_path, capsys, stop_argv, code):
        with pytest.raises(SystemExit) as stop:
            main(stop_argv)
        assert stop.value.code == code
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert main(["solve", "--n", "8", "--out", str(out)]) == EXIT_OK
        assert read_csv(out)[1][:2] == ["8", repr(math.log(8) / 8)]

    def test_step_flag_does_not_carry_over(self, tmp_path):
        # a Namespace of the last call must not leak its --h into the next
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--n", "8", "--h", "0.05", "--out", str(a)]) == EXIT_OK
        assert main(["solve", "--n", "8", "--out", str(b)]) == EXIT_OK
        assert read_csv(a)[1][1] == "0.05"
        assert read_csv(b)[1][1] == repr(math.log(8) / 8)


class TestModuleEntry:
    def test_python_m_runs_main(self):
        out = _run_python(["-m", "desinc.cli", "solve", "--n", "8"])
        assert (out.returncode, out.stderr) == (EXIT_OK, "")
        assert out.stdout.splitlines()[0] == "N,h,E1,sweeps,converged"
        assert out.stdout.splitlines()[1].startswith("8,")

    def test_python_m_exits_with_main_status(self):
        out = _run_python(["-m", "desinc.cli", "solve", "--n", "1"])
        assert (out.returncode, out.stdout) == (EXIT_BAD_CONFIG, "")
        assert out.stderr == "error: N must be an integer of at least 2, got 1\n"
