import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qpush as qp
from qpush.cli import main
from qpush.errors import ConfigurationError
from qpush.report import TRACE_COLUMNS, parse_trace_csv

from helpers import TOPOLOGY_SPEC

GOOD_PROBLEM = {"n": 2, "m": 1, "box": {"lo": [0, 0], "hi": [1, 1]},
                "linear": {"A": [[1, 1]], "b": [1]},
                "objective": {"kind": "linear", "c": [-1, -1]}}


def reference_file(tmp_path, shift=0.0):
    z_star, lam_star, f_star = qp.fig1_reference()
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({
        "f_star": f_star + shift,
        "x_star": list(z_star),
        "lambda_star": list(lam_star),
        "beta": qp.get_problem("fig1-num").program.beta_hint,
    }))
    return str(path)


def strict_json(path):
    """The standard JSON in the file at ``path``: the NaN, Infinity and
    -Infinity that Python's parser takes by default raise ValueError."""
    def refuse(token):
        raise ValueError(f"{token} is not standard JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_run_writes_trace_and_summary(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--problem", "fig1-num", "--algo", "vq", "--alpha", "10",
                 "--T", "200", "--out", str(out)])
    assert code == 0
    cols = parse_trace_csv(out / "trace.csv")
    assert cols["t"][-1] == 200
    summary = json.loads((out / "summary.json").read_text())
    assert summary["alpha"] == 10.0
    assert summary["sense"] == "max"
    assert summary["beta_spectral"] == pytest.approx(2.4307, abs=1e-3)
    assert summary["alpha_half_hop_rule"] == 12.0
    assert not (out / "trace_full.csv").exists()


def test_run_full_trace_and_plot(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--problem", "fig1-num", "--T", "150", "--alpha", "10",
                 "--out", str(out), "--full-trace", "--plot"])
    assert code == 0
    assert (out / "trace_full.csv").exists()
    svg = out / "convergence.svg"
    assert svg.exists()
    # re-plotting the saved trace reproduces the file byte for byte
    replot = tmp_path / "replot"
    code = main(["plot", "--trace", str(out / "trace.csv"), "--problem",
                 "fig1-num", "--out", str(replot)])
    assert code == 0
    assert (replot / "convergence.svg").read_bytes() == svg.read_bytes()


def test_run_plot_with_bound_columns_equals_its_replot(tmp_path):
    # run renders its SVG from the report's columns; plot reads trace.csv
    out = tmp_path / "out"
    code = main(["run", "--problem", "fig1-num", "--T", "120", "--alpha", "10",
                 "--verify-bounds", reference_file(tmp_path), "--plot", "--out", str(out)])
    assert code == 0
    assert np.isfinite(parse_trace_csv(out / "trace.csv")["obj_bound_residual"]).all()
    replot = tmp_path / "replot"
    assert main(["plot", "--trace", str(out / "trace.csv"), "--problem", "fig1-num",
                 "--out", str(replot)]) == 0
    assert (replot / "convergence.svg").read_bytes() == (out / "convergence.svg").read_bytes()


def test_run_dsg_overlay_compatible(tmp_path):
    out_v = tmp_path / "vq"
    out_d = tmp_path / "dsg"
    assert main(["run", "--problem", "fig1-num", "--algo", "vq", "--alpha", "10",
                 "--T", "100", "--out", str(out_v)]) == 0
    assert main(["run", "--problem", "fig1-num", "--algo", "dsg", "--gamma",
                 "0.01", "--T", "100", "--out", str(out_d)]) == 0
    head_v = (out_v / "trace.csv").read_text().splitlines()[0]
    head_d = (out_d / "trace.csv").read_text().splitlines()[0]
    assert head_v == head_d
    summary = json.loads((out_d / "summary.json").read_text())
    assert summary["gamma"] == 0.01 and summary["algorithm"] == "dsg"


def test_run_qp_alpha_auto(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--problem", "qp", "--seed", "1", "--algo", "vq",
                 "--alpha", "auto", "--T", "50", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    beta = qp.generate_qp(1).beta()
    assert summary["alpha"] == pytest.approx(0.5 * beta * beta + 1.0)
    assert summary["alpha_rule"] == "auto"


def test_run_problem_file(tmp_path):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(GOOD_PROBLEM))
    out = tmp_path / "out"
    code = main(["run", "--problem-file", str(pf), "--alpha", "2",
                 "--T", "500", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    # minimize -x1-x2 s.t. x1+x2 <= 1: optimum -1
    assert summary["f_xbar"] == pytest.approx(-1.0, abs=1e-2)


def test_frobenius_line_of_a_sparse_problem_file(tmp_path):
    # 32 * nnz < m * n: the products are segment sums, and the norm comes from the values
    A = np.zeros((3, 120))
    A[0, :2], A[1, 5], A[2, 7:9] = 1.0, 2.0, [-3.0, 0.5]
    pf = tmp_path / "sparse.json"
    pf.write_text(json.dumps({"n": 120, "m": 3, "box": {"lo": 0, "hi": 1},
                              "linear": {"A": A.tolist(), "b": [1, 1, 1]},
                              "objective": {"kind": "linear", "c": [-1] * 120}}))
    assert qp.load_program(str(pf)).constraint_terms._segment_sums
    out = tmp_path / "out"
    assert main(["run", "--problem-file", str(pf), "--alpha", "auto", "--T", "20",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["beta_frobenius"] == np.linalg.norm(A) == math.sqrt(15.25)
    assert np.linalg.norm(A, 2) <= summary["beta_spectral"] <= np.linalg.norm(A, 2) * (1 + 1e-12)


def test_run_custom_x_init_file(tmp_path):
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps([0.1] * 7 + [0.2] * 3))
    out = tmp_path / "out"
    code = main(["run", "--problem", "fig1-num", "--alpha", "10", "--T", "50",
                 "--x-init", str(x0), "--out", str(out)])
    assert code == 0
    # an initial point outside the box is a configuration error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([5.0] * 10))
    assert main(["run", "--problem", "fig1-num", "--alpha", "10", "--T", "50",
                 "--x-init", str(bad), "--out", str(out)]) == 2


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    envdir = tmp_path / "from-env"
    monkeypatch.setenv("QPUSH_OUT", str(envdir))
    code = main(["run", "--problem", "fig1-num", "--alpha", "10", "--T", "50"])
    assert code == 0
    assert (envdir / "trace.csv").exists()


def test_config_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--problem-file", str(bad), "--alpha", "1",
                 "--T", "10", "--out", str(tmp_path)]) == 2
    assert main(["run", "--problem", "fig1-num", "--alpha", "ten",
                 "--T", "10", "--out", str(tmp_path)]) == 2
    missing = main(["run", "--T", "10", "--out", str(tmp_path)])
    assert missing == 2


@pytest.mark.parametrize("problem, reference", [
    ([1, 2], None),
    ({**GOOD_PROBLEM, "box": "x"}, None),
    ({**GOOD_PROBLEM, "objective": "linear"}, None),
    ({**GOOD_PROBLEM, "objective": {"kind": "linear"}}, None),
    (GOOD_PROBLEM, [1, 2]),
    ({**GOOD_PROBLEM, "linear": {"A": [[1, 1]], "b": [float("inf")]}}, None),
], ids=["list", "box-string", "objective-string", "no-c", "reference-list", "infinite-b"])
def test_malformed_input_files_exit_2(tmp_path, problem, reference):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(problem))
    argv = [sys.executable, "-m", "qpush", "run", "--problem-file", str(pf), "--alpha", "2",
            "--T", "10", "--out", str(tmp_path / "out")]
    if reference is not None:
        rf = tmp_path / "ref.json"
        rf.write_text(json.dumps(reference))
        argv += ["--verify-bounds", str(rf)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error: ")


RUN_FIG1 = ["run", "--problem", "fig1-num"]


@pytest.mark.parametrize("args, content", [
    (RUN_FIG1 + ["--x-init"], {"a": 1}),
    (RUN_FIG1 + ["--x-init"], [{"a": 1}]),
    (RUN_FIG1 + ["--x-init"], None),
    (["run", "--problem-file"], None),
    (RUN_FIG1 + ["--verify-bounds"], None),
    (["verify", "--problem", "fig1-num", "--reference"], None),
], ids=["x-init-object", "x-init-objects", "x-init-dir", "problem-file-dir",
        "verify-bounds-dir", "reference-dir"])
def test_unreadable_input_files_exit_2(tmp_path, args, content):
    # content None names a directory instead of a file
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(content))
    argv = [sys.executable, "-m", "qpush", *args, str(path), "--alpha", "10", "--T", "10",
            "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error: ")


def test_plot_of_a_directory_exits_2(tmp_path):
    argv = [sys.executable, "-m", "qpush", "plot", "--trace", str(tmp_path),
            "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error: ")


@pytest.mark.parametrize("command", ["run", "plot"])
def test_an_output_file_that_is_a_directory_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    (out / "convergence.svg").mkdir(parents=True)
    run = ["run", "--problem", "fig1-num", "--alpha", "10", "--T", "10"]
    if command == "plot":
        assert main(run + ["--out", str(tmp_path)]) == 0
        argv = ["plot", "--trace", str(tmp_path / "trace.csv"), "--out", str(out)]
    else:
        argv = run + ["--plot", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "convergence.svg" in err


@pytest.mark.parametrize("field, length", [("x_star", 2), ("lambda_star", 3)])
def test_reference_of_the_wrong_length_exits_2(tmp_path, capsys, field, length):
    with open(reference_file(tmp_path)) as fh:
        ref = json.load(fh)
    expected = len(ref[field])
    ref[field] = [0.0] * length
    path = tmp_path / "short.json"
    path.write_text(json.dumps(ref))
    code = main(["verify", "--problem", "fig1-num", "--alpha", "10", "--T", "10",
                 "--reference", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (f"configuration error: reference {field} has length "
                                       f"{length}, expected length {expected}\n")


def test_reference_with_a_string_f_star_exits_2(tmp_path, capsys):
    with open(reference_file(tmp_path)) as fh:
        ref = json.load(fh)
    path = tmp_path / "bad-ref.json"
    path.write_text(json.dumps({**ref, "f_star": "x"}))
    code = main(["verify", "--problem", "fig1-num", "--alpha", "10", "--T", "10",
                 "--reference", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == ("configuration error: malformed reference file: "
                                       "could not convert string to float: 'x'\n")


def test_problem_file_without_constraint_rows_runs(tmp_path):
    problem = tmp_path / "m0.json"
    problem.write_text(json.dumps({"n": 2, "m": 0, "box": {"lo": [0, 0], "hi": [1, 1]},
                                   "linear": {"A": [], "b": []},
                                   "objective": {"kind": "linear", "c": [1, -1]}}))
    out = tmp_path / "out"
    assert main(["run", "--problem-file", str(problem), "--alpha", "auto", "--T", "20",
                 "--plot", "--full-trace", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_violation"] is None and summary["beta_hint"] == 0.0
    # x_1 moves from 0 to 1/2 at t = 1 and stays at its bound 1 from t = 2
    assert summary["alpha"] == 1.0 and summary["objective"] == pytest.approx(-19.5 / 20)
    assert (out / "trace_full.csv").read_text().splitlines()[0] == "t,x_0,x_1"
    assert (out / "convergence.svg").exists()


def test_summary_and_bench_files_are_standard_json(tmp_path, capsys):
    # alpha = 1 is below beta^2/2 = 2.95: three bounds are skipped, worst margin NaN
    skipped = tmp_path / "skipped"
    with pytest.warns(qp.AlphaBelowCurvatureWarning):
        assert main(["verify", "--problem", "fig1-num", "--alpha", "1", "--T", "50",
                     "--reference", reference_file(tmp_path), "--out", str(skipped)]) == 0
    bounds = strict_json(skipped / "summary.json")["bounds"]
    for name in ("objective", "constraint", "queue"):
        assert bounds[name]["passed"] is None and bounds[name]["worst_margin"] is None
    assert bounds["queue_lower"]["passed"] is True
    # m = 0: the maximum violation over no rows is -inf
    problem = tmp_path / "m0.json"
    problem.write_text(json.dumps({"n": 2, "m": 0, "box": {"lo": [0, 0], "hi": [1, 1]},
                                   "linear": {"A": [], "b": []},
                                   "objective": {"kind": "linear", "c": [1, -1]}}))
    for command in ("run", "bench"):
        out = tmp_path / command
        assert main([command, "--problem-file", str(problem), "--alpha", "1", "--T", "20",
                     "--out", str(out)]) == 0
    assert strict_json(tmp_path / "run" / "summary.json")["max_violation"] is None
    rows = strict_json(tmp_path / "bench" / "bench.json")
    assert [row["max_violation"] for row in rows] == [None, None]
    # the printed summary keeps the float
    assert "max violation -inf" in capsys.readouterr().out


def test_unusable_output_directory_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub"):
        code = main(["run", "--problem", "fig1-num", "--alpha", "10", "--T", "10",
                     "--out", str(out)])
        assert code == 2
        assert "unusable output directory" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--alpha", "nan"], ["--alpha", "inf"],
                                   ["--algo", "dsg", "--gamma", "nan"],
                                   ["--algo", "dsg", "--gamma", "inf"]])
def test_non_finite_step_parameters_exit_2(tmp_path, capsys, flags):
    code = main(["run", "--problem", "fig1-num", "--T", "10", "--out", str(tmp_path)] + flags)
    assert code == 2
    assert "must be positive and finite" in capsys.readouterr().err


def test_overflowing_multiplier_exits_3(tmp_path, capsys):
    with np.errstate(over="ignore"):
        code = main(["run", "--problem", "fig1-num", "--algo", "dsg", "--gamma", "1e308",
                     "--T", "10", "--out", str(tmp_path)])
    assert code == 3
    assert "multiplier is not finite at iteration 0" in capsys.readouterr().err


def test_invariant_violation_exits_3(tmp_path, monkeypatch, capsys):
    real_update = qp.solver.queue_update

    def faulty(Q, g):
        return real_update(Q, g) - 1.0   # queues 1 below their transition

    monkeypatch.setattr(qp.solver, "queue_update", faulty)
    code = main(["run", "--problem", "fig1-num", "--alpha", "10", "--T", "50",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "at iteration 0" in capsys.readouterr().err


def test_verify_passes_and_fails(tmp_path):
    good = reference_file(tmp_path)
    out = tmp_path / "ok"
    code = main(["verify", "--problem", "fig1-num", "--alpha", "10", "--T", "300",
                 "--reference", good, "--out", str(out)])
    assert code == 0
    assert (out / "bounds.csv").exists()
    # an understated optimum makes the objective bound fail
    bad = reference_file(tmp_path, shift=-1.0)
    code = main(["verify", "--problem", "fig1-num", "--alpha", "10", "--T", "300",
                 "--reference", bad, "--out", str(tmp_path / "bad")])
    assert code == 4


@pytest.mark.parametrize("field, value", [
    ("f_star", math.nan), ("f_star", math.inf), ("beta", math.nan), ("beta", math.inf),
    ("x_star", math.nan), ("lambda_star", -math.inf),
])
def test_non_finite_reference_exits_2(tmp_path, capsys, field, value):
    # a NaN or infinite beta would mark three bounds skipped and certify nothing
    with open(reference_file(tmp_path)) as fh:
        ref = json.load(fh)
    ref[field] = value if field in ("f_star", "beta") else [value] + ref[field][1:]
    path = tmp_path / "bad-ref.json"
    path.write_text(json.dumps(ref))
    code = main(["verify", "--problem", "fig1-num", "--alpha", "10", "--T", "50",
                 "--reference", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: reference {field} must be finite\n"


@pytest.mark.parametrize("flags", [["--algo", "dsg"], ["--gamma", "0.1"]])
def test_verify_takes_no_algorithm_or_step_size(tmp_path, capsys, flags):
    # verify certifies a virtual-queue run only, so it takes neither flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--problem", "fig1-num", "--T", "10", "--reference",
              reference_file(tmp_path), "--out", str(tmp_path)] + flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_run_with_bound_residuals(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--problem", "fig1-num", "--alpha", "10", "--T", "300",
                 "--verify-bounds", reference_file(tmp_path), "--out", str(out)])
    assert code == 0
    cols = parse_trace_csv(out / "trace.csv")
    assert np.all(np.isfinite(cols["obj_bound_residual"]))
    assert np.all(cols["obj_bound_residual"] >= -1e-9)
    assert (out / "bounds.csv").exists()


def test_bench_table(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["bench", "--problem", "fig1-num", "--T", "400",
                 "--gamma", "0.01", "--out", str(out)])
    assert code == 0
    rows = json.loads((out / "bench.json").read_text())
    assert {r["algorithm"] for r in rows} == {"vq", "dsg"}
    printed = capsys.readouterr().out
    assert "smaller final error" in printed


def test_bench_of_a_problem_file_without_alpha_exits_2(tmp_path, capsys):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(GOOD_PROBLEM))
    code = main(["bench", "--problem-file", str(pf), "--T", "10", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: --alpha is required for this problem\n"


@pytest.mark.parametrize("content, missing", [
    ("", "t"),
    ("t,f_xbar\n", "max_violation"),
    (",".join(TRACE_COLUMNS) + "\n", None),
], ids=["empty", "header-without-max_violation", "full-header"])
def test_plot_of_a_trace_without_a_plotted_column_exits_2(tmp_path, capsys, content, missing):
    trace = tmp_path / "trace.csv"
    trace.write_text(content)
    code = main(["plot", "--trace", str(trace), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if missing is None:  # a header and no rows plots empty axes
        assert code == 0 and (tmp_path / "out" / "convergence.svg").exists()
    else:
        assert code == 2
        assert err.startswith("configuration error: ") and f"no '{missing}' column" in err


@pytest.mark.parametrize("row, cells", [("2,0.5", 2), ("2,0.5,0.25,7", 4)], ids=["short", "long"])
def test_plot_of_a_ragged_trace_exits_2(tmp_path, capsys, row, cells):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"t,f_xbar,max_violation\n1,1,0.5\n{row}\n")
    assert main(["plot", "--trace", str(trace), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"configuration error: trace {str(trace)!r} line 3 "
                                       f"has {cells} cells, expected 3\n")


@pytest.mark.parametrize("column, cell", [("t", "inf"), ("f_xbar", "inf"), ("f_xbar", "1e400"),
                                          ("max_violation", "1e400")])
def test_plot_leaves_out_an_infinite_cell_as_it_does_a_nan_one(tmp_path, column, cell):
    header = ["t", "f_xbar", "max_violation"]
    svgs = []
    for value in (cell, "nan"):
        rows = [["1", "0.5", "0.5"], ["2", "0.25", "0.25"], ["4", "0.125", "0.0625"]]
        rows[1][header.index(column)] = value
        out = tmp_path / value  # the trace's file name is the plot's title
        out.mkdir()
        (out / "trace.csv").write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
        assert main(["plot", "--trace", str(out / "trace.csv"), "--f-star", "0",
                     "--out", str(out)]) == 0
        svgs.append((out / "convergence.svg").read_bytes())
    assert svgs[0] == svgs[1]


@pytest.mark.parametrize("command", ["run", "verify", "bench"])
@pytest.mark.parametrize("stride", ["0", "-3"])
def test_record_stride_below_one_exits_2(tmp_path, capsys, command, stride):
    argv = [command, "--problem", "fig1-num", "--alpha", "10", "--T", "10",
            "--record-every", stride, "--out", str(tmp_path)]
    if command == "verify":
        argv += ["--reference", reference_file(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--record-every: must be at least 1" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qpush", "run", "--problem", "fig1-num",
         "--alpha", "10", "--T", "20", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "summary.json").exists()


# Seeded fuzz: valid input files and flags, each run with one to three random
# mutations.  A mutation puts one of FUZZ_VALUES in place of a field, a list
# entry or a flag value, or drops or repeats one; no value names a size that a
# build could allocate.
FUZZ_VALUES = (None, True, "x", [], {}, [[1.0]], [1.0, "a"], -1, 0, 3, 0.5, 1e308, -1e308, 10**400,
               math.nan, math.inf, -math.inf)
FUZZ_FLAGS = {"--alpha": ("0", "-1", "nan", "inf", "auto", "x", "1e308", "1e-300"),
              "--T": ("0", "-3", "1", "x", "2.5"),
              "--record-every": ("0", "-1", "1", "5", "x"),
              "--algo": ("dsg", "x"),
              "--gamma": ("0", "nan", "1e308", "-1", "x"),
              "--seed": ("x", "-1")}
FUZZ_REFERENCE = {"f_star": -1.0, "x_star": [0.5, 0.5], "lambda_star": [1.0], "beta": 1.5}


def _mutate(rng, value):
    """One random change somewhere inside a parsed JSON value."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.8:
        keys = sorted(value) if isinstance(value, dict) else list(range(len(value)))
        key = keys[rng.integers(len(keys))]
        copy = value.copy()
        r = rng.random()
        if r < 0.15:
            del copy[key]
        elif r < 0.25 and isinstance(copy, list):
            copy.append(copy[key])
        else:
            copy[key] = _mutate(rng, value[key])
        return copy
    return FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]


def _exit_code(argv):
    """main's exit code, argparse's for a rejected flag, or the escaped exception."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value with exit 2
        return exc.code
    except Exception as exc:  # escaped main: the console would show a traceback
        return f"{type(exc).__name__}: {exc}"


def test_seeded_fuzz_of_files_and_flags_exits_with_a_documented_code(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    failures = []
    for case in range(300):
        inputs = {"problem": GOOD_PROBLEM, "x0": [0.5, 0.5], "reference": FUZZ_REFERENCE}
        flags = {"--alpha": "2", "--T": "12"}
        draw = rng.random()
        command = "verify" if draw < 0.2 else "bench" if draw < 0.4 else "run"
        for _ in range(rng.integers(1, 4)):
            target = ("problem", "x0", "reference", "flags")[rng.integers(4)]
            if target == "flags":
                name = sorted(FUZZ_FLAGS)[rng.integers(len(FUZZ_FLAGS))]
                flags[name] = FUZZ_FLAGS[name][rng.integers(len(FUZZ_FLAGS[name]))]
            else:
                inputs[target] = _mutate(rng, inputs[target])
        paths = {}
        for name, content in inputs.items():
            paths[name] = tmp_path / f"{case}-{name}.json"
            paths[name].write_text(json.dumps(content))
        argv = [command, "--problem-file", str(paths["problem"]), "--out", str(tmp_path / "out")]
        if command == "run":
            argv += ["--x-init", str(paths["x0"]), "--verify-bounds", str(paths["reference"]),
                     "--plot"]
        elif command == "verify":
            argv += ["--x-init", str(paths["x0"]), "--reference", str(paths["reference"])]
        for name, value in flags.items():  # verify and bench reject --algo, verify --gamma
            argv += [name, value]
        code = _exit_code(argv)
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or "Traceback" in err:
            failures.append((code, inputs, flags, command))
    assert failures == []


# cells a malformed or hand-edited trace may hold
FUZZ_CELLS = ("inf", "-inf", "nan", "1e400", "-1e400", "", "0", "-1", "x", "1e-320")


def test_seeded_fuzz_of_plotted_traces_exits_with_a_documented_code(tmp_path, capsys):
    assert main(["run", "--problem", "fig1-num", "--alpha", "10", "--T", "30",
                 "--out", str(tmp_path / "run")]) == 0
    lines = [line.split(",") for line in (tmp_path / "run" / "trace.csv").read_text().splitlines()]
    rng = np.random.default_rng(2025)
    failures = []
    for case in range(200):
        table = [row.copy() for row in lines]
        for _ in range(rng.integers(1, 4)):
            row = table[rng.integers(len(table))]
            draw = rng.random()
            if draw < 0.7:
                row[rng.integers(len(row))] = FUZZ_CELLS[rng.integers(len(FUZZ_CELLS))]
            elif draw < 0.8:
                row.pop()
            elif draw < 0.9:
                row.append("1")
            elif len(table) > 1:
                del table[rng.integers(1, len(table))]
        trace = tmp_path / f"{case}.csv"
        trace.write_text("".join(",".join(row) + "\n" for row in table))
        argv = ["plot", "--trace", str(trace), "--out", str(tmp_path / "out")]
        draw = rng.random()
        if draw < 0.3:
            argv += ["--problem", "fig1-num"]
        elif draw < 0.6:
            argv += ["--f-star", FUZZ_CELLS[rng.integers(len(FUZZ_CELLS))]]
        code = _exit_code(argv)
        err = capsys.readouterr().err
        if code not in (0, 2) or "Traceback" in err:
            failures.append((code, table, argv))
    assert failures == []


def test_seeded_fuzz_of_topology_files_raises_only_configuration_errors(tmp_path):
    rng = np.random.default_rng(2026)
    failures = []
    for case in range(200):
        spec = TOPOLOGY_SPEC
        for _ in range(rng.integers(1, 4)):
            spec = _mutate(rng, spec)
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(spec))
        try:
            qp.load_topology(path)
        except ConfigurationError:
            pass
        except Exception as exc:  # a library caller would have to catch it by name
            failures.append((f"{type(exc).__name__}: {exc}", spec))
    assert failures == []
