import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qpush as qp
from qpush.cli import main
from qpush.report import TRACE_COLUMNS, parse_trace_csv

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

    def faulty(Q, g, mode="inequality"):
        return real_update(Q, g, mode) - 1.0   # queues 1 below their transition

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


def test_seeded_fuzz_of_files_and_flags_exits_with_a_documented_code(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    failures = []
    for case in range(200):
        inputs = {"problem": GOOD_PROBLEM, "x0": [0.5, 0.5], "reference": FUZZ_REFERENCE}
        flags = {"--alpha": "2", "--T": "12"}
        verify = rng.random() < 0.2
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
        argv = ["verify" if verify else "run", "--problem-file", str(paths["problem"]),
                "--x-init", str(paths["x0"]), "--reference" if verify else "--verify-bounds",
                str(paths["reference"]), "--out", str(tmp_path / "out")]
        if not verify:
            argv += ["--plot"]
        for name, value in flags.items():
            if not (verify and name == "--algo"):
                argv += [name, value]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value with exit 2
            code = exc.code
        except Exception as exc:  # escaped main: the console would show a traceback
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or "Traceback" in err:
            failures.append((code, inputs, flags, verify))
    assert failures == []
