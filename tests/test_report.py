import numpy as np
import pytest

import qpush as qp
from helpers import (random_network, reference_bounds_csv, reference_full_trace_csv,
                     reference_trace_csv)
from qpush.report import (TRACE_COLUMNS, TraceRecorder, default_record_every,
                          parse_trace_csv, record_schedule, render_convergence_svg, slope_check,
                          write_full_trace_csv, write_summary, write_trace_csv)


def test_record_schedule():
    assert record_schedule(5, 1) == [1, 2, 3, 4, 5]
    assert record_schedule(1000, 1)[-1] == 1000
    assert record_schedule(10_000, 10)[:2] == [1, 10]
    assert default_record_every(1000) == 1
    assert default_record_every(100_000) == 100


def test_recorder_rows_are_slices_of_one_block():
    rec = TraceRecorder(10, 4)  # rows at t = 1, 4, 8, 10
    rng = np.random.default_rng(5)
    added = []
    for t in (1, 4, 8):
        n, m = 3, 2
        row = (t, rng.random(n), rng.random(n), rng.random(m), rng.random(), rng.random(m),
               rng.random(), rng.random(m), rng.random(m), rng.random(), rng.random())
        rec.add(*row)
        added.append(row)
    assert rec.rows == 3
    # a partial build, as a failed run hands back
    rep = rec.build(algorithm="vq", problem="p", alpha=1.0, iterations=8, mode="inequality",
                    oracle="o", x_init=np.zeros(3))
    names = ("t", "x", "x_bar", "Q", "f_x", "g_x", "f_xbar", "g_xbar", "cum_g", "drift",
             "drift_bound")
    for i, name in enumerate(names):
        assert np.array_equal(getattr(rep, name), np.array([row[i] for row in added])), name
    assert rep.t.dtype == int and rep.record_every == 4
    assert rep.x.base is not None and rep.x.base is rep.cum_g.base


@pytest.mark.parametrize("stride", [0, -3])
def test_recorder_rejects_a_stride_below_one(stride):
    with pytest.raises(ValueError, match="record_every"):
        TraceRecorder(10, stride)


def test_final_row_equals_the_table_reductions(fig1_vq_run, qp_vq_run):
    rng = np.random.default_rng(41)
    topo = random_network(rng)
    prog = qp.build_num_program(topo, rng.uniform(0.5, 2.0, topo.S), rng.uniform(0.5, 2.0, topo.K),
                                rng.uniform(1.0, 4.0, topo.S))
    network = qp.run(prog, np.zeros(prog.n), 0.5 * prog.beta_hint ** 2 + 1.0, 30)
    for rep in (fig1_vq_run, qp_vq_run, network):
        final = rep.final
        assert final["queue_norm"] == rep.queue_norm[-1]
        assert final["max_violation"] == rep.max_violation[-1]


def small_report():
    prog = qp.fig1_num_instance().program()
    return qp.run(prog, np.zeros(10), 10.0, 120, record_every=7)


def test_csv_round_trip(tmp_path):
    rep = small_report()
    path = tmp_path / "trace.csv"
    write_trace_csv(rep, path)
    cols = parse_trace_csv(path)
    assert tuple(cols.keys()) == TRACE_COLUMNS
    ref = rep.columns()
    for name in TRACE_COLUMNS:
        assert np.array_equal(cols[name], ref[name], equal_nan=True), name


def test_full_trace_sidecar(tmp_path):
    rep = small_report()
    path = tmp_path / "full.csv"
    write_full_trace_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["t", "x_0"]
    assert len(lines) == 1 + len(rep.t)
    first = np.array([float(v) for v in lines[1].split(",")])
    assert np.array_equal(first[1:11], rep.x[0])
    assert np.array_equal(first[11:], rep.Q[0])


# doubles whose %.17g text is easy to get wrong: signed zero, subnormals,
# the largest double, non-finite values and non-terminating binary fractions
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-320,
                    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -1 / 3])


def _salt(a, rng):
    """``a`` with about half its entries replaced by SPECIAL values."""
    a = np.asarray(a, dtype=float)
    specials = np.resize(np.roll(SPECIAL, int(rng.integers(SPECIAL.size))), a.shape)
    return np.where(rng.random(a.shape) < 0.5, specials, a)


def _salted_report(rep, rng, with_residuals):
    rows = len(rep.t)
    rep.t = np.round(np.geomspace(1, 1e5, rows)).astype(int)
    for name in ("x", "x_bar", "Q", "f_x", "f_xbar", "g_x", "g_xbar", "cum_g",
                 "drift", "drift_bound"):
        setattr(rep, name, _salt(getattr(rep, name), rng))
    if with_residuals:
        rep.obj_bound_residual = _salt(rep.obj_bound_residual, rng)
        rep.cons_bound_residual = _salt(rng.random(rows), rng)
    return rep


@pytest.mark.parametrize("algo", ["vq", "dsg"])
@pytest.mark.parametrize("with_residuals", [False, True])
def test_writers_match_per_cell_reference_bytes(tmp_path, algo, with_residuals):
    prog = qp.fig1_num_instance().program()
    if algo == "vq":
        rep = qp.run(prog, np.zeros(10), 10.0, 40, record_every=1)
    else:
        rep = qp.dsg_run(prog, None, 0.01, 40, record_every=1)
    rep = _salted_report(rep, np.random.default_rng(len(algo) + with_residuals), with_residuals)
    assert np.isnan(rep.obj_bound_residual).all() != with_residuals
    with np.errstate(over="ignore"):  # queue_norm of a 1.8e308 queue is inf
        write_trace_csv(rep, tmp_path / "trace.csv")
        expected = reference_trace_csv(rep).encode()
    write_full_trace_csv(rep, tmp_path / "trace_full.csv")
    assert (tmp_path / "trace.csv").read_bytes() == expected
    assert (tmp_path / "trace_full.csv").read_bytes() == reference_full_trace_csv(rep).encode()


@pytest.mark.parametrize("beta", [1.0, 100.0])
def test_bounds_csv_matches_per_cell_reference_bytes(tmp_path, beta):
    z_star, lam_star, f_star = qp.fig1_reference()
    rep = qp.run(qp.fig1_num_instance().program(), np.zeros(10), 10.0, 40, record_every=1)
    bounds = qp.verify_bounds(rep, f_star, z_star, lam_star, beta)
    # beta = 100 leaves every bound but queue_lower skipped, with NaN margins
    assert (len(bounds.skipped) == 3) == (beta == 100.0)
    rng = np.random.default_rng(int(beta))
    bounds.t = np.round(np.geomspace(1, 1e5, len(bounds.t))).astype(int)
    bounds.queue_lower_margin = _salt(bounds.queue_lower_margin, rng)
    if beta == 1.0:
        bounds.objective_margin = _salt(bounds.objective_margin, rng)
    bounds.to_csv(tmp_path / "bounds.csv")
    assert (tmp_path / "bounds.csv").read_bytes() == reference_bounds_csv(bounds).encode()


def test_summary_contents(tmp_path):
    import json

    rep = small_report()
    path = tmp_path / "summary.json"
    write_summary(rep, path, extra={"note": 1})
    data = json.loads(path.read_text())
    assert data["algorithm"] == "vq"
    assert data["alpha"] == 10.0
    assert data["t"] == 120
    assert data["note"] == 1
    assert data["f_xbar"] == rep.final["f_xbar"]


def test_slope_check_exact_power_laws():
    t = np.arange(1, 2001)
    res = slope_check(t, 7.3 / t, (10, 2000))
    assert not res.skipped
    assert res.slope == pytest.approx(-1.0, abs=1e-6)
    res_half = slope_check(t, 2.0 / np.sqrt(t), (10, 2000))
    assert res_half.slope == pytest.approx(-0.5, abs=1e-6)


def test_slope_check_skips_below_floor():
    t = np.arange(1, 101)
    err = 1.0 / t
    err[50] = 0.0
    res = slope_check(t, err, (1, 100))
    assert res.skipped and res.reason == "converged-below-floor"
    assert np.isnan(res.slope)
    empty = slope_check(t, err, (1000, 2000))
    assert empty.skipped and empty.reason == "empty-window"


def test_svg_rendering_and_replot(tmp_path):
    rep = small_report()
    csv_path = tmp_path / "trace.csv"
    write_trace_csv(rep, csv_path)
    _, _, f_star = qp.fig1_reference()
    one = tmp_path / "a.svg"
    two = tmp_path / "b.svg"
    qp.plot_trace(csv_path, one, f_star=f_star)
    qp.plot_trace(csv_path, two, f_star=f_star)
    assert one.read_bytes() == two.read_bytes()
    body = one.read_text()
    assert body.startswith("<svg") and "polyline" in body and "1/t" in body


def test_svg_without_reference():
    cols = {"t": np.array([1.0, 10.0, 100.0]),
            "f_xbar": np.array([3.0, 2.0, 1.5]),
            "max_violation": np.array([0.5, 0.05, 0.005])}
    svg = render_convergence_svg(cols)
    assert "max violation" in svg
    svg_b = render_convergence_svg(cols, f_star=1.0, bound_constant=4.0)
    assert "bound" in svg_b
