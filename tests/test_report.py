import numpy as np
import pytest

import qpush as qp
from qpush.errors import ConfigurationError
from helpers import (random_network, reference_bounds_csv, reference_full_trace_csv,
                     reference_table_csv, reference_trace_csv)
from qpush.report import (TRACE_COLUMNS, TraceRecorder, _write_table, default_record_every,
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
    rep = rec.build(algorithm="vq", problem="p", alpha=1.0, iterations=8,
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
# the largest double, non-finite values, non-terminating binary fractions,
# the edges of fixed notation with the doubles next to them, an exact tie
# at the 17th digit and 2**63
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-320,
                    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -1 / 3,
                    1e-4, np.nextafter(1e-4, 0.0), 1e16, -np.nextafter(1e16, 0.0), 1e17,
                    np.nextafter(1e17, 0.0), (2 ** 17 + 1) / 2 ** 17, 2.0 ** 63])


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


def _ulps_around(values, below, above):
    """Each positive double in ``values`` and its neighbours, ``below`` under
    it and ``above`` over it."""
    bits = np.asarray(values, dtype=float).view(np.int64)[:, None] + np.arange(-below, above + 1)
    return bits.view(float).ravel()


def _kernel_table(kind, rng):
    """(header, columns) of one table of doubles for the CSV kernel."""
    cols = 7
    if kind == "bits":  # every sign and exponent, subnormals and NaN payloads
        cells = rng.integers(0, 2 ** 64, 40_040, dtype=np.uint64).view(float)
    elif kind == "ties":
        # m * 2**(X - 17), m odd, in [10**X, 10**(X + 1)): its digits end in a
        # 5 one place past the 17th, an exact tie, rounded half to even
        x = rng.integers(-4, 15, 30_002)
        lo = 10.0 ** x * 2.0 ** (17 - x)
        m = np.floor(rng.uniform(lo, 10.0 * lo) / 2.0) * 2.0 + 1.0
        cells = m * 2.0 ** (x - 17.0) * rng.choice([-1.0, 1.0], x.size)
    elif kind == "powers":
        # 10**k and 40 doubles either side, and 2000 below each edge of fixed
        # notation, where a 17-digit rounding could carry to the next power
        powers = _ulps_around([float(f"1e{k}") for k in range(-8, 21)], 40, 40)
        edges = _ulps_around([1e-4, 1e16, 1e17], 2000, 0)
        cells = np.concatenate([powers, -powers, edges, -edges])
        cols = 8
    elif kind == "specials":
        subnormal = rng.integers(1, 2 ** 52, 2_000, dtype=np.uint64).view(float)
        cells = np.concatenate([np.resize(SPECIAL, 1_000), subnormal, -subnormal,
                                [2.2250738585072014e-308, -2.2250738585072014e-308]])
        cols = 1
    elif kind == "integers":
        cells = np.concatenate([np.arange(10_001.0), 2.0 ** np.arange(64),
                                rng.integers(0, 2 ** 63, 20_000).astype(float),
                                -rng.integers(0, 2 ** 53, 5_000).astype(float)])
        cols = 5
    elif kind == "no rows":
        cells = np.zeros(0)
    elif kind == "one column":  # three blocks of one column
        cells = rng.standard_normal(9_000) * 10.0 ** rng.integers(-6, 18, 9_000)
        cols = 1
    else:  # one row wider than a block
        cells = rng.standard_normal(5_000) * 10.0 ** rng.integers(-6, 18, 5_000)
        cols = 5_000
    table = cells.reshape(-1, cols)
    return [f"c{j}" for j in range(cols)], [table[:, 0], table[:, 1:]]


KERNEL_TABLES = ("bits", "ties", "powers", "specials", "integers", "no rows", "one column", "wide")


@pytest.mark.parametrize("kind", KERNEL_TABLES)
def test_write_table_matches_per_cell_reference_bytes(tmp_path, kind):
    # about 141k cells in all, each against format(v, ".17g")
    header, columns = _kernel_table(kind, np.random.default_rng(KERNEL_TABLES.index(kind)))
    _write_table(tmp_path / "table.csv", header, columns)
    assert (tmp_path / "table.csv").read_bytes() == reference_table_csv(header, columns).encode()


def test_write_table_memory_does_not_grow_with_the_rows(tmp_path):
    import tracemalloc

    rng = np.random.default_rng(3)
    extra = []
    for rows in (200, 4_000):
        x = rng.uniform(0.0, 1.0, (rows, 100))
        x[x < 0.5] = 0.0
        columns = [np.arange(1.0, rows + 1.0), x, rng.standard_normal(rows)]
        tracemalloc.start()
        _write_table(tmp_path / "table.csv", ["c"] * 102, columns)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        extra.append(peak - rows * 102 * 8)  # beyond the stacked table's own bytes
    # one block's work arrays, the same for 20 times the rows
    assert extra[1] <= extra[0] + 16 * 1024
    assert extra[1] <= 2 * 1024 * 1024


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
    assert "mode" not in data  # every row is an inequality


def test_a_program_without_constraint_rows_is_written_out(tmp_path):
    import json

    # min x1^2 - 2 x1 + x2^2 + x2 over a box, m = 0: x* = (1, -0.5), f* = -1.25
    prog = qp.ConvexProgram.from_terms(
        qp.CoordinateTerms(np.ones(2), np.array([-2.0, 1.0]), np.zeros(2)),
        qp.ConstraintTerms(np.zeros((0, 2)), np.zeros(0)),
        qp.BoxSet(np.full(2, -5.0), np.full(2, 5.0)), beta_hint=0.0)
    rep = qp.run(prog, np.zeros(2), 1.0, 100)
    # the maximum over no rows is that of the empty set, -inf
    assert rep.final["max_violation"] == -np.inf and rep.final["queue_norm"] == 0.0
    assert np.all(rep.max_violation == -np.inf)
    write_trace_csv(rep, tmp_path / "trace.csv")
    summary = write_summary(rep, tmp_path / "summary.json")
    trace = parse_trace_csv(tmp_path / "trace.csv")
    assert np.all(trace["max_violation"] == -np.inf)
    assert np.array_equal(trace["f_xbar"], rep.f_xbar)
    # the returned summary keeps -inf; standard JSON has no token for it
    assert summary["max_violation"] == -np.inf
    assert json.loads((tmp_path / "summary.json").read_text())["max_violation"] is None
    bounds = qp.verify_bounds(rep, -1.25, np.array([1.0, -0.5]), np.zeros(0), 0.0)
    assert bounds.ok and bounds.worst("constraint") == bounds.worst("queue_lower") == np.inf
    # the plot leaves the non-positive violations out
    assert "<svg" in render_convergence_svg(trace, f_star=-1.25)


def test_parse_trace_csv_refuses_a_cell_that_is_not_a_number_and_a_directory(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,f_xbar,max_violation\n1,0.5,0\n2,0.25,x\n")
    with pytest.raises(ConfigurationError) as err:
        parse_trace_csv(trace)
    assert str(err.value) == (f"malformed trace {str(trace)!r}: "
                              "could not convert string to float: 'x'")
    with pytest.raises(ConfigurationError) as err:
        parse_trace_csv(tmp_path)
    assert str(err.value).startswith(f"cannot read trace {str(tmp_path)!r}: ")


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
