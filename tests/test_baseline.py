import numpy as np
import pytest

import qpush as qp
from qpush import BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms
from qpush.baseline import DualState, LagrangianOracle, dual_step
from qpush.report import TRACE_COLUMNS, write_trace_csv

from helpers import grid_minimize, overflow_network


def one_dim_program():
    return ConvexProgram.from_terms(
        CoordinateTerms.linear([1.0]),
        ConstraintTerms([[1.0]], [1.0]),
        BoxSet([0.0], [2.0]),
        beta_hint=1.0,
    )


def fresh_state(m, gamma=0.01, lam=None):
    return DualState(t=0, lam=np.zeros(m) if lam is None else np.asarray(lam, float),
                     x_bar=None, step=gamma, cum_g=np.zeros(m))


def test_dual_step_linear_example():
    prog = one_dim_program()
    state = fresh_state(1)
    dual_step(state, prog)
    # positive coefficient picks the low endpoint; lambda projects at zero
    assert state.x_last[0] == 0.0
    assert state.lam[0] == 0.0
    assert state.g_last[0] == -1.0


def test_dual_projection_active():
    # constant constraint value -600 with lambda = 5 and gamma = 0.01
    prog = ConvexProgram.from_terms(
        CoordinateTerms.linear([0.0]),
        ConstraintTerms([[0.0]], [600.0]),
        BoxSet([0.0], [1.0]),
        beta_hint=0.0,
    )
    state = fresh_state(1, lam=[5.0])
    dual_step(state, prog)
    assert state.lam[0] == 0.0  # max(5 - 6, 0)


def test_zero_step_keeps_unconstrained_minimizer():
    prog = ConvexProgram.from_terms(
        CoordinateTerms(np.array([1.0, 0.0]), np.array([-1.0, 2.0]), np.zeros(2)),
        ConstraintTerms(np.array([[1.0, 1.0]]), np.array([10.0])),
        BoxSet(np.zeros(2), np.ones(2)),
        beta_hint=np.sqrt(2.0),
    )
    state = fresh_state(1, gamma=0.0)
    for _ in range(5):
        dual_step(state, prog)
        # argmin of f over the box: vertex 1/2 for the quadratic coordinate,
        # low endpoint for the positive linear one
        assert np.array_equal(state.x_last, [0.5, 0.0])
        assert np.all(state.lam == 0.0)


def test_flat_coordinate_tie_breaks_low():
    prog = ConvexProgram.from_terms(
        CoordinateTerms.linear([0.0]),
        ConstraintTerms([[0.0]], [1.0]),
        BoxSet([-1.0], [1.0]),
        beta_hint=0.0,
    )
    assert LagrangianOracle(prog)(np.zeros(1))[0] == -1.0


def test_lagrangian_oracle_matches_grid_search():
    # curved plain (0), flat slopes +, -, 0 (1-3), log with positive and
    # zero slope (4, 7), log1p with positive and zero slope (5, 8), and a
    # coordinate curved only by the quadratic row (6)
    n = 9
    obj = CoordinateTerms(
        quad=np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0]),
        lin=np.array([-1.0, 2.0, -1.5, 0.0, 0.0, 0.25, -1.0, 0.0, 0.0]),
        log_weight=np.array([0, 0, 0, 0, 1.0, 0, 0, 2.0, 0]),
    )
    lin = np.zeros((2, n))
    lin[0, [0, 4]] = [0.5, 1.0]
    quad = np.zeros((2, n))
    quad[0, 6] = 0.5
    neglog1p = np.zeros((2, n))
    neglog1p[1, [5, 8]] = 1.0
    # lower bounds above -1 keep every log1p(x) finite
    box = BoxSet([0.0, -0.5, -0.5, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
                 [2.0, 1.0, 1.0, 0.5, 3.0, 5.0, 2.0, 3.0, 5.0])
    prog = ConvexProgram.from_terms(
        obj, ConstraintTerms(lin, np.array([1.0, 0.0]), quad=quad, neglog1p=neglog1p),
        box, beta_hint=1.0)
    lam = np.array([0.8, 1.2])
    out = LagrangianOracle(prog)(lam)
    assert out[3] == -0.5  # exact zero slope: low endpoint
    assert (out[1], out[2], out[7], out[8]) == (-0.5, 1.0, 3.0, 5.0)

    def lagrangian(x):
        return prog.objective_value(x) + float(lam @ prog.constraint_values(x))

    for i in range(n):
        def coord_fun(z, i=i):
            trial = out.copy()
            trial[i] = z
            return lagrangian(trial)

        lo = max(box.lo[i], 1e-9) if i in (4, 7) else box.lo[i]
        ref = grid_minimize(coord_fun, lo, box.hi[i])
        assert out[i] == pytest.approx(ref, abs=1e-6)


def test_flow_power_final_objectives_are_pinned():
    # stored benchmark values; the dsg run takes the all-flat alpha = 0 path
    prog = qp.get_problem("fig1-flow-power").program
    vq = qp.run(prog, np.zeros(prog.n), 10.0, 4000)
    dsg = qp.dsg_run(prog, None, 0.01, 4000)
    assert vq.final["f_xbar"] == pytest.approx(0.5355682084129887, abs=1e-12)
    assert dsg.final["f_xbar"] == pytest.approx(0.3659583162321476, abs=1e-12)


def test_dsg_run_t1_and_validation():
    prog = one_dim_program()
    rep = qp.dsg_run(prog, None, 0.01, 1)
    assert np.array_equal(rep.x_bar[0], rep.x[0])
    with pytest.raises(ValueError):
        qp.dsg_run(prog, None, 0.0, 10)
    with pytest.raises(ValueError):
        qp.dsg_run(prog, None, 0.01, 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dsg_raises_on_the_first_non_finite_iteration():
    topo, x_max, y_max = overflow_network()
    prog = qp.build_num_program(topo, [1.0], x_max, y_max)
    # lambda(0) = 0 puts both rates at 0; iteration 0 leaves the source a
    # positive multiplier, which sends both rates to 1e308 at iteration 1
    with pytest.raises(qp.NumericalDomainError,
                       match="constraint value is not finite at iteration 1"):
        qp.dsg_run(prog, None, 1.0, 5)
    state = fresh_state(prog.m, gamma=1.0, lam=[0.0, 1.0])
    with pytest.raises(qp.NumericalDomainError, match="non-finite iterate at iteration 0"):
        dual_step(state, prog, oracle=lambda lam: np.full(prog.n, np.nan))


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_dsg_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        qp.dsg_run(one_dim_program(), None, gamma, 10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lam, gamma", [([np.nan], 0.01), ([1e308], 1e308)])
def test_dual_step_raises_on_a_non_finite_multiplier(lam, gamma):
    # g = 2 everywhere; a NaN multiplier stays NaN, 1e308 + 1e308 * 2 overflows
    prog = ConvexProgram.from_terms(CoordinateTerms.linear([0.0]),
                                    ConstraintTerms([[0.0]], [-2.0]),
                                    BoxSet([0.0], [1.0]), beta_hint=0.0)
    state = fresh_state(1, gamma=gamma, lam=lam)
    with pytest.raises(qp.NumericalDomainError, match="multiplier is not finite at iteration 0"):
        dual_step(state, prog, oracle=lambda lam: np.zeros(1))
    assert state.t == 0


def test_dsg_zero_constraints_reduce_to_repeated_minimization():
    prog = ConvexProgram.from_terms(
        CoordinateTerms(np.array([1.0]), np.array([-1.0]), np.zeros(1)),
        ConstraintTerms([[0.0]], [0.0]),
        BoxSet([0.0], [1.0]),
        beta_hint=0.0,
    )
    rep = qp.dsg_run(prog, None, 0.01, 20, record_every=1)
    assert np.all(rep.Q == 0.0)
    assert np.all(rep.x == 0.5)


def test_dsg_multipliers_stay_nonnegative(fig1_instance):
    rep = qp.dsg_run(fig1_instance.program, None, 0.01, 500, record_every=1)
    assert np.all(rep.Q >= 0.0)


def test_dsg_log_utility_uses_scalar_solver(fig1_instance):
    prog = fig1_instance.program
    oracle = LagrangianOracle(prog)
    lam = np.zeros(12)
    lam[9:] = 2.0  # price the three source rows
    x = oracle(lam)
    # y_s = argmin -w log y + lam y on [0, 3]: w/lam
    assert x[7] == pytest.approx(1.0 / 2.0)
    assert x[8] == pytest.approx(2.0 / 2.0)
    assert x[9] == pytest.approx(2.0 / 2.0)
    # with zero multipliers the sources max out
    x0 = oracle(np.zeros(12))
    assert np.array_equal(x0[7:], [3.0, 3.0, 3.0])


def test_report_schema_identical_to_solver(tmp_path, fig1_instance):
    prog = fig1_instance.program
    vq = qp.run(prog, np.zeros(10), 10.0, 20)
    dsg = qp.dsg_run(prog, None, 0.01, 20)
    p1, p2 = tmp_path / "vq.csv", tmp_path / "dsg.csv"
    write_trace_csv(vq, p1)
    write_trace_csv(dsg, p2)
    h1 = p1.read_text().splitlines()[0]
    h2 = p2.read_text().splitlines()[0]
    assert h1 == h2 == ",".join(TRACE_COLUMNS)
    assert dsg.algorithm == "dsg" and dsg.gamma == 0.01 and dsg.alpha is None
    assert np.all(dsg.drift <= dsg.drift_bound + 1e-9)
