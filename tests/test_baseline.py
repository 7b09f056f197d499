import math

import numpy as np
import pytest

import qpush as qp
from qpush import BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms, baseline, solver
from qpush.baseline import LagrangianOracle, dual_init
from qpush.errors import ConfigurationError
from qpush.report import TRACE_COLUMNS, write_trace_csv
from qpush.solver import INVARIANT_TOL

from helpers import (grid_minimize, overflow_network, random_network, random_num_network,
                     reference_dsg_run, reference_separable_solve)


def one_dim_program():
    return ConvexProgram.from_terms(
        CoordinateTerms.linear([1.0]),
        ConstraintTerms([[1.0]], [1.0]),
        BoxSet([0.0], [2.0]),
        beta_hint=1.0,
    )


def fresh_state(program, gamma=0.01, lam=None):
    """A dual subgradient state at t = 0 with multipliers ``lam`` (zero)."""
    state = dual_init(program, gamma)
    if lam is not None:
        state.Q = np.asarray(lam, float)
    return state


def test_dual_step_linear_example():
    prog = one_dim_program()
    state = fresh_state(prog)
    qp.step(state, prog)
    # positive coefficient picks the low endpoint; lambda projects at zero
    assert state.x_prev[0] == 0.0
    assert state.Q[0] == 0.0
    assert state.g_prev[0] == -1.0


def test_dual_init_refuses_a_program_without_separable_descriptors():
    # the multiplier law needs the closed-form Lagrangian oracle: a step from
    # dual_init raises what dsg_run raises, not the projected gradient's error
    prog = ConvexProgram(1, 1, BoxSet([0.0], [1.0]), lambda x: float(x[0]),
                         lambda x: np.ones(1), lambda x: x - 0.5, lambda x: np.ones((1, 1)),
                         beta_hint=1.0)
    messages = []
    for route in (lambda: qp.step(qp.dual_init(prog, 0.1), prog),
                  lambda: qp.dsg_run(prog, None, 0.1, 10)):
        with pytest.raises(ConfigurationError) as exc:
            route()
        messages.append(str(exc.value))
    assert messages == ["program carries no separable descriptors"] * 2


def test_dual_projection_active():
    # constant constraint value -600 with lambda = 5 and gamma = 0.01
    prog = ConvexProgram.from_terms(
        CoordinateTerms.linear([0.0]),
        ConstraintTerms([[0.0]], [600.0]),
        BoxSet([0.0], [1.0]),
        beta_hint=0.0,
    )
    state = fresh_state(prog, lam=[5.0])
    qp.step(state, prog)
    assert state.Q[0] == 0.0  # max(5 - 6, 0)


def test_zero_step_keeps_unconstrained_minimizer():
    prog = ConvexProgram.from_terms(
        CoordinateTerms(np.array([1.0, 0.0]), np.array([-1.0, 2.0]), np.zeros(2)),
        ConstraintTerms(np.array([[1.0, 1.0]]), np.array([10.0])),
        BoxSet(np.zeros(2), np.ones(2)),
        beta_hint=np.sqrt(2.0),
    )
    state = fresh_state(prog, gamma=0.0)
    for _ in range(5):
        qp.step(state, prog)
        # argmin of f over the box: vertex 1/2 for the quadratic coordinate,
        # low endpoint for the positive linear one
        assert np.array_equal(state.x_prev, [0.5, 0.0])
        assert np.all(state.Q == 0.0)


def test_flat_coordinate_tie_breaks_low():
    prog = ConvexProgram.from_terms(
        CoordinateTerms.linear([0.0]),
        ConstraintTerms([[0.0]], [1.0]),
        BoxSet([-1.0], [1.0]),
        beta_hint=0.0,
    )
    assert LagrangianOracle(prog)(np.zeros(1), np.zeros(1), 0.0)[0] == -1.0


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
    out = LagrangianOracle(prog)(lam, np.zeros(n), 0.0)
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
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dsg_raises_on_the_first_non_finite_iteration(bad):
    topo, x_max, y_max = overflow_network()
    prog = qp.build_num_program(topo, [1.0], x_max, y_max)
    # lambda(0) = 0 puts both rates at 0; iteration 0 leaves the source a
    # positive multiplier, which sends both rates to 1e308 at iteration 1
    with pytest.raises(qp.NumericalDomainError,
                       match="constraint value is not finite at iteration 1"):
        qp.dsg_run(prog, None, 1.0, 5)
    state = fresh_state(prog, gamma=1.0, lam=[0.0, 1.0])
    with pytest.raises(qp.NumericalDomainError, match="non-finite iterate at iteration 0"):
        qp.step(state, prog, oracle=lambda W, x_prev, alpha: np.full(prog.n, bad))


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
    state = fresh_state(prog, gamma=gamma, lam=lam)
    with pytest.raises(qp.NumericalDomainError, match="multiplier is not finite at iteration 0"):
        qp.step(state, prog, oracle=lambda W, x_prev, alpha: np.zeros(1))
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
    x = oracle(lam, np.zeros(10), 0.0)
    # y_s = argmin -w log y + lam y on [0, 3]: w/lam
    assert x[7] == pytest.approx(1.0 / 2.0)
    assert x[8] == pytest.approx(2.0 / 2.0)
    assert x[9] == pytest.approx(2.0 / 2.0)
    # with zero multipliers the sources max out
    x0 = oracle(np.zeros(12), np.zeros(10), 0.0)
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


# ---------------------------------------------------------------------------
# The DSG run on solver.step keeps the bits of the former dual step
# (tests/helpers.py).

REPORT_ARRAYS = ("t", "x", "x_bar", "Q", "f_x", "g_x", "f_xbar", "g_xbar", "cum_g",
                 "drift", "drift_bound")


def _network_program():
    topo = random_network(np.random.default_rng(19))
    return qp.build_num_program(topo, np.ones(topo.S), 1.0, 2.0)


@pytest.mark.parametrize("name", ["fig1-num", "fig1-flow-power", "qp", "network"])
def test_dsg_run_keeps_the_bits_of_the_former_step(name):
    # qp's quadratic row takes the uncached flat split; the network is
    # kept as constraint triples
    prog = _network_program() if name == "network" else qp.get_problem(name).program
    rep = qp.dsg_run(prog, None, 0.01, 300, record_every=1)
    ref = reference_dsg_run(prog, 0.01, 300, record_every=1)
    for array in REPORT_ARRAYS:
        assert getattr(rep, array).tobytes() == getattr(ref, array).tobytes(), array


def _flat_and_curved_program(with_quad_row):
    # curved plain (0, 6), flat slopes (1-3), log (4, 7), log1p (5, 8); with
    # the quadratic row coordinate 6 is curved only by it
    n = 9
    obj = CoordinateTerms(
        quad=np.array([1.0, 0, 0, 0, 0, 0, 0 if with_quad_row else 0.5, 0, 0]),
        lin=np.array([-1.0, 2.0, -1.5, 0.0, 0.0, 0.25, -1.0, 0.0, 0.0]),
        log_weight=np.array([0, 0, 0, 0, 1.0, 0, 0, 2.0, 0]),
    )
    lin = np.zeros((3, n))
    lin[0, [0, 4]] = [0.5, 1.0]
    lin[2, [1, 2, 3, 6]] = [-1.0, 0.5, 1.0, -0.5]
    quad = np.zeros((3, n))
    quad[0, 6] = 0.5 if with_quad_row else 0.0
    neglog1p = np.zeros((3, n))
    neglog1p[1, [5, 8]] = 1.0
    box = BoxSet([-1.0, -0.5, -0.5, -0.5, 0.0, 0.0, -1.0, 0.0, 0.0],
                 [2.0, 1.0, 1.0, 0.5, 3.0, 5.0, 2.0, 3.0, 5.0])
    return ConvexProgram.from_terms(
        obj, ConstraintTerms(lin, np.array([1.0, 0.0, 0.5]), quad=quad, neglog1p=neglog1p),
        box, beta_hint=1.0)


@pytest.mark.parametrize("with_quad_row", [False, True])
def test_lagrangian_solve_at_a_nonzero_prox_center_matches_the_former_solve(with_quad_row):
    # at alpha = 0 the prox center is not read; the former solve subtracted
    # 0 * x_prev, which leaves every nonzero slope's bits
    prog = _flat_and_curved_program(with_quad_row)
    oracle = qp.SeparableOracle(prog)
    rng = np.random.default_rng(23)
    for _ in range(200):
        W = rng.uniform(0.0, 3.0, prog.m) * (rng.random(prog.m) < 0.8)
        x_prev = rng.uniform(-1.0, 1.0, prog.n)
        for alpha in (0.0, 0.7):
            out = oracle.solve(W, x_prev, alpha)
            assert np.array_equal(out, reference_separable_solve(oracle, W, x_prev, alpha))


# ---------------------------------------------------------------------------
# Invariants of the dual step: a seeded fault must surface as the earliest
# failing step's (name, t, margin), through dsg_run, which tests blocks of
# solver._BLOCK steps, and through a loop of step calls on a dual_init
# state, which test each step at once.

def _dual_fault_at(monkeypatch, t_bad, fault):
    """Let call t_bad of multiplier_update run ``fault(lam, g, gamma)``,
    which may change lam before the update and returns a function of the
    update's result that may change it and returns the expected margin.
    Returns the list that receives that margin and the call counter."""
    real_update = baseline.multiplier_update
    calls, expected = [0], []

    def faulty(lam, g, gamma):
        after = fault(lam, g, gamma) if calls[0] == t_bad else None
        out = real_update(lam, g, gamma)
        if after is not None:
            expected.append(after(out))
        calls[0] += 1
        return out

    monkeypatch.setattr(baseline, "multiplier_update", faulty)
    return expected, calls


def _negate_largest(lam, g, gamma):
    def after(lam_next):
        k = int(np.argmax(lam_next))
        assert lam_next[k] > 0
        lam_next[k] = -lam_next[k]
        return float(lam_next[k])
    return after


def _double_in_place(lam, g, gamma):
    # lambda(t) doubles behind the carried 0.5||lambda(t)||^2, which the
    # drift then reads stale
    L = 0.5 * float(lam.dot(lam))
    assert L > 0
    lam *= 2.0

    def after(lam_next):
        gg = float(g.dot(g))
        delta = 0.5 * float(lam_next.dot(lam_next)) - L
        bound = gamma * float(lam.dot(g)) + 0.5 * gamma * gamma * gg
        tol = max(INVARIANT_TOL, (lam.shape[0] + 4) * np.finfo(float).eps
                  * (delta + 3.0 * L + 1.5 * (gamma * gamma * gg)))
        return bound + tol - delta
    return after


DUAL_FAULTS = {"multiplier": _negate_largest, "drift": _double_in_place}


def _first_dual_violation(monkeypatch, program, T, t_bad, fault, through_run):
    with monkeypatch.context() as patch:
        expected, calls = _dual_fault_at(patch, t_bad, fault)
        with pytest.raises(qp.InvariantViolation) as err:
            if through_run:
                qp.dsg_run(program, None, 0.01, T)
            else:
                state = fresh_state(program)
                oracle = LagrangianOracle(program)
                for _ in range(T):
                    qp.step(state, program, oracle)
    return (err.value.name, err.value.t, err.value.margin), expected[0], calls[0]


def _assert_dual_faults_raise_alike(monkeypatch, prog, T, t_bad, invariant):
    """dsg_run and a loop of steps raise the (name, t, margin) of the fault
    on ``invariant``, after the calls that each is expected to make."""
    block = solver._BLOCK
    raised = {}
    for through_run, steps in ((False, t_bad + 1), (True, min(T, (t_bad // block + 1) * block))):
        raised[through_run], margin, done = _first_dual_violation(
            monkeypatch, prog, T, t_bad, DUAL_FAULTS[invariant], through_run)
        assert raised[through_run] == (invariant, t_bad, margin) and margin < 0
        assert done == steps
    assert raised[True] == raised[False]


@pytest.mark.parametrize("invariant", sorted(DUAL_FAULTS))
@pytest.mark.parametrize("T, t_bad", [(10, 3), (100, 31), (100, 32), (100, 40), (100, 63),
                                      (100, 64), (100, 99)])
def test_dual_faults_trip_their_invariant_at_the_earliest_step(monkeypatch, fig1_instance,
                                                               invariant, T, t_bad):
    # t_bad inside the first block, last of a block and first of the next,
    # inside a later one, last of the last partial one
    _assert_dual_faults_raise_alike(monkeypatch, fig1_instance.program, T, t_bad, invariant)


@pytest.fixture(scope="module")
def sparse_num_program():
    prog = qp.build_num_program(*random_num_network(41))
    assert prog.constraint_terms._segment_sums and prog.m == 500
    return prog


@pytest.mark.parametrize("invariant", sorted(DUAL_FAULTS))
@pytest.mark.parametrize("t_bad", [31, 32])
def test_dual_faults_at_sparse_scale_trip_at_the_earliest_step(monkeypatch, sparse_num_program,
                                                               invariant, t_bad):
    # the last step of the first block and the first of the second, on a
    # program of 500 rows
    _assert_dual_faults_raise_alike(monkeypatch, sparse_num_program, 40, t_bad, invariant)


def test_dsg_run_raises_a_violation_before_a_later_steps_error(monkeypatch, fig1_instance):
    prog = fig1_instance.program
    good = LagrangianOracle(prog)
    calls = [0]

    def oracle(W, x_prev, alpha):
        calls[0] += 1
        if calls[0] == 43:  # step 42
            return np.full(prog.n, np.nan)
        return good(W, x_prev, alpha)

    _dual_fault_at(monkeypatch, 40, _negate_largest)
    monkeypatch.setattr(baseline, "LagrangianOracle", lambda program: oracle)
    with pytest.raises(qp.InvariantViolation) as err:
        qp.dsg_run(prog, None, 0.01, 100)
    assert (err.value.name, err.value.t) == ("multiplier", 40)
    assert isinstance(err.value.__context__, qp.NumericalDomainError)


@pytest.mark.parametrize("scale", [1e0, 1e3, 1e6, 1e9])
def test_dual_drift_tolerance_follows_the_scale_of_the_terms(scale):
    # both rows stay active, so lambda ~ scale never clips and the drift
    # meets its bound up to rounding: from scale 1e3 on that rounding
    # exceeds the absolute tolerance, which would false-alarm
    rng = np.random.default_rng(5)
    worst = -math.inf
    for _ in range(6):
        prog = ConvexProgram.from_terms(
            CoordinateTerms.linear(-rng.uniform(0.5, 1.5, 3) * scale),
            ConstraintTerms(rng.uniform(0.2, 1.0, (2, 3)), rng.uniform(0.5, 1.5, 2)),
            BoxSet(np.zeros(3), np.full(3, 3.0)), beta_hint=2.0)
        rep = qp.dsg_run(prog, None, rng.uniform(0.5, 1.5) * scale, 1000, record_every=1)
        worst = max(worst, float((rep.drift - rep.drift_bound).max()))
    assert (worst > INVARIANT_TOL) == (scale >= 1e3)
