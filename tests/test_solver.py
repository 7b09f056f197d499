import math

import numpy as np
import pytest

import qpush as qp
from qpush import BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms, solver
from qpush.report import record_schedule
from qpush.solver import INVARIANT_TOL, AlphaBelowCurvatureWarning

from helpers import (FINITENESS_CASES, FINITENESS_IDS, derive_reference, grid_minimize,
                     quiet_alpha_warnings, random_alpha, random_point_in,
                     random_separable_program)


def one_dim_program():
    """f(x) = x, g(x) = x - 1, box [0, 2]."""
    return ConvexProgram.from_terms(
        CoordinateTerms.linear([1.0]),
        ConstraintTerms([[1.0]], [1.0]),
        BoxSet([0.0], [2.0]),
        beta_hint=1.0,
    )


def offset_program(b, lo=-5.0, hi=5.0):
    """Constant-free linear constraints g(x) = x - b on a wide box."""
    m = len(b)
    return ConvexProgram.from_terms(
        CoordinateTerms.linear(np.zeros(m)),
        ConstraintTerms(np.eye(m), np.asarray(b, dtype=float)),
        BoxSet(np.full(m, lo), np.full(m, hi)),
        beta_hint=1.0,
    )


def test_init_from_constraint_values():
    # g(x_init) = (-2, 3) -> Q(0) = (2, 0)
    prog = offset_program([2.0, -3.0])
    state = qp.init(prog, np.zeros(2), 1.0)
    assert np.array_equal(state.Q, [2.0, 0.0])
    assert state.t == 0 and state.x_bar is None
    assert np.array_equal(state.g_prev, [-2.0, 3.0])


def test_init_fig1_queues(fig1_instance):
    state = qp.init(fig1_instance.program, np.zeros(10), 10.0)
    assert np.array_equal(state.Q[:9], np.ones(9))   # = link capacities
    assert np.all(state.Q[9:] == 0.0)
    assert np.array_equal(state.Q + state.g_prev, np.zeros(12))


def test_init_zero_constraints_boundary_case():
    prog = offset_program([0.0, 0.0])
    state = qp.init(prog, np.zeros(2), 1.0)
    assert np.array_equal(state.Q, np.zeros(2))
    assert np.linalg.norm(state.Q) == np.linalg.norm(state.g_prev)


def test_init_rejects_bad_inputs():
    prog = one_dim_program()
    with pytest.raises(ValueError):
        qp.init(prog, np.array([3.0]), 1.0)
    with pytest.raises(ValueError):
        qp.init(prog, np.array([1.0]), 0.0)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_init_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        qp.init(one_dim_program(), np.array([1.0]), alpha)


def test_init_warns_below_curvature():
    prog = one_dim_program()  # beta = 1
    with pytest.warns(AlphaBelowCurvatureWarning):
        qp.init(prog, np.array([0.0]), 0.1)


def test_queue_update_examples():
    assert qp.queue_update([2.0], [-3.0])[0] == 3.0
    assert qp.queue_update([2.0], [1.0])[0] == 3.0
    assert qp.queue_update([0.0], [0.0])[0] == 0.0
    out = qp.queue_update([2.0, 2.0, 0.0], [-3.0, 1.0, 0.0])
    assert np.array_equal(out, [3.0, 3.0, 0.0])
    assert np.all(out >= np.abs([-3.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        qp.queue_update([1.0], [1.0, 2.0])


def test_one_dim_step_against_grid_search():
    prog = one_dim_program()
    state = qp.init(prog, np.array([0.0]), 1.0)
    state.Q = np.array([1.0])  # puts the weight at W = 1 + (-1) = 0
    qp.step(state, prog)
    # subproblem: x + 0*(x-1) + (x-0)^2 over [0,2]
    ref = grid_minimize(lambda x: x + x * x, 0.0, 2.0)
    assert state.x_prev[0] == pytest.approx(max(ref, 0.0), abs=1e-6)
    assert state.x_prev[0] == 0.0
    assert state.Q[0] == 1.0  # max(1, 1 + (-1))
    assert state.t == 1 and state.x_bar[0] == 0.0


def test_step_fixed_point():
    # g == 0 and f == 0: any interior x_prev is a fixed point
    prog = ConvexProgram.from_terms(
        CoordinateTerms.linear([0.0]),
        ConstraintTerms([[0.0]], [0.0]),
        BoxSet([0.0], [1.0]),
        beta_hint=0.0,
    )
    state = qp.init(prog, np.array([0.5]), 2.0)
    for _ in range(3):
        qp.step(state, prog)
    assert state.x_prev[0] == 0.5
    assert state.Q[0] == 0.0
    assert state.x_bar[0] == pytest.approx(0.5)


def test_run_t1_average_is_first_iterate():
    prog = one_dim_program()
    rep = qp.run(prog, np.array([0.0]), 1.0, 1)
    assert len(rep.t) == 1 and rep.t[0] == 1
    assert np.array_equal(rep.x_bar[0], rep.x[0])
    assert rep.f_xbar[0] == rep.f_x[0]


def test_run_records_schedule_and_lengths():
    prog = one_dim_program()
    rep = qp.run(prog, np.array([0.0]), 1.0, 250, record_every=100)
    assert list(rep.t) == record_schedule(250, 100) == [1, 100, 200, 250]
    rep2 = qp.run(prog, np.array([0.0]), 1.0, 50)
    assert len(rep2.t) == 50  # stride defaults to 1 for short runs


def test_run_determinism_bit_identical(fig1_instance):
    prog = fig1_instance.program
    a = qp.run(prog, np.zeros(10), 10.0, 300, record_every=1)
    b = qp.run(prog, np.zeros(10), 10.0, 300, record_every=1)
    for field in ("x", "x_bar", "Q", "f_x", "f_xbar", "g_x", "g_xbar",
                  "cum_g", "drift", "drift_bound"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_averaging_identity():
    prog = qp.fig1_num_instance().program()
    rep = qp.run(prog, np.zeros(10), 10.0, 500, record_every=1)
    means = np.cumsum(rep.x, axis=0) / np.arange(1, 501)[:, None]
    scale = np.maximum(np.abs(means), 1e-30)
    assert (np.abs(rep.x_bar - means) / scale).max() < 1e-10


def test_drift_records_match_recomputation():
    prog = qp.fig1_num_instance().program()
    rep = qp.run(prog, np.zeros(10), 10.0, 200, record_every=1)
    L = 0.5 * (rep.Q ** 2).sum(axis=1)
    state0 = qp.init(prog, np.zeros(10), 10.0)
    L_prev = np.concatenate([[0.5 * float(state0.Q @ state0.Q)], L[:-1]])
    Q_prev = np.vstack([state0.Q, rep.Q[:-1]])
    deltas = L - L_prev
    bounds = (Q_prev * rep.g_x).sum(axis=1) + (rep.g_x ** 2).sum(axis=1)
    assert np.allclose(rep.drift, deltas, atol=1e-12)
    assert np.allclose(rep.drift_bound, bounds, atol=1e-12)
    assert np.all(rep.drift <= rep.drift_bound + 1e-9)


def test_invariants_on_random_programs():
    rng = np.random.default_rng(101)
    with quiet_alpha_warnings():
        for _ in range(25):
            prog = random_separable_program(rng, n_max=10, m_max=4)
            x0 = random_point_in(prog.box, rng)
            rep = qp.run(prog, x0, random_alpha(rng, prog), 200, record_every=1)
            # nonnegative queues and weights
            assert np.all(rep.Q >= 0.0)
            assert np.all(rep.Q + rep.g_x >= -1e-9)
            # queue norm dominates the latest constraint norm
            qn = np.linalg.norm(rep.Q, axis=1)
            gn = np.linalg.norm(rep.g_x, axis=1)
            assert np.all(qn >= gn - 1e-9)
            # queue dominates the cumulative constraint sum
            slack = rep.t[:, None] * 1e-12 + 1e-9
            assert np.all(rep.Q >= rep.cum_g - slack)
            # drift bound
            assert np.all(rep.drift <= rep.drift_bound + 1e-9)


def test_affine_equality_as_two_inequality_rows():
    # min ||x - c||^2 s.t. H x = d, posed as H x - d <= 0 and d - H x <= 0;
    # on a box that holds x*, the projection of c onto {H x = d}
    H = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    d = np.array([1.0, 0.5])
    c = np.array([1.0, 2.0, -1.0])
    A = np.vstack([H, -H])
    beta = qp.spectral_norm(A)
    assert beta == pytest.approx(math.sqrt(2.0) * qp.spectral_norm(H), rel=1e-12)
    prog = ConvexProgram.from_terms(CoordinateTerms(np.ones(3), -2.0 * c, np.zeros(3)),
                                    ConstraintTerms(A, np.concatenate([d, -d])),
                                    BoxSet(np.full(3, -5.0), np.full(3, 5.0)), beta_hint=beta)
    # stationarity 2(x* - c) + H^T nu = 0; nu splits into the two rows' multipliers
    nu = 2.0 * np.linalg.solve(H @ H.T, H @ c - d)
    x_star = c - 0.5 * H.T @ nu
    f_star = float(x_star @ x_star - 2.0 * c @ x_star)
    lam_star = np.concatenate([np.maximum(nu, 0.0), np.maximum(-nu, 0.0)])
    assert qp.kkt_residual(prog, x_star, lam_star) < 1e-12
    T = 2000
    rep = qp.run(prog, np.zeros(3), 0.5 * beta * beta + 1.0, T)
    assert qp.verify_bounds(rep, f_star, x_star, lam_star, beta).ok
    # the larger of the two rows of a pair is |h_j(xbar)|
    h = np.abs(rep.g_xbar[:, :2]).max(axis=1)
    assert np.array_equal(rep.max_violation, h)
    for errors in (np.abs(rep.f_xbar - f_star), h):
        res = qp.slope_check(rep.t, errors, (100, T))
        assert not res.skipped and -1.15 <= res.slope <= -0.85


def test_oracle_failure_carries_iteration_index():
    prog = one_dim_program()

    def bad_oracle(W, x_prev, alpha):
        raise qp.NonConvergenceError("stuck", iterate=x_prev, residual=1.0,
                                     iterations=7)

    state = qp.init(prog, np.array([0.0]), 1.0)
    qp.step(state, prog)  # one good closed-form step first
    with pytest.raises(qp.NonConvergenceError, match="iteration 1"):
        qp.step(state, prog, oracle=bad_oracle)


def test_run_returns_partial_trace_on_failure():
    prog = one_dim_program()
    good = qp.make_oracle(prog)
    calls = {"n": 0}

    def flaky(W, x_prev, alpha):
        calls["n"] += 1
        if calls["n"] > 5:
            raise qp.NonConvergenceError("gave up", iterate=x_prev,
                                         residual=1.0, iterations=3)
        return good(W, x_prev, alpha)

    with pytest.raises(qp.NonConvergenceError) as err:
        qp.run(prog, np.array([0.0]), 1.0, 20, oracle=flaky, record_every=1)
    partial = err.value.partial_report
    assert len(partial.t) == 5 and partial.iterations == 5


def test_verify_bounds_detects_violation(fig1_instance):
    prog = fig1_instance.program
    rep = qp.run(prog, np.zeros(10), 10.0, 200, record_every=1)
    z_star, lam_star, f_star = qp.fig1_reference()
    good = qp.verify_bounds(rep, f_star, z_star, lam_star, prog.beta_hint)
    assert good.ok
    rep.Q = rep.Q.copy()
    rep.Q[120, 3] = rep.cum_g[120, 3] - 1e-5  # corrupt one queue entry
    bad = qp.verify_bounds(rep, f_star, z_star, lam_star, prog.beta_hint)
    assert bad.passed("queue_lower") is False
    assert bad.worst("queue_lower") == pytest.approx(-1e-5, rel=1e-3)
    idx = int(np.argmin(bad.queue_lower_margin))
    assert bad.t[idx] == rep.t[120]


def test_verify_bounds_skips_when_alpha_too_small(fig1_instance):
    prog = fig1_instance.program
    with quiet_alpha_warnings():
        rep = qp.run(prog, np.zeros(10), 0.5, 100, record_every=1)
    z_star, lam_star, f_star = qp.fig1_reference()
    bounds = qp.verify_bounds(rep, f_star, z_star, lam_star, prog.beta_hint)
    assert bounds.passed("constraint") is None
    assert bounds.passed("queue") is None
    assert "alpha" in bounds.skipped["constraint"]
    assert bounds.passed("queue_lower") is not None  # never skipped
    assert bounds.ok in (True, False)


def test_verify_bounds_t1_instantiation(fig1_instance):
    prog = fig1_instance.program
    rep = qp.run(prog, np.zeros(10), 10.0, 1)
    z_star, lam_star, f_star = qp.fig1_reference()
    bounds = qp.verify_bounds(rep, f_star, z_star, lam_star, prog.beta_hint)
    expect = f_star + 10.0 * float(z_star @ z_star) - rep.f_xbar[0]
    assert bounds.objective_margin[0] == pytest.approx(expect, rel=1e-12)


def test_qp_queue_norm_bounded_by_certificate(qp_seed1):
    program = qp_seed1.program()
    alpha = 0.5 * qp_seed1.beta() ** 2 + 1.0
    rep = qp.run(program, np.zeros(100), alpha, 10_000)
    ref = qp.qp_reference_optimum(qp_seed1)
    bounds = qp.verify_bounds(rep, ref.f, ref.x, np.array([ref.lam]),
                              qp_seed1.beta())
    assert np.isfinite(rep.f_xbar).all() and np.isfinite(rep.queue_norm).all()
    assert bounds.passed("queue") is True
    assert bounds.ok


def test_derive_reference_small_program():
    prog = qp.fig1_num_instance().program()
    ref = derive_reference(prog, 0.5 * prog.beta_hint ** 2 + 1.0, 20_000)
    assert ref.kkt < 1e-6
    z_star, _, f_star = qp.fig1_reference()
    assert ref.f == pytest.approx(f_star, abs=1e-6)
    assert np.abs(ref.x - z_star).max() < 1e-3


# ---------------------------------------------------------------------------
# Runtime invariants, one step at a time.  From Q = 0 and g(x_prev) = 0 a
# fixed oracle moves to g(x) = -1 on both rows of g(x) = x, so every check
# holds with room to spare; each case then pushes one invariant past its
# bound by ``miss`` on one row.

INVARIANT_MESSAGES = {
    "queue": "queue invariant violated: Q_k < 0",
    "weight": "weight invariant violated: Q_k + g_k(x_prev) < 0",
    "lower": "queue lower bound violated: |Q_k(t+1)| < |g_k(x(t))|",
    "drift": "drift exceeded its upper bound",
    "cumulative": "queue fell below the cumulative constraint sum",
}


def _invariant_step(monkeypatch, invariant, row, miss):
    prog = offset_program([0.0, 0.0])
    state = qp.init(prog, np.zeros(2), 1.0)
    g_new = np.array([-1.0, -1.0])
    real_update = solver.queue_update
    true_next = real_update(state.Q, g_new)

    def patch_queue(change):
        def faulty(Q, g):
            out = real_update(Q, g)
            out[row] = change(out[row])
            return out
        monkeypatch.setattr(solver, "queue_update", faulty)

    if invariant == "queue":
        # Q_k = -miss, with W_k = 0 and the running sum kept equal to Q_k
        state.Q[row] = -miss
        state.g_prev[row] = miss
        state.cum_g[row] = -miss
    elif invariant == "weight":
        state.g_prev[row] = -miss
    elif invariant == "lower":
        # an update that brings |Q_k(t+1)| miss below |g_k|
        patch_queue(lambda q: q - math.copysign(miss, q))
    elif invariant == "drift":
        # an update that makes the drift exceed its bound (2) by miss
        others = float(true_next @ true_next) - true_next[row] ** 2
        patch_queue(lambda q: math.sqrt(2.0 * (2.0 + miss) - others))
    elif invariant == "cumulative":
        state.cum_g[row] = true_next[row] - g_new[row] + miss
    qp.step(state, prog, oracle=lambda W, x_prev, alpha: g_new.copy())


def _expect(monkeypatch, invariant, row, miss, raises):
    with monkeypatch.context() as patch:
        if raises:
            with pytest.raises(AssertionError) as err:
                _invariant_step(patch, invariant, row, miss)
            assert str(err.value) == INVARIANT_MESSAGES[invariant]
            assert isinstance(err.value, qp.InvariantViolation)
            assert (err.value.name, err.value.t) == (invariant, 0)
            assert err.value.margin < 0
        else:
            _invariant_step(patch, invariant, row, miss)


@pytest.mark.parametrize("invariant", sorted(INVARIANT_MESSAGES))
def test_invariant_fails_by_ten_tolerances_and_passes_by_a_tenth(monkeypatch, invariant):
    _expect(monkeypatch, invariant, 0, 10 * INVARIANT_TOL, raises=True)
    # the queue check has no tolerance: any negative queue fails it
    _expect(monkeypatch, invariant, 0, 0.1 * INVARIANT_TOL, raises=invariant == "queue")


# ---------------------------------------------------------------------------
# Block-checked runs: ``run`` tests the invariants of solver._BLOCK steps
# at a time.  A fault must surface with the (name, t, margin) that a loop
# of ``step`` calls raises, and before any error of a later step.

def _fault_at(monkeypatch, t_bad, fault):
    """Let call t_bad of queue_update apply ``fault(t, Q, Q_next, g, cum)``
    to its result, ``cum`` the running sum of g up to that call's.  Returns
    the list that receives the margin the fault expects and the list that
    counts the calls."""
    real_update = solver.queue_update
    calls, expected, cum = [0], [], [0.0]

    def faulty(Q, g):
        out = real_update(Q, g)
        cum[0] = cum[0] + g  # the step's own running sum, to the bit
        if calls[0] == t_bad:
            expected.append(fault(t_bad, Q, out, g, cum[0]))
        calls[0] += 1
        return out

    monkeypatch.setattr(solver, "queue_update", faulty)
    return expected, calls


# Each fault breaks one invariant on one row and returns its margin, worked
# out here from the invariant's definition with the step's own operations.

def _halve_largest(t, Q, Q_next, g, cum):
    # |Q_k(t+1)| = |g_k| / 2 on the row with the largest |g_k|
    k = int(np.argmax(np.abs(g)))
    Q_next[k] = 0.5 * abs(g[k])
    return float(abs(Q_next[k]) - (abs(g[k]) - INVARIANT_TOL))


def _double(t, Q, Q_next, g, cum):
    Q_next *= 2.0
    L = 0.5 * float(Q.dot(Q))
    delta = 0.5 * float(Q_next.dot(Q_next)) - L
    gg = float(g.dot(g))
    bound = float(Q.dot(g)) + gg
    tol = max(INVARIANT_TOL, (Q.shape[0] + 4) * np.finfo(float).eps * (delta + 3.0 * L + 1.5 * gg))
    return bound + tol - delta


def _negate_farthest_queue(t, Q, Q_next, g, cum):
    # Q_k(t+1) = -Q_k(t+1) on the row with the largest Q_k(t+1) + cum_k(t+1),
    # which drops it below cum_k(t+1); |Q| keeps its value, so step t's
    # lower and drift checks still pass
    k = int(np.argmax(Q_next + cum))
    assert Q_next[k] + cum[k] > 1e-3
    Q_next[k] = -Q_next[k]
    return float(Q_next[k] - ((cum[k] - (t + 1) * 1e-12) - INVARIANT_TOL))


BLOCK_FAULTS = {
    "lower": _halve_largest,
    "drift": _double,
    "cumulative": _negate_farthest_queue,
}


def _first_violation(monkeypatch, program, T, t_bad, fault, route):
    """Run ``T`` iterations of fig1-num ``program`` from 0 at alpha 10 by
    ``route``: a loop of ``step`` calls, ``run``, or the fig1 agents."""
    x0 = np.zeros(program.n)
    with monkeypatch.context() as patch:
        expected, calls = _fault_at(patch, t_bad, fault)
        with pytest.raises(qp.InvariantViolation) as err:
            if route == "step":
                state = qp.init(program, x0, 10.0)
                oracle = qp.make_oracle(program)
                for _ in range(T):
                    qp.step(state, program, oracle)
            elif route == "run":
                qp.run(program, x0, 10.0, T)
            else:
                num = qp.fig1_num_instance()
                qp.simulate_decentralized(num.topology, num.utility_weights, num.x_max,
                                          num.y_max, 10.0, np.zeros(7), np.zeros(3), T)
    return (err.value.name, err.value.t, err.value.margin), expected[0], calls[0]


@pytest.mark.parametrize("invariant", sorted(BLOCK_FAULTS))
@pytest.mark.parametrize("T, t_bad", [(10, 3), (100, 40), (100, 99)])
def test_run_raises_what_a_loop_of_steps_raises(monkeypatch, fig1_instance, invariant, T, t_bad):
    # t_bad inside the first block, inside a later one, last of the last partial one
    prog = fig1_instance.program
    fault = BLOCK_FAULTS[invariant]
    block_end = min(T, (t_bad // solver._BLOCK + 1) * solver._BLOCK)
    # the agents' margin is worked out from their own loads, which may sit
    # an ulp from the dense A z - b that the other routes evaluate
    for route, steps in (("step", t_bad + 1), ("run", block_end), ("agents", block_end)):
        raised, margin, done = _first_violation(monkeypatch, prog, T, t_bad, fault, route)
        assert raised == (invariant, t_bad, margin) and margin < 0
        # run tests a block once its last step is done
        assert done == steps


def test_a_step_reports_its_first_failing_check(monkeypatch, fig1_instance):
    # both the lower bound and the drift fail at t = 40; lower comes first
    def both(t, Q, Q_next, g, cum):
        _double(t, Q, Q_next, g, cum)
        return _halve_largest(t, Q, Q_next, g, cum)

    prog = fig1_instance.program
    for route in ("step", "run", "agents"):
        raised, margin, _ = _first_violation(monkeypatch, prog, 50, 40, both, route)
        assert raised == ("lower", 40, margin)


def test_run_raises_a_violation_before_a_later_steps_error(monkeypatch, fig1_instance):
    prog = fig1_instance.program
    good = qp.make_oracle(prog)
    calls = [0]

    def oracle(W, x_prev, alpha):
        calls[0] += 1
        if calls[0] == 43:  # step 42
            return np.full(prog.n, np.nan)
        return good(W, x_prev, alpha)

    _fault_at(monkeypatch, 40, _halve_largest)
    with pytest.raises(qp.InvariantViolation) as err:
        qp.run(prog, np.zeros(prog.n), 10.0, 100, oracle=oracle)
    assert (err.value.name, err.value.t) == ("lower", 40)
    assert isinstance(err.value.__context__, qp.NumericalDomainError)


def test_run_mid_block_non_convergence_keeps_its_partial_report(fig1_instance):
    prog = fig1_instance.program
    good = qp.make_oracle(prog)
    calls = [0]

    def flaky(W, x_prev, alpha):
        calls[0] += 1
        if calls[0] > 40:
            raise qp.NonConvergenceError("gave up", iterate=x_prev, residual=1.0, iterations=3)
        return good(W, x_prev, alpha)

    with pytest.raises(qp.NonConvergenceError) as err:
        qp.run(prog, np.zeros(prog.n), 10.0, 100, oracle=flaky, record_every=1)
    partial = err.value.partial_report
    clean = qp.run(prog, np.zeros(prog.n), 10.0, 100, record_every=1)
    assert partial.iterations == 40 and partial.t.tolist() == list(range(1, 41))
    for name in ("x", "x_bar", "Q", "f_x", "f_xbar", "g_x", "g_xbar", "cum_g", "drift",
                 "drift_bound"):
        assert np.array_equal(getattr(partial, name), getattr(clean, name)[:40])


def scaled_linear_program(rng, scale):
    """A 4x3 linear program with A uniform in [-1, 1], the box [0, scale]^3
    and b uniform in [0.5, 1.5] * scale."""
    return qp.load_program({
        "n": 3, "m": 4, "box": {"lo": [0.0] * 3, "hi": [scale] * 3},
        "linear": {"A": rng.uniform(-1.0, 1.0, (4, 3)).tolist(),
                   "b": (rng.uniform(0.5, 1.5, 4) * scale).tolist()},
        "objective": {"kind": "linear", "c": rng.uniform(-1.0, 1.0, 3).tolist()}})


@pytest.mark.parametrize("scale", [1e0, 1e3, 1e6, 1e9])
def test_drift_tolerance_follows_the_scale_of_the_terms(monkeypatch, scale):
    # an absolute tolerance false-alarms on these from scale 1e7 on
    rng = np.random.default_rng(41)
    for _ in range(6):
        prog = scaled_linear_program(rng, scale)
        qp.run(prog, np.zeros(3), 0.5 * prog.beta_hint ** 2 + 1.0, 1000, record_every=1000)
    # a drift one millionth of the terms' size above its bound still fails:
    # from Q = 0, g = (-s, -s) the bound is 2 s^2 and Q(t+1) = (s, s)
    prog = offset_program([0.0, 0.0], -5.0 * scale, 5.0 * scale)
    state = qp.init(prog, np.zeros(2), 1.0)
    real_update = solver.queue_update

    def faulty(Q, g):
        out = real_update(Q, g)
        out[0] = math.sqrt(2.0 * (2.0 + 1e-6) - 1.0) * scale
        return out

    monkeypatch.setattr(solver, "queue_update", faulty)
    with pytest.raises(qp.InvariantViolation, match="drift exceeded its upper bound") as err:
        qp.step(state, prog, oracle=lambda W, x_prev, alpha: np.full(2, -scale))
    assert err.value.name == "drift" and err.value.margin < 0


def test_cumulative_check_at_scale_1e9(monkeypatch):
    # at 1e9 the running sums reach 1e12 against an absolute tolerance of
    # 1e-9: clean runs must pass it, and a queue a relative 1e-6 below the
    # running sum must still fail it
    scale = 1e9
    rng = np.random.default_rng(43)
    for _ in range(4):
        prog = scaled_linear_program(rng, scale)
        qp.run(prog, np.zeros(3), 0.5 * prog.beta_hint ** 2 + 1.0, 1000, record_every=1000)
    # g(x) = x with x = scale at every step: Q(t) and the running sum are t * scale
    prog = offset_program([0.0], -5.0 * scale, 5.0 * scale)
    state = qp.init(prog, np.zeros(1), 1.0)

    def oracle(W, x_prev, alpha):
        return np.full(1, scale)

    for _ in range(10):
        qp.step(state, prog, oracle=oracle)
    real_update = solver.queue_update

    def faulty(Q, g):
        return real_update(Q, g) - 1e-6 * np.abs(state.cum_g + g)

    monkeypatch.setattr(solver, "queue_update", faulty)
    with pytest.raises(qp.InvariantViolation,
                       match="queue fell below the cumulative constraint sum") as err:
        qp.step(state, prog, oracle=oracle)
    assert (err.value.name, err.value.t) == ("cumulative", 10)
    assert err.value.margin < 0


def overflow_program():
    """g(x) = 1e308 (x_1 + x_2) overflows at the first iterate."""
    return ConvexProgram.from_terms(
        CoordinateTerms.linear([-1e308, -1e308]),
        ConstraintTerms([[1e308, 1e308]], [0.0]),
        BoxSet([0.0, 0.0], [1e308, 1e308]),
        beta_hint=1.0,
    )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_evaluation_raises_at_the_step_that_makes_it():
    prog = overflow_program()
    with pytest.raises(qp.NumericalDomainError, match="iteration 0"):
        qp.run(prog, np.zeros(2), 1.0, 50)
    with pytest.raises(qp.NumericalDomainError, match="iteration 0"):
        qp.run(prog, np.zeros(2), 1.0, 50, validate=False)


# the iterate screen's cases under the queue law (ids nan, inf, -inf) and
# the multiplier law (ids dual-nan, dual-inf, dual--inf)
NON_FINITE_ITERATES = [pytest.param(dual, bad, id=("dual-" if dual else "") + str(bad))
                       for dual in (False, True) for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.filterwarnings("ignore:invalid value encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("dual, bad", NON_FINITE_ITERATES)
def test_non_finite_iterate_raises_before_evaluation(dual, bad):
    # the one iterate screen of step, from init and from dual_init
    prog = one_dim_program()
    state = qp.dual_init(prog, 0.01) if dual else qp.init(prog, np.array([0.0]), 1.0)
    qp.step(state, prog)
    with pytest.raises(qp.NumericalDomainError, match="non-finite iterate at iteration 1"):
        qp.step(state, prog, oracle=lambda W, x_prev, alpha: np.array([bad]))
    assert state.t == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_an_overflowing_queue_raises_at_the_step_that_makes_it():
    # minimize x on [0, 1] s.t. x + 1.5e308 <= 0: Q(1) = g = 1.5e308, and
    # step 1 adds g to it again, which overflows with or without validation
    prog = ConvexProgram.from_terms(CoordinateTerms.linear([1.0]),
                                    ConstraintTerms([[1.0]], [-1.5e308]),
                                    BoxSet([0.0], [1.0]), beta_hint=1.0)
    message = "queue is not finite at iteration 1"
    for validate in (True, False):
        with pytest.raises(qp.NumericalDomainError, match=message):
            qp.run(prog, np.zeros(1), 1.0, 5, validate=validate)
    state = qp.init(prog, np.zeros(1), 1.0)
    with pytest.raises(qp.NumericalDomainError, match=message):
        for _ in range(5):
            qp.step(state, prog)
    assert state.t == 1 and state.Q.tolist() == [1.5e308]


# Final values of two runs at a fixed alpha, as the kernel produced them
# before its operations were regrouped; every digit must survive.

FIG1_NUM_T1E4 = {
    "f_xbar": -1.654471805697292,
    "Q": [0.5999999999999996, 0.5999999999999996, 0.40000000000000036,
          1.2499999999999982, 1.2499999999999982, 0.5999999999999966,
          1.2499999999999996, 0.40000000000000324, 0.04154620073843718,
          1.2499999999999976, 1.2499999999999987, 1.2499999999999982],
    "x_bar": [0.4001956968324501, 0.4001956968324501, 0.5993396498998573,
              0.5993396498998573, 0.40015741429166, 0.5994977105937119,
              0.9989819514492464, 0.8005154076594286, 1.5989617140913865,
              1.59860466204296],
}

# fig1-flow-power at T = 4000 (VQ alpha 10, DSG gamma 0.01); the DSG
# report keeps the multipliers in its Q column
FLOW_POWER_T4000 = {
    "vq": {
        "f_xbar": 0.5355682084129887,
        "Q": [0.5575457237191646, 0.24982242668374385, 0.30903616736580813,
              0.6892071257758992, 0.9982432558872518, 0.3755709364946811,
              0.6226723497470292, 0.41448386955083594, 1.0371561934538283,
              1.2467528506434824, 0.9982432811643012, 1.0371562106565775],
        "x_bar": [0.7804378930605923, 0.013435991487665907, 0.2245977835538381,
                  1.3393696524111054, 0.4062004174908458, 0.505085582815249,
                  1.3901865376406644, 0.7941855727609198, 1.9704174142760795,
                  1.8955314095085807, 1.1875707478074262, 0.014248502773060289,
                  0.25235629540661014, 1.7365075276644333, 2.8862911142100294,
                  0.5013621467723023, 1.4902934297289716, 0.657699592126639,
                  3.036148029384598],
    },
    "dsg": {
        "f_xbar": 0.3659583162321476,
        "Q": [0.5350837432819435, 0.27306497370853755, 0.3275572129009148,
              0.7006877391591779, 0.9892863007642404, 0.39541607334256984,
              0.657652248212408, 0.42314731767574676, 1.0380656176510752,
              1.2092744292395967, 0.9911698202631596, 1.0243603691712826],
        "x_bar": [0.7595333276588818, 0.05635053891076155, 0.2667658490988191,
                  1.3254366120392944, 0.42262904183071204, 0.5125501145606481,
                  1.4213524229512322, 0.8461157273006349, 2.039312327020803,
                  1.9595115467411603, 1.116854859661431, 0.05125775817753481,
                  0.2963379501418521, 1.7549808103747817, 2.908786939963646,
                  0.5135347849996977, 1.5169788250106668, 0.655631532382122,
                  3.0635363654277263],
    },
}

# nonzero entries of x_bar; the other 55 are exactly 0
QP_SEED1_T2000_XBAR = {
    2: 0.9930769007996174, 5: 0.15100807534177102, 9: 0.3165023080471638,
    12: 0.9959950745782188, 14: 4.0266165712731064e-05, 15: 0.167803377922512,
    17: 0.13625872679486248, 24: 0.026075446636336982, 25: 0.25634938304597127,
    26: 0.9963931614531861, 29: 0.23173081964297873, 31: 0.378525994444975,
    32: 0.8631919457384227, 35: 0.4736287694165151, 36: 0.08845329563830266,
    38: 0.9957778114446987, 43: 0.9966049998746207, 44: 0.6490438534590163,
    45: 0.39898074483049, 47: 2.048750483405118e-05, 49: 0.3510016083115832,
    51: 0.42251915840969373, 52: 0.9963242255314517, 53: 0.9935234498504573,
    58: 0.6066226299859251, 61: 0.753544588120352, 62: 0.9875652263806247,
    64: 0.5824211761683665, 65: 0.9964946838963882, 67: 0.00045380851618987127,
    69: 0.6983277874396885, 70: 0.6922754262476114, 72: 0.9877530949001055,
    76: 0.6574374262772905, 77: 0.9936462131005794, 80: 0.3995365239424788,
    81: 0.6113692506302825, 82: 0.0001915197181084894, 85: 0.8412459808395536,
    87: 0.7629252867455733, 90: 0.6456137000051856, 91: 0.14717868231965142,
    92: 0.5168029903653166, 94: 0.12008787341237033, 98: 0.8111913186308634,
}


def test_fig1_num_final_values_are_pinned(fig1_instance):
    prog = fig1_instance.program
    rep = qp.run(prog, np.zeros(prog.n), 10.0, 10_000)
    assert rep.f_xbar[-1] == FIG1_NUM_T1E4["f_xbar"]
    assert rep.Q[-1].tolist() == FIG1_NUM_T1E4["Q"]
    assert rep.x_bar[-1].tolist() == FIG1_NUM_T1E4["x_bar"]


def test_fig1_flow_power_final_values_are_pinned():
    # VQ runs the log1p closed form; DSG (alpha = 0) its flat branch
    prog = qp.get_problem("fig1-flow-power").program
    vq = qp.run(prog, np.zeros(prog.n), 10.0, 4000)
    dsg = qp.dsg_run(prog, None, 0.01, 4000)
    for rep, want in ((vq, FLOW_POWER_T4000["vq"]), (dsg, FLOW_POWER_T4000["dsg"])):
        assert rep.f_xbar[-1] == want["f_xbar"]
        assert rep.Q[-1].tolist() == want["Q"]
        assert rep.x_bar[-1].tolist() == want["x_bar"]


def test_qp_seed1_final_values_are_pinned(qp_seed1):
    program = qp_seed1.program()
    alpha = 0.5 * qp_seed1.beta() ** 2 + 1.0
    rep = qp.run(program, np.zeros(program.n), alpha, 2000)
    assert rep.f_xbar[-1] == -168.55981281780277
    assert rep.Q[-1].tolist() == [5.236228571646411]
    want = np.zeros(program.n)
    want[list(QP_SEED1_T2000_XBAR)] = list(QP_SEED1_T2000_XBAR.values())
    assert rep.x_bar[-1].tolist() == want.tolist()


def constant_constraint_program(g_at_one):
    """f(x) = x on [0, 1]; g = 0 at x = 0 and ``g_at_one`` at x = 1."""
    g_at_one = np.asarray(g_at_one, dtype=float)
    m = g_at_one.shape[0]
    return ConvexProgram(
        1, m, BoxSet([0.0], [1.0]), lambda x: float(x[0]), lambda x: np.ones(1),
        lambda x: g_at_one if x[0] == 1.0 else np.zeros(m), lambda x: np.zeros((m, 1)),
        beta_hint=0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("g, finite", FINITENESS_CASES, ids=FINITENESS_IDS)
def test_step_tests_g_exactly_behind_its_square_sum(g, finite):
    # ||g||^2 is inf for [1e200, 1] although g is finite: the step goes on
    prog = constant_constraint_program(g)
    for validate in (True, False):
        state = qp.init(prog, np.zeros(1), 1.0)
        step = lambda: qp.step(state, prog, oracle=lambda W, x_prev, alpha: np.ones(1),
                               validate=validate)
        if finite:
            step()
            assert state.t == 1 and np.array_equal(state.Q, np.maximum(g, 0.0))
        else:
            with pytest.raises(qp.NumericalDomainError,
                               match="constraint value is not finite at iteration 0"):
                step()
            assert state.t == 0


def test_step_recomputes_the_drift_after_q_is_reassigned():
    prog = offset_program([0.5, -0.5])
    state = qp.init(prog, np.zeros(2), 1.0)
    for _ in range(3):
        qp.step(state, prog)
    state.Q = state.Q + 2.0
    Q = state.Q
    qp.step(state, prog)
    assert state.drift == 0.5 * float(state.Q.dot(state.Q)) - 0.5 * float(Q.dot(Q))
    # the next step carries the last step's 0.5||Q(t+1)||^2 over, to the bit
    Q = state.Q
    qp.step(state, prog)
    assert state.drift == 0.5 * float(state.Q.dot(state.Q)) - 0.5 * float(Q.dot(Q))
