import math
import time

import numpy as np
import pytest

import qpush as qp
from qpush import BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms
from qpush.errors import NonConvergenceError, NumericalDomainError
from qpush.oracles import SeparableOracle, make_oracle, solve_projected_gradient

from helpers import (grid_minimize, log1p_quadratic_minimizer, log_quadratic_minimizer,
                     random_point_in, random_separable_program, random_sparse_matrix,
                     solve_scalar_convex, solve_separable_quadratic, subproblem_objective)


def test_separable_quadratic_examples():
    # path-rate prox step: x_prev=0.5, price sum 1.0, source price 0.2, alpha 10
    assert solve_separable_quadratic(10.0, -(2 * 10 * 0.5 - 0.8), 0.0, 1.0) == pytest.approx(0.46)
    assert solve_separable_quadratic(11.0, -2.0, 0.0, 1.0) == pytest.approx(1 / 11)
    assert solve_separable_quadratic(1.0, 10.0, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        solve_separable_quadratic(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_separable_quadratic(-1.0, 1.0, 0.0, 1.0)


def test_scalar_convex_log_utility_root():
    # minimize -log y + 10 (y-1)^2: the positive root of 20y^2 - 20y - 1
    root = solve_scalar_convex(lambda y: -1.0 / y + 20.0 * (y - 1.0), 1e-12, 10.0)
    assert root == pytest.approx((20 + np.sqrt(480)) / 40, abs=1e-9)
    closed = float(log_quadratic_minimizer(10.0, -20.0, 1.0, 1e-12, 10.0))
    assert abs(closed - root) < 1e-8


def test_scalar_convex_endpoints_and_errors():
    assert solve_scalar_convex(lambda x: 1.0, 0.0, 1.0) == 0.0
    assert solve_scalar_convex(lambda x: -1.0, 0.0, 1.0) == 1.0
    with pytest.raises(NumericalDomainError):
        solve_scalar_convex(lambda x: np.nan, 0.0, 1.0)


def test_scalar_convex_power_allocation_root():
    # link power prox step: 0.25 p - log(1+p) + 10 p^2 on [0, 10]
    deriv = lambda p: 0.25 - 1.0 / (1.0 + p) + 20.0 * p
    root = solve_scalar_convex(deriv, 0.0, 10.0)
    assert root == pytest.approx(0.0357731199, abs=1e-9)
    closed = float(log1p_quadratic_minimizer(10.0, 0.25, 1.0, 0.0, 10.0))
    assert abs(closed - root) < 1e-10


def test_log_minimizers_agree_with_bisection():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = rng.uniform(0.1, 20.0)
        b = rng.uniform(-20.0, 20.0)
        w = rng.uniform(0.01, 5.0)
        hi = rng.uniform(0.5, 10.0)
        closed = float(log_quadratic_minimizer(a, b, w, 1e-12, hi))
        bis = solve_scalar_convex(lambda z: 2 * a * z + b - w / z, 1e-12, hi)
        assert abs(closed - bis) < 1e-8
        d = rng.uniform(0.0, 5.0)
        closed1p = float(log1p_quadratic_minimizer(a, b, d, 0.0, hi))
        bis1p = solve_scalar_convex(lambda z: 2 * a * z + b - d / (1 + z), 0.0, hi)
        assert abs(closed1p - bis1p) < 1e-8


def test_log_minimizer_takes_array_bounds():
    rng = np.random.default_rng(37)
    a, b, w = rng.uniform(0.1, 5.0, 6), rng.uniform(-5.0, 5.0, 6), rng.uniform(0.0, 2.0, 6)
    b[0], w[0] = 1.0, 0.0  # root 0: the domain floor binds
    lo, hi = np.array([0.0, 0.5, 1e-13, 2.0, 0.0, 0.1]), np.full(6, 3.0)
    got = log_quadratic_minimizer(a, b, w, lo, hi)
    for i in range(6):
        assert got[i] == log_quadratic_minimizer(a[i], b[i], w[i], float(lo[i]), 3.0)
    assert got[0] == 1e-12 and np.all(got >= np.maximum(lo, 1e-12))


def test_log_minimizer_against_grid_search():
    fun = lambda z: 10.0 * z * z - 20.0 * z - np.log(z)
    ref = grid_minimize(fun, 1e-6, 10.0)
    assert float(log_quadratic_minimizer(10.0, -20.0, 1.0, 1e-12, 10.0)) == pytest.approx(ref, abs=1e-6)


def unconstrained_prox_program(n):
    return ConvexProgram.from_terms(
        CoordinateTerms(np.zeros(n), np.zeros(n), np.zeros(n)),
        ConstraintTerms(np.zeros((0, n)), np.zeros(0)),
        BoxSet(-np.ones(n), np.ones(n)),
        beta_hint=0.0,
    )


def test_projected_gradient_pure_prox():
    prog = unconstrained_prox_program(3)
    x_prev = np.array([0.2, -0.5, 0.9])
    out = solve_projected_gradient(prog, np.zeros(0), x_prev, 1.0, tol=1e-12)
    assert np.allclose(out, x_prev, atol=1e-12)


def test_projected_gradient_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        prog = random_separable_program(rng, n_max=6, m_max=3, with_quad_rows=False)
        oracle = SeparableOracle(prog)
        W = rng.uniform(0.0, 2.0, prog.m)
        x_prev = random_point_in(prog.box, rng)
        alpha = rng.uniform(0.5, 5.0)
        closed = oracle(W, x_prev, alpha)
        pg = solve_projected_gradient(prog, W, x_prev, alpha, tol=1e-11)
        assert np.abs(closed - pg).max() < 1e-8


def test_projected_gradient_raises_at_a_non_finite_gradient():
    # g is NaN right of x0 = 0.5; the fallback used to run its 1e5 inner
    # iterations on NaN before giving up with NonConvergenceError.  A run
    # started there now stops at once, before any weight reaches the
    # fallback: its g(x_init) is not finite
    box = BoxSet(np.zeros(2), np.ones(2))
    prog = ConvexProgram(
        2, 1, box, lambda x: float(x @ x), lambda x: 2 * x,
        lambda x: np.array([np.nan if x[0] > 0.5 else x.sum() - 1.0]),
        lambda x: np.ones((1, 2)), beta_hint=1.5)
    started = time.perf_counter()
    with pytest.raises(NumericalDomainError, match="initial point"):
        qp.run(prog, np.array([0.9, 0.1]), 2.0, 5)
    assert time.perf_counter() - started < 0.1
    with pytest.raises(NumericalDomainError):
        solve_projected_gradient(prog, [np.nan], [0.1, 0.1], 2.0)


def _dense_twin(program, monkeypatch):
    """The same program with its constraint terms built on the dense path:
    no density makes A sparse while they are built."""
    cons = program.constraint_terms
    with monkeypatch.context() as patch:
        patch.setattr("qpush.program._SPARSE_RATIO", math.inf)
        twin = ConstraintTerms(cons.lin, cons.offset, cons.quad)
    # A x and A^T W are products with A and with a copy of A^T
    assert not twin._segment_sums and twin.matvec == twin.lin.dot
    assert np.array_equal(twin.rmatvec.__self__, cons.lin.T)
    return ConvexProgram.from_terms(program.objective_terms, twin, program.box,
                                    beta_hint=program.beta_hint)


def test_sparse_and_dense_paths_give_the_same_traces(monkeypatch):
    rng = np.random.default_rng(43)
    A = random_sparse_matrix(rng, density=1.0)
    m, n = A.shape
    # just below the threshold: one more nonzero would make it dense
    assert 32 * np.count_nonzero(A) < m * n <= 32 * (np.count_nonzero(A) + 1)
    Qc = np.zeros((m, n))
    Qc[rng.integers(0, m, 4), rng.integers(0, n, 4)] = 0.5
    box = BoxSet(np.zeros(n), np.full(n, 2.0))
    mid = np.ones(n)
    cons = ConstraintTerms(A, A @ mid + Qc @ (mid * mid) + rng.uniform(0.1, 1.0, m), Qc)
    logw = np.where(rng.random(n) < 0.3, 1.0, 0.0)
    obj = CoordinateTerms(rng.uniform(0.5, 2.0, n), rng.normal(size=n), logw)
    sparse = ConvexProgram.from_terms(obj, cons, box, beta_hint=np.linalg.norm(A) + 4.0)
    assert sparse.constraint_terms._segment_sums
    dense = _dense_twin(sparse, monkeypatch)
    keys = ("x", "x_bar", "Q", "f_x", "f_xbar", "g_x", "g_xbar", "cum_g")
    alpha = 0.5 * sparse.beta_hint ** 2
    pairs = [[qp.run(p, mid, alpha, 500, record_every=1) for p in (sparse, dense)],
             [qp.dsg_run(p, None, 0.05, 500, record_every=1) for p in (sparse, dense)]]
    for got, want in pairs:
        for key in keys:
            assert np.allclose(getattr(got, key), getattr(want, key), rtol=0, atol=1e-12), key


def test_projected_gradient_nonconvergence():
    prog = unconstrained_prox_program(2)
    with pytest.raises(NonConvergenceError) as err:
        solve_projected_gradient(prog, np.zeros(0), np.array([0.5, 0.5]), 1.0,
                                 tol=0.0, max_iter=50)
    assert err.value.iterations == 50
    assert err.value.iterate is not None


def test_dispatch_routes():
    prog = qp.fig1_num_instance().program()
    assert isinstance(make_oracle(prog), SeparableOracle)
    topo, w, xm, ym = qp.fig1_topology()
    fp = qp.build_flow_power_program(topo, w, y_max=ym)
    oracle = make_oracle(fp)
    assert isinstance(oracle, SeparableOracle)
    assert oracle.idx_nl1p.size == topo.L and oracle.idx_log.size == topo.S

    # a program without descriptors falls back to projected gradient
    n = 2
    box = BoxSet(np.zeros(n), np.ones(n))
    general = ConvexProgram(
        n, 1, box,
        objective=lambda x: float(x @ x),
        objective_grad=lambda x: 2 * x,
        constraints=lambda x: np.array([x.sum() - 1.0]),
        constraint_jac=lambda x: np.ones((1, n)),
        beta_hint=np.sqrt(2.0),
    )
    assert general.constraint_terms is None
    assert make_oracle(general).name == "projected-gradient"
    out = make_oracle(general)(np.array([0.5]), np.zeros(n), 2.0)
    assert general.box.contains(out, tol=1e-12)


def test_dispatch_flow_power_matches_grid_search():
    topo, w, xm, ym = qp.fig1_topology()
    fp = qp.build_flow_power_program(topo, w, y_max=ym)
    rng = np.random.default_rng(17)
    W = rng.uniform(0.0, 2.0, fp.m)
    x_prev = random_point_in(fp.box, rng)
    alpha = 10.0
    out = make_oracle(fp)(W, x_prev, alpha)
    # check three coordinates of each kind against brute force
    oracle = make_oracle(fp)
    sub_value = subproblem_objective(fp, W, x_prev, alpha)
    idx_quad = np.setdiff1d(np.arange(fp.n), np.concatenate([oracle.idx_log, oracle.idx_nl1p]))
    for i in list(idx_quad[:2]) + list(oracle.idx_log[:2]) + list(oracle.idx_nl1p[:2]):
        def coord_fun(z, i=i):
            trial = out.copy()
            trial[i] = z
            return sub_value(trial)

        lo = max(fp.box.lo[i], 1e-9) if i in oracle.idx_log else fp.box.lo[i]
        ref = grid_minimize(coord_fun, lo, fp.box.hi[i])
        assert out[i] == pytest.approx(ref, abs=1e-5)


def test_optimality_certificate():
    rng = np.random.default_rng(29)
    prog = random_separable_program(rng, n_max=8, m_max=4)
    oracle = SeparableOracle(prog)
    for _ in range(5):
        W = rng.uniform(0.0, 3.0, prog.m)
        x_prev = random_point_in(prog.box, rng)
        alpha = rng.uniform(0.5, 4.0)
        sub_value = subproblem_objective(prog, W, x_prev, alpha)
        x_opt = oracle(W, x_prev, alpha)
        base = sub_value(x_opt)
        for _ in range(100):
            x = random_point_in(prog.box, rng)
            gap = sub_value(x) - base
            push = alpha * float((x - x_opt) @ (x - x_opt))
            assert gap >= push - 1e-7


def test_outputs_stay_inside_box():
    rng = np.random.default_rng(31)
    for _ in range(20):
        prog = random_separable_program(rng, n_max=10, m_max=4)
        oracle = SeparableOracle(prog)
        x = oracle(rng.uniform(0, 2, prog.m), random_point_in(prog.box, rng),
                   rng.uniform(0.2, 3.0))
        assert prog.box.contains(x)


def test_subproblem_validation():
    prog = unconstrained_prox_program(2)
    with pytest.raises(ValueError, match="alpha"):
        solve_projected_gradient(prog, np.zeros(0), np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="weights"):
        solve_projected_gradient(prog, np.zeros(1), np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="x_prev"):
        solve_projected_gradient(prog, np.zeros(0), np.zeros(3), 1.0)


def interleaved_program(rng, kinds, obj_quad):
    """A program whose coordinate classes ("q" quadratic, "l" log, "p"
    log1p) follow ``kinds``, with linear, quadratic and log1p rows."""
    kinds = np.array(list(kinds))
    n, m = kinds.size, 3
    log, nl = kinds == "l", kinds == "p"
    lo = np.where(log | nl, 0.0, -1.0)
    box = BoxSet(lo, lo + rng.uniform(1.0, 3.0, n))
    obj = CoordinateTerms(obj_quad, rng.uniform(-2.0, 2.0, n),
                          np.where(log, rng.uniform(0.5, 2.0, n), 0.0))
    U = np.where(nl, rng.uniform(0.5, 2.0, (m, n)), 0.0)
    Qc = np.where(rng.random((m, n)) < 0.3, rng.uniform(0.0, 1.0, (m, n)), 0.0)
    cons = ConstraintTerms(rng.uniform(-1.0, 1.0, (m, n)), np.ones(m), quad=Qc, neglog1p=U)
    return ConvexProgram.from_terms(obj, cons, box, beta_hint=10.0)


def test_interleaved_classes_match_the_per_coordinate_reference():
    rng = np.random.default_rng(41)
    kinds = "qlqplqpl"
    prog = interleaved_program(rng, kinds, rng.uniform(0.0, 1.0, len(kinds)))
    oracle = SeparableOracle(prog)
    # no class is one contiguous run, so every class goes through index arrays
    for sel in (oracle._sel_log, oracle._sel_nl1p):
        assert isinstance(sel, np.ndarray)
    obj, cons, box = prog.objective_terms, prog.constraint_terms, prog.box
    for alpha in (0.3, 1.0, 7.5):
        W = rng.uniform(0.0, 2.0, cons.shape[0])
        x_prev = random_point_in(box, rng)
        x = oracle(W, x_prev, alpha)
        a = obj.quad + alpha + cons.quad.T @ W
        b = obj.lin + cons.lin.T @ W - 2.0 * alpha * x_prev
        d = cons.neglog1p.T @ W
        for i, kind in enumerate(kinds):
            lo, hi = box.lo[i], box.hi[i]
            if kind == "q":
                want = solve_separable_quadratic(a[i], b[i], lo, hi)
            elif kind == "l":
                want = float(log_quadratic_minimizer(a[i], b[i], obj.log_weight[i], lo, hi))
            else:
                want = float(log1p_quadratic_minimizer(a[i], b[i], d[i], lo, hi))
            assert x[i] == pytest.approx(want, rel=1e-12, abs=1e-12), (alpha, i, kind)


def test_interleaved_classes_equal_their_contiguous_twin_at_alpha_zero():
    # flat coordinates (no curvature at alpha = 0) take the endpoint branch
    rng = np.random.default_rng(43)
    kinds = "lqpqlpq"
    quad = np.where(rng.random(len(kinds)) < 0.5, 0.0, rng.uniform(0.5, 1.0, len(kinds)))
    prog = interleaved_program(rng, kinds, quad)
    perm = np.argsort(np.array(list(kinds)), kind="stable")
    obj, cons, box = prog.objective_terms, prog.constraint_terms, prog.box
    twin = ConvexProgram.from_terms(
        CoordinateTerms(obj.quad[perm], obj.lin[perm], obj.log_weight[perm]),
        ConstraintTerms(cons.lin[:, perm], cons.offset, quad=cons.quad[:, perm],
                        neglog1p=cons.neglog1p[:, perm]),
        BoxSet(box.lo[perm], box.hi[perm]), beta_hint=10.0)
    assert np.count_nonzero((quad == 0) & ~cons.quad.any(axis=0)) == 3
    oracle, twin_oracle = SeparableOracle(prog), SeparableOracle(twin)
    assert isinstance(twin_oracle._sel_log, slice) and isinstance(twin_oracle._sel_nl1p, slice)
    for _ in range(5):
        W = rng.uniform(0.0, 2.0, cons.shape[0])
        x_prev = random_point_in(box, rng)
        for alpha in (0.0, 2.0):
            np.testing.assert_allclose(oracle(W, x_prev, alpha)[perm],
                                       twin_oracle(W, x_prev[perm], alpha),
                                       rtol=1e-12, atol=1e-12)
