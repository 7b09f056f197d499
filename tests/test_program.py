import math
import os
import pickle
import warnings

import numpy as np
import pytest

import qpush as qp
from qpush import BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms
from qpush.errors import ConfigurationError
from qpush.program import _all_finite, _certified_norm, _selector

from helpers import (FINITENESS_CASES, FINITENESS_IDS, UNREADABLE_INPUTS, fused_certified_norm,
                     random_network, random_separable_program, random_sparse_matrix,
                     unreadable_input)


def linear_program(A, b, c, lo, hi):
    A = np.asarray(A, dtype=float)
    return ConvexProgram.from_terms(
        CoordinateTerms.linear(c),
        ConstraintTerms(A, b),
        BoxSet(lo, hi),
        beta_hint=qp.spectral_norm(A),
    )


def test_evaluate_at_a_zero_source_rate_is_infinite_without_a_warning():
    prog = qp.get_problem("fig1-num").program
    x = 0.5 * prog.box.hi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f_inside, _ = qp.evaluate(prog, x)
        x[np.flatnonzero(prog.objective_terms.log_weight)[0]] = 0.0
        f, g = qp.evaluate(prog, x)
    assert math.isfinite(f_inside)
    assert f == math.inf
    assert np.isfinite(g).all()


def test_evaluate_identity_linear():
    prog = linear_program(np.eye(2), [1.0, 1.0], [1.0, 1.0], [0, 0], [2, 2])
    f, g = qp.evaluate(prog, np.zeros(2))
    assert f == 0.0
    assert np.array_equal(g, [-1.0, -1.0])


def test_evaluate_fig1_at_zero():
    prog = qp.fig1_num_instance().program()
    f, g = qp.evaluate(prog, np.zeros(10))
    assert np.array_equal(g, np.concatenate([-np.ones(9), np.zeros(3)]))
    assert f == np.inf  # log utilities blow up at zero rates


def test_evaluate_qp_constraint_at_zero():
    qpi = qp.generate_qp(3)
    _, g = qp.evaluate(qpi.program(), np.zeros(100))
    assert g.shape == (1,)
    assert g[0] == -qpi.e


def test_evaluate_dimension_mismatch():
    prog = linear_program(np.eye(2), [1, 1], [1, 1], [0, 0], [2, 2])
    with pytest.raises(ValueError):
        qp.evaluate(prog, np.zeros(3))


def test_linear_constraints_match_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m, n = rng.integers(1, 6), rng.integers(1, 8)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        prog = linear_program(A, b, rng.normal(size=n), -np.ones(n), np.ones(n))
        for _ in range(200):
            x = rng.uniform(-1, 1, n)
            _, g = qp.evaluate(prog, x)
            ref = (A * x).sum(axis=1) - b
            assert np.allclose(g, ref, atol=1e-13)


def test_sparse_rows_match_dense_products():
    # below one nonzero in 32 entries, A x and A^T W are segment sums over
    # the nonzeros; they must match the dense products up to rounding
    rng = np.random.default_rng(41)
    for _ in range(40):
        A = random_sparse_matrix(rng)
        m, n = A.shape
        cons = ConstraintTerms(A, rng.normal(size=m))
        assert cons._segment_sums
        assert not (cons._parts[0][0].flags.writeable or cons._parts[0][2].flags.writeable)
        x = rng.uniform(-3.0, 3.0, n)
        want = A @ x - cons.offset
        scale = np.abs(A) @ np.abs(x) + np.abs(cons.offset)
        assert np.all(np.abs(cons.values(x) - want) <= 1e-13 * scale)
        # A^T W through the oracle: with obj_quad q, alpha a and a wide box
        # the solve is x = (2a x_prev - c - A^T W) / (2(q + a))
        q, c = rng.uniform(0.5, 2.0, n), rng.normal(size=n)
        prog = ConvexProgram.from_terms(CoordinateTerms(q, c, np.zeros(n)), cons,
                                        BoxSet(np.full(n, -1e9), np.full(n, 1e9)))
        W, x_prev, alpha = rng.uniform(-2.0, 2.0, m), rng.normal(size=n), 1.5
        got = qp.SeparableOracle(prog).solve(W, x_prev, alpha)
        want = -((c + A.T @ W) - 2.0 * alpha * x_prev) / (2.0 * (q + alpha))
        scale = (np.abs(c) + np.abs(A.T) @ np.abs(W) + 2.0 * alpha * np.abs(x_prev)) / (2.0 * (q + alpha))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_terms_from_triples_match_the_dense_constructor():
    rng = np.random.default_rng(53)
    for A in (random_sparse_matrix(rng), rng.normal(size=(3, 4))):
        rows, cols = np.nonzero(A)
        b = rng.normal(size=A.shape[0])
        dense = ConstraintTerms(A, b)
        terms = ConstraintTerms.from_triples(rows, cols, A[rows, cols], A.shape, b)
        assert terms.shape == A.shape and terms.is_linear
        assert terms._segment_sums == dense._segment_sums
        x = rng.normal(size=A.shape[1])
        assert np.array_equal(terms.values(x), dense.values(x))
        assert np.array_equal(terms.jacobian(x), A) and not terms.lin.flags.writeable
        assert not hasattr(terms, "lin_T")
        # U's triples, in any order, give the rows of a dense U
        U = np.abs(A) * (rng.random(A.shape) < 0.5)
        urows, ucols = np.nonzero(U)
        order = rng.permutation(urows.size)
        dense = ConstraintTerms(A, b, neglog1p=U)
        terms = ConstraintTerms.from_triples(rows, cols, A[rows, cols], A.shape, b,
                                             neglog1p=(urows[order], ucols[order],
                                                       U[urows, ucols][order]))
        assert terms._segment_sums == dense._segment_sums and not terms.is_linear
        assert np.array_equal(terms.nl_cols, np.flatnonzero(U.any(axis=0)))
        x = rng.uniform(0.0, 2.0, A.shape[1])
        W = rng.uniform(0.0, 1.0, A.shape[0])
        assert np.array_equal(terms.values(x), dense.values(x))
        assert np.array_equal(terms.jacobian(x), dense.jacobian(x))
        assert np.array_equal(terms.nl_rmatvec(W), dense.nl_rmatvec(W))
        assert np.allclose(terms.nl_rmatvec(W), U[:, terms.nl_cols].T @ W, rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ["fig1-num", "qp", "random-network"])
def test_a_pickled_program_runs_the_same_trace(name):
    if name == "random-network":
        topo = random_network(np.random.default_rng(67))
        program = qp.build_num_program(topo, np.ones(topo.S), 1.0, 1.0)
        assert program.constraint_terms._segment_sums
    else:
        program = qp.get_problem(name).program
    twin = pickle.loads(pickle.dumps(program))
    alpha = 0.5 * program.beta_hint ** 2 + 1.0
    got, want = (qp.run(p, 0.5 * program.box.hi, alpha, 200, record_every=1)
                 for p in (twin, program))
    for key in ("x", "x_bar", "Q", "f_x", "f_xbar", "g_x", "g_xbar", "cum_g", "drift"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key


def test_bundled_programs_take_their_path(monkeypatch):
    # a change of the density threshold must not move fig1 or the QP off
    # the dense path their pinned values were read from
    A = np.zeros((4, 16))
    A[0, :2] = 1.0  # 32 * nnz == m * n: dense
    assert not ConstraintTerms(A, np.zeros(4))._segment_sums
    A[0, 1] = 0.0
    assert ConstraintTerms(A, np.zeros(4))._segment_sums
    for name in ("fig1-num", "fig1-flow-power", "qp"):
        assert not qp.get_problem(name).program.constraint_terms._segment_sums
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from workloads import net_large_inputs
    inputs = net_large_inputs(1)
    topo = qp.Topology.from_paths(inputs["capacities"], inputs["paths"])
    cons = qp.build_num_program(topo, inputs["weights"], inputs["x_max"],
                                inputs["y_max"]).constraint_terms
    assert cons.shape == (700, 1500)
    assert cons._segment_sums and cons._parts[0][0].size == np.count_nonzero(cons.lin) == 6264


def test_clamp_to_box():
    box = BoxSet(np.zeros(3), np.ones(3))
    assert np.array_equal(box.clamp(np.array([-1.0, 0.5, 2.0])), [0.0, 0.5, 1.0])
    inside = np.array([0.2, 0.9, 0.0])
    out = box.clamp(inside)
    assert np.array_equal(out, inside)
    assert np.array_equal(box.clamp(out), out)  # idempotent
    point = BoxSet([0.3, 0.3], [0.3, 0.3])
    assert np.array_equal(point.clamp(np.array([9.0, -9.0])), [0.3, 0.3])


def test_box_validation():
    with pytest.raises(ValueError):
        BoxSet([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        BoxSet([0.0], [np.inf])


def test_spectral_norm_diagonal():
    assert qp.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-9)


def test_spectral_norm_fig1_stacked_matrix(fig1_instance):
    A = fig1_instance.topology.stacked_matrix()
    assert qp.spectral_norm(A) == pytest.approx(2.4307, abs=1e-3)


def test_spectral_norm_rank_one():
    assert qp.spectral_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-9)


def test_spectral_norm_zero_matrix():
    assert qp.spectral_norm(np.zeros((3, 4))) == 0.0


@pytest.mark.parametrize("shape", [(1, 1), (2, 100), (3, 4), (0, 3), (3, 0)])
def test_spectral_norm_of_a_matrix_without_nonzeros_is_zero(shape):
    # an all-zero A with entries takes the segment-sum route over empty
    # triples, one without entries the dense route; both are 0 from the
    # terms and the function
    A = np.zeros(shape)
    terms = ConstraintTerms(A, np.zeros(shape[0]))
    assert terms._segment_sums == (A.size != 0)
    assert terms.spectral_norm() == qp.spectral_norm(A) == 0.0
    assert terms.frobenius_norm() == 0.0


def test_spectral_norm_start_orthogonal_to_top_space():
    # the all-ones start lies in the null space of this Gram matrix
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert qp.spectral_norm(A) == pytest.approx(2.0, abs=1e-9)


def test_spectral_norm_row_permutation_invariant():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    a = qp.spectral_norm(A)
    b = qp.spectral_norm(A[perm])
    assert a == pytest.approx(b, abs=1e-10)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(19)
    for shape in ((3, 9), (40, 7), (25, 60), (60, 25)):
        A = rng.normal(size=shape)
        low_rank = rng.normal(size=(shape[0], 2)) @ rng.normal(size=(2, shape[1]))
        for M in (A, low_rank):
            exact = np.linalg.norm(M, 2)
            assert abs(qp.spectral_norm(M) - exact) <= 1e-12 * exact


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        qp.spectral_norm(np.ones(3))
    with pytest.raises(ValueError):
        qp.spectral_norm(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        qp.spectral_norm(np.array([[np.inf, 0.0]]))


def triples(M):
    """M's nonzeros as (rows, cols, values, shape), in row-major order."""
    rows, cols = np.nonzero(M)
    return rows, cols, M[rows, cols], M.shape


def gram_value(M):
    """The fallback's value: the root of the largest eigenvalue of the
    smaller Gram matrix of M, held row-major as the fallback holds it."""
    M = np.ascontiguousarray(M)
    gram = M @ M.T if M.shape[0] <= M.shape[1] else M.T @ M
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def sparse_with_dense_column(rng):
    """s x l with s << l, about one nonzero in 200 (negative ones too), one
    column full but for the empty row, one empty row and one empty column."""
    s, l = int(rng.integers(30, 60)), int(rng.integers(4000, 6000))
    M = np.zeros((s, l))
    nnz = s * l // 200
    M[1:, 2:].flat[rng.choice((s - 1) * (l - 2), nnz, replace=False)] = rng.uniform(-3.0, 3.0, nnz)
    M[1:, 1] = rng.uniform(-3.0, 3.0, s - 1)
    return M[rng.permutation(s)][:, rng.permutation(l)]


def test_sparse_spectral_norm_matches_svd():
    rng = np.random.default_rng(23)
    for _ in range(3):
        M = sparse_with_dense_column(rng)
        for A in (M, M.T):
            exact = np.linalg.norm(A, 2)
            assert abs(qp.spectral_norm(A) - exact) <= 1e-12 * exact


def test_spectral_norm_of_an_incidence_matrix_is_a_certified_bound():
    # the sparse branch bounds sigma_max from above, within 1e-12 of the
    # eigensolver's value, without building a Gram matrix
    A = random_network(np.random.default_rng(29)).stacked_matrix()
    for M in (A, A.T):
        dense = M @ M.T if M.shape[0] <= M.shape[1] else M.T @ M
        exact = float(np.sqrt(max(np.linalg.eigvalsh(dense)[-1], 0.0)))
        beta = qp.spectral_norm(M)
        assert beta == _certified_norm(*triples(M))
        assert exact <= beta <= exact * (1.0 + 1e-12)


def test_sparse_spectral_norm_falls_back_on_mixed_signs():
    # a full block of random signs has cycles that no +-1 scaling of rows
    # and columns makes positive: sigma_max(|A|) exceeds sigma_max(A), and
    # the upper bound on |A| stays apart from the lower bound on A
    rng = np.random.default_rng(43)
    for _ in range(5):
        M = np.zeros((40, 400))
        M[:, :10] = rng.choice([-1.0, 1.0], (40, 10)) * rng.uniform(0.5, 2.0, (40, 10))
        M = M[rng.permutation(40)][:, rng.permutation(400)]
        assert _certified_norm(*triples(M)) is None
        for A in (M, M.T):
            assert qp.spectral_norm(A) == gram_value(A)


def test_sparse_spectral_norm_falls_back_when_the_signed_iterate_vanishes():
    # a directed ring's node-arc incidence: every column sums to 0, so the
    # all-ones start of the signed iterate lies in the null space of A^T
    M = np.zeros((200, 200))
    M[np.arange(200), np.arange(200)] = 1.0
    M[(np.arange(200) + 1) % 200, np.arange(200)] = -1.0
    assert _certified_norm(*triples(M)) is None
    assert qp.spectral_norm(M) == gram_value(M) == pytest.approx(2.0, rel=1e-12)


def disconnected_blocks(scale):
    """Two 30 x 300 nonnegative blocks with no row or column in common,
    the second a permuted copy of the first times ``scale``."""
    rng = np.random.default_rng(47)
    B = (rng.random((30, 300)) < 0.02) * rng.uniform(0.5, 2.0, (30, 300))
    B[:, 0] = 1.0
    M = np.zeros((60, 600))
    M[:30, :300] = B
    M[30:, 300:] = scale * B[rng.permutation(30)][:, rng.permutation(300)]
    return M


def test_sparse_spectral_norm_of_disconnected_blocks():
    # each block's Collatz-Wielandt ratios converge at that block's own
    # rate, so blocks of equal norm get the certified bound
    M = disconnected_blocks(1.0)
    exact = gram_value(M)
    assert qp.spectral_norm(M) == _certified_norm(*triples(M))
    assert exact <= qp.spectral_norm(M) <= exact * (1.0 + 1e-12)
    # norms 1e-9 apart: the signed iterate keeps both blocks, its Rayleigh
    # quotient stays about 1e-9 below the upper bound, and the fallback runs
    M = disconnected_blocks(1.0 - 1e-9)
    assert _certified_norm(*triples(M)) is None
    assert qp.spectral_norm(M) == gram_value(M)


def test_certified_norm_of_a_nonnegative_matrix_iterates_on_its_nonzeros_once(monkeypatch):
    # A >= 0 needs no signed twin: every bincount runs over nnz entries, not
    # 2 nnz, and the bound keeps the bits of the fused two-half loop,
    # None included; mixed signs keep the twin and the same bits as well
    lengths = []

    def counted(a, *args, **kwargs):
        lengths.append(len(a))
        return bincount(a, *args, **kwargs)

    bincount = np.bincount
    rng = np.random.default_rng(67)
    cases = [random_sparse_matrix(rng) for _ in range(20)]  # empty rows and columns
    cases += [disconnected_blocks(1.0), disconnected_blocks(1.0 - 1e-9),
              random_network(rng).stacked_matrix()]
    for A in cases:
        for M in (np.abs(A), np.abs(A).T):
            rows, cols, vals, shape = triples(M)
            expected = fused_certified_norm(rows, cols, vals, shape)
            monkeypatch.setattr(np, "bincount", counted)
            lengths.clear()
            assert _certified_norm(rows, cols, vals, shape) == expected
            monkeypatch.undo()
            assert lengths and set(lengths) == {vals.size}
        assert _certified_norm(*triples(A)) == fused_certified_norm(*triples(A))
    assert _certified_norm(*triples(disconnected_blocks(1.0))) is not None
    assert _certified_norm(*triples(disconnected_blocks(1.0 - 1e-9))) is None


@pytest.mark.parametrize("seed", [1, 7919])
def test_net_large_beta_is_a_tight_upper_bound(seed, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from workloads import net_large_inputs
    inputs = net_large_inputs(seed)
    topo = qp.Topology.from_paths(inputs["capacities"], inputs["paths"])
    beta = qp.build_num_program(topo, inputs["weights"], inputs["x_max"],
                                inputs["y_max"]).beta_hint
    A = topo.stacked_matrix()
    exact = float(np.sqrt(np.linalg.eigvalsh(A @ A.T)[-1]))
    assert exact <= beta <= exact * (1.0 + 1e-12)
    assert beta <= qp.beta_bounds(topo)[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spectral_norm_rejects_a_non_finite_entry_of_a_sparse_matrix(bad):
    M = sparse_with_dense_column(np.random.default_rng(31))
    assert 32 * np.count_nonzero(M) < M.size  # the sparse branch
    M[3, 7] = bad
    with pytest.raises(ValueError, match="finite"):
        qp.spectral_norm(M)


def test_frobenius_dominates_spectral():
    rng = np.random.default_rng(13)
    for _ in range(50):
        A = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
        assert np.linalg.norm(A) >= qp.spectral_norm(A) - 1e-9


def test_frobenius_examples(fig1_instance):
    assert np.linalg.norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)
    assert np.linalg.norm(np.zeros((2, 5))) == 0.0
    A = fig1_instance.topology.stacked_matrix()
    nonzeros = int((A != 0).sum())  # direct entry scan
    assert nonzeros == 22
    assert np.linalg.norm(A) == pytest.approx(np.sqrt(nonzeros), abs=1e-12)


def test_program_json_round_trip(tmp_path):
    spec = {
        "n": 2,
        "m": 2,
        "box": {"lo": [0, 0], "hi": [2, 2]},
        "linear": {"A": [[1, 0], [0, 1]], "b": [1, 1]},
        "objective": {"kind": "linear", "c": [1, 1]},
    }
    path = tmp_path / "problem.json"
    import json

    path.write_text(json.dumps(spec))
    prog = qp.load_program(path)
    assert prog.constraint_terms.is_linear
    f, g = qp.evaluate(prog, np.zeros(2))
    assert f == 0.0 and np.array_equal(g, [-1, -1])

    quad = qp.load_program({**spec, "objective": {"kind": "diag-quadratic",
                                                  "p": [1, 1], "c": [0, 0]}})
    assert quad.objective_value(np.array([1.0, 2.0])) == pytest.approx(5.0)
    logu = qp.load_program({**spec, "objective": {"kind": "neg-log-utility",
                                                  "weights": [1, 0]}})
    assert logu.objective_value(np.array([np.e, 1.0])) == pytest.approx(-1.0)
    with pytest.raises(ConfigurationError):
        qp.load_program({**spec, "objective": {"kind": "cubic"}})


@pytest.mark.parametrize("change, message", [
    ({"n": "x"}, "malformed problem file: invalid literal for int()"),
    ({"box": {"lo": [0, 0, 0], "hi": 1}}, "malformed problem file: box.lo has length 3"),
    ({"linear": {"A": [[1, 0]], "b": ["a"]}}, "malformed problem file: could not convert"),
    ({"objective": {"kind": "cubic"}}, "unknown objective kind 'cubic'"),
], ids=["n-string", "box-length", "b-string", "unknown-kind"])
def test_load_program_raises_configuration_error_with_its_message(change, message):
    spec = {"n": 2, "m": 1, "box": {"lo": 0, "hi": 1},
            "linear": {"A": [[1, 0]], "b": [1]}, "objective": {"kind": "linear", "c": [1, 1]}}
    with pytest.raises(ConfigurationError) as err:
        qp.load_program({**spec, **change})
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("kind", UNREADABLE_INPUTS)
def test_load_program_of_an_unreadable_file_raises_configuration_error(tmp_path, kind):
    path = unreadable_input(tmp_path, kind)
    with pytest.raises(ConfigurationError) as err:
        qp.load_program(path)
    assert str(err.value).startswith(f"{UNREADABLE_INPUTS[kind]} problem file {str(path)!r}: ")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [2, 120], ids=["dense", "sparse"])
def test_load_program_refuses_a_non_finite_entry_of_A(bad, n):
    A = np.zeros((3, n))
    A[0, :2], A[2, 1] = 1.0, bad
    assert (32 * np.count_nonzero(A) < A.size) == (n == 120)
    spec = {"n": n, "m": 3, "box": {"lo": 0, "hi": 1}, "linear": {"A": A.tolist(), "b": [1] * 3},
            "objective": {"kind": "linear", "c": [1] * n}}
    with pytest.raises(ConfigurationError) as err:
        qp.load_program(spec)
    assert str(err.value) == "linear.A must be finite"


@pytest.mark.parametrize("m, n", [(1, 1), (2, 100)])
def test_load_program_of_an_all_zero_A_has_beta_zero(m, n):
    spec = {"n": n, "m": m, "box": {"lo": 0, "hi": 1},
            "linear": {"A": np.zeros((m, n)).tolist(), "b": [1] * m},
            "objective": {"kind": "linear", "c": [1] * n}}
    prog = qp.load_program(spec)
    assert prog.beta_hint == 0.0
    assert np.array_equal(qp.evaluate(prog, np.zeros(n))[1], -np.ones(m))


def test_load_program_reads_an_empty_A_as_no_rows():
    # JSON writes a (0, n) matrix as [], which numpy reads as shape (0,)
    spec = {"n": 2, "m": 0, "box": {"lo": 0, "hi": 1}, "linear": {"A": [], "b": []},
            "objective": {"kind": "linear", "c": [1, 1]}}
    prog = qp.load_program(spec)
    assert prog.m == 0 and prog.constraint_terms.lin.shape == (0, 2) and prog.beta_hint == 0.0
    # every other shape that is not (m, n) is still refused
    for m, A, shape in ((0, [[]], "(1, 0)"), (0, [[1, 0]], "(1, 2)"), (0, [1, 0], "(2,)"),
                        (1, [], "(0,)")):
        with pytest.raises(ConfigurationError) as err:
            qp.load_program({**spec, "m": m, "linear": {"A": A, "b": [1] * m}})
        assert str(err.value) == f"linear.A has shape {shape}, expected ({m}, 2)"


def test_convexity_guards():
    for bad in (-1.0, np.nan):  # NaN fails a check written as "not all >= 0"
        with pytest.raises(ConfigurationError):
            CoordinateTerms([bad], [0.0], [0.0])
        with pytest.raises(ConfigurationError):
            CoordinateTerms([0.0], [0.0], [bad])
        with pytest.raises(ConfigurationError):
            ConstraintTerms([[1.0]], [0.0], quad=[[bad]])
        with pytest.raises(ConfigurationError):
            ConstraintTerms([[1.0]], [0.0], neglog1p=[[bad]])


def test_absent_constraint_parts_are_not_stored(fig1_instance):
    A = np.array([[1.0, -2.0], [0.0, 3.0]])
    b = np.array([0.5, -1.0])
    terms = ConstraintTerms(A, b)
    assert terms.quad is None and terms.neglog1p is None and terms.is_linear
    x = np.array([0.3, -0.7])
    assert np.array_equal(terms.values(x), A @ x - b)
    assert np.array_equal(terms.jacobian(x), A)
    # a given all-zero part is kept, validated and never scanned
    zeros = ConstraintTerms(A, b, quad=np.zeros((2, 2)))
    assert zeros.quad is not None and zeros.is_linear
    assert np.array_equal(zeros.values(x), terms.values(x))
    with pytest.raises(ValueError):
        ConstraintTerms(A, b, neglog1p=np.zeros((2, 3)))
    # the NUM rows cached on a topology hold no m x n zero arrays
    cached = fig1_instance.topology._num_constraints
    assert cached.quad is None and cached.neglog1p is None


def test_random_programs_have_valid_structure_tags():
    rng = np.random.default_rng(5)
    saw_quad_rows = False
    for _ in range(20):
        prog = random_separable_program(rng)
        assert prog.separable
        saw_quad_rows |= bool(prog.constraint_terms.quad.any())
    assert saw_quad_rows


@pytest.mark.parametrize("v, finite", FINITENESS_CASES, ids=FINITENESS_IDS)
def test_all_finite_decides_exactly_with_or_without_a_screen(v, finite):
    # the exact mask alone, and behind the two screens the step uses
    v = np.array(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        screens = (math.nan, v.dot(np.zeros(v.shape[0])), v.dot(v))
    for screen in screens:
        assert _all_finite(v, screen) == finite
    # the zero screen alone decides: finite exactly when v is
    assert math.isfinite(screens[1]) is finite


def test_selector_is_a_slice_only_for_one_contiguous_run():
    assert _selector(np.array([3, 4, 5])) == slice(3, 6)
    assert _selector(np.array([0])) == slice(0, 1)
    for idx in (np.array([1, 3]), np.array([0, 1, 3]), np.array([], dtype=np.intp)):
        assert _selector(idx) is idx
    a = np.arange(10.0)
    for idx in (np.array([2, 3, 4]), np.array([2, 5, 7])):
        assert np.array_equal(a[_selector(idx)], a[idx])


def test_objective_value_reads_scattered_log_coordinates():
    logw = np.array([0.0, 2.0, 0.0, 0.5, 1.5])
    terms = CoordinateTerms(np.array([1.0, 0.0, 2.0, 0.0, 0.5]), np.arange(5.0), logw)
    assert isinstance(terms._log_sel, np.ndarray)
    x = np.array([0.3, 0.7, 1.1, 2.0, 0.4])
    want = float(terms.lin @ x + terms.quad @ (x * x) - logw[[1, 3, 4]] @ np.log(x[[1, 3, 4]]))
    assert terms.value(x) == pytest.approx(want, rel=1e-15)
