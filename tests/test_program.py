import math
import os
import warnings

import numpy as np
import pytest

import qpush as qp
from qpush import BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms
from qpush.errors import ConfigurationError
from qpush.program import _all_finite, _pair_gram, _selector

from helpers import (FINITENESS_CASES, FINITENESS_IDS, random_network,
                     random_separable_program, random_sparse_matrix)


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
        assert cons._triples is not None
        assert not (cons._triples[0].flags.writeable or cons._triples[2].flags.writeable)
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


def test_bundled_programs_take_their_path(monkeypatch):
    # a change of the density threshold must not move fig1 or the QP off
    # the dense path their pinned values were read from
    A = np.zeros((4, 16))
    A[0, :2] = 1.0  # 32 * nnz == m * n: dense
    assert ConstraintTerms(A, np.zeros(4))._triples is None
    A[0, 1] = 0.0
    assert ConstraintTerms(A, np.zeros(4))._triples is not None
    for name in ("fig1-num", "fig1-flow-power", "qp"):
        assert qp.get_problem(name).program.constraint_terms._triples is None
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from workloads import net_large_inputs
    inputs = net_large_inputs(1)
    topo = qp.Topology.from_paths(inputs["capacities"], inputs["paths"])
    cons = qp.build_num_program(topo, inputs["weights"], inputs["x_max"],
                                inputs["y_max"]).constraint_terms
    assert cons.shape == (700, 1500)
    assert cons._triples[0].size == np.count_nonzero(cons.lin) == 6264


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


def pair_gram(M):
    """The Gram matrix spectral_norm builds from M's nonzero pairs, or None."""
    flat = M.ravel()
    nz = np.flatnonzero(flat)
    return _pair_gram(nz, flat[nz], *M.shape)


def sparse_with_dense_column(rng):
    """s x l with s << l, about one nonzero in 200 (negative ones too), one
    column full but for the empty row, one empty row and one empty column."""
    s, l = int(rng.integers(30, 60)), int(rng.integers(4000, 6000))
    M = np.zeros((s, l))
    nnz = s * l // 200
    M[1:, 2:].flat[rng.choice((s - 1) * (l - 2), nnz, replace=False)] = rng.uniform(-3.0, 3.0, nnz)
    M[1:, 1] = rng.uniform(-3.0, 3.0, s - 1)
    return M[rng.permutation(s)][:, rng.permutation(l)]


def test_spectral_norm_from_nonzero_pairs_matches_svd():
    rng = np.random.default_rng(23)
    for _ in range(3):
        M = sparse_with_dense_column(rng)
        for A in (M, M.T):
            gram = pair_gram(A)
            assert gram is not None  # the pair path, not the dense product
            assert np.array_equal(gram, gram.T)
            exact = np.linalg.norm(A, 2)
            assert abs(qp.spectral_norm(A) - exact) <= 1e-12 * exact


def test_spectral_norm_of_an_incidence_matrix_is_the_dense_products_value():
    A = random_network(np.random.default_rng(29)).stacked_matrix()
    for M in (A, A.T):
        dense = M @ M.T if M.shape[0] <= M.shape[1] else M.T @ M
        assert np.array_equal(pair_gram(M), dense)  # integers, exact either way
        assert qp.spectral_norm(M) == float(np.sqrt(max(np.linalg.eigvalsh(dense)[-1], 0.0)))


def test_spectral_norm_keeps_the_dense_product_when_pairs_cost_more():
    M = np.zeros((100, 3300))
    M[:, :3] = 1.0  # full columns: 3 * 100^2 pairs > 100 * 100 * 3300 / 2048
    assert pair_gram(M) is None
    assert qp.spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spectral_norm_rejects_a_non_finite_entry_of_a_sparse_matrix(bad):
    M = sparse_with_dense_column(np.random.default_rng(31))
    assert pair_gram(M) is not None
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
    assert prog.structure == "linear"
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


def test_convexity_guards():
    with pytest.raises(ConfigurationError):
        CoordinateTerms([-1.0], [0.0], [0.0])
    with pytest.raises(ConfigurationError):
        ConstraintTerms([[1.0]], [0.0], quad=[[-1.0]])
    with pytest.raises(ConfigurationError):
        ConstraintTerms([[1.0]], [0.0], neglog1p=[[-1.0]])


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
    saw = set()
    for _ in range(20):
        prog = random_separable_program(rng)
        saw.add(prog.structure)
        assert prog.separable
    assert "separable-quadratic" in saw


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
