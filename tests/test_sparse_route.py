"""The segment-sum route of ConstraintTerms: the slot-major copy of the
triples by rows beside the row-major triples by columns, the state bits
it gives on any BLAS kernel or SIMD target, and the memory a net-large
run's block pass allocates.

Every number on this route comes from bincount, elementwise ufuncs and
the separable closed forms, none of which depends on the BLAS kernel or
the SIMD width: the pins below hold under ``OPENBLAS_CORETYPE=Haswell``,
``OPENBLAS_CORETYPE=Sandybridge`` and ``NPY_ENABLE_CPU_FEATURES=X86_V2``
as under the default settings.  So do the pins of the agents on fig1,
whose rounds are the same solver on the segment sums of the NUM rows
(``ConstraintTerms.as_segment_sums``) on a network of any size.  f and
the drift are left out: they go through ``ddot`` and SIMD ``log``.
"""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import qpush as qp
from qpush import ConstraintTerms, solver
from qpush.program import _certified_norm, _products, _slot_orders

from helpers import fused_certified_norm

# sha256 of the bytes of each recorded column of the net-large NUM runs at
# T = 300 (VQ at alpha = beta^2/2 + 1 from x = 0, DSG at gamma = 0.01),
# and the repr of beta_hint
NET_LARGE_PINS = {
    1: {
        "beta_hint": "7.92854763573511",
        "vq x": "1575c955fb4d706c1a895ca01e0181d7b8d3401eeea3f53d5ba6027c9bec8f49",
        "vq x_bar": "2d5165103f614f0d4cda35995f648bf3326441e0990c1ef3748f73e12793c981",
        "vq Q": "fa71d0806306d3755999a64bc049ed873bd5297f644eba79a0079fcd8a963439",
        "vq g_x": "60bc97622171182a29921a4a5c305594638afc7c6b69f41b1266c88d87ed6e24",
        "vq g_xbar": "296b570778e151cc6b71500e148b3fd7f7c76ddff8456a388112e52e29c70749",
        "vq cum_g": "88e20c0e7e068819b96f95b241bee428c5d9f096b54f268ee16563a321cfc493",
        "dsg x_bar": "555c3f813140d308b6fb9bae09017bad00a9a4bd399c58b75c022f51fe26aee9",
        "dsg Q": "7a316c2175cb14c7f5bdd7f40df9bc3be72e73721db950dcea33eecf9600aa88",
        "dsg g_x": "15eda6d2a8d0daabae92de619f3ef70166fbd3b1feb3e7fa94214ee4442079c8",
    },
    7919: {
        "beta_hint": "8.079231916822243",
        "vq x": "cfab2874e98e1dddb39e33a8d14410bc5e3041404c3b7f2b9929295988603683",
        "vq x_bar": "b90d47dc5e456be2486643fef05991a620f2c78d238227776fd941ab6ba39bcf",
        "vq Q": "a76ef945d7a674d5a485b79592706546ae53eff09f268f4a6acb68afe220f5ad",
        "vq g_x": "af43c8256d1140c379dc01c7139699f9553ff04a967c48e51fc4e176c91b1b94",
        "vq g_xbar": "e351baaf57ab24b0408a6c24a717eb06e95963dd29b02b6f515f5adb80c04cfc",
        "vq cum_g": "0232208bc3be1b68952e0eb04f80954d26d4f4b27286285ea7d3612adc996f53",
        "dsg x_bar": "1e3cc4c21c986f48b4e92c09af832866ab671d9b26e6dd0a22fd382e586777ff",
        "dsg Q": "d09c41773654103d4b9b18697d43b0b1c7937f29f5a366370ba0ec548d43d074",
        "dsg g_x": "9c4fc4d1a6683ce389a93b877d2dc82e48ae069d3a3d68562d7ce7fbbe56e019",
    },
}


# sha256 of the bytes of each recorded column of the agents from zero: on
# fig1 at T = 4000, alpha = 10, on net-large at T = 40, alpha = beta^2/2 + 1
AGENT_PINS = {
    "fig1": {
        "x": "c7284775c9959bb82b0162167bf7e5b815e1f902ba29d00af17dbb19b08ba25a",
        "Q": "859729c681cea68b2b99e47328936fc29f18d602149ff472213caf0d7b012d4a",
        "g_x": "7677eabc91a7ba7fa956309196db2383c316901a66b9a7a9ee3cc81f2e2ef9ad",
        "x_bar": "26d1b9e24457c0982cb6ba3cf7bca6fccda495611b9db1417ce77fd2e2876464",
        "cum_g": "e70f8a7efeb17114d3588cae84f0633527492ab711884cd8a452a7305aa3029c",
    },
    1: {
        "x": "c8ce96809a4b9068c181dd40ebaf88ad550d90753f314c58f5a78f8bd7f73ac2",
        "Q": "1fdf8c1a5fa742c2d8c539dd00c6b7ba053a3e71ed379ae123bc6429ad63dfb0",
        "g_x": "be3dbd22faa8cc4816fd89741331bb4d874b973cbdae2b7aa8b6ef5f0006bd7e",
        "x_bar": "2ab4a94f2600a1ccee8841aa6858c99fbfc8cf4f7434bb88dcbea106c7891d03",
        "cum_g": "f331481b5b44b443fcfeb1cae36a3d3298c23e19aafcc485e69143be7aab5269",
    },
    7919: {
        "x": "a9ea5f925d130d817437ea8d4c1c99b221e2485422d02207bea4389c44a96f9d",
        "Q": "2e8663a5ba828aac5a991889e6f36dad1cc41c883a8c6b8f44a7492e85ddb811",
        "g_x": "c442c81ec5d788774577ca299ab5422ff20ee255bfcc93ee4e734f60eb5871e5",
        "x_bar": "22372630700529e89159c446f9d007c1c15445e3016338c63ae8fba3b9e95bdc",
        "cum_g": "e4ac11cfe2681b4d7f2018705e689e57ba822c2e4e373f50c69c8169afcdc890",
    },
}


def net_large(seed, monkeypatch):
    """The inputs, topology and NUM program of the net-large benchmark
    workload at ``seed``, from ``perfbench/workloads.net_large_inputs``."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from workloads import net_large_inputs
    inputs = net_large_inputs(seed)
    topo = qp.Topology.from_paths(inputs["capacities"], inputs["paths"])
    program = qp.build_num_program(topo, inputs["weights"], inputs["x_max"], inputs["y_max"])
    assert program.constraint_terms._segment_sums
    return inputs, topo, program


def sha256_of(report, column):
    return hashlib.sha256(np.ascontiguousarray(getattr(report, column)).tobytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(NET_LARGE_PINS))
def test_net_large_sparse_route_state_is_pinned(seed, monkeypatch):
    _, _, program = net_large(seed, monkeypatch)
    beta = program.beta_hint
    vq = qp.run(program, np.zeros(program.n), 0.5 * beta * beta + 1.0, 300)
    dsg = qp.dsg_run(program, None, 0.01, 300)
    got = {"beta_hint": repr(beta)}
    for name, report, columns in (("vq", vq, ("x", "x_bar", "Q", "g_x", "g_xbar", "cum_g")),
                                  ("dsg", dsg, ("x_bar", "Q", "g_x"))):
        for column in columns:
            got[f"{name} {column}"] = sha256_of(report, column)
    assert got == NET_LARGE_PINS[seed]


@pytest.mark.parametrize("network", list(AGENT_PINS))
def test_agents_state_is_pinned(network, monkeypatch):
    if network == "fig1":
        num = qp.fig1_num_instance()
        args, alpha, T = (num.topology, num.utility_weights, num.x_max, num.y_max), 10.0, 4000
    else:
        inputs, topo, program = net_large(network, monkeypatch)
        args = (topo, inputs["weights"], inputs["x_max"], inputs["y_max"])
        alpha, T = 0.5 * program.beta_hint ** 2 + 1.0, 40
    topo = args[0]
    agents = qp.simulate_decentralized(*args, alpha, np.zeros(topo.K), np.zeros(topo.S), T)
    got = {column: sha256_of(agents, column) for column in AGENT_PINS[network]}
    assert got == AGENT_PINS[network]
    if network != "fig1":
        # on the segment-sum route the agents' program is the NUM program
        central = qp.run(program, np.zeros(program.n), alpha, T)
        for column in AGENT_PINS[network]:
            assert np.array_equal(getattr(agents, column), getattr(central, column)), column


def test_a_block_pass_allocates_less_than_one_block_of_rows(monkeypatch):
    """Each block pass of a net-large run reads views of the workspace's
    block and writes into its temporaries and flags: its traced peak stays
    under one (32, m) float array, and every block is the same buffer.  A
    standalone step's arrays never alias that buffer."""
    _, _, program = net_large(1, monkeypatch)
    alpha = 0.5 * program.beta_hint ** 2 + 1.0
    x0 = np.zeros(program.n)
    real_check = solver._check_block
    peaks, blocks = [], []

    def traced(work):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return real_check(work)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            blocks.append(work.block)

    monkeypatch.setattr(solver, "_check_block", traced)
    tracemalloc.start()
    try:
        qp.run(program, x0, alpha, 3 * solver._BLOCK + 4)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4
    assert max(peaks) < solver._BLOCK * program.m * 8
    assert all(block is blocks[0] for block in blocks)
    state = qp.init(program, x0, alpha)
    oracle = qp.make_oracle(program)
    for _ in range(3):
        qp.step(state, program, oracle)
    buffer = state._work.block[0].base
    assert not any(np.shares_memory(array, buffer)
                   for array in (state.Q, state.g_prev, state.cum_g, state.x_prev, state.x_bar))


def order_cases():
    """Sparse matrices with empty rows and columns, one full row and one
    full column, both orientations, mixed or one sign, and the 0 x 3 and
    3 x 0 shapes."""
    rng = np.random.default_rng(73)
    cases = [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((4, 5))]
    for m, n in ((60, 300), (300, 60), (200, 200)):
        M = np.zeros((m, n))
        nnz = m * n // 200
        M.flat[rng.choice(m * n, nnz, replace=False)] = rng.uniform(0.5, 3.0, nnz)
        M[rng.integers(m), :] = rng.uniform(0.5, 3.0, n)
        M[:, rng.integers(n)] = rng.uniform(0.5, 3.0, m)
        M[rng.integers(m), :] = 0.0  # an empty row, and below an empty column
        M[:, rng.integers(n)] = 0.0
        signs = rng.choice([-1.0, 1.0], M.shape)
        cases += [M, M * signs]
    return cases


def row_major(M):
    rows, cols = np.nonzero(M)
    return rows, cols, M[rows, cols]


def assert_slot_major(copy, size, expected):
    """``copy`` holds the triples ``expected`` (out, into, vals; grouped by
    out and in order within each out) slot-major: ranks within their out
    never decrease, the outs of one rank increase, and each out keeps its
    given order."""
    out, into, vals = copy
    assert not any(a.flags.writeable for a in copy)
    counts = np.bincount(out, minlength=size)
    grouped = np.argsort(out, kind="stable")
    rank = np.empty(out.size, np.intp)
    rank[grouped] = np.arange(out.size) - np.repeat(np.cumsum(counts) - counts, counts)
    assert np.all(np.diff(rank) >= 0)
    assert np.all(np.diff(out)[np.diff(rank) == 0] > 0)
    back = np.lexsort((rank, out))  # each out's triples by rank
    assert np.array_equal(counts, np.bincount(expected[0], minlength=size))
    for got, want in zip((out[back], into[back], vals[back]), expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("M", order_cases(), ids=lambda M: "x".join(map(str, M.shape)))
def test_slot_orders_keep_each_sum_in_order(M):
    rng = np.random.default_rng(79)
    m, n = M.shape
    rows, cols, vals = row_major(M)
    by_rows, by_cols = _slot_orders(rows, cols, vals, M.shape)
    assert_slot_major(by_rows, m, (rows, cols, vals))
    # the sums by columns read the row-major triples themselves
    assert all(got is want for got, want in zip(by_cols, (cols, rows, vals)))
    # the segment sums add each entry's terms in the order of a bincount over
    # the row-major triples, on vectors spanning 1e-5..1e5 of both signs
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    w = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-5.0, 5.0, m)
    matvec, rmatvec = _products((by_rows, by_cols), M.shape, None)
    want_x = np.bincount(rows, vals * x[cols], m)
    want_w = np.bincount(cols, vals * w[rows], n)
    for got, want in ((matvec(x), want_x), (rmatvec(w), want_w)):
        assert np.array_equal(got, want)
    # the certified bound iterates on the same orders, None included
    for signed in (M, np.abs(M)):
        r, c, v = row_major(signed)
        assert _certified_norm(*_slot_orders(r, c, v, M.shape), M.shape) == \
            fused_certified_norm(r, c, v, M.shape)
    # the terms bind every part's products to such orders on this route
    if 0 < 32 * vals.size < M.size:
        A = np.abs(M)
        terms = ConstraintTerms(M, np.zeros(m), quad=A, neglog1p=A)
        assert terms._segment_sums
        r, c, v = row_major(A)
        nl_cols = np.flatnonzero(np.abs(M).any(axis=0))
        assert np.array_equal(terms.nl_cols, nl_cols)
        for got, want in ((terms.matvec(x), want_x), (terms.rmatvec(w), want_w),
                          (terms.quad_matvec(x), np.bincount(r, v * x[c], m)),
                          (terms.quad_rmatvec(w), np.bincount(c, v * w[r], n)),
                          (terms.nl_matvec(x), np.bincount(r, v * x[c], m)),
                          (terms.nl_rmatvec(w), np.bincount(c, v * w[r], n)[nl_cols])):
            assert np.array_equal(got, want)
        bound = fused_certified_norm(r, c, v, M.shape)  # None: the Gram fallback
        assert terms.unsigned_spectral_norm() == (terms.spectral_norm() if bound is None else bound)
