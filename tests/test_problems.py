import os

import numpy as np
import pytest

import qpush as qp
from qpush.errors import ConfigurationError
from qpush.oracles import SeparableOracle
from qpush.problems import FIG1_ALPHA, FLOW_POWER_OPTIMUM, P_MAX

from helpers import (auglag_pg_qp_reference, link_path_incidence, qp_coordinate_update,
                     random_network, random_point_in, source_path_incidence)

QP_SEED1_F_STAR = -169.06884345592948
QP_SEED1_LAMBDA = 5.236228571646279


def test_fig1_topology_shape(fig1_instance):
    topo = fig1_instance.topology
    assert (topo.L, topo.K, topo.S) == (9, 7, 3)
    # column sums of R are the per-path hop counts
    assert np.array_equal(link_path_incidence(topo).sum(axis=0), [2, 2, 2, 1, 2, 2, 1])
    assert topo.source_paths[1] == (2, 3, 4)
    assert np.array_equal(source_path_incidence(topo)[1], [0, 0, 1, 1, 1, 0, 0])


def test_fig1_alpha_values(fig1_instance):
    # the hop-count rule gives 12 on this network; the shipped default
    # stays at the historical 10
    assert qp.half_hop_alpha(fig1_instance.topology) == 12.0
    assert FIG1_ALPHA == 10.0
    assert fig1_instance.default_alpha == 10.0


def test_fig1_reference_certificate(fig1_instance):
    z_star, lam_star, f_star = qp.fig1_reference()
    prog = fig1_instance.program
    assert qp.kkt_residual(prog, z_star, lam_star) < 1e-12
    g = prog.constraint_values(z_star)
    assert np.all(g <= 1e-12)
    assert prog.objective_value(z_star) == pytest.approx(f_star, abs=1e-15)
    assert -f_star == pytest.approx(1.65687, abs=1e-5)
    # the optimal source rates sit strictly inside their caps
    assert np.all(z_star[7:] < prog.box.hi[7:] - 0.1)


def test_flow_power_program_structure():
    topo, w, xm, ym = qp.fig1_topology()
    prog = qp.build_flow_power_program(topo, w, y_max=ym)
    assert prog.n == 7 + 3 + 9 and prog.m == 12
    cons = prog.constraint_terms
    assert not cons.is_linear and cons.neglog1p.any()
    # capacity rows vanish at z = 0
    _, g = qp.evaluate(prog, np.zeros(prog.n))
    assert np.array_equal(g[:9], np.zeros(9))
    # path caps: the capacity ceiling log(1 + P_MAX); power caps: P_MAX
    assert prog.box.hi[0] == pytest.approx(np.log(11.0))
    assert np.array_equal(prog.box.hi[10:], np.full(9, P_MAX))
    assert prog.beta_hint == pytest.approx(2.5229, abs=1e-3)


def test_flow_power_beta_is_the_norm_of_its_pattern():
    # the pattern [[R, 0, I], [-T, I, 0]] comes from the topology's index
    # arrays: the fixture keeps its dense route's bits, and a network kept
    # as triples gets a certified bound within 1e-12 of the dense eigenvalue
    topo, w, xm, ym = qp.fig1_topology()
    assert repr(qp.build_flow_power_program(topo, w, y_max=ym).beta_hint) == "2.522957226298509"
    net = random_network(np.random.default_rng(29))
    L, K, S = net.L, net.K, net.S
    beta = qp.build_flow_power_program(net, np.ones(S), y_max=2.0).beta_hint
    pattern = np.block([[link_path_incidence(net), np.zeros((L, S)), np.eye(L)],
                        [-source_path_incidence(net), np.eye(S), np.zeros((S, L))]])
    exact = float(np.sqrt(np.linalg.eigvalsh(pattern @ pattern.T)[-1]))
    assert exact <= beta <= exact * (1.0 + 1e-12)


def test_flow_power_at_network_scale_builds_no_dense_matrix(monkeypatch):
    # the rows come from the topology's index arrays and the L power entries,
    # and the oracle reads the terms' column sums: no (L+S) x (K+S+L) array
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from workloads import net_large_inputs
    inputs = net_large_inputs(1)
    topo = qp.Topology.from_paths(inputs["capacities"], inputs["paths"])
    prog = qp.build_flow_power_program(topo, inputs["weights"], inputs["y_max"])
    oracle = SeparableOracle(prog)
    full = (topo.L + topo.S, prog.n)
    assert full == (700, 1900)

    def dense_arrays():
        return [name for obj in (topo, prog.constraint_terms, oracle)
                for name, v in vars(obj).items() if isinstance(v, np.ndarray) and v.shape == full]

    assert dense_arrays() == []
    alpha = 0.5 * prog.beta_hint ** 2 + 1.0
    rep = qp.run(prog, 0.5 * prog.box.hi, alpha, 1000, oracle=oracle)
    assert dense_arrays() == []
    for key in ("x", "x_bar", "Q", "f_xbar", "g_xbar"):
        assert np.isfinite(getattr(rep, key)).all(), key
    assert prog.box.contains(rep.x_bar[-1]) and prog.box.contains(rep.x[-1])


def test_flow_power_constraints_convex():
    topo, w, xm, ym = qp.fig1_topology()
    prog = qp.build_flow_power_program(topo, w, y_max=ym)
    rng = np.random.default_rng(37)
    for _ in range(200):
        z1 = random_point_in(prog.box, rng)
        z2 = random_point_in(prog.box, rng)
        theta = rng.random()
        mid = theta * z1 + (1 - theta) * z2
        g_mid = prog.constraint_values(mid)
        g_mix = theta * prog.constraint_values(z1) + (1 - theta) * prog.constraint_values(z2)
        assert np.all(g_mid <= g_mix + 1e-9)


def test_flow_power_beta_dominates_empirical_ratio():
    topo, w, xm, ym = qp.fig1_topology()
    prog = qp.build_flow_power_program(topo, w, y_max=ym)
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10_000):
        z1 = random_point_in(prog.box, rng)
        z2 = random_point_in(prog.box, rng)
        dz = np.linalg.norm(z1 - z2)
        if dz < 1e-12:
            continue
        dg = np.linalg.norm(prog.constraint_values(z1) - prog.constraint_values(z2))
        worst = max(worst, dg / dz)
    assert prog.beta_hint >= worst


def test_generate_qp_deterministic():
    a = qp.generate_qp(1)
    b = qp.generate_qp(1)
    for field in ("P", "c", "Qm", "d"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.e == b.e
    c = qp.generate_qp(2)
    assert not np.array_equal(a.P, c.P)


def test_generate_qp_ranges(qp_seed1):
    qpi = qp_seed1
    assert np.all((qpi.P >= 0) & (qpi.P <= 4))
    assert np.all((qpi.c >= -15) & (qpi.c <= 20))
    assert np.all((qpi.Qm >= 0) & (qpi.Qm <= 1))
    assert np.all((qpi.d >= -1) & (qpi.d <= 1))
    assert 4.0 <= qpi.e <= 5.0
    # strictly feasible at the origin
    g0 = qpi.program().constraint_values(np.zeros(100))
    assert -5.0 <= g0[0] <= -4.0


def test_qp_coordinate_update_examples(qp_seed1):
    from dataclasses import replace

    qpi = replace(qp_seed1, P=qp_seed1.P.copy(), c=qp_seed1.c.copy())
    qpi.P[0], qpi.c[0] = 1.0, -2.0
    assert qp_coordinate_update(qpi, 0, 0.0, 0.0, 10.0) == pytest.approx(1 / 11)
    # a large weight with positive d pushes the vertex negative
    i = int(np.argmax(qp_seed1.d))
    assert qp_coordinate_update(qp_seed1, i, 1e6, 0.0, 10.0) == 0.0
    # huge prox strength pins the iterate
    assert qp_coordinate_update(qp_seed1, 3, 1.0, 0.37, 1e12) == pytest.approx(0.37, abs=1e-9)
    with pytest.raises(ValueError):
        qp_coordinate_update(qp_seed1, 0, -1.0, 0.0, 10.0)


def test_qp_coordinate_update_matches_oracle(qp_seed1):
    prog = qp_seed1.program()
    oracle = SeparableOracle(prog)
    rng = np.random.default_rng(43)
    for _ in range(20):
        W = float(rng.uniform(0.0, 5.0))
        x_prev = rng.random(100)
        alpha = float(rng.uniform(0.5, 20.0))
        full = oracle(np.array([W]), x_prev, alpha)
        for i in rng.integers(0, 100, size=5):
            assert full[i] == pytest.approx(
                qp_coordinate_update(qp_seed1, int(i), W, x_prev[int(i)], alpha),
                abs=1e-12)


def test_qp_reference_optimum(qp_seed1):
    ref = qp.qp_reference_optimum(qp_seed1)
    assert ref.kkt < 1e-8
    assert ref.f == pytest.approx(QP_SEED1_F_STAR, abs=1e-8)
    assert ref.lam == pytest.approx(QP_SEED1_LAMBDA, abs=1e-6)
    # strictly feasible instances with inactive constraint short-circuit
    from dataclasses import replace

    easy = replace(qp_seed1, c=np.abs(qp_seed1.c))  # minimizer at 0
    ref0 = qp.qp_reference_optimum(easy)
    assert ref0.lam == 0.0 and ref0.f == 0.0


def test_qp_penalty_reference_agrees(qp_seed1):
    x_pg, lam_pg, f_pg = auglag_pg_qp_reference(qp_seed1)
    ref = qp.qp_reference_optimum(qp_seed1)
    assert f_pg == pytest.approx(ref.f, abs=1e-8)
    assert lam_pg == pytest.approx(ref.lam, abs=1e-6)
    assert np.abs(x_pg - ref.x).max() < 1e-7


def test_registry():
    inst = qp.get_problem("fig1-num")
    assert inst.sense == "max"
    assert inst.reported_objective(inst.f_star) == pytest.approx(1.65687, abs=1e-5)
    fp = qp.get_problem("fig1-flow-power")
    assert fp.f_star == pytest.approx(-FLOW_POWER_OPTIMUM)
    qp1 = qp.get_problem("qp", seed=1)
    assert qp1.sense == "min"
    assert qp1.default_alpha == pytest.approx(0.5 * qp.generate_qp(1).beta() ** 2 + 1.0)
    assert qp1.name == "qp(seed=1)"
    with pytest.raises(ConfigurationError):
        qp.get_problem("nope")
