import json

import numpy as np
import pytest

import qpush as qp
from qpush import Topology
from qpush.errors import ConfigurationError

from helpers import random_topology


def single_link_topology():
    return Topology([1.0], ((0,),), ((0,),))


def test_topology_incidence_consistency(fig1_instance):
    topo = fig1_instance.topology
    for l, paths in enumerate(topo.link_paths):
        for k in paths:
            assert l in topo.path_links[k]
    for k, links in enumerate(topo.path_links):
        for l in links:
            assert k in topo.link_paths[l]
    assert topo.R.shape == (9, 7) and topo.T.shape == (3, 7)


def test_topology_validation():
    with pytest.raises(ConfigurationError):
        Topology([1.0, 1.0], ((0,), (1,)), ((0,),))  # path 1 unassigned
    with pytest.raises(ConfigurationError):
        Topology([1.0], ((0,), (0,)), ((0, 0), (1,)))  # path in two sources
    with pytest.raises(ConfigurationError):
        Topology([0.0], ((0,),), ((0,),))  # nonpositive capacity
    with pytest.raises(ConfigurationError):
        Topology([1.0], ((1,),), ((0,),))  # unknown link
    with pytest.raises(ConfigurationError):
        Topology([1.0], ((),), ((0,),))  # empty path


def test_build_num_program_fig1(fig1_instance):
    num = qp.fig1_num_instance()
    prog = num.program()
    assert prog.structure == "linear"
    assert prog.A.shape == (12, 10)
    A = prog.A
    assert np.array_equal(A[:9, :7], num.topology.R)
    assert np.array_equal(A[9:, :7], -num.topology.T)
    assert np.array_equal(A[9:, 7:], np.eye(3))
    assert np.array_equal(A[:9, 7:], np.zeros((9, 3)))
    assert np.array_equal(prog.b, np.concatenate([np.ones(9), np.zeros(3)]))


def test_build_num_program_smallest_instance():
    topo = single_link_topology()
    prog = qp.build_num_program(topo, [1.0], [2.0], [2.0])
    # constraints: x <= 1 and y <= x
    _, g = qp.evaluate(prog, np.array([0.5, 0.75]))
    assert g == pytest.approx([-0.5, 0.25])


def test_zero_weight_source_ignored_in_objective():
    topo = single_link_topology()
    prog = qp.build_num_program(topo, [0.0], [1.0], [1.0])
    f1 = prog.objective_value(np.array([0.5, 0.1]))
    f2 = prog.objective_value(np.array([0.5, 0.9]))
    assert f1 == f2 == 0.0


def test_beta_bounds_fig1(fig1_instance):
    topo = fig1_instance.topology
    hop, loose = qp.beta_bounds(topo)
    assert hop == pytest.approx(np.sqrt(3 + 7 + 12))  # hops counted from R
    assert loose == pytest.approx(np.sqrt((9 + 1) * 7 + 3))
    assert loose == pytest.approx(np.sqrt(73), abs=1e-12)
    assert hop <= loose
    assert qp.spectral_norm(topo.stacked_matrix()) <= hop + 1e-9


def test_beta_bounds_single_link():
    hop, loose = qp.beta_bounds(single_link_topology())
    assert hop == pytest.approx(np.sqrt(3.0))
    assert loose == pytest.approx(np.sqrt(3.0))


def test_beta_bounds_random_topologies():
    rng = np.random.default_rng(83)
    for _ in range(20):
        qp.beta_bounds(random_topology(rng))  # asserts internally


def sim_fig1(T, record_every=1, schedule=None):
    num = qp.fig1_num_instance()
    return qp.simulate_decentralized(num.topology, num.utility_weights,
                                     num.x_max, num.y_max, 10.0,
                                     np.zeros(7), np.zeros(3), T,
                                     record_every=record_every, schedule=schedule)


def test_simulation_initialization_fig1():
    rep = sim_fig1(1)
    # after the first round the recorded queue is Q(1); re-derive Q(0) and the
    # starting prices from the init formulas instead
    num = qp.fig1_num_instance()
    prog = num.program()
    state = qp.init(prog, np.zeros(10), 10.0)
    assert np.array_equal(state.Q[:9], np.ones(9))     # Q_l(0) = c_l
    assert np.array_equal(state.weights, np.zeros(12))  # Y_l(0) = 0, Z_s(0) = 0
    # the simulation's first primal step must agree with the central one
    qp.step(state, prog)
    assert np.abs(rep.x[0] - state.x_prev).max() < 1e-12
    assert np.abs(rep.Q[0] - state.Q).max() < 1e-12


def test_decentralized_equals_centralized_fig1():
    T = 1000
    rep_d = sim_fig1(T)
    num = qp.fig1_num_instance()
    rep_c = qp.run(num.program(), np.zeros(10), 10.0, T, record_every=1)
    assert np.abs(rep_d.x - rep_c.x).max() <= 1e-9
    assert np.abs(rep_d.Q - rep_c.Q).max() <= 1e-9
    assert np.abs(rep_d.x_bar - rep_c.x_bar).max() <= 1e-9


def test_decentralized_equals_centralized_random_topologies():
    rng = np.random.default_rng(59)
    for _ in range(8):
        topo = random_topology(rng)
        weights = rng.uniform(0.2, 2.0, topo.S)
        x_max = rng.uniform(0.5, 2.0, topo.K)
        y_max = rng.uniform(0.5, 3.0, topo.S)
        x0 = rng.uniform(0.0, 1.0, topo.K) * x_max
        y0 = rng.uniform(0.0, 1.0, topo.S) * y_max
        alpha = float(qp.half_hop_alpha(topo))
        T = 200
        rep_d = qp.simulate_decentralized(topo, weights, x_max, y_max, alpha,
                                          x0, y0, T, record_every=1)
        prog = qp.build_num_program(topo, weights, x_max, y_max)
        rep_c = qp.run(prog, np.concatenate([x0, y0]), alpha, T, record_every=1)
        assert np.abs(rep_d.x - rep_c.x).max() <= 1e-9
        assert np.abs(rep_d.Q - rep_c.Q).max() <= 1e-9


def test_agent_schedule_does_not_matter():
    rng = np.random.default_rng(5)
    base = sim_fig1(300)
    shuffled = sim_fig1(300, schedule=(list(rng.permutation(9)),
                                       list(rng.permutation(3))))
    assert np.array_equal(base.x, shuffled.x)
    assert np.array_equal(base.Q, shuffled.Q)


def test_prices_stay_nonnegative():
    rep = sim_fig1(500)
    # W(t) = Q(t) + g(z(t-1)) stacks the link and source prices
    assert (rep.Q + rep.g_x).min() >= -1e-12


def test_message_conservation(fig1_instance):
    topo = fig1_instance.topology
    per_round = sum(len(p) for p in topo.link_paths)
    assert per_round == sum(len(links) for links in topo.path_links) == 12
    T = 250
    rep = sim_fig1(T, record_every=100)
    assert rep.extras["price_messages_per_round"] == per_round
    assert rep.extras["rate_messages_per_round"] == per_round
    assert rep.extras["price_messages"] == T * per_round
    assert rep.extras["rate_messages"] == T * per_round


def test_average_link_loads_obey_certified_decay():
    T = 1000
    rep = sim_fig1(T, record_every=10)
    z_star, lam_star, f_star = qp.fig1_reference()
    bounds = qp.verify_bounds(rep, f_star, z_star, lam_star,
                              rep.program.beta_hint)
    assert bounds.ok
    # link rows of g(xbar) sit below C/t as well
    link_viol = rep.g_xbar[:, :9].max(axis=1)
    assert np.all(link_viol <= bounds.constant / rep.t + 1e-9)


def test_decentralized_long_run_reaches_published_utility():
    rep = sim_fig1(100_000, record_every=10_000)
    assert -rep.f_xbar[-1] == pytest.approx(1.65687, abs=1e-3)


def test_simulation_input_validation():
    num = qp.fig1_num_instance()
    with pytest.raises(ValueError):
        qp.simulate_decentralized(num.topology, num.utility_weights, num.x_max,
                                  num.y_max, 10.0, np.full(7, 5.0), np.zeros(3), 5)
    with pytest.raises(ValueError):
        qp.simulate_decentralized(num.topology, num.utility_weights, num.x_max,
                                  num.y_max, 0.0, np.zeros(7), np.zeros(3), 5)


def test_topology_json_round_trip(tmp_path):
    spec = {
        "capacities": [1.0, 2.0],
        "paths": [{"source": 0, "links": [0]}, {"source": 1, "links": [0, 1]}],
        "x_max": [1.0, 1.0],
        "y_max": [2.0, 2.0],
        "utilities": [{"kind": "log", "weight": 1.0},
                      {"kind": "log", "weight": 0.5}],
    }
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(spec))
    topo, weights, x_max, y_max = qp.load_topology(path)
    assert topo.L == 2 and topo.K == 2 and topo.S == 2
    assert topo.path_links[1] == (0, 1)
    assert np.array_equal(weights, [1.0, 0.5])
    with pytest.raises(ConfigurationError):
        qp.load_topology({**spec, "utilities": [{"kind": "sqrt", "weight": 1}] * 2})


def test_bundled_fixture_matches_printed_matrices():
    topo, weights, x_max, y_max = qp.fig1_topology()
    R_expected = np.array([
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 1],
    ])
    T_expected = np.array([
        [1, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 1, 1],
    ])
    assert np.array_equal(topo.R, R_expected)
    assert np.array_equal(topo.T, T_expected)
    assert np.array_equal(topo.cap, np.ones(9))
    assert np.array_equal(weights, [1.0, 2.0, 2.0])
