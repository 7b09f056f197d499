import itertools
import json
import warnings

import numpy as np
import pytest

import qpush as qp
from qpush import Topology, netflow
from qpush.errors import ConfigurationError
from qpush.oracles import LOG_DOMAIN_FLOOR
from qpush.program import _certified_norm

from helpers import (TOPOLOGY_SPEC, UNREADABLE_INPUTS, link_path_incidence, link_paths,
                     overflow_network, quiet_alpha_warnings, random_network, random_topology,
                     source_path_incidence, unreadable_input)


def single_link_topology():
    return Topology([1.0], ((0,),), ((0,),))


def test_topology_incidence_consistency(fig1_instance):
    topo = fig1_instance.topology
    for l, paths in enumerate(link_paths(topo)):
        for k in paths:
            assert l in topo.path_links[k]
    for k, links in enumerate(topo.path_links):
        for l in links:
            assert k in link_paths(topo)[l]
    assert link_path_incidence(topo).shape == (9, 7)
    assert source_path_incidence(topo).shape == (3, 7)


def test_incidence_arrays():
    # link 1 carries no path; path 1 crosses links 0 and 2
    topo = Topology([1.0, 1.0, 1.0], ((2, 0), (0,), (2,)), ((2, 0), (1,)))
    assert topo._pl_path.tolist() == [0, 0, 1, 2]
    assert topo._pl_link.tolist() == [0, 2, 0, 2]
    assert topo._sp_source.tolist() == [0, 0, 1]
    assert topo._sp_path.tolist() == [2, 0, 1]
    assert link_paths(topo) == ((0, 1), (), (0, 2))
    assert topo.hop_counts.tolist() == [2, 1, 1]
    for name in ("_pl_path", "_pl_link", "_sp_source", "_sp_path"):
        assert not getattr(topo, name).flags.writeable
    assert np.array_equal(link_path_incidence(topo), [[1, 1, 0], [0, 0, 0], [1, 0, 1]])
    assert np.array_equal(source_path_incidence(topo), [[1, 0, 1], [0, 1, 0]])
    assert not topo.stacked_matrix().flags.writeable


def test_topology_validation():
    with pytest.raises(ConfigurationError):
        Topology([1.0, 1.0], ((0,), (1,)), ((0,),))  # path 1 unassigned
    with pytest.raises(ConfigurationError):
        Topology([1.0], ((0,), (0,)), ((0, 0), (1,)))  # path in two sources
    for cap in (0.0, np.nan, np.inf):  # nonpositive, NaN and infinite capacities
        with pytest.raises(ConfigurationError, match="capacities must be a vector of positive reals"):
            Topology([cap], ((0,),), ((0,),))
    with pytest.raises(ConfigurationError):
        Topology([1.0], ((1,),), ((0,),))  # unknown link
    with pytest.raises(ConfigurationError):
        Topology([1.0], ((),), ((0,),))  # empty path


def first_path_error(L, path_links):
    """The path checks one path at a time: the message for the first bad
    path and its first failing check (empty, repeat, range), or None."""
    for k, links in enumerate(path_links):
        if len(links) == 0:
            return f"path {k} uses no links"
        if len(set(links)) != len(links):
            return f"path {k} repeats a link"
        if any(l < 0 or l >= L for l in links):
            return f"path {k} references a link outside 0..{L - 1}"
    return None


def test_topology_path_errors_name_the_first_bad_path_and_check():
    rng = np.random.default_rng(37)
    named = set()
    for _ in range(300):
        L, K = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        # a few bad paths among good ones; a link of 10**30 fits no index
        choices = [rng.choice(L, int(rng.integers(1, L + 1)), replace=False).tolist()
                   for _ in range(K)]
        for k in rng.choice(K, int(rng.integers(0, 3))):
            kind = int(rng.integers(4))
            links = choices[k]
            choices[k] = ([] if kind == 0 else links + links[:1] if kind == 1
                          else links + [int(rng.choice([-1, L, L + 3]))] if kind == 2
                          else links + [L, L, 10**30])
        want = first_path_error(L, [sorted(links) for links in choices])
        if want is None:
            Topology(np.ones(L), tuple(map(tuple, choices)), (tuple(range(K)),))
            continue
        with pytest.raises(ConfigurationError) as exc:
            Topology(np.ones(L), tuple(map(tuple, choices)), (tuple(range(K)),))
        assert str(exc.value) == want
        named.add(want.split()[2])  # uses, repeats or references
    assert len(named) == 3


def test_build_num_program_fig1(fig1_instance):
    num = qp.fig1_num_instance()
    prog = num.program()
    assert prog.constraint_terms.is_linear
    A = prog.constraint_terms.lin
    assert A.shape == (12, 10)
    assert np.array_equal(A[:9, :7], link_path_incidence(num.topology))
    assert np.array_equal(A[9:, :7], -source_path_incidence(num.topology))
    assert np.array_equal(A[9:, 7:], np.eye(3))
    assert np.array_equal(A[:9, 7:], np.zeros((9, 3)))
    assert np.array_equal(prog.constraint_terms.offset, np.concatenate([np.ones(9), np.zeros(3)]))


def test_build_num_program_smallest_instance():
    topo = single_link_topology()
    prog = qp.build_num_program(topo, [1.0], [2.0], [2.0])
    # constraints: x <= 1 and y <= x
    _, g = qp.evaluate(prog, np.array([0.5, 0.75]))
    assert g == pytest.approx([-0.5, 0.25])


def test_num_programs_on_one_topology_share_their_constraints():
    topo = single_link_topology()
    a = qp.build_num_program(topo, [1.0], [2.0], [2.0])
    b = qp.build_num_program(topo, [3.0], [1.0], [1.5])
    assert a.constraint_terms is b.constraint_terms
    assert a.constraint_terms.lin is topo.stacked_matrix()
    assert not np.array_equal(a.box.hi, b.box.hi)
    assert a.objective_value(np.array([0.5, 0.75])) != b.objective_value(np.array([0.5, 0.75]))


def test_num_set_up_of_a_large_network_builds_no_dense_matrix():
    # the constraint rows come from the incidence index arrays and beta from
    # their nonzeros: the dense (L+S) x (K+S) matrix appears only when read
    topo = random_network(np.random.default_rng(59))
    terms = qp.build_num_program(topo, np.ones(topo.S), 1.0, 1.0).constraint_terms
    qp.beta_bounds(topo)
    full = (topo.L + topo.S, topo.K + topo.S)

    def dense_arrays():
        return [name for obj in (topo, terms) for name, v in vars(obj).items()
                if isinstance(v, np.ndarray) and v.shape == full]

    assert "_stacked" not in vars(topo) and dense_arrays() == []
    A = topo.stacked_matrix()
    assert dense_arrays() == ["lin"] and terms.lin is A and not A.flags.writeable
    # the triples run in row-major order, as a scan of the dense matrix finds them
    flat = A.ravel()
    nz = np.flatnonzero(flat)
    rows, cols, vals = terms._parts[0]
    assert np.array_equal(rows * full[1] + cols, nz) and np.array_equal(vals, flat[nz])


def test_a_link_without_paths_leaves_the_sparse_beta_unchanged():
    # its empty row adds nothing to sigma_max, and the bound drops it
    topo = random_network(np.random.default_rng(61))
    idle = Topology(np.append(topo.cap, 1.0), topo.path_links, topo.source_paths)
    terms = idle._num_constraints
    assert idle._sigma == _certified_norm(*terms._parts[0], terms.shape) == topo._sigma


def test_beta_from_the_unsigned_matrix_keeps_the_signed_bits(fig1_instance):
    # negating the source rows and y columns turns A into |A|, so the bound
    # from |A| alone is the signed route's value, bit for bit
    rng = np.random.default_rng(71)
    topologies = [fig1_instance.topology] + [random_topology(rng) for _ in range(50)]
    networks = [random_network(rng) for _ in range(5)]
    for topo in topologies + networks:
        assert topo._sigma == topo._num_constraints.spectral_norm()
    for topo in networks:
        A = topo.stacked_matrix()
        exact = float(np.sqrt(np.linalg.eigvalsh(A @ A.T)[-1]))
        assert exact <= topo._sigma <= exact * (1.0 + 1e-12)


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


def sim_fig1(T, record_every=1):
    num = qp.fig1_num_instance()
    return qp.simulate_decentralized(num.topology, num.utility_weights,
                                     num.x_max, num.y_max, 10.0,
                                     np.zeros(7), np.zeros(3), T,
                                     record_every=record_every)


def test_simulation_initialization_fig1():
    rep = sim_fig1(1)
    # after the first round the recorded queue is Q(1); re-derive Q(0) and the
    # starting prices from the init formulas instead
    num = qp.fig1_num_instance()
    prog = num.program()
    state = qp.init(prog, np.zeros(10), 10.0)
    assert np.array_equal(state.Q[:9], np.ones(9))     # Q_l(0) = c_l
    assert np.array_equal(state.Q + state.g_prev, np.zeros(12))  # Y_l(0) = 0, Z_s(0) = 0
    # the simulation's first primal step must agree with the central one
    qp.step(state, prog)
    assert np.abs(rep.x[0] - state.x_prev).max() < 1e-12
    assert np.abs(rep.Q[0] - state.Q).max() < 1e-12


def test_starting_link_price_is_the_central_weight():
    # c - x rounds to a tie here; a link that published (Q + x) - c would
    # start at price -2^-52 instead of the central W = Q + (x - c) = 0
    c, x = 1.0 + 2.0 ** -52, 2.0 ** -53
    topo = Topology([c], ((0,),), ((0,),))
    dec = qp.simulate_decentralized(topo, [1.0], [2.0], [4.0], 2.0, [x], [x], 3,
                                    record_every=1)
    cen = qp.run(qp.build_num_program(topo, [1.0], [2.0], [4.0]), np.array([x, x]), 2.0, 3,
                 record_every=1)
    assert np.array_equal(dec.x, cen.x)
    assert np.array_equal(dec.Q, cen.Q)


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
    # the last network has a link, 1, that no path uses
    unused_link = Topology([1.0, 0.5, 1.5], ((0,), (0, 2), (2,)), ((0, 1), (2,)))
    for topo in itertools.chain((random_topology(rng) for _ in range(8)), [unused_link]):
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


def loop_agents(topo, w, x_max, y_max, alpha, x, y, T):
    """Each agent in turn, with one Python sum per message set, in path
    and link order: the reference the array rounds must equal bit for bit.
    Returns z(t) and Q(t+1) for every round."""
    x, y, cap = [float(v) for v in x], [float(v) for v in y], topo.cap
    through = link_paths(topo)
    total = [sum(x[k] for k in ks) for ks in through]
    link_q = [max(0.0, c - tot) for c, tot in zip(cap, total)]
    link_price = [q + (tot - c) for q, tot, c in zip(link_q, total, cap)]
    gap = [y[s] - sum(x[k] for k in ks) for s, ks in enumerate(topo.source_paths)]
    source_q = [max(0.0, -g) for g in gap]
    source_price = [q + g for q, g in zip(source_q, gap)]
    zs, Qs = [], []
    for _ in range(T):
        for s, ks in enumerate(topo.source_paths):
            for k in ks:
                path_price = sum(link_price[l] for l in topo.path_links[k])
                x[k] = min(max(x[k] - (path_price - source_price[s]) / (2.0 * alpha), 0.0),
                           x_max[k])
            y[s] = float(qp.log_quadratic_minimizer(
                alpha, source_price[s] - 2.0 * alpha * y[s], w[s], LOG_DOMAIN_FLOOR, y_max[s]))
            g = y[s] - sum(x[k] for k in ks)
            source_q[s] = max(-g, source_q[s] + g)
            source_price[s] = source_q[s] + g
        for l, ks in enumerate(through):
            load = sum(x[k] for k in ks) - cap[l]
            link_q[l] = max(-load, link_q[l] + load)
            link_price[l] = link_q[l] + load
        zs.append(x + y)
        Qs.append(link_q + source_q)
    return np.array(zs), np.array(Qs)


def test_agents_equal_the_per_agent_loop():
    num = qp.fig1_num_instance()
    cases = [(num.topology, num.utility_weights, num.x_max, num.y_max, 10.0,
              np.zeros(7), np.zeros(3))]
    rng = np.random.default_rng(31)
    for _ in range(4):
        topo = random_topology(rng)
        x_max, y_max = rng.uniform(0.5, 2.0, topo.K), rng.uniform(0.5, 3.0, topo.S)
        cases.append((topo, rng.uniform(0.2, 2.0, topo.S), x_max, y_max,
                      float(qp.half_hop_alpha(topo)), rng.uniform(0.0, 1.0, topo.K) * x_max,
                      rng.uniform(0.0, 1.0, topo.S) * y_max))
    for topo, w, x_max, y_max, alpha, x0, y0 in cases:
        rep = qp.simulate_decentralized(topo, w, x_max, y_max, alpha, x0, y0, 200,
                                        record_every=1)
        z, Q = loop_agents(topo, w, x_max, y_max, alpha, x0, y0, 200)
        assert np.array_equal(rep.x, z)
        assert np.array_equal(rep.Q, Q)


def test_agent_relabeling_does_not_matter():
    # relabel the links and the sources of fig1, then map the trace back
    num = qp.fig1_num_instance()
    topo = num.topology
    rng = np.random.default_rng(5)
    links = rng.permutation(topo.L)      # old link l is new link links[l]
    sources = rng.permutation(topo.S)    # new source j is old source sources[j]
    relabeled = Topology(topo.cap[np.argsort(links)],
                         tuple(tuple(int(links[l]) for l in ls) for ls in topo.path_links),
                         tuple(topo.source_paths[s] for s in sources))
    rep = qp.simulate_decentralized(relabeled, num.utility_weights[sources], num.x_max,
                                    num.y_max[sources], 10.0, np.zeros(7), np.zeros(3), 300,
                                    record_every=1)
    base = sim_fig1(300)
    K, L = topo.K, topo.L
    x_cols = np.concatenate([np.arange(K), K + np.argsort(sources)])
    q_cols = np.concatenate([links, L + np.argsort(sources)])
    assert np.abs(rep.x[:, x_cols] - base.x).max() <= 1e-12
    assert np.abs(rep.x_bar[:, x_cols] - base.x_bar).max() <= 1e-12
    assert np.abs(rep.Q[:, q_cols] - base.Q).max() <= 1e-12
    assert np.abs(rep.g_x[:, q_cols] - base.g_x).max() <= 1e-12
    assert np.abs(rep.f_xbar - base.f_xbar).max() <= 1e-12


def test_prices_stay_nonnegative():
    rep = sim_fig1(500)
    # W(t) = Q(t) + g(z(t-1)) stacks the link and source prices
    assert (rep.Q + rep.g_x).min() >= -1e-12


def test_message_conservation(fig1_instance):
    topo = fig1_instance.topology
    per_round = sum(len(p) for p in link_paths(topo))
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
    for alpha in (np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            qp.simulate_decentralized(num.topology, num.utility_weights, num.x_max,
                                      num.y_max, alpha, np.zeros(7), np.zeros(3), 5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_round_raises(monkeypatch, bad):
    # from path rates 0 and a source rate of 1e308, the source's price 1e308
    # moves both paths up by 1e308 / (2 alpha), which overflows, so round 0
    # clips them to their 1e308 caps and the link's load overflows
    topo, x_max, _ = overflow_network()
    with quiet_alpha_warnings(), pytest.raises(
            qp.NumericalDomainError,
            match="objective or constraint value is not finite at iteration 0"):
        qp.simulate_decentralized(topo, [1.0], x_max, [1e308], 0.25, [0.0, 0.0], [1e308], 5)
    # a source rate that turns non-finite in round 2
    real_minimizer = netflow.log_quadratic_minimizer
    calls = []

    def faulty(*args):
        calls.append(None)
        y = real_minimizer(*args)
        return np.full_like(y, bad) if len(calls) == 3 else y

    monkeypatch.setattr(netflow, "log_quadratic_minimizer", faulty)
    with pytest.raises(qp.NumericalDomainError,
                       match="primal oracle returned a non-finite iterate at iteration 2"):
        qp.simulate_decentralized(single_link_topology(), [1.0], [2.0], [4.0], 2.0, 0.0, 0.0, 5)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_non_finite_start_raises_naming_the_initial_point():
    # both paths start at their 1e308 caps, so the link's load overflows
    # before the first round: g(z_init) = (inf, -inf)
    topo, x_max, y_max = overflow_network()
    z_init = np.concatenate([x_max, [0.5]])
    program = qp.build_num_program(topo, [1.0], x_max, y_max)
    assert not np.isfinite(program.constraint_values(z_init)).any()
    with pytest.raises(qp.NumericalDomainError, match="not finite at the initial point"):
        qp.run(program, z_init, 4.0, 5)
    with pytest.raises(qp.NumericalDomainError, match="not finite at the initial point"):
        qp.simulate_decentralized(topo, [1.0], x_max, y_max, 4.0, x_max, [0.5], 5)


def test_agents_warn_below_the_curvature_bound_as_run_does():
    num = qp.fig1_num_instance()
    half_beta_sq = 0.5 * num.program().beta_hint ** 2
    args = (num.topology, num.utility_weights, num.x_max, num.y_max)
    with pytest.warns(qp.AlphaBelowCurvatureWarning, match="convergence guarantees"):
        qp.simulate_decentralized(*args, 0.5 * half_beta_sq, np.zeros(7), np.zeros(3), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", qp.AlphaBelowCurvatureWarning)
        qp.simulate_decentralized(*args, half_beta_sq, np.zeros(7), np.zeros(3), 2)


def test_a_nan_utility_weight_is_rejected():
    # NaN < 0 is false: a check written that way lets the weight drop out of f
    with pytest.raises(ConfigurationError, match="one nonnegative value per source"):
        qp.build_num_program(single_link_topology(), [np.nan], [2.0], [2.0])


def test_topology_json_round_trip(tmp_path):
    spec = TOPOLOGY_SPEC
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(spec))
    topo, weights, x_max, y_max = qp.load_topology(path)
    assert topo.L == 2 and topo.K == 2 and topo.S == 2
    assert topo.path_links[1] == (0, 1)
    assert np.array_equal(weights, [1.0, 0.5])
    with pytest.raises(ConfigurationError):
        qp.load_topology({**spec, "utilities": [{"kind": "sqrt", "weight": 1}] * 2})


@pytest.mark.parametrize("spec", [
    {**TOPOLOGY_SPEC, "paths": "x"},
    {**TOPOLOGY_SPEC, "paths": [[0], [0, 1]]},
    {**TOPOLOGY_SPEC, "paths": [{"source": 0, "links": None}, {"source": 1, "links": [1]}]},
    {**TOPOLOGY_SPEC, "utilities": ["log", "log"]},
    {**TOPOLOGY_SPEC, "utilities": [{"kind": "log", "weight": None}] * 2},
    {**TOPOLOGY_SPEC, "utilities": [{"kind": "log"}] * 2},
    {**TOPOLOGY_SPEC, "capacities": [1.0, "a"]},
    [TOPOLOGY_SPEC],
], ids=["paths-string", "path-list", "links-null", "utility-string", "weight-null",
        "weight-missing", "capacity-string", "top-level-list"])
def test_malformed_topology_raises_configuration_error(tmp_path, spec):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(spec))
    for source in (spec, path):
        with pytest.raises(ConfigurationError):
            qp.load_topology(source)


@pytest.mark.parametrize("kind", UNREADABLE_INPUTS)
def test_load_topology_of_an_unreadable_file_raises_configuration_error(tmp_path, kind):
    path = unreadable_input(tmp_path, kind)
    with pytest.raises(ConfigurationError) as err:
        qp.load_topology(path)
    assert str(err.value).startswith(f"{UNREADABLE_INPUTS[kind]} topology file {str(path)!r}: ")


def _with_path(index, **fields):
    paths = [dict(p) for p in TOPOLOGY_SPEC["paths"]]
    paths[index].update(fields)
    return {**TOPOLOGY_SPEC, "paths": paths}


@pytest.mark.parametrize("spec, message", [
    (_with_path(0, links=[0.7]), "path 0 has link 0.7, not an integer index"),
    (_with_path(1, links=["1", 0]), "path 1 has link '1', not an integer index"),
    (_with_path(1, links=[0, True]), "path 1 has link True, not an integer index"),
    (_with_path(1, source=1.9), "path 1 has source 1.9, not an integer index"),
    (_with_path(0, source="0"), "path 0 has source '0', not an integer index"),
    (_with_path(1, source=True), "path 1 has source True, not an integer index"),
], ids=["link-float", "link-string", "link-bool", "source-float", "source-string",
        "source-bool"])
def test_topology_rejects_an_index_that_is_not_an_integer(spec, message):
    # int() would truncate 0.7 and 1.9 and parse "1"; each must be refused
    with pytest.raises(ConfigurationError) as err:
        qp.load_topology(spec)
    assert str(err.value) == message


def test_topology_takes_numpy_integer_indices():
    topo = Topology.from_paths([1.0, 2.0], [(np.int64(0), [np.int32(0)]),
                                            (1, np.array([1, 0]))])
    assert topo.path_links == ((0,), (0, 1)) and topo.source_paths == ((0,), (1,))
    assert all(type(l) is int for links in topo.path_links for l in links)
    with pytest.raises(ConfigurationError, match="source 1 has path 1.0, not an integer index"):
        Topology([1.0, 2.0], ((0,), (1,)), ((0,), (1.0,)))


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
    assert np.array_equal(link_path_incidence(topo), R_expected)
    assert np.array_equal(source_path_incidence(topo), T_expected)
    assert np.array_equal(topo.cap, np.ones(9))
    assert np.array_equal(weights, [1.0, 2.0, 2.0])
