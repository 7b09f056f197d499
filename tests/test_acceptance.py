"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or on
failure) after its assertions.  The expensive 1e5-iteration runs are
shared session fixtures, so the whole module costs a few solver runs.
"""

import numpy as np
import pytest

import qpush as qp
from qpush.oracles import SeparableOracle, solve_projected_gradient
from qpush.problems import FLOW_POWER_OPTIMUM

from helpers import (quiet_alpha_warnings, random_alpha, random_point_in,
                     random_separable_program, random_topology, solve_scalar_convex)

FIG1_UTILITY = 1.65687
QP_SEED1_F_STAR = -169.06884345592948


def note(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_fig1_num_optimum(fig1_vq_run):
    rep = fig1_vq_run
    utility = -rep.final["f_xbar"]
    err = abs(utility - FIG1_UTILITY)
    assert rep.iterations == 100_000 and rep.alpha == 10.0
    assert err <= 1e-3
    assert rep.wall_time <= 10.0
    note(f"1 PASS fig1-num: |utility - {FIG1_UTILITY}| = {err:.2e} <= 1e-3, "
         f"runtime {rep.wall_time:.1f}s <= 10s")


def test_criterion_2_beta_spectral_values(fig1_instance):
    sigma = qp.spectral_norm(fig1_instance.topology.stacked_matrix())
    assert sigma == pytest.approx(2.4307, abs=1e-3)
    topo, w, xm, ym = qp.fig1_topology()
    beta_fp = qp.build_flow_power_program(topo, w, y_max=ym).beta_hint
    assert beta_fp == pytest.approx(2.5229, abs=1e-3)
    note(f"2 PASS beta values: sigma_max(A) = {sigma:.5f} (2.4307 +- 1e-3), "
         f"flow-power pattern beta = {beta_fp:.5f} (2.5229 +- 1e-3)")


def test_criterion_3_flow_power_optimum(flow_power_vq_run):
    rep = flow_power_vq_run
    value = -rep.final["f_xbar"]
    err = abs(value - FLOW_POWER_OPTIMUM)
    assert err <= 1e-3
    # the optimum sits strictly inside the power and rate caps
    zbar = rep.x_bar[-1]
    assert np.all(zbar[10:] < rep.program.box.hi[10:] - 0.1)   # p coordinates
    assert np.all(zbar[7:10] < rep.program.box.hi[7:10] - 0.1)  # y coordinates
    note(f"3 PASS flow-power: |value - ({FLOW_POWER_OPTIMUM})| = {err:.2e} <= 1e-3")


def test_criterion_4_certified_bound_suite(fig1_vq_run):
    z_star, lam_star, f_star = qp.fig1_reference()
    prog = fig1_vq_run.program
    # reference certificate: exact KKT residual well under 1e-8
    kkt = qp.kkt_residual(prog, z_star, lam_star)
    assert kkt < 1e-8
    bounds = qp.verify_bounds(fig1_vq_run, f_star, z_star, lam_star, prog.beta_hint)
    assert bounds.slack == 1e-9
    assert not bounds.skipped
    for name in ("objective", "constraint", "queue", "queue_lower"):
        assert bounds.passed(name) is True, (name, bounds.worst(name))
    assert fig1_vq_run.t[0] == 1 and fig1_vq_run.t[-1] == 100_000
    worst = min(bounds.worst(n) for n in ("objective", "constraint", "queue",
                                          "queue_lower"))
    note(f"4 PASS bound suite: worst margin {worst:.1e} >= -1e-9 across all "
         f"{len(bounds.t)} recorded t, reference KKT residual {kkt:.1e}")


def test_criterion_5_invariant_property_suite():
    rng = np.random.default_rng(20240501)
    failures = 0
    with quiet_alpha_warnings():
        for _ in range(200):
            prog = random_separable_program(rng, n_max=20, m_max=5)
            x0 = random_point_in(prog.box, rng)
            # validate=True re-checks every invariant at every step
            rep = qp.run(prog, x0, random_alpha(rng, prog), 500, record_every=50)
            ineq_ok = (np.all(rep.Q >= 0.0)
                       and np.all(rep.Q + rep.g_x >= -1e-9)
                       and np.all(np.linalg.norm(rep.Q, axis=1)
                                  >= np.linalg.norm(rep.g_x, axis=1) - 1e-9))
            drift_ok = np.all(rep.drift <= rep.drift_bound + 1e-9)
            lower_ok = np.all(rep.Q >= rep.cum_g - rep.t[:, None] * 1e-12 - 1e-9)
            failures += not (ineq_ok and drift_ok and lower_ok)
    assert failures == 0
    note("5 PASS invariants: queue sign/weight/norm, drift bound and queue "
         "lower bound held on 200 random programs x 500 iterations, 0 failures")


def test_criterion_6_decentralized_equivalence():
    worst = 0.0
    num = qp.fig1_num_instance()
    cases = [(num.topology, num.utility_weights, num.x_max, num.y_max,
              np.zeros(7), np.zeros(3), 10.0)]
    rng = np.random.default_rng(77)
    for _ in range(25):
        topo = random_topology(rng, max_links=10, max_paths=8)
        w = rng.uniform(0.2, 2.0, topo.S)
        x_max = rng.uniform(0.5, 2.0, topo.K)
        y_max = rng.uniform(0.5, 3.0, topo.S)
        x0 = rng.uniform(0.0, 1.0, topo.K) * x_max
        y0 = rng.uniform(0.0, 1.0, topo.S) * y_max
        cases.append((topo, w, x_max, y_max, x0, y0, float(qp.half_hop_alpha(topo))))
    for topo, w, x_max, y_max, x0, y0, alpha in cases:
        T = 1000
        dec = qp.simulate_decentralized(topo, w, x_max, y_max, alpha, x0, y0, T,
                                        record_every=1)
        cen = qp.run(qp.build_num_program(topo, w, x_max, y_max),
                     np.concatenate([x0, y0]), alpha, T, record_every=1)
        worst = max(worst,
                    float(np.abs(dec.x - cen.x).max()),
                    float(np.abs(dec.Q - cen.Q).max()))
    assert worst <= 1e-9
    note(f"6 PASS decentralized equivalence: max |difference| = {worst:.2e} "
         "<= 1e-9 over fig1 + 25 random topologies x 1000 iterations")


def test_criterion_7_rate_and_baseline_comparison(fig1_vq_run, fig1_dsg_run):
    _, _, f_star = qp.fig1_reference()
    res = qp.slope_check(fig1_vq_run.t, fig1_vq_run.f_xbar - f_star,
                         (100, 100_000))
    assert not res.skipped
    assert -1.15 <= res.slope <= -0.85
    vq_err = abs(fig1_vq_run.final["f_xbar"] - f_star)
    dsg_err = abs(fig1_dsg_run.final["f_xbar"] - f_star)
    assert dsg_err > vq_err
    note(f"7 PASS rate: log-log slope {res.slope:.3f} in [-1.15, -0.85]; "
         f"dsg error {dsg_err:.2e} > vq error {vq_err:.2e} at T=1e5")


def test_criterion_8_qp_reproduction(qp_seed1, qp_vq_run):
    ref = qp.qp_reference_optimum(qp_seed1)
    assert ref.kkt < 1e-8
    assert ref.f == pytest.approx(QP_SEED1_F_STAR, abs=1e-8)
    rep = qp_vq_run
    assert rep.alpha == pytest.approx(0.5 * qp_seed1.beta() ** 2 + 1.0)
    # averaged iterate: relative agreement at 1e-4 (the absolute O(1/t)
    # certificate at T=1e5 is alpha*||x*||^2/T, far above 1e-4)
    avg_err = abs(rep.final["f_xbar"] - ref.f)
    rel_err = avg_err / abs(ref.f)
    assert rel_err <= 1e-4
    certificate = rep.alpha * float((ref.x - rep.x_init) @ (ref.x - rep.x_init)) / 100_000
    assert avg_err <= certificate
    # converged iterate: absolute agreement far below 1e-4
    last_err = abs(rep.f_x[-1] - ref.f)
    assert last_err <= 1e-8
    # invariants along the trace (validate=True checked each step already)
    assert np.all(rep.Q >= 0.0)
    assert np.all(rep.Q + rep.g_x >= -1e-9)
    assert np.all(rep.drift <= rep.drift_bound + 1e-9)
    assert np.all(rep.Q >= rep.cum_g - rep.t[:, None] * 1e-12 - 1e-9)
    note(f"8 PASS qp(seed=1): reference f* = {ref.f:.6f} (KKT {ref.kkt:.1e}); "
         f"averaged rel err {rel_err:.2e} <= 1e-4 (abs {avg_err:.2e} <= "
         f"certificate {certificate:.2e}); last-iterate err {last_err:.2e}")


def test_criterion_9_oracle_cross_validation():
    rng = np.random.default_rng(90210)
    worst = 0.0
    with quiet_alpha_warnings():
        for _ in range(100):
            prog = random_separable_program(rng, n_max=8, m_max=4,
                                            with_quad_rows=bool(rng.integers(2)))
            oracle = SeparableOracle(prog)
            W = rng.uniform(0.0, 3.0, prog.m)
            x_prev = random_point_in(prog.box, rng)
            alpha = float(rng.uniform(0.5, 8.0))
            closed = oracle(W, x_prev, alpha)
            pg = solve_projected_gradient(prog, W, x_prev, alpha,
                                          tol=1e-11, max_iter=200_000)
            worst = max(worst, float(np.abs(closed - pg).max()))
            # per-coordinate bisection on the stationarity condition
            lin = prog.objective_terms.lin + prog.constraint_terms.lin.T @ W \
                - 2.0 * alpha * x_prev
            quad = prog.objective_terms.quad + alpha \
                + prog.constraint_terms.quad.T @ W
            for i in rng.integers(0, prog.n, size=3):
                bis = solve_scalar_convex(
                    lambda z, i=i: 2 * quad[i] * z + lin[i],
                    prog.box.lo[i], prog.box.hi[i])
                worst = max(worst, abs(bis - closed[i]))
    assert worst <= 1e-6
    note(f"9 PASS oracle cross-validation: closed-form vs bisection vs "
         f"projected gradient within {worst:.2e} <= 1e-6 on 100 subproblems")
