#!/usr/bin/env python3
"""Per-link and per-source agents reproduce the centralized iteration.

Each link only sees the rates of paths crossing it and publishes one
price per round; each source only sees the prices of links its paths
use and keeps its rates, queue and price private.  The simulator holds
all agents of a kind as arrays and runs a phase as one segment sum over
the topology's incidence arrays, one segment per agent, so each agent
still reads only its neighbours.  The two phases are the oracle and the
constraint evaluator that the solver's own ``run`` calls, so the agents'
queues and prices get every runtime invariant check of the centralized
solver.  The synchronous message-passing dynamics agree with the
centralized solver on the assembled program to rounding (well inside
1e-9).

Run:  python3 demos/02_decentralized_agents.py
"""

import numpy as np

import qpush as qp

T = 2000
num = qp.fig1_num_instance()

dec = qp.simulate_decentralized(num.topology, num.utility_weights, num.x_max,
                                num.y_max, 10.0, np.zeros(7), np.zeros(3), T,
                                record_every=1)
cen = qp.run(num.program(), np.zeros(10), 10.0, T, record_every=1)

print(f"rounds simulated            : {T}")
print(f"price messages per round    : {dec.extras['price_messages_per_round']}")
print(f"rate messages per round     : {dec.extras['rate_messages_per_round']}")
print(f"max |iterate difference|    : {np.abs(dec.x - cen.x).max():.2e}")
print(f"max |queue difference|      : {np.abs(dec.Q - cen.Q).max():.2e}")
print(f"utility after {T} rounds    : {-dec.f_xbar[-1]:.5f} (optimum 1.65687)")

# prices are queue + latest constraint value and never go negative
prices = dec.Q + dec.g_x
print(f"smallest price ever seen    : {prices.min():.2e} (>= 0 up to rounding)")
