"""Multipath network utility maximization and its decentralized solver.

A :class:`Topology` lists links with capacities and paths grouped by
source.  The rate-allocation problem

    maximize    sum_s w_s log(y_s)
    subject to  sum_{k in D_l} x_k <= c_l          (per link)
                y_s <= sum_{k in P_s} x_k          (per source)
                0 <= x <= x_max,  0 <= y <= y_max

is assembled into a linear-constraint program on z = (x, y) with
g(z) = A z - b, A = [[R, 0], [-T, I]] and b = (c, 0).

:func:`simulate_decentralized` runs the same iteration as the central
solver but with per-link and per-source agents exchanging price and
rate messages in synchronous rounds, which is how the method deploys in
a network: links only see the paths crossing them, sources only see the
prices of links their paths use.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .oracles import LOG_DOMAIN_FLOOR, log_quadratic_minimizer
from .program import BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms, spectral_norm
from .solver import _drive

__all__ = [
    "Topology",
    "NumProblem",
    "load_topology",
    "build_num_program",
    "beta_bounds",
    "simulate_decentralized",
]


@dataclass(frozen=True)
class Topology:
    """Links, paths, and the path-to-source assignment.

    ``path_links[k]`` is the set of links used by path k; every path
    belongs to exactly one source and ``source_paths`` partitions the
    path indices.  ``link_paths`` (the transpose view) is derived.
    """

    cap: np.ndarray
    path_links: tuple
    source_paths: tuple
    link_paths: tuple = field(init=False)

    def __post_init__(self):
        cap = np.asarray(self.cap, dtype=float)
        if cap.ndim != 1 or np.any(cap <= 0):
            raise ConfigurationError("capacities must be a vector of positive reals")
        L = cap.shape[0]
        path_links = tuple(tuple(sorted(int(l) for l in links)) for links in self.path_links)
        K = len(path_links)
        for k, links in enumerate(path_links):
            if len(links) == 0:
                raise ConfigurationError(f"path {k} uses no links")
            if len(set(links)) != len(links):
                raise ConfigurationError(f"path {k} repeats a link")
            if any(l < 0 or l >= L for l in links):
                raise ConfigurationError(f"path {k} references a link outside 0..{L - 1}")
        source_paths = tuple(tuple(int(k) for k in ks) for ks in self.source_paths)
        seen = [k for ks in source_paths for k in ks]
        if sorted(seen) != list(range(K)):
            raise ConfigurationError("source path sets must partition the path indices")
        link_paths = [[] for _ in range(L)]
        for k, links in enumerate(path_links):
            for l in links:
                link_paths[l].append(k)
        link_paths = tuple(tuple(ks) for ks in link_paths)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "path_links", path_links)
        object.__setattr__(self, "source_paths", source_paths)
        object.__setattr__(self, "link_paths", link_paths)

    @property
    def L(self):
        return self.cap.shape[0]

    @property
    def K(self):
        return len(self.path_links)

    @property
    def S(self):
        return len(self.source_paths)

    @property
    def hop_counts(self):
        return np.array([len(links) for links in self.path_links])

    @property
    def R(self):
        """Link-path incidence, L x K 0/1."""
        R = np.zeros((self.L, self.K))
        for k, links in enumerate(self.path_links):
            R[list(links), k] = 1.0
        return R

    @property
    def T(self):
        """Source-path incidence, S x K 0/1."""
        T = np.zeros((self.S, self.K))
        for s, ks in enumerate(self.source_paths):
            T[s, list(ks)] = 1.0
        return T

    def stacked_matrix(self):
        """A = [[R, 0], [-T, I]] of shape (L+S) x (K+S), built once per
        topology and shared read-only."""
        return self._stacked

    @cached_property
    def _stacked(self):
        L, K, S = self.L, self.K, self.S
        A = np.zeros((L + S, K + S))
        A[:L, :K] = self.R
        A[L:, :K] = -self.T
        A[L:, K:] = np.eye(S)
        A.flags.writeable = False
        return A

    @cached_property
    def _sigma(self):
        """Spectral norm of the stacked matrix, computed once."""
        return spectral_norm(self._stacked)

    @classmethod
    def from_paths(cls, capacities, paths):
        """Build from a list of (source, links) pairs, one per path."""
        sources = sorted({int(s) for s, _ in paths})
        if sources != list(range(len(sources))):
            raise ConfigurationError("sources must be numbered 0..S-1 without gaps")
        source_paths = [[] for _ in sources]
        path_links = []
        for k, (s, links) in enumerate(paths):
            source_paths[int(s)].append(k)
            path_links.append(tuple(links))
        return cls(np.asarray(capacities, dtype=float), tuple(path_links),
                   tuple(tuple(ks) for ks in source_paths))


def load_topology(source):
    """Parse the topology JSON schema.

    ::

        {"capacities": [...],
         "paths": [{"source": s, "links": [...]}, ...],
         "x_max": [...], "y_max": [...],
         "utilities": [{"kind": "log", "weight": w}, ...]}

    Links and sources are 0-based.  Returns (topology, utility_weights,
    x_max, y_max).
    """
    if isinstance(source, dict):
        spec = source
    else:
        with open(source) as fh:
            spec = json.load(fh)
    try:
        topo = Topology.from_paths(
            spec["capacities"],
            [(p["source"], p["links"]) for p in spec["paths"]])
        utilities = spec["utilities"]
        x_max = np.asarray(spec["x_max"], dtype=float)
        y_max = np.asarray(spec["y_max"], dtype=float)
    except KeyError as exc:
        raise ConfigurationError(f"topology file missing field: {exc}") from exc
    weights = np.empty(len(utilities))
    for s, u in enumerate(utilities):
        if u.get("kind") != "log":
            raise ConfigurationError(f"unsupported utility kind {u.get('kind')!r}")
        weights[s] = float(u["weight"])
    if weights.shape[0] != topo.S:
        raise ConfigurationError("one utility entry per source required")
    return topo, weights, x_max, y_max


@dataclass(frozen=True)
class NumProblem:
    """A topology with utilities and rate caps, plus assembled matrices."""

    topology: Topology
    utility_weights: np.ndarray
    x_max: np.ndarray
    y_max: np.ndarray

    def __post_init__(self):
        topo = self.topology
        w = np.asarray(self.utility_weights, dtype=float)
        x_max = np.asarray(self.x_max, dtype=float)
        y_max = np.asarray(self.y_max, dtype=float)
        if w.shape != (topo.S,) or np.any(w < 0):
            raise ConfigurationError("utility weights must be one nonnegative value per source")
        if x_max.shape != (topo.K,) or y_max.shape != (topo.S,):
            raise ConfigurationError("x_max / y_max lengths must match paths / sources")
        object.__setattr__(self, "utility_weights", w)
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "y_max", y_max)

    @property
    def A(self):
        return self.topology.stacked_matrix()

    @property
    def b(self):
        return np.concatenate([self.topology.cap, np.zeros(self.topology.S)])

    def program(self):
        return build_num_program(self.topology, self.utility_weights,
                                 self.x_max, self.y_max)


def build_num_program(topology, utilities, x_max, y_max):
    """Assemble the rate-allocation program on z = (x, y).

    ``utilities`` is the per-source weight vector of w_s log(y_s) terms.
    The resulting program is linear-constraint tagged with g(z) = Az - b
    and carries the spectral norm of A as its Lipschitz hint.
    """
    num = NumProblem(topology, utilities,
                     np.broadcast_to(np.asarray(x_max, dtype=float), (topology.K,)),
                     np.broadcast_to(np.asarray(y_max, dtype=float), (topology.S,)))
    K, S = topology.K, topology.S
    obj = CoordinateTerms(
        quad=np.zeros(K + S),
        lin=np.zeros(K + S),
        log_weight=np.concatenate([np.zeros(K), num.utility_weights]),
    )
    cons = ConstraintTerms(num.A, num.b)
    box = BoxSet(np.zeros(K + S), np.concatenate([num.x_max, num.y_max]))
    return ConvexProgram.from_terms(obj, cons, box, beta_hint=topology._sigma)


def beta_bounds(topology, tol=1e-9):
    """Topology-only Lipschitz bounds for the stacked constraint map.

    Returns (hop_bound, loose_bound) with

        hop_bound   = sqrt(S + K + sum_k |links of path k|)
        loose_bound = sqrt((L + 1) K + S)

    The hop bound never exceeds the loose bound, and the true spectral
    norm never exceeds the hop bound; both facts are asserted here.
    """
    L, K, S = topology.L, topology.K, topology.S
    hops = int(topology.hop_counts.sum())
    hop_bound = float(np.sqrt(S + K + hops))
    loose_bound = float(np.sqrt((L + 1) * K + S))
    if hop_bound > loose_bound + tol:
        raise AssertionError("hop bound exceeded the loose bound")
    sigma = topology._sigma
    if sigma > hop_bound + tol:
        raise AssertionError("spectral norm exceeded the hop bound")
    return hop_bound, loose_bound


class _LinkAgent:
    """Holds one link's queue and price; sees only path rates through it."""

    def __init__(self, capacity, paths):
        self.capacity = capacity
        self.paths = paths
        self.queue = 0.0
        self.price = 0.0

    def start(self, rates):
        total = sum(rates[k] for k in self.paths)
        self.queue = max(0.0, self.capacity - total)
        self.price = self.queue + total - self.capacity

    def round(self, rates):
        total = sum(rates[k] for k in self.paths)
        load = total - self.capacity
        self.queue = max(-load, self.queue + load)
        self.price = self.queue + load


class _SourceAgent:
    """Holds one source's paths, rates, queue and price."""

    def __init__(self, paths, path_links, weight, x_max, y_max, alpha):
        self.paths = paths
        self.path_links = {k: path_links[k] for k in paths}
        self.weight = weight
        self.x_max = {k: x_max[k] for k in paths}
        self.y_max = y_max
        self.alpha = alpha
        self.rates = {}
        self.total_rate = 0.0
        self.y = 0.0
        self.queue = 0.0
        self.price = 0.0

    def start(self, x_init, y_init):
        self.rates = {k: x_init[k] for k in self.paths}
        self.total_rate = sum(self.rates.values())
        self.y = y_init
        gap = self.y - self.total_rate
        self.queue = max(0.0, -gap)
        self.price = self.queue + gap

    def round(self, link_prices):
        alpha = self.alpha
        for k in self.paths:
            path_price = sum(link_prices[l] for l in self.path_links[k])
            step = (path_price - self.price) / (2.0 * alpha)
            self.rates[k] = min(max(self.rates[k] - step, 0.0), self.x_max[k])
        self.total_rate = sum(self.rates[k] for k in self.paths)
        self.y = float(log_quadratic_minimizer(
            alpha, self.price - 2.0 * alpha * self.y, self.weight,
            LOG_DOMAIN_FLOOR, self.y_max))
        gap = self.y - self.total_rate
        self.queue = max(-gap, self.queue + gap)
        self.price = self.queue + gap


def simulate_decentralized(topology, utilities, x_max, y_max, alpha,
                           x_init, y_init, T, record_every=None,
                           schedule=None, label="num"):
    """Run the per-agent iteration for ``T`` synchronous rounds.

    Each round has two phases with a barrier between them: every source
    reads the link prices of the previous round, moves its path rates by
    the closed-form prox step, solves its scalar rate problem, and
    updates its own queue and price; then every link reads the new path
    rates, applies the queue transition and publishes its next price.
    Agents within a phase touch disjoint state, so the processing order
    (overridable via ``schedule`` = (link_order, source_order)) cannot
    change the result.

    The trace row at t records exactly what the centralized solver would
    record: z(t-1) = (x(t-1), y(t-1)) and the stacked queue vector Q(t).
    Price and rate message totals are accumulated in ``extras``.
    """
    num = NumProblem(topology,
                     np.asarray(utilities, dtype=float),
                     np.broadcast_to(np.asarray(x_max, dtype=float), (topology.K,)).copy(),
                     np.broadcast_to(np.asarray(y_max, dtype=float), (topology.S,)).copy())
    program = num.program()
    L, K, S = topology.L, topology.K, topology.S
    x_init = np.broadcast_to(np.asarray(x_init, dtype=float), (K,)).copy()
    y_init = np.broadcast_to(np.asarray(y_init, dtype=float), (S,)).copy()
    z_init = np.concatenate([x_init, y_init])
    if not program.box.contains(z_init):
        raise ValueError("initial rates lie outside their boxes")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    link_order, source_order = schedule if schedule is not None else (range(L), range(S))

    links = [_LinkAgent(topology.cap[l], topology.link_paths[l]) for l in range(L)]
    sources = [_SourceAgent(topology.source_paths[s], topology.path_links,
                            num.utility_weights[s], num.x_max, num.y_max[s], alpha)
               for s in range(S)]
    rates = dict(enumerate(x_init))
    for l in link_order:
        links[l].start(rates)
    for s in source_order:
        sources[s].start(rates, y_init[s])

    price_messages_per_round = sum(len(lp) for lp in topology.link_paths)
    rate_messages_per_round = price_messages_per_round
    cum_g = np.zeros(L + S)
    x_bar = z = g_z = queues = queues_before = None

    def advance(t):
        nonlocal x_bar, z, g_z, cum_g, queues, queues_before
        queues_before = np.array([a.queue for a in links] + [a.queue for a in sources])
        link_prices = {l: links[l].price for l in range(L)}
        for s in source_order:
            sources[s].round(link_prices)
        rates = {k: src.rates[k] for src in sources for k in src.paths}
        for l in link_order:
            links[l].round(rates)
        z = np.concatenate([
            np.array([rates[k] for k in range(K)]),
            np.array([src.y for src in sources]),
        ])
        queues = np.array([a.queue for a in links] + [a.queue for a in sources])
        x_bar = z.copy() if x_bar is None else x_bar * (t / (t + 1.0)) + z / (t + 1.0)
        g_z = program.constraint_values(z)
        cum_g += g_z

    def row():
        delta = 0.5 * float(queues @ queues) - 0.5 * float(queues_before @ queues_before)
        dbound = float(queues_before @ g_z) + float(g_z @ g_z)
        return z, x_bar, queues, program.objective_value(z), g_z, cum_g, delta, dbound

    return _drive(
        T, record_every, advance, row,
        algorithm="vq-decentralized",
        problem=label,
        alpha=float(alpha),
        mode="inequality",
        oracle="agent-message-passing",
        x_init=z_init,
        program=program,
        extras={
            "price_messages": T * price_messages_per_round,
            "rate_messages": T * rate_messages_per_round,
            "price_messages_per_round": price_messages_per_round,
            "rate_messages_per_round": rate_messages_per_round,
        },
    )
