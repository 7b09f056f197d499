"""Multipath network utility maximization and its decentralized solver.

A :class:`Topology` lists links with capacities and paths grouped by
source.  The rate-allocation problem

    maximize    sum_s w_s log(y_s)
    subject to  sum_{k in D_l} x_k <= c_l          (per link)
                y_s <= sum_{k in P_s} x_k          (per source)
                0 <= x <= x_max,  0 <= y <= y_max

is assembled into a linear-constraint program on z = (x, y) with
g(z) = A z - b, A = [[R, 0], [-T, I]] and b = (c, 0), where R is the
L x K link-path and T the S x K source-path 0/1 incidence.

:func:`simulate_decentralized` runs the same iteration as per-link and
per-source agents exchanging messages in synchronous rounds, as the
method deploys in a network: a link sums only the rates of the paths
crossing it, a source only the prices of the links its paths use.  Each
such sum is one segment of an incidence index array of the topology.
"""

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, NumericalDomainError
from .oracles import LOG_DOMAIN_FLOOR, log_quadratic_minimizer
from .program import (BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms, _all_finite,
                      spectral_norm)
from .solver import _drive

__all__ = [
    "Topology",
    "NumProblem",
    "load_topology",
    "build_num_program",
    "beta_bounds",
    "simulate_decentralized",
]


def _check_paths(hops, pl_path, pl_link, L):
    """Name the first path that uses no links, repeats a link or uses one
    outside 0..L-1 (its first failing check in that order).  ``pl_path``,
    ``pl_link`` list each path's sorted links, so a repeat is two equal
    neighbours of one path."""
    same = pl_path[1:] == pl_path[:-1]
    failures = ((np.flatnonzero(hops == 0), "uses no links"),
                (pl_path[1:][same & (pl_link[1:] == pl_link[:-1])], "repeats a link"),
                (pl_path[(pl_link < 0) | (pl_link >= L)], f"references a link outside 0..{L - 1}"))
    found = [(int(paths[0]), what) for paths, what in failures if paths.size]
    if found:
        # min keeps the earliest check among the checks that fail on one path
        raise ConfigurationError("path {} {}".format(*min(found, key=lambda f: f[0])))


@dataclass(frozen=True)
class Topology:
    """Links, paths, and the path-to-source assignment.

    ``path_links[k]`` is the set of links used by path k; every path
    belongs to exactly one source and ``source_paths`` partitions the
    path indices.  The incidence is also kept as read-only index arrays:
    ``_pl_path``, ``_pl_link`` hold the (path, link) pairs sorted by path,
    then link (R^T in CSR form); ``_lp_link``, ``_lp_path`` the same pairs
    sorted by link, then path (R in CSR form); ``_sp_source``, ``_sp_path``
    each source's paths in ``source_paths`` order (T in CSR form).
    """

    cap: np.ndarray
    path_links: tuple
    source_paths: tuple

    def __post_init__(self):
        cap = np.asarray(self.cap, dtype=float)
        if cap.ndim != 1 or np.any(cap <= 0):
            raise ConfigurationError("capacities must be a vector of positive reals")
        L = cap.shape[0]
        path_links = tuple(tuple(sorted(int(l) for l in links)) for links in self.path_links)
        K = len(path_links)
        hops = np.fromiter(map(len, path_links), np.intp, K)
        links = list(itertools.chain.from_iterable(path_links))
        try:
            pl_link = np.array(links, dtype=np.intp)
        except OverflowError:  # a link beyond any index: the checks compare Python ints
            pl_link = np.array(links, dtype=object)
        pl_path = np.repeat(np.arange(K), hops)
        _check_paths(hops, pl_path, pl_link, L)  # so pl_link holds indices from here on
        source_paths = tuple(tuple(int(k) for k in ks) for ks in self.source_paths)
        seen = [k for ks in source_paths for k in ks]
        if sorted(seen) != list(range(K)):
            raise ConfigurationError("source path sets must partition the path indices")
        by_link = np.argsort(pl_link, kind="stable")
        sp_source = np.array([s for s, ks in enumerate(source_paths) for _ in ks], dtype=np.intp)
        sp_path = np.array(seen, dtype=np.intp)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "path_links", path_links)
        object.__setattr__(self, "source_paths", source_paths)
        for name, a in (("_pl_path", pl_path), ("_pl_link", pl_link),
                        ("_lp_link", pl_link[by_link]), ("_lp_path", pl_path[by_link]),
                        ("_sp_source", sp_source), ("_sp_path", sp_path)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

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
        return np.bincount(self._pl_path, minlength=self.K)

    def stacked_matrix(self):
        """A = [[R, 0], [-T, I]] of shape (L+S) x (K+S), built once per
        topology and shared read-only."""
        return self._stacked

    @cached_property
    def _stacked(self):
        L, K, S = self.L, self.K, self.S
        A = np.zeros((L + S, K + S))
        A[self._lp_link, self._lp_path] = 1.0
        A[L + self._sp_source, self._sp_path] = -1.0
        A[L + np.arange(S), K + np.arange(S)] = 1.0
        A.flags.writeable = False
        return A

    @cached_property
    def _num_constraints(self):
        """g(z) = A z - (cap, 0) of the rate-allocation program, built once
        (with its nonzero scan) and shared by every program on this topology."""
        return ConstraintTerms(self._stacked, np.concatenate([self.cap, np.zeros(self.S)]))

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
    """A topology with utilities and rate caps; ``program()`` assembles the
    rate-allocation program."""

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
    box = BoxSet(np.zeros(K + S), np.concatenate([num.x_max, num.y_max]))
    return ConvexProgram.from_terms(obj, topology._num_constraints, box,
                                    beta_hint=topology._sigma)


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


def simulate_decentralized(topology, utilities, x_max, y_max, alpha,
                           x_init, y_init, T, record_every=None, label="num"):
    """Run the per-agent iteration for ``T`` synchronous rounds.

    Each round has two phases with a barrier between them.  First every
    source reads the previous round's prices of the links on its paths,
    moves its path rates by the closed-form prox step, solves its scalar
    rate problem and updates its own queue and price.  Then every link
    sums the new rates of the paths through it, applies the queue
    transition and publishes its next price.  A phase is one array
    operation over all agents, each reading only its own segments of the
    topology's incidence arrays, so no processing order exists.

    The trace row at t records exactly what the centralized solver would
    record: z(t-1) = (x(t-1), y(t-1)) and the stacked queue vector Q(t).
    ``extras`` counts one price and one rate message per (link, path)
    pair and round.  Non-finite rates or constraint values in a round, or
    a non-finite recorded objective, raise NumericalDomainError naming t.
    """
    program = build_num_program(topology, utilities, x_max, y_max)
    L, K, S = topology.L, topology.K, topology.S
    x = np.broadcast_to(np.asarray(x_init, dtype=float), (K,)).copy()
    y = np.broadcast_to(np.asarray(y_init, dtype=float), (S,)).copy()
    z_init = np.concatenate([x, y])
    if not program.box.contains(z_init):
        raise ValueError("initial rates lie outside their boxes")
    if not 0 < alpha < math.inf:  # NaN fails both comparisons
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    cap, x_max, y_max = topology.cap, program.box.hi[:K], program.box.hi[K:]
    w = program.objective_terms.log_weight[K:]
    # the row of each path's source in the stacked price vector
    source_row = np.empty(K, dtype=np.intp)
    source_row[topology._sp_path] = L + topology._sp_source
    two_alpha = 2.0 * alpha
    # finiteness screens: v.dot(0) is finite exactly when v is
    zeros_z, zeros_g = np.zeros(K + S), np.zeros(L + S)

    def loads(x, y):
        """R x - c and y - T x: one segment sum per link and per source."""
        return np.concatenate([
            np.bincount(topology._lp_link, x[topology._lp_path], L) - cap,
            y - np.bincount(topology._sp_source, x[topology._sp_path], S)])

    load = loads(x, y)
    Q = np.maximum(0.0, -load)
    price = Q + load
    cum_g = np.zeros(L + S)
    x_bar = z = g_z = Q_before = last_t = None

    def advance(t):
        nonlocal x, y, Q, price, x_bar, z, g_z, cum_g, Q_before, last_t
        path_price = np.bincount(topology._pl_path, price[topology._pl_link], K)
        x = np.minimum(np.maximum(x - (path_price - price[source_row]) / two_alpha, 0.0), x_max)
        y = log_quadratic_minimizer(alpha, price[L:] - two_alpha * y, w, LOG_DOMAIN_FLOOR, y_max)
        z = np.concatenate([x, y])
        if not _all_finite(z, z.dot(zeros_z)):
            raise NumericalDomainError(f"agents computed a non-finite rate at iteration {t}")
        load = loads(x, y)
        Q_before = Q
        Q = np.maximum(-load, Q + load)
        price = Q + load
        x_bar = z.copy() if x_bar is None else x_bar * (t / (t + 1.0)) + z / (t + 1.0)
        g_z = program.constraint_values(z)
        if not _all_finite(g_z, g_z.dot(zeros_g)):
            raise NumericalDomainError(f"constraint value is not finite at iteration {t}")
        cum_g += g_z
        last_t = t

    def row():
        f_z = program.objective_value(z)
        if not math.isfinite(f_z):
            raise NumericalDomainError(f"objective value is not finite at iteration {last_t}")
        delta = 0.5 * float(Q.dot(Q)) - 0.5 * float(Q_before.dot(Q_before))
        dbound = float(Q_before.dot(g_z)) + float(g_z.dot(g_z))
        return z, x_bar, Q, f_z, g_z, cum_g, delta, dbound

    per_round = int(topology._lp_link.size)
    return _drive(T, record_every, advance, row, algorithm="vq-decentralized", problem=label,
                  alpha=float(alpha), mode="inequality", oracle="agent-message-passing",
                  x_init=z_init, program=program,
                  extras={"price_messages": T * per_round, "rate_messages": T * per_round,
                          "price_messages_per_round": per_round,
                          "rate_messages_per_round": per_round})
