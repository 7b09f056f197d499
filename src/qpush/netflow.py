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
such sum is one segment of the NUM rows' segment sums
(:meth:`ConstraintTerms.as_segment_sums`), and the agents are
:func:`solver.run` on those rows, so the closed forms, the queues, the
prices, the averaging and every runtime invariant are the solver's own.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import solver
from .errors import ConfigurationError, _input_errors, _read_json
from .program import BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms

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


def _require_indices(groups, message):
    """Raise ConfigurationError(message.format(i, v)) for the first entry v,
    in group i, that is not an int or numpy integer: a bool, a float or a
    string.  Valid input costs one pass over the entries' types."""
    kinds = set(map(type, itertools.chain.from_iterable(groups)))
    if not all(kind is int or issubclass(kind, np.integer) for kind in kinds):
        i, v = next((i, v) for i, group in enumerate(groups) for v in group
                    if type(v) is not int and not isinstance(v, np.integer))
        raise ConfigurationError(message.format(i, v))


@dataclass(frozen=True)
class Topology:
    """Links, paths, and the path-to-source assignment.

    ``path_links[k]`` is the set of links used by path k; every path
    belongs to exactly one source and ``source_paths`` partitions the
    path indices.  The incidence is also kept as read-only index arrays:
    ``_pl_path``, ``_pl_link`` hold the (path, link) pairs sorted by path,
    then link (R^T in CSR form); ``_sp_source``, ``_sp_path`` each
    source's paths in increasing order (T in CSR form), the order in which
    ``source_paths`` keeps them, as ``path_links`` keeps each path's links.
    A segment sum per link or per source adds its paths in increasing
    path order.
    """

    cap: np.ndarray
    path_links: tuple
    source_paths: tuple

    def __post_init__(self):
        cap = np.asarray(self.cap, dtype=float)
        if cap.ndim != 1 or not np.all((cap > 0) & (cap < np.inf)):  # NaN fails both
            raise ConfigurationError("capacities must be a vector of positive reals")
        L = cap.shape[0]
        _require_indices(self.path_links, "path {} has link {!r}, not an integer index")
        path_links = tuple(tuple(sorted(map(int, links))) for links in self.path_links)
        K = len(path_links)
        hops = np.fromiter(map(len, path_links), np.intp, K)
        links = list(itertools.chain.from_iterable(path_links))
        try:
            pl_link = np.array(links, dtype=np.intp)
        except OverflowError:  # a link beyond any index: the checks compare Python ints
            pl_link = np.array(links, dtype=object)
        pl_path = np.repeat(np.arange(K), hops)
        _check_paths(hops, pl_path, pl_link, L)  # so pl_link holds indices from here on
        _require_indices(self.source_paths, "source {} has path {!r}, not an integer index")
        source_paths = tuple(tuple(sorted(map(int, ks))) for ks in self.source_paths)
        seen = [k for ks in source_paths for k in ks]
        if sorted(seen) != list(range(K)):
            raise ConfigurationError("source path sets must partition the path indices")
        sp_source = np.array([s for s, ks in enumerate(source_paths) for _ in ks], dtype=np.intp)
        sp_path = np.array(seen, dtype=np.intp)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "path_links", path_links)
        object.__setattr__(self, "source_paths", source_paths)
        for name, a in (("_pl_path", pl_path), ("_pl_link", pl_link),
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
        """A = [[R, 0], [-T, I]] of shape (L+S) x (K+S), read-only: the
        dense linear part of the rate-allocation constraints, built on the
        first call and shared."""
        return self._num_constraints.lin

    def _stacked_triples(self):
        """(rows, cols, values) of the nonzeros of A = [[R, 0], [-T, I]]:
        R's, then -T's, then I's."""
        L, K, S = self.L, self.K, self.S
        diag = np.arange(S)
        rows = np.concatenate([self._pl_link, L + self._sp_source, L + diag])
        cols = np.concatenate([self._pl_path, self._sp_path, K + diag])
        vals = np.ones(rows.size)
        vals[self._pl_link.size:self._pl_link.size + K] = -1.0
        return rows, cols, vals

    @cached_property
    def _num_constraints(self):
        """g(z) = A z - (cap, 0) of the rate-allocation program, built once
        from the incidence index arrays and shared by every program on this
        topology."""
        L, K, S = self.L, self.K, self.S
        return ConstraintTerms.from_triples(*self._stacked_triples(), (L + S, K + S),
                                            np.concatenate([self.cap, np.zeros(S)]))

    @cached_property
    def _sigma(self):
        """Spectral norm of the stacked matrix, computed once.

        Negating the source rows and the y columns of A = [[R, 0], [-T, I]]
        gives |A| = [[R, 0], [T, I]].  Those negations are orthogonal, so A
        and |A| have the same singular values, and the certified bound
        comes from the nonnegative |A| with no signed iterate, in the same
        bits as from A."""
        return self._num_constraints.unsigned_spectral_norm()

    @classmethod
    def from_paths(cls, capacities, paths):
        """Build from a list of (source, links) pairs, one per path."""
        _require_indices([(s,) for s, _ in paths], "path {} has source {!r}, not an integer index")
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
    x_max, y_max).  ``source`` may be a path or the parsed content; a
    file that cannot be read or is not JSON, or a missing or mistyped
    field, raises ConfigurationError.
    """
    spec = _read_json(source, "topology file")
    with _input_errors("topology file"):
        topo = Topology.from_paths(
            spec["capacities"],
            [(p["source"], p["links"]) for p in spec["paths"]])
        utilities = spec["utilities"]
        x_max = np.asarray(spec["x_max"], dtype=float)
        y_max = np.asarray(spec["y_max"], dtype=float)
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
    """A topology with per-source utility weights and per-path and
    per-source rate caps, validated and copied once; ``program()``
    assembles the rate-allocation program from them, and
    :func:`build_num_program` goes through it."""

    topology: Topology
    utility_weights: np.ndarray
    x_max: np.ndarray
    y_max: np.ndarray

    def __post_init__(self):
        topo = self.topology
        w = np.asarray(self.utility_weights, dtype=float)
        x_max = np.asarray(self.x_max, dtype=float)
        y_max = np.asarray(self.y_max, dtype=float)
        if w.shape != (topo.S,) or not np.all(w >= 0):
            raise ConfigurationError("utility weights must be one nonnegative value per source")
        if x_max.shape != (topo.K,) or y_max.shape != (topo.S,):
            raise ConfigurationError("x_max / y_max lengths must match paths / sources")
        object.__setattr__(self, "utility_weights", w)
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "y_max", y_max)

    def program(self):
        """Assemble the rate-allocation program on z = (x, y).

        The objective is sum_s -w_s log(y_s) and the box 0 <= (x, y) <=
        (x_max, y_max).  The constraint terms are the topology's linear
        g(z) = Az - b, shared by every program on it, and the Lipschitz
        hint is the spectral norm of A: on a network whose A has fewer than
        one nonzero in 32 entries, a certified upper bound within 1e-12 of
        it (``program.spectral_norm``).
        """
        topo = self.topology
        K, S = topo.K, topo.S
        obj = CoordinateTerms(
            quad=np.zeros(K + S),
            lin=np.zeros(K + S),
            log_weight=np.concatenate([np.zeros(K), self.utility_weights]),
        )
        box = BoxSet(np.zeros(K + S), np.concatenate([self.x_max, self.y_max]))
        return ConvexProgram.from_terms(obj, topo._num_constraints, box, beta_hint=topo._sigma)


def build_num_program(topology, utilities, x_max, y_max):
    """The rate-allocation program of :meth:`NumProblem.program`, with
    ``utilities`` the per-source weights of the w_s log(y_s) terms and a
    scalar ``x_max`` or ``y_max`` standing for the same cap on every path
    or source."""
    return NumProblem(topology, utilities,
                      np.broadcast_to(np.asarray(x_max, dtype=float), (topology.K,)),
                      np.broadcast_to(np.asarray(y_max, dtype=float), (topology.S,))).program()


def beta_bounds(topology):
    """Topology-only Lipschitz bounds for the stacked constraint map.

    Returns (hop_bound, loose_bound) with

        hop_bound   = sqrt(S + K + sum_k |links of path k|)
        loose_bound = sqrt((L + 1) K + S)

    The hop bound never exceeds the loose bound, and the true spectral
    norm never exceeds the hop bound; both facts are asserted here, up to
    1e-9.
    """
    L, K, S = topology.L, topology.K, topology.S
    hops = int(topology.hop_counts.sum())
    hop_bound = float(np.sqrt(S + K + hops))
    loose_bound = float(np.sqrt((L + 1) * K + S))
    if hop_bound > loose_bound + 1e-9:
        raise AssertionError("hop bound exceeded the loose bound")
    sigma = topology._sigma
    if sigma > hop_bound + 1e-9:
        raise AssertionError("spectral norm exceeded the hop bound")
    return hop_bound, loose_bound


def simulate_decentralized(topology, utilities, x_max, y_max, alpha,
                           x_init, y_init, T, record_every=None):
    """Run the per-agent iteration for ``T`` synchronous rounds.

    Each round has two phases with a barrier between them.  First every
    source reads the previous round's prices of the links on its paths,
    moves its path rates by the closed-form prox step and solves its
    scalar rate problem.  Then every link sums the new rates of the paths
    through it, and every source the rates of its own paths.  A phase is
    one array operation over all agents, each reading only its own
    segments of the NUM rows' triples, so no processing order exists.

    The agents are :func:`solver.run` on the NUM program's objective, box
    and beta over its rows' segment sums
    (:meth:`ConstraintTerms.as_segment_sums`): the sources' phase is the
    separable oracle, whose column sums A^T W give each path's price, and
    the links' phase the rows' values.  The solver does the rest: the
    queues, the prices W = Q + g, the running average, the drift, the
    finiteness tests and the runtime invariants.  So the trace row at t
    records z(t-1) = (x(t-1), y(t-1)) and the stacked queue vector Q(t).
    Where the NUM program's own products are segment sums (fewer than one
    nonzero of A in 32 entries) the agents' run is the central run bit for
    bit; on a denser network, such as fig1, it equals it up to rounding.
    ``extras`` counts one price and one rate message per (link, path) pair
    and round.

    The errors are ``run``'s: a start outside the boxes or an alpha that is
    not positive and finite is a ValueError; a non-finite load at the
    start, or a non-finite rate, objective or load in a round, raises
    NumericalDomainError naming the initial point or the round; a failed
    invariant raises InvariantViolation (exit 3 of the CLI).  An alpha
    below beta^2/2 warns AlphaBelowCurvatureWarning.
    """
    num = build_num_program(topology, utilities, x_max, y_max)
    K, S = topology.K, topology.S
    program = ConvexProgram.from_terms(num.objective_terms, num.constraint_terms.as_segment_sums(),
                                       num.box, beta_hint=num.beta_hint)
    z_init = np.concatenate([np.broadcast_to(np.asarray(x_init, dtype=float), (K,)),
                             np.broadcast_to(np.asarray(y_init, dtype=float), (S,))])
    report = solver.run(program, z_init, float(alpha), T, record_every=record_every, label="num")
    per_round = int(topology._pl_link.size)
    report.algorithm = "vq-decentralized"
    report.extras = {"price_messages": T * per_round, "rate_messages": T * per_round,
                     "price_messages_per_round": per_round,
                     "rate_messages_per_round": per_round}
    return report
