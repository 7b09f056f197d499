"""Shared generators and independent oracles for the test suite."""

import contextlib
import math
import warnings
from types import SimpleNamespace

import numpy as np

from qpush import (AlphaBelowCurvatureWarning, BoxSet, ConstraintTerms,
                   ConvexProgram, CoordinateTerms, SeparableOracle, Topology, evaluate,
                   kkt_residual, run)
from qpush.errors import ConfigurationError, NumericalDomainError
from qpush.oracles import LOG_DOMAIN_FLOOR
from qpush.program import _BOUND_GAP, _BOUND_RANGE, _BOUND_STEPS
from qpush.report import TraceRecorder

SCALAR_TOL = 1e-12

# Input paths a loader cannot use, by kind, and the start of the message each
# raises: no file, a directory, a file that is not JSON.
UNREADABLE_INPUTS = {"missing": "cannot read", "directory": "cannot read",
                     "not-json": "malformed"}


def unreadable_input(tmp_path, kind):
    """A path of one of the ``UNREADABLE_INPUTS`` kinds under ``tmp_path``."""
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-json":
        path.write_text("{not json")
    return path


# A two-link, two-source topology in the JSON schema of ``load_topology``.
TOPOLOGY_SPEC = {
    "capacities": [1.0, 2.0],
    "paths": [{"source": 0, "links": [0]}, {"source": 1, "links": [0, 1]}],
    "x_max": [1.0, 1.0],
    "y_max": [2.0, 2.0],
    "utilities": [{"kind": "log", "weight": 1.0},
                  {"kind": "log", "weight": 0.5}],
}

# vectors for the finiteness tests, whether each is finite, and their ids:
# [1e200, 1] is finite although its sum of squares overflows
FINITENESS_CASES = [([math.nan], False), ([math.inf], False), ([-math.inf], False),
                    ([1e200, 1.0], True), ([], True)]
FINITENESS_IDS = ["nan", "inf", "-inf", "overflowing-square", "empty"]


def frobenius_bound(A):
    """Frobenius norm sqrt(sum A_ij^2); an upper bound on sigma_max(A)."""
    return float(np.sqrt((A * A).sum()))


def fused_certified_norm(rows, cols, vals, shape):
    """Reference for ``program._certified_norm``: the same bound with the
    iterate always carrying the signed twin beside the |A| half, one
    vector of length 2m and two bincounts over 2 nnz triples a step."""
    if not vals.size:
        return 0.0
    m, n = shape
    if m > n:
        rows, cols, m, n = cols, rows, n, m
    mags = np.abs(vals)
    if not (mags.min() >= _BOUND_RANGE ** -1 and mags.max() <= _BOUND_RANGE):
        return None
    counts = np.bincount(rows, minlength=m)
    if not counts.min() > 0:
        used = np.flatnonzero(counts)
        rows, counts, m = np.searchsorted(used, rows), counts[used], used.size
    k = int(counts.max()) + int(np.bincount(cols).max())
    slack = 1.0 + (k + 4) * np.finfo(float).eps
    rows2, cols2 = np.concatenate([rows, rows + m]), np.concatenate([cols, cols + n])
    vals2 = np.concatenate([mags, vals])
    x = np.ones(2 * m)  # v (for |A|) then u (for A)
    for _ in range(_BOUND_STEPS):
        w = np.bincount(cols2, vals2 * x[rows2], 2 * n)
        y = np.bincount(rows2, vals2 * w[cols2], 2 * m)
        upper = float((y[:m] / x[:m]).max()) * slack
        lower = float(w[n:].dot(w[n:])) / float(x[m:].dot(x[m:]))
        if upper <= lower * (1.0 + _BOUND_GAP):
            return math.nextafter(math.sqrt(upper), math.inf)
        top = np.abs(y[m:]).max()
        if not top > 0:
            return None
        y[:m] /= y[:m].max()
        y[m:] /= top
        x = y
        if not x[:m].min() >= _BOUND_RANGE ** -1:
            return None
    return None


def reference_separable_solve(oracle, weights, x_prev, alpha):
    """``SeparableOracle.solve`` as it read before its alpha = 0 constants
    were kept on the oracle: the prox term subtracted at every alpha, and
    the flat mask, the inf outputs and every class constant built on each
    call.  Reads only what the oracle fixes at construction, and the column
    sums of its program's constraint terms."""
    cons = oracle.program.constraint_terms
    lin = oracle._rmatvec(weights)
    if oracle._has_obj_lin:
        lin = oracle.obj_lin + lin
    lin = lin - (2.0 * alpha) * x_prev
    quad = oracle.obj_quad + alpha
    if cons.quad_rmatvec is not None:
        wq = cons.quad_rmatvec(weights)
        if np.count_nonzero(wq < 0):
            # negative weights on quadratic rows would break convexity
            raise ConfigurationError("negative weight on a quadratic constraint row")
        quad = quad + wq
    il, ip = oracle.idx_log, oracle.idx_nl1p
    sl, sp = oracle._sel_log, oracle._sel_nl1p
    if ip.size:
        d = cons.nl_rmatvec(weights)
        if np.count_nonzero(d < 0):
            raise ConfigurationError("negative weight on a log(1+z) constraint row")
    flat = None
    if not (alpha > 0 or np.count_nonzero(quad) == quad.shape[0]):
        flat = quad == 0
        # -inf and inf clip to the low and high endpoints
        target = np.where(lin < 0, np.inf, -np.inf)
        w_over_b = np.divide(oracle._logw_l, lin[sl], out=np.full(il.size, np.inf),
                             where=lin[sl] > 0)
        target[sl] = np.maximum(w_over_b, LOG_DOMAIN_FLOOR)
        if ip.size:
            target[sp] = np.divide(d, lin[sp], out=np.full(ip.size, np.inf),
                                   where=lin[sp] > 0) - 1.0
        x_flat = np.minimum(np.maximum(target, oracle.lo), oracle.hi)
        if np.count_nonzero(flat) == flat.shape[0]:
            return x_flat
        # any positive stand-in keeps the closed forms below finite
        quad = np.where(flat, 1.0, quad)
    neg_two_a, log_c, nl_c = oracle._class_constants(quad)
    # unconstrained stationary point of each class, then one clip to the
    # box: every coordinate starts from the quadratic one, -b / 2a (IEEE
    # division is sign-symmetric, so b / (-2a) has its bits), and the log
    # and log1p classes overwrite theirs
    x = lin / neg_two_a
    if log_c is not None:
        # positive root of 2a z^2 + b z - w = 0, as in log_quadratic_minimizer,
        # in one buffer (s - b has the bits of -b + s)
        eight_aw, four_a = log_c
        b = lin[sl]
        r = b * b
        r += eight_aw
        np.sqrt(r, out=r)
        r -= b
        r /= four_a
        x[sl] = r
    if nl_c is not None:
        # larger root of 2a z^2 + (2a+b) z + (b-d) = 0, the unique stationary
        # point on (-1, inf): its discriminant (2a-b)^2 + 8ad is never
        # negative; the cancellation-free form where 2a+b > 0
        two_a, eight_a, four_a = nl_c
        b = lin[sp]
        s = two_a + b
        sq = np.sqrt((two_a - b) ** 2 + eight_a * d)
        root = (sq - s) / four_a
        np.divide(2.0 * (d - b), s + sq, out=root, where=s > 0)
        x[sp] = root
    np.maximum(x, oracle._lo_eff, out=x)
    np.minimum(x, oracle.hi, out=x)
    if flat is not None:
        x[flat] = x_flat[flat]
    return x


def reference_dsg_run(program, gamma, T, record_every=None):
    """``dsg_run`` from the former dual step: the reference solve, both
    0.5||lambda||^2 from their multipliers and a fresh average each step,
    recorded on the recorder's schedule by its own loop, not the solver's.
    Checks nothing; it gives the values every output must keep."""
    oracle = SeparableOracle(program)
    center = np.zeros(program.n)
    s = SimpleNamespace(lam=np.zeros(program.m), x_bar=None, cum_g=np.zeros(program.m),
                        x=None, g=None, f=math.nan, drift=math.nan, bound=math.nan)

    def advance(t):
        x = reference_separable_solve(oracle, s.lam, center, 0.0)
        f, g = evaluate(program, x)
        gg = float(g.dot(g))
        lam_next = np.maximum(s.lam + gamma * g, 0.0)
        s.drift = 0.5 * float(lam_next.dot(lam_next)) - 0.5 * float(s.lam.dot(s.lam))
        s.bound = gamma * float(s.lam.dot(g)) + 0.5 * gamma * gamma * gg
        s.x_bar = x.copy() if s.x_bar is None else s.x_bar * (t / (t + 1.0)) + x / (t + 1.0)
        s.cum_g += g
        s.lam, s.x, s.g, s.f = lam_next, x, g, f

    def row():
        return s.x, s.x_bar, s.lam, s.f, s.g, s.cum_g, s.drift, s.bound

    recorder = TraceRecorder(T, record_every)
    for t in range(T):
        advance(t)
        if recorder.wants(t + 1):
            x, x_bar, lam, f, g, cum_g, drift, bound = row()
            f_xbar, g_xbar = evaluate(program, x_bar)
            recorder.add(t + 1, x, x_bar, lam, f, g, f_xbar, g_xbar, cum_g, drift, bound)
    return recorder.build(iterations=T, wall_time=0.0, algorithm="dsg", problem="program",
                          alpha=None, gamma=float(gamma), oracle="lagrangian-closed-form",
                          x_init=np.zeros(program.n), program=program)


def random_box(rng, n):
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 3.0, n)
    return BoxSet(lo, hi)


def random_separable_program(rng, n_max=20, m_max=5, with_quad_rows=True):
    """Random diag-quadratic objective with linear/quadratic rows and a
    strictly feasible midpoint."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    box = random_box(rng, n)
    quad = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7)
    lin = rng.uniform(-3.0, 3.0, n)
    obj = CoordinateTerms(quad, lin, np.zeros(n))
    A = rng.uniform(-2.0, 2.0, (m, n))
    Qc = np.zeros((m, n))
    if with_quad_rows:
        Qc = rng.uniform(0.0, 1.0, (m, n)) * (rng.random((m, n)) < 0.4)
    mid = 0.5 * (box.lo + box.hi)
    margin = rng.uniform(0.1, 1.0, m)
    offset = A @ mid + Qc @ (mid * mid) + margin
    cons = ConstraintTerms(A, offset, quad=Qc)
    # entrywise bound on the jacobian over the box gives a valid modulus
    worst = np.maximum(np.abs(A + 2.0 * Qc * box.lo[None, :]),
                       np.abs(A + 2.0 * Qc * box.hi[None, :]))
    beta = frobenius_bound(worst)
    return ConvexProgram.from_terms(obj, cons, box, beta_hint=beta)


def random_sparse_matrix(rng, density=1 / 40):
    """Matrix with fewer than one nonzero in 32 entries, negative and
    non-unit values, and at least one empty row and one empty column."""
    m, n = int(rng.integers(4, 40)), int(rng.integers(40, 90))
    nnz = max(1, min(int(density * m * n), (m * n - 1) // 32))
    A = np.zeros((m, n))
    # row 0 and column 0 stay empty until the permutation
    A[1:, 1:].flat[rng.choice((m - 1) * (n - 1), nnz, replace=False)] = rng.uniform(-3.0, 3.0, nnz)
    return A[rng.permutation(m)][:, rng.permutation(n)]


def random_alpha(rng, program):
    beta = program.beta_hint
    return float(max(rng.uniform(0.3, 2.5) * 0.5 * beta * beta, 0.05))


def random_point_in(box, rng):
    return box.lo + rng.random(box.dim) * (box.hi - box.lo)


@contextlib.contextmanager
def quiet_alpha_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AlphaBelowCurvatureWarning)
        yield


def random_topology(rng, max_links=10, max_paths=8):
    """Small random network: every path picks 1-3 distinct links and the
    paths are partitioned over 1-3 sources."""
    L = int(rng.integers(2, max_links + 1))
    K = int(rng.integers(2, max_paths + 1))
    S = int(rng.integers(1, min(3, K) + 1))
    paths = []
    for _ in range(K):
        hops = int(rng.integers(1, min(3, L) + 1))
        links = rng.choice(L, size=hops, replace=False)
        paths.append(tuple(int(l) for l in links))
    order = rng.permutation(K)
    cuts = sorted(rng.choice(np.arange(1, K), size=S - 1, replace=False)) if S > 1 else []
    groups = np.split(order, cuts)
    source_paths = tuple(tuple(int(k) for k in g) for g in groups)
    caps = rng.uniform(0.5, 2.0, L)
    return Topology(caps, tuple(paths), source_paths)


def random_network(rng, L=300, K=900, S=200, max_hops=6):
    """A large random multipath network: every path picks 2..max_hops
    distinct links and belongs to a random source, and every source has a
    path.  Its stacked matrix has fewer than one nonzero in 32 entries."""
    owner = np.concatenate([np.arange(S), rng.integers(0, S, K - S)])[rng.permutation(K)]
    paths = [(int(s), rng.choice(L, int(rng.integers(2, max_hops + 1)), replace=False))
             for s in owner]
    return Topology.from_paths(rng.uniform(0.5, 2.0, L), paths)


def link_path_incidence(topology):
    """R: the L x K 0/1 link-path incidence, from ``path_links``."""
    R = np.zeros((topology.L, topology.K))
    for k, links in enumerate(topology.path_links):
        R[list(links), k] = 1.0
    return R


def source_path_incidence(topology):
    """T: the S x K 0/1 source-path incidence, from ``source_paths``."""
    T = np.zeros((topology.S, topology.K))
    for s, paths in enumerate(topology.source_paths):
        T[s, list(paths)] = 1.0
    return T


def link_paths(topology):
    """The paths through each link, in increasing order."""
    return tuple(tuple(k for k, links in enumerate(topology.path_links) if l in links)
                 for l in range(topology.L))


def subproblem_objective(program, weights, x_prev, alpha):
    """x -> f(x) + W.g(x) + alpha ||x - x_prev||^2, the prox subproblem."""
    weights, x_prev = np.asarray(weights, dtype=float), np.asarray(x_prev, dtype=float)

    def value(x):
        d = x - x_prev
        return (program.objective_value(x) + float(weights @ program.constraint_values(x))
                + alpha * float(d @ d))

    return value


def solve_separable_quadratic(a, b, lo, hi):
    """Exact minimizer of a*x^2 + b*x over [lo, hi] for a > 0."""
    if a <= 0:
        raise ValueError("quadratic coefficient must be positive")
    if lo > hi:
        raise ValueError("empty interval")
    return min(max(-b / (2.0 * a), lo), hi)


def qp_coordinate_update(qp, i, weight, x_prev_i, alpha):
    """Closed-form coordinate step of the penalized QP subproblem.

    Minimizes (P_ii + w Qm_ii + alpha) x^2 + (c_i + w d_i - 2 alpha
    x_prev_i) x over [0, 1] for a nonnegative constraint weight.
    """
    if weight < 0:
        raise ValueError("constraint weight must be nonnegative")
    a = qp.P[i] + weight * qp.Qm[i] + alpha
    b = qp.c[i] + weight * qp.d[i] - 2.0 * alpha * x_prev_i
    return solve_separable_quadratic(a, b, 0.0, 1.0)


def solve_scalar_convex(derivative, lo, hi, tol=SCALAR_TOL):
    """Bisection on the sign of a nondecreasing derivative over [lo, hi].

    Returns ``lo`` when derivative(lo) >= 0, ``hi`` when derivative(hi)
    <= 0, otherwise the midpoint of a bracket narrower than ``tol``.
    Deterministic midpoint rule.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    dlo = derivative(lo)
    dhi = derivative(hi)
    if not (np.isfinite(dlo) and np.isfinite(dhi)):
        raise NumericalDomainError("derivative returned non-finite values on the bracket")
    if dlo >= 0:
        return lo
    if dhi <= 0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        dm = derivative(mid)
        if not np.isfinite(dm):
            raise NumericalDomainError(f"derivative non-finite at {mid}")
        if dm >= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def log1p_quadratic_minimizer(a, b, d, lo, hi):
    """Exact minimizer of a*z^2 + b*z - d*log(1+z) over [lo, hi] in [0, inf).

    Stationarity multiplies out to 2a z^2 + (2a+b) z + (b-d) = 0 whose
    discriminant (2a-b)^2 + 8ad is never negative; the larger root is the
    unique stationary point on (-1, inf).  Vectorized; uses the
    cancellation-free quadratic form when 2a+b > 0.
    """
    s = 2.0 * a + b
    sq = np.sqrt((2.0 * a - b) ** 2 + 8.0 * a * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(s > 0, 2.0 * (d - b) / (s + sq), (sq - s) / (4.0 * a))
    return np.minimum(np.maximum(root, lo), hi)


def derive_reference(program, alpha, T):
    """(x*, lambda*) from a long tight solve, with the pair's KKT residual.

    Runs ``T`` iterations from the box point nearest 0, without validation,
    and returns the final iterate with the final weight vector
    W = Q + g(x) as the multiplier estimate.
    """
    x_init = program.box.clamp(np.zeros(program.n))
    report = run(program, x_init, alpha, T, record_every=T, validate=False)
    # the last row holds x(T-1), Q(T) and g(x(T-1))
    x = report.x[-1]
    lam = report.Q[-1] + report.g_x[-1]
    return SimpleNamespace(x=x, lam=lam, f=program.objective_value(x),
                           kkt=kkt_residual(program, x, lam))


def grid_minimize(fun, lo, hi, coarse=2001, refine=4):
    """Brute-force scalar minimizer by iterated grid refinement."""
    for _ in range(refine):
        xs = np.linspace(lo, hi, coarse)
        vals = np.array([fun(x) for x in xs])
        i = int(np.argmin(vals))
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, coarse - 1)]
    return 0.5 * (lo + hi)


def auglag_pg_qp_reference(qpi, rho=50.0, outer=40, inner=200000, tol=1e-10):
    """Penalty-based reference for a QpInstance, independent of the
    queue solver: multiplier loop with projected-gradient inner solves of
    the quadratic-penalty subproblem."""
    P, c, Qm, d, e = qpi.P, qpi.c, qpi.Qm, qpi.d, qpi.e
    x = np.zeros(qpi.n)
    lam = 0.0
    beta_sq = qpi.beta() ** 2
    for _ in range(outer):
        step = 1.0 / (2 * P.max() + (lam + rho * abs(e)) * 2 * Qm.max() + rho * beta_sq)
        for _ in range(inner):
            g = float(Qm @ (x * x) + d @ x - e)
            mult = max(0.0, lam + rho * g)
            grad = 2 * P * x + c + mult * (2 * Qm * x + d)
            x_new = np.clip(x - step * grad, 0.0, 1.0)
            done = np.linalg.norm(x - x_new) / step < tol
            x = x_new
            if done:
                break
        g = float(Qm @ (x * x) + d @ x - e)
        lam_new = max(0.0, lam + rho * g)
        if abs(lam_new - lam) < 1e-9 and g < 1e-9:
            lam = lam_new
            break
        lam = lam_new
    return x, lam, float(P @ (x * x) + c @ x)


def overflow_network():
    """Two paths of rate cap 1e308 sharing one unit link: started at their
    caps, the link's load overflows.  Returns (topology, x_max, y_max)."""
    topo = Topology.from_paths([1.0], [(0, [0]), (0, [0])])
    return topo, np.array([1e308, 1e308]), np.array([1.0])


def _cell(v):
    return format(float(v), ".17g")


def reference_trace_csv(report):
    """The trace CSV formatted one cell at a time, as a byte reference."""
    from qpush.report import TRACE_COLUMNS

    cols = report.columns()
    lines = [",".join(TRACE_COLUMNS)]
    lines += [",".join(_cell(cols[c][i]) for c in TRACE_COLUMNS) for i in range(len(report.t))]
    return "\n".join(lines) + "\n"


def reference_full_trace_csv(report):
    """The iterate/queue sidecar formatted one cell at a time."""
    n, m = report.x.shape[1], report.Q.shape[1]
    lines = [",".join(["t"] + [f"x_{i}" for i in range(n)] + [f"Q_{k}" for k in range(m)])]
    lines += [",".join(_cell(v) for v in [report.t[i], *report.x[i], *report.Q[i]])
              for i in range(len(report.t))]
    return "\n".join(lines) + "\n"


def reference_bounds_csv(bounds):
    """The bound-margin CSV formatted one cell at a time."""
    names = ("objective", "constraint", "queue", "queue_lower")
    lines = [",".join(["t"] + [f"{n}_margin" for n in names])]
    lines += [",".join(_cell(v) for v in [bounds.t[i]] + [bounds.margins(n)[i] for n in names])
              for i in range(len(bounds.t))]
    return "\n".join(lines) + "\n"
