"""Shared generators and independent oracles for the test suite."""

import contextlib
import math
import warnings
from types import SimpleNamespace

import numpy as np

from qpush import (AlphaBelowCurvatureWarning, BoxSet, ConstraintTerms,
                   ConvexProgram, CoordinateTerms, Topology, kkt_residual, run)
from qpush.errors import NumericalDomainError

SCALAR_TOL = 1e-12

# vectors for the finiteness tests, whether each is finite, and their ids:
# [1e200, 1] is finite although its sum of squares overflows
FINITENESS_CASES = [([math.nan], False), ([math.inf], False), ([-math.inf], False),
                    ([1e200, 1.0], True), ([], True)]
FINITENESS_IDS = ["nan", "inf", "-inf", "overflowing-square", "empty"]


def frobenius_bound(A):
    """Frobenius norm sqrt(sum A_ij^2); an upper bound on sigma_max(A)."""
    return float(np.sqrt((A * A).sum()))


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
