"""Shared generators and independent oracles for the test suite."""

import contextlib
import warnings

import numpy as np

from qpush import (AlphaBelowCurvatureWarning, BoxSet, ConstraintTerms,
                   ConvexProgram, CoordinateTerms, Topology)


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
