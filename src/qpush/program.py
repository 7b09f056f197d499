"""Problem containers and constraint-map norms.

A :class:`ConvexProgram` bundles the pieces of

    minimize    f(x)
    subject to  g_k(x) <= 0,  k = 1..m
                x in [lo, hi]  (componentwise box)

together with optional separable structure that lets the primal
subproblem solvers use closed forms.  Programs are immutable after
construction and all operations here are pure, so a single instance can
back many solver runs concurrently.

Separable structure is expressed per coordinate / per constraint row:

* objective:    f(x) = sum_i  quad_i x_i^2 + lin_i x_i - logw_i log(x_i)
* constraints:  g_k(x) = sum_i [A_ki x_i + Qc_ki x_i^2 - U_ki log(1+x_i)] - b_k

with quad, Qc, logw, U all nonnegative (this keeps f and g convex on the
box by construction).

Only :class:`ConstraintTerms` knows how its parts are stored: A, and Qc
and U when given, each as read-only row-major nonzero triples.  An A with
fewer than one nonzero in 32 entries (large flow networks; not fig1 or
the QP) makes every product a segment sum.  M x reads a slot-major copy
of the part's triples by rows: the first nonzero of every row, then the
second, and so on.  M^T W reads the row-major triples themselves, by
columns.  Each row still adds its terms in column order and
each column in row order, so the sums keep the bits of a scan of the
row-major triples, while consecutive adds go to different entries and
need not wait on one another.  A segment-sum entry costs about 2.9 ns
and a dense BLAS entry 0.13 ns (net-large A x, 6264 nonzeros in
700 x 1500; timeit, best of 5, 2 vCPUs, numpy 2.4), a ratio of 22, and
32 keeps a margin.  A denser A makes the products ``ndarray.dot`` on dense
arrays built once from the triples.

A matrix that is sparse by the same rule gets its :func:`spectral_norm` from
its nonzeros: a certified upper bound on sigma_max from a few dozen
segment-sum power steps, or, when that bound is not tight, the exact
eigenvalue of the dense Gram matrix.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ConfigurationError, _input_errors, _read_json

__all__ = [
    "BoxSet",
    "CoordinateTerms",
    "ConstraintTerms",
    "ConvexProgram",
    "evaluate",
    "spectral_norm",
    "load_program",
]


def _vector(x, n=None, name="vector"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        if v.ndim != 0 or n is None:
            raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
        v = np.full(n, float(v))
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


# the products run on nonzero triples when 32 * nnz(A) < m * n (module docstring)
_SPARSE_RATIO = 32
# the certified sparse bound: at most this many power steps, taken once it
# lies within this relative gap of a lower bound on sigma_max^2, for entries
# within this range of magnitudes (_certified_norm)
_BOUND_STEPS = 64
_BOUND_GAP = 1e-12
_BOUND_RANGE = 2.0 ** 256
_FLOAT = np.dtype(float)


def _sparse(nnz, m, n):
    return _SPARSE_RATIO * nnz < m * n


def _read_only(triples):
    for a in triples or ():
        a.flags.writeable = False
    return triples


def _nonzeros(a):
    """Row-major (row, col, value) triples of the nonzeros of the matrix ``a``."""
    flat = a.ravel()
    nz = np.flatnonzero(flat != 0)  # 5x faster than np.flatnonzero(a) at 1e6 entries
    return (*np.divmod(nz, a.shape[1]), flat[nz])


def _dense(rows, cols, vals, shape):
    """The read-only m x n matrix with nonzeros ``vals`` at (rows, cols)."""
    A = np.zeros(shape)
    A[rows, cols] = vals
    A.flags.writeable = False
    return A


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {x : lo <= x <= hi} with finite bounds."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lo, name="lo")
        hi = _vector(self.hi, len(lo), name="hi")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    def clamp(self, x):
        return np.minimum(np.maximum(np.asarray(x, dtype=float), self.lo), self.hi)

    def contains(self, x, tol=0.0):
        x = _vector(x, self.dim, name="x")
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass(frozen=True)
class CoordinateTerms:
    """Separable objective sum_i quad_i x_i^2 + lin_i x_i - log_weight_i log(x_i)."""

    quad: np.ndarray
    lin: np.ndarray
    log_weight: np.ndarray

    def __post_init__(self):
        quad = _vector(self.quad, name="quad")
        n = quad.shape[0]
        lin = _vector(self.lin, n, name="lin")
        logw = _vector(self.log_weight, n, name="log_weight")
        if not (np.all(quad >= 0) and np.all(logw >= 0)):  # written so that NaN fails
            raise ConfigurationError("quad and log_weight must be nonnegative (convexity)")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "log_weight", logw)
        log_idx = np.flatnonzero(logw > 0)
        object.__setattr__(self, "_log_idx", log_idx)
        object.__setattr__(self, "_log_sel", _selector(log_idx))
        object.__setattr__(self, "_log_w", logw[log_idx])
        object.__setattr__(self, "_has_lin", bool(lin.any()))
        object.__setattr__(self, "_has_quad", bool(quad.any()))

    @property
    def dim(self):
        return self.quad.shape[0]

    @classmethod
    def linear(cls, lin):
        lin = _vector(lin, name="lin")
        z = np.zeros_like(lin)
        return cls(z, lin, z)

    def value(self, x):
        v = float(self.lin.dot(x)) if self._has_lin else 0.0
        if self._has_quad:
            v += float(self.quad.dot(x * x))
        if self._log_idx.size:
            xi = x[self._log_sel]
            if np.count_nonzero(xi) == xi.shape[0]:
                logs = np.log(xi)
            else:
                # log(0) = -inf makes f = +inf, silently
                with np.errstate(divide="ignore"):
                    logs = np.log(xi)
            v -= float(self._log_w.dot(logs))
        return v

    def gradient(self, x):
        grad = 2.0 * self.quad * x + self.lin
        idx = self._log_idx
        if idx.size:
            grad[idx] -= self.log_weight[idx] / x[idx]
        return grad


def _segment_sum(out, into, vals, size, v):
    """The length-``size`` vector whose entry i sums ``vals * v[into]`` over
    the triples with ``out`` i: A x from A's slot-major copy by rows
    (:func:`_slot_major`) and A^T W from (cols, rows) of the row-major
    triples.  bincount adds in input order, so each row adds its terms in
    column order and each column in row order, as a scan of the dense
    matrix would, while consecutive adds go to different entries and need
    not wait for one another.  ``np.add.reduceat`` would give an empty row
    a neighbour's value."""
    return np.bincount(out, vals * v[into], size)


def _slot_major(rows, cols, vals, m):
    """A copy of the row-major triples (``rows``, ``cols``, ``vals``) of an
    m-row matrix, reordered slot-major: the first triple of every row,
    then the second of every row, and so on, each row's triples in column
    order.  One stable sort, by rank within the row."""
    counts = np.bincount(rows, minlength=m)
    slots = np.argsort(np.arange(rows.size) - (np.cumsum(counts) - counts)[rows], kind="stable")
    return _read_only((rows[slots], cols[slots], vals[slots]))


def _slot_orders(rows, cols, vals, shape):
    """The two orders of an m x n matrix's row-major triples that its
    segment sums read: the slot-major copy by rows (rows, cols, vals) for
    the sums by rows, and the triples themselves as (cols, rows, vals) for
    the sums by columns, where consecutive terms already go to different
    columns."""
    return _slot_major(rows, cols, vals, shape[0]), (cols, rows, vals)


def _products(orders, shape, dense):
    """(M x, M^T W) of the m x n matrix M: ``ndarray.dot`` of the ``dense``
    M and of a C-contiguous copy of M^T, or segment sums over M's two
    ``orders`` (:func:`_slot_orders`) when ``dense`` is None.  An M with
    no nonzeros gets fresh float zeros instead, as bincount counts an
    empty input in int64."""
    if dense is not None:
        return dense.dot, np.ascontiguousarray(dense.T).dot
    by_rows, by_cols = orders
    if not by_rows[2].size:
        m, n = shape
        return (lambda x: np.zeros(m)), (lambda w: np.zeros(n))
    return partial(_segment_sum, *by_rows, shape[0]), partial(_segment_sum, *by_cols, shape[1])


class ConstraintTerms:
    """Separable constraint rows g_k(x) = A_k.x + Qc_k.x^2 - U_k.log(1+x) - b_k.

    Each part, A and the ``quad`` Qc and ``neglog1p`` U when given, is
    kept once, as read-only (row, col, value) triples of its nonzeros in
    row-major order, and these terms alone know how.  An absent Qc or U
    stays ``None``, and an all-zero one is never scanned.  A's density
    picks one product route for every part, once, at construction: when
    32 * nnz(A) < m * n the products are :func:`_segment_sum` over each
    part's two orders (:func:`_slot_orders`): a slot-major copy of its
    triples by rows for M x, the row-major triples by columns for M^T W.
    Both add every entry's terms in the order of the row-major triples;
    A's orders, kept as ``_orders``, also feed its certified norm.  Else
    the products are ``ndarray.dot`` of dense arrays built then from the
    triples and of C-contiguous copies of their transposes.  The terms
    bind ``matvec`` (A x) and ``rmatvec`` (A^T W), ``quad_matvec`` and
    ``quad_rmatvec`` (Qc x, Qc^T W), ``nl_matvec`` (U x) and
    ``nl_rmatvec`` (U^T W on the log1p columns ``nl_cols``), a part's
    None when it has no nonzero, and give A's norms.  On the segment-sum
    route the dense ``lin``, ``quad`` and ``neglog1p`` are built on first
    read (by the Jacobian, for one).  :meth:`as_segment_sums` gives the
    same rows on that route whatever A's density.
    """

    def __init__(self, lin, offset, quad=None, neglog1p=None):
        lin = np.atleast_2d(np.asarray(lin, dtype=float))
        parts = [None if a is None else np.asarray(a, dtype=float) for a in (quad, neglog1p)]
        if any(a.shape != lin.shape for a in parts if a is not None):
            raise ValueError("quad/neglog1p must match the linear part's shape")
        self._init(lin.shape, offset, *(None if a is None else _nonzeros(a) for a in (lin, *parts)))

    @classmethod
    def from_triples(cls, rows, cols, vals, shape, offset, neglog1p=None):
        """Linear rows A x - offset, from the nonzeros ``vals`` of the m x n
        matrix A at (``rows``, ``cols``), each position once, in any order,
        minus U log(1+x) when ``neglog1p`` gives U's nonzeros the same way,
        as (rows, cols, vals).  The triples are kept in row-major order, the
        order of a scan of the dense matrix."""
        def row_major(rows, cols, vals):
            order = np.argsort(rows * shape[1] + cols)
            return rows[order], cols[order], vals[order]

        terms = cls.__new__(cls)
        terms._init(shape, offset, row_major(rows, cols, vals), None,
                    None if neglog1p is None else row_major(*neglog1p))
        return terms

    def _init(self, shape, offset, lin, quad, neglog1p, dense=None):
        """The one initializer, from the row-major triples of A and of the
        Qc and U given (None for one not given); ``dense`` picks the
        product route, by A's density when None."""
        m, n = shape
        self.shape = shape
        self.offset = _vector(offset, m, name="offset")
        if not all((part[2] >= 0).all() for part in (quad, neglog1p) if part is not None):
            raise ConfigurationError("quad and neglog1p coefficients must be nonnegative")
        self._parts = tuple(map(_read_only, (lin, quad, neglog1p)))
        if dense is None:
            dense = not _sparse(lin[2].size, m, n)
        # A's orders stay for its norms; Qc's and U's live in their products
        self._orders = None if dense else _slot_orders(*lin, shape)
        self.matvec, self.rmatvec = _products(self._orders, shape, self.lin if dense else None)
        self.quad_matvec = self.quad_rmatvec = self.nl_matvec = self.nl_rmatvec = None
        if quad is not None and quad[2].size:
            self.quad_matvec, self.quad_rmatvec = _products(
                None if dense else _slot_orders(*quad, shape), shape, self.quad if dense else None)
        self.nl_cols = (np.empty(0, np.intp) if neglog1p is None
                        else np.flatnonzero(np.bincount(neglog1p[1], minlength=n)))
        if self.nl_cols.size:
            # U^T W on the log1p columns: the products of U's columns there,
            # renumbered in order
            if dense:
                self.nl_matvec = self.neglog1p.dot
                self.nl_rmatvec = np.ascontiguousarray(self.neglog1p[:, self.nl_cols].T).dot
            else:
                by_rows, (cols, rows, vals) = _slot_orders(*neglog1p, shape)
                used = (by_rows, (np.searchsorted(self.nl_cols, cols), rows, vals))
                self.nl_matvec, self.nl_rmatvec = _products(used, (m, self.nl_cols.size), None)

    def _dense_part(self, i):
        part = self._parts[i]
        return None if part is None else _dense(*part, self.shape)

    # the dense A, Qc and U (None when absent), built from the triples on
    # first read: at construction on the ndarray.dot route
    lin = cached_property(lambda self: self._dense_part(0))
    quad = cached_property(lambda self: self._dense_part(1))
    neglog1p = cached_property(lambda self: self._dense_part(2))

    @property
    def _segment_sums(self):
        """True when the products are segment sums over the triples."""
        return self._orders is not None

    def as_segment_sums(self):
        """These rows with every product a segment sum over the triples:
        ``self`` on that route, else terms that share the read-only triples
        and the offset, so that each row and each column adds its terms
        in the order of the row-major triples on any BLAS kernel."""
        if self._segment_sums:
            return self
        terms = ConstraintTerms.__new__(ConstraintTerms)
        terms._init(self.shape, self.offset, *self._parts, dense=False)
        return terms

    @property
    def is_linear(self):
        return self.quad_matvec is None and self.nl_matvec is None

    def spectral_norm(self):
        """sigma_max(A) of a finite A, as :func:`spectral_norm` gives it.
        On the segment-sum route it is the certified bound of
        :func:`_certified_norm` on A's two orders, or, when none is found,
        the eigenvalue of the Gram matrix of a dense A built for the
        purpose and not kept."""
        if not self._segment_sums:
            return _gram_norm(self.lin)
        bound = _certified_norm(*self._orders, self.shape)
        if bound is None:
            return _gram_norm(_dense(*self._parts[0], self.shape))
        return bound

    def unsigned_spectral_norm(self):
        """:meth:`spectral_norm` of an A that negating some rows and
        columns turns into |A|, whose singular values it shares.  On the
        segment-sum route it is the certified bound on sigma_max(|A|),
        which needs no signed iterate and for such an A equals the signed
        route's value bit for bit.  For any other A it is still an upper
        bound on sigma_max(A), which never exceeds sigma_max(|A|)."""
        if self._segment_sums:
            by_rows, by_cols = ((out, into, np.abs(vals)) for out, into, vals in self._orders)
            bound = _certified_norm(by_rows, by_cols, self.shape)
            if bound is not None:
                return bound
        return self.spectral_norm()

    def frobenius_norm(self):
        """||A||_F, from the values of A's triples."""
        return float(np.linalg.norm(self._parts[0][2]))

    def values(self, x):
        g = self.matvec(x) - self.offset
        if self.quad_matvec is not None:
            g = g + self.quad_matvec(x * x)
        if self.nl_matvec is not None:
            g = g - self.nl_matvec(np.log1p(x))
        return g

    def jacobian(self, x):
        jac = self.lin.copy()
        if self.quad_matvec is not None:
            jac += 2.0 * self.quad * x[None, :]
        if self.nl_matvec is not None:
            jac -= self.neglog1p / (1.0 + x)[None, :]
        return jac


class ConvexProgram:
    """Objective/constraint oracles over a box, plus separable descriptors.

    Parameters
    ----------
    n, m : int
        Decision dimension and number of inequality constraints.
    box : BoxSet
        Feasible box.
    objective, objective_grad : callable
        ``f(x) -> float`` and a subgradient ``x -> (n,) array``.
    constraints, constraint_jac : callable
        ``g(x) -> (m,) array`` and its subgradient rows ``x -> (m, n)``.
    objective_terms, constraint_terms : optional
        Separable descriptors enabling closed-form primal oracles.
    beta_hint : float, optional
        Lipschitz modulus of the stacked constraint map g on the box.
    """

    def __init__(self, n, m, box, objective, objective_grad, constraints,
                 constraint_jac, objective_terms=None, constraint_terms=None,
                 beta_hint=None):
        if box.dim != n:
            raise ValueError(f"box dimension {box.dim} != n = {n}")
        self.n = int(n)
        self.m = int(m)
        self.box = box
        self._f = objective
        self._f_grad = objective_grad
        self._g = constraints
        self._g_jac = constraint_jac
        self.objective_terms = objective_terms
        self.constraint_terms = constraint_terms
        self.beta_hint = None if beta_hint is None else float(beta_hint)
        # (f, g) evaluators whose results need no conversion or shape check
        self._direct = None

    @classmethod
    def from_terms(cls, objective_terms, constraint_terms, box, beta_hint=None):
        """Assemble a program from separable descriptors."""
        n = objective_terms.dim
        m, nc = constraint_terms.shape
        if nc != n:
            raise ValueError(f"constraint terms have {nc} columns, expected {n}")
        program = cls(
            n, m, box,
            objective_terms.value, objective_terms.gradient,
            constraint_terms.values, constraint_terms.jacobian,
            objective_terms=objective_terms,
            constraint_terms=constraint_terms,
            beta_hint=beta_hint,
        )
        # the terms return a float and a fresh (m,) float array
        program._direct = (objective_terms.value, constraint_terms.values)
        return program

    def objective_value(self, x):
        return float(self._f(x))

    def objective_subgradient(self, x):
        return np.asarray(self._f_grad(x), dtype=float)

    def constraint_values(self, x):
        # a copy: the solver keeps g by reference across steps, and a
        # user's evaluator may hand back one buffer each call
        g = np.array(self._g(x), dtype=float)
        if g.shape != (self.m,):
            raise ValueError(f"constraint evaluator returned shape {g.shape}, expected ({self.m},)")
        return g

    def constraint_jacobian(self, x):
        jac = np.asarray(self._g_jac(x), dtype=float)
        if jac.shape != (self.m, self.n):
            raise ValueError(f"constraint jacobian has shape {jac.shape}, expected ({self.m}, {self.n})")
        return jac

    @property
    def separable(self):
        return self.objective_terms is not None and self.constraint_terms is not None


def evaluate(program, x):
    """Evaluate objective and constraints at ``x``; pure, no side effects.

    Returns
    -------
    (f, g) : float and (m,) array
    """
    if x.__class__ is not np.ndarray or x.dtype is not _FLOAT or x.shape != (program.n,):
        x = _vector(x, program.n, name="x")
    direct = program._direct
    if direct is None:
        return program.objective_value(x), program.constraint_values(x)
    return direct[0](x), direct[1](x)


def _all_finite(v, screen=math.nan):
    """True when every entry of the vector ``v`` is finite.

    ``screen`` is a sum of products of v's entries that the caller already
    has or gets in one call.  ``v.dot(zeros)`` is finite exactly when every
    entry is (a finite entry times 0 is +-0, inf*0 and NaN*0 are NaN) and
    never overflows; numpy warns "invalid value encountered in dot" on an
    infinite entry, which fails the test anyway.  ``v.dot(v)`` is finite
    only when every entry is, but overflows on a finite entry above 1e154.
    A finite screen settles the test; otherwise the exact mask decides.

    Per-step tests use the cheapest exact numpy entry point.  On 12
    entries (timeit, best of 7, 2 vCPUs, numpy 2.4): ``math.isfinite`` of
    ``v.dot(zeros)`` 0.56 us, ``np.count_nonzero`` of the ``np.isfinite``
    mask 0.97 us, ``np.logical_and.reduce`` 1.68 us, ``.all()`` 2.2 us;
    ``v.dot(w)`` 0.75 us against 1.34 us for ``v @ w`` (the matmul
    gufunc, same bits); entering and leaving ``np.errstate`` 2.2 us, so
    ``CoordinateTerms.value`` enters it only at a log coordinate that is
    exactly 0.
    """
    return math.isfinite(screen) or np.count_nonzero(np.isfinite(v)) == v.shape[0]


def _selector(idx):
    """The sorted index array ``idx`` as a slice when it is one contiguous
    run, else ``idx`` itself: ``a[sel]`` is then a view instead of a
    gather, and ``a[sel] = b`` writes the same entries either way."""
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def spectral_norm(A):
    """sigma_max(A), the largest singular value of a finite matrix.

    A's rows as :class:`ConstraintTerms` give it.  A dense A gives the
    square root of the largest eigenvalue of its smaller Gram matrix (A A^T
    or A^T A), from a symmetric eigensolver: exact up to rounding, unlike
    an iterative estimate that approaches sigma_max from below.  When
    32 * nnz(A) < m * n the value comes from A's nonzeros
    (:func:`_certified_norm`): a certified upper bound within a relative
    1e-12 of sigma_max^2, or else the same Gram eigenvalue.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    terms = ConstraintTerms(A, np.zeros(A.shape[0]))
    if not np.isfinite(terms._parts[0][2]).all():  # NaN and +-inf are nonzero
        raise ValueError("matrix entries must be finite")
    return terms.spectral_norm()


def _gram_norm(A):
    gram = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.sqrt(np.linalg.eigvalsh(gram).max(initial=0.0)))


def _certified_norm(by_rows, by_cols, shape):
    """An upper bound on sigma_max of the m x n matrix A whose finite
    nonzeros ``by_rows`` and ``by_cols`` hold in the two orders of
    :func:`_slot_orders`, within a relative 1e-12 of sigma_max^2 (0 when A
    has no nonzeros), or None when none is found in 64 power steps.

    For every matrix sigma_max(A) <= sigma_max(|A|), and for a positive
    v the Collatz-Wielandt formula bounds the Perron root of the
    nonnegative M = |A||A|^T: rho(M) <= max_i (M v)_i / v_i (Horn &
    Johnson, *Matrix Analysis*, 2nd ed., ch. 8).  Power steps on M from
    v = 1 make that bound tight.  The same steps on the signed A A^T give
    u, whose Rayleigh quotient ||A^T u||^2 / ||u||^2 is a lower bound on
    sigma_max^2; the upper bound is taken once it is within 1e-12 of it
    (relative).  When A has a negative entry, v and u are one vector of
    length 2m, and a step is two bincounts over the triples and their
    signed twins.  When A >= 0, u would repeat v bit for bit, so the
    iterate is v alone, of length m, and gives both bounds: the same
    result from half the work.  The sums by rows read the slot-major copy
    and those by columns the row-major triples, in either orientation, so
    each adds in the order of the row-major triples; the empty-row drop,
    the swap that iterates on the shorter side and the signed twin act on
    both orders alike (the twin's entries go to entries of their own).

    Rounding is allowed for outward.  Every term of M v is nonnegative,
    so the computed (M v)_i is at least (1 - gamma_k) times the exact one,
    k the largest row count plus the largest column count of nonzeros;
    the factor 1 + (k + 4) eps covers that, the division and the product,
    and ``math.nextafter`` covers the square root.

    The analysis needs every product clear of underflow and overflow:
    the entries' magnitudes, and v's entries against its largest, stay
    within 2^-256..2^256.  Empty rows on the iterated side add zero rows
    and columns to M and are dropped first.  The result is None when the
    entries or v leave that range, when u vanishes, or when the bounds
    stay apart: mixed signs that |A| does not preserve, or slow
    convergence.
    """
    m, n = shape
    if m > n:  # iterate on the shorter side
        by_rows, by_cols, m, n = by_cols, by_rows, n, m
    # (rows, cols) bins by the iterated side, (cols_t, rows_t) by the other
    (rows, cols, vals), (cols_t, rows_t, vals_t) = by_rows, by_cols
    if not vals.size:
        return 0.0
    mags, mags_t = np.abs(vals), np.abs(vals_t)
    if not (mags.min() >= _BOUND_RANGE ** -1 and mags.max() <= _BOUND_RANGE):
        return None
    counts = np.bincount(rows, minlength=m)
    if not counts.min() > 0:
        used = np.flatnonzero(counts)
        rows, rows_t = np.searchsorted(used, rows), np.searchsorted(used, rows_t)
        counts, m = counts[used], used.size
    k = int(counts.max()) + int(np.bincount(cols).max())
    slack = 1.0 + (k + 4) * np.finfo(float).eps
    # u starts at x[hm:] and A^T u at w[hn:]: after v when A has a negative
    # entry, else they are v and |A|^T v themselves
    hm, hn = (m, n) if (vals < 0).any() else (0, 0)
    if hm:
        rows, rows_t = np.concatenate([rows, rows + m]), np.concatenate([rows_t, rows_t + m])
        cols, cols_t = np.concatenate([cols, cols + n]), np.concatenate([cols_t, cols_t + n])
        mags, mags_t = np.concatenate([mags, vals]), np.concatenate([mags_t, vals_t])
    x = np.ones(m + hm)  # each iterate scaled to a largest entry of 1
    for _ in range(_BOUND_STEPS):
        w = np.bincount(cols_t, mags_t * x[rows_t], n + hn)
        y = np.bincount(rows, mags * w[cols], m + hm)
        upper = float((y[:m] / x[:m]).max()) * slack
        lower = float(w[hn:].dot(w[hn:])) / float(x[hm:].dot(x[hm:]))
        if upper <= lower * (1.0 + _BOUND_GAP):
            return math.nextafter(math.sqrt(upper), math.inf)
        top = np.abs(y[hm:]).max()
        if not top > 0:
            return None
        if hm:
            y[:m] /= y[:m].max()
        y[hm:] /= top
        x = y
        if not x[:m].min() >= _BOUND_RANGE ** -1:
            return None
    return None


_OBJECTIVE_KINDS = ("linear", "diag-quadratic", "neg-log-utility")


def load_program(source):
    """Build a ConvexProgram from a JSON problem description.

    ``source`` may be a path to a JSON file or its already-parsed content,
    a dict with fields::

        {"n": int, "m": int,
         "box": {"lo": [...], "hi": [...]},
         "linear": {"A": [[...], ...], "b": [...]},
         "objective": {"kind": "linear", "c": [...]}
                    | {"kind": "diag-quadratic", "p": [...], "c": [...]}
                    | {"kind": "neg-log-utility", "weights": [...]}}

    Scalars are broadcast over box bounds, and ``linear.A`` may be ``[]``
    when m = 0.  A file that cannot be read or is not JSON, a missing or
    mistyped field, or a non-finite entry of A, b, c, p or the weights,
    raises ConfigurationError.
    """
    spec = _read_json(source, "problem file")

    def finite(value, length, name):
        v = _vector(value, length, name)
        if not np.all(np.isfinite(v)):
            raise ConfigurationError(f"{name} must be finite")
        return v

    with _input_errors("problem file"):
        n = int(spec["n"])
        m = int(spec["m"])
        box = BoxSet(_vector(spec["box"]["lo"], n, "box.lo"),
                     _vector(spec["box"]["hi"], n, "box.hi"))
        A = np.asarray(spec["linear"]["A"], dtype=float)
        b = finite(spec["linear"]["b"], m, "linear.b")
        obj = spec["objective"]
        kind = obj["kind"]
        if kind == "linear":
            terms = CoordinateTerms.linear(finite(obj["c"], n, "objective.c"))
        elif kind == "diag-quadratic":
            terms = CoordinateTerms(finite(obj["p"], n, "objective.p"),
                                    finite(obj["c"], n, "objective.c"), np.zeros(n))
        elif kind == "neg-log-utility":
            terms = CoordinateTerms(np.zeros(n), np.zeros(n),
                                    finite(obj["weights"], n, "objective.weights"))
        else:
            raise ConfigurationError(
                f"unknown objective kind {kind!r}; expected one of {_OBJECTIVE_KINDS}")
    if m == 0 and A.shape == (0,):  # JSON writes a (0, n) matrix as []
        A = A.reshape(0, n)
    if A.shape != (m, n):
        raise ConfigurationError(f"linear.A has shape {A.shape}, expected ({m}, {n})")
    if not np.isfinite(A).all():
        raise ConfigurationError("linear.A must be finite")
    cons = ConstraintTerms(A, b)
    return ConvexProgram.from_terms(terms, cons, box, beta_hint=cons.spectral_norm())
