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

Only :class:`ConstraintTerms` knows how A is stored.  An A with fewer
than one nonzero in 32 entries (large flow networks; not fig1 or the QP) is
also kept as nonzero triples, and A x and A^T W become segment sums over
them: a bincount entry costs about 5.5 ns and a dense BLAS entry 0.21 ns
(2 vCPUs, numpy 2.4), a ratio of 26, and 32 keeps a margin.

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


# A x and A^T W run on nonzero triples when 32 * nnz < m * n (module docstring)
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
    the triples with ``out`` i: A x from (rows, cols) and A^T W from (cols,
    rows).  bincount adds in input order, so on row-major triples each
    column's sum runs down its rows as a column-sorted copy would;
    ``np.add.reduceat`` would give an empty row a neighbour's value."""
    return np.bincount(out, vals * v[into], size)


class ConstraintTerms:
    """Separable constraint rows g_k(x) = A_k.x + Qc_k.x^2 - U_k.log(1+x) - b_k.

    An absent ``quad`` or ``neglog1p`` stays ``None``, and an all-zero one
    is never scanned.  These terms alone know how A is stored: they bind
    ``matvec`` (A x) and ``rmatvec`` (A^T W) once, at construction, and
    give A's norms.  A dense A gives ``ndarray.dot`` of A and of a
    C-contiguous copy of A^T.  When 32 * nnz(A) < m * n, A is also kept as
    read-only (row, col, value) triples in row-major order, and both
    products are :func:`_segment_sum` over them.  Linear rows built
    :meth:`from_triples` hold no dense ``lin`` until it is read (by the
    Jacobian, for one).
    """

    def __init__(self, lin, offset, quad=None, neglog1p=None):
        lin = np.atleast_2d(np.asarray(lin, dtype=float))
        m, n = lin.shape
        flat = lin.ravel()
        nz = np.flatnonzero(flat != 0)  # 5x faster than np.flatnonzero(lin) at 1e6 entries
        triples = (*np.divmod(nz, n), flat[nz]) if _sparse(nz.size, m, n) else None
        self._init((m, n), offset, lin, triples, quad, neglog1p)

    @classmethod
    def from_triples(cls, rows, cols, vals, shape, offset):
        """Linear rows A x - offset, from the nonzeros ``vals`` of the m x n
        matrix A at (``rows``, ``cols``), each position once, in any order.
        The triples are kept in row-major order, the order of a scan of the
        dense A; an A too dense for triples is built at once."""
        m, n = shape
        terms = cls.__new__(cls)
        if _sparse(vals.size, m, n):
            order = np.argsort(rows * n + cols)
            terms._init((m, n), offset, None, (rows[order], cols[order], vals[order]))
        else:
            terms._init((m, n), offset, _dense(rows, cols, vals, shape), None)
        return terms

    def _init(self, shape, offset, lin, triples, quad=None, neglog1p=None):
        """The one initializer: A comes as the dense ``lin``, as row-major
        ``triples``, or as both; the products use the triples when given."""
        m, n = shape
        offset = _vector(offset, m, name="offset")
        quad = None if quad is None else np.asarray(quad, dtype=float)
        nl = None if neglog1p is None else np.asarray(neglog1p, dtype=float)
        given = [a for a in (quad, nl) if a is not None]
        if any(a.shape != shape for a in given):
            raise ValueError("quad/neglog1p must match the linear part's shape")
        if not all(np.all(a >= 0) for a in given):
            raise ConfigurationError("quad and neglog1p coefficients must be nonnegative")
        self.shape = shape
        self.offset = offset
        self.quad = quad
        self.neglog1p = nl
        self._has_quad = quad is not None and bool(quad.any())
        self._has_nl = nl is not None and bool(nl.any())
        self._triples = _read_only(triples)
        if lin is not None:
            self.lin = lin
        if triples is None:
            self.matvec, self.rmatvec = lin.dot, np.ascontiguousarray(lin.T).dot
        else:
            rows, cols, vals = triples
            self.matvec = partial(_segment_sum, rows, cols, vals, m)
            self.rmatvec = partial(_segment_sum, cols, rows, vals, n)

    @cached_property
    def lin(self):
        """The dense A of rows built from triples, built on first read."""
        return _dense(*self._triples, self.shape)

    @property
    def is_linear(self):
        return not (self._has_quad or self._has_nl)

    def spectral_norm(self):
        """sigma_max(A) of a finite A, as :func:`spectral_norm` gives it,
        from the triples when A is kept as triples."""
        if self._triples is None:
            return _gram_norm(self.lin)
        return _sparse_norm(*self._triples, self.shape)

    def unsigned_spectral_norm(self):
        """:meth:`spectral_norm` of an A that negating some rows and
        columns turns into |A|, whose singular values it shares.  From
        triples it is the certified bound on sigma_max(|A|), which needs no
        signed iterate and for such an A equals the signed route's value
        bit for bit.  For any other A it is still an upper bound on
        sigma_max(A), which never exceeds sigma_max(|A|)."""
        if self._triples is not None:
            rows, cols, vals = self._triples
            bound = _certified_norm(rows, cols, np.abs(vals), self.shape)
            if bound is not None:
                return bound
        return self.spectral_norm()

    def frobenius_norm(self):
        """||A||_F, from the triples' values when A is kept as triples."""
        return float(np.linalg.norm(self.lin if self._triples is None else self._triples[2]))

    def values(self, x):
        g = self.matvec(x) - self.offset
        if self._has_quad:
            g = g + self.quad.dot(x * x)
        if self._has_nl:
            g = g - self.neglog1p.dot(np.log1p(x))
        return g

    def jacobian(self, x):
        jac = self.lin.copy()
        if self._has_quad:
            jac += 2.0 * self.quad * x[None, :]
        if self._has_nl:
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

    A dense A gives the square root of the largest eigenvalue of its
    smaller Gram matrix (A A^T or A^T A), from a symmetric eigensolver:
    exact up to rounding, unlike an iterative estimate that approaches
    sigma_max from below.  When 32 * nnz(A) < m * n the value comes from
    A's nonzeros (:func:`_sparse_norm`): a certified upper bound within
    a relative 1e-12 of sigma_max^2, or else the same Gram eigenvalue.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    m, n = A.shape
    flat = A.ravel()
    nz = np.flatnonzero(flat != 0)  # NaN and +-inf are nonzero
    vals = flat[nz]
    if not np.isfinite(vals).all():
        raise ValueError("matrix entries must be finite")
    if _sparse(nz.size, m, n):
        return _sparse_norm(*np.divmod(nz, n), vals, (m, n))
    return _gram_norm(A)


def _gram_norm(A):
    gram = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.sqrt(np.linalg.eigvalsh(gram).max(initial=0.0)))


def _sparse_norm(rows, cols, vals, shape):
    """sigma_max of the m x n matrix with the finite nonzeros ``vals`` at
    (``rows``, ``cols``) in row-major order.

    The certified bound of :func:`_certified_norm` when it holds, else
    the eigenvalue of the dense Gram matrix.  A nonnegative matrix needs
    no signed iterate, so its bound costs half the work of a mixed-sign
    one; a flow network's A gets its bound from |A|
    (:meth:`ConstraintTerms.unsigned_spectral_norm`).
    """
    bound = _certified_norm(rows, cols, vals, shape)
    if bound is not None:
        return bound
    return _gram_norm(_dense(rows, cols, vals, shape))


def _certified_norm(rows, cols, vals, shape):
    """An upper bound on sigma_max within a relative 1e-12 of
    sigma_max^2 (0 when A has no nonzeros), or None when none is found in
    64 power steps.

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
    result from half the work.

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
    if not vals.size:
        return 0.0
    m, n = shape
    if m > n:  # iterate on the shorter side
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
    # u starts at x[hm:] and A^T u at w[hn:]: after v when A has a negative
    # entry, else they are v and |A|^T v themselves
    hm, hn = (m, n) if (vals < 0).any() else (0, 0)
    if hm:
        rows, cols = np.concatenate([rows, rows + m]), np.concatenate([cols, cols + n])
        mags = np.concatenate([mags, vals])
    x = np.ones(m + hm)  # each iterate scaled to a largest entry of 1
    for _ in range(_BOUND_STEPS):
        w = np.bincount(cols, mags * x[rows], n + hn)
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
