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

An A with fewer than one nonzero in 32 entries (large flow networks; not
fig1 or the QP) is also kept as nonzero triples, and A x and A^T W become
segment sums over them: a bincount entry costs about 5.5 ns and a dense BLAS
entry 0.21 ns (2 vCPUs, numpy 2.4), a ratio of 26, and 32 keeps a margin.

The same rule lets :func:`spectral_norm` build its Gram matrix from pairs of
nonzeros that share a column (or a row), unless the pairs cost more than the
dense product: a pair costs about 30 ns through repeat, gather, multiply and
``np.add.at``, and a multiply-add of the dense A A^T about 0.018 ns (700 x 1500
and 300 x 3000, 2 vCPUs, numpy 2.4, OpenBLAS), a ratio near 1700, and 2048
keeps a margin.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

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
# spectral_norm's Gram matrix comes from nonzero pairs when 2048 * pairs < s * s * l
_GRAM_RATIO = 2048
_FLOAT = np.dtype(float)


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
        if np.any(quad < 0) or np.any(logw < 0):
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


@dataclass(frozen=True)
class ConstraintTerms:
    """Separable constraint rows g_k(x) = A_k.x + Qc_k.x^2 - U_k.log(1+x) - b_k.

    An absent ``quad`` or ``neglog1p`` stays ``None``, and an all-zero one
    is never scanned.  When 32 * nnz(A) < m * n, A is also kept as read-only
    (row, col, value) triples in row-major order, and A x (here) and A^T W
    (in the oracle) are ``np.bincount`` segment sums over them.  bincount
    adds in input order, so each column's sum runs down its rows as a
    column-sorted copy would; ``np.add.reduceat`` would give an empty row
    a neighbour's value.  ``lin`` stays dense for the Jacobian and the norms.
    """

    lin: np.ndarray
    offset: np.ndarray
    quad: np.ndarray = None
    neglog1p: np.ndarray = None

    def __post_init__(self):
        lin = np.atleast_2d(np.asarray(self.lin, dtype=float))
        m, n = lin.shape
        offset = _vector(self.offset, m, name="offset")
        quad = None if self.quad is None else np.asarray(self.quad, dtype=float)
        nl = None if self.neglog1p is None else np.asarray(self.neglog1p, dtype=float)
        given = [a for a in (quad, nl) if a is not None]
        if any(a.shape != (m, n) for a in given):
            raise ValueError("quad/neglog1p must match the linear part's shape")
        if any(np.any(a < 0) for a in given):
            raise ConfigurationError("quad and neglog1p coefficients must be nonnegative")
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "neglog1p", nl)
        object.__setattr__(self, "_has_quad", quad is not None and bool(quad.any()))
        object.__setattr__(self, "_has_nl", nl is not None and bool(nl.any()))
        flat = lin.ravel()
        nz = np.flatnonzero(flat != 0)  # 5x faster than np.flatnonzero(lin) at 1e6 entries
        triples = None
        if _SPARSE_RATIO * nz.size < m * n:
            triples = (*np.divmod(nz, n), flat[nz])
            for a in triples:
                a.setflags(write=False)
        object.__setattr__(self, "_triples", triples)

    @property
    def shape(self):
        return self.lin.shape

    @property
    def is_linear(self):
        return not (self._has_quad or self._has_nl)

    def values(self, x):
        if self._triples is None:
            g = self.lin.dot(x) - self.offset
        else:
            rows, cols, vals = self._triples
            g = np.bincount(rows, vals * x[cols], self.offset.shape[0]) - self.offset
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

    @property
    def structure(self):
        """``"general"`` without constraint terms, else ``"linear"`` (g(x) =
        A x - b exactly), ``"separable-quadratic"`` or ``"separable"``."""
        terms = self.constraint_terms
        if terms is None:
            return "general"
        if terms.is_linear:
            return "linear"
        return "separable" if terms._has_nl else "separable-quadratic"

    @property
    def A(self):
        if self.structure != "linear":
            raise ConfigurationError("A is only defined for linear-constraint programs")
        return self.constraint_terms.lin

    @property
    def b(self):
        if self.structure != "linear":
            raise ConfigurationError("b is only defined for linear-constraint programs")
        return self.constraint_terms.offset

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

    The square root of the largest eigenvalue of the smaller Gram matrix
    (A A^T or A^T A), from a symmetric eigensolver: exact up to rounding,
    unlike an iterative estimate that approaches sigma_max from below.
    When 32 * nnz(A) < m * n and the products of nonzero pairs that share
    a long-side index are fewer than s * s * l / 2048 (s and l the short
    and long side), the Gram matrix is summed from those products
    instead of the dense product (module docstring).  On a 0/+-1 incidence
    matrix every Gram entry is an exact integer either way.
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
    if not nz.size:
        return 0.0
    gram = _pair_gram(nz, vals, m, n) if _SPARSE_RATIO * nz.size < m * n else None
    if gram is None:
        gram = A @ A.T if m <= n else A.T @ A
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def _pair_gram(nz, vals, m, n):
    """The smaller Gram matrix of the m x n matrix whose nonzeros ``vals``
    sit at the row-major flat indices ``nz``, or None when the dense
    product is cheaper.

    Entry (i, j) is the sum over long-side indices k of A_ik A_jk: the
    entries are grouped by k (a stable sort keeps each group in
    short-side order), every ordered pair inside a group adds its product
    to entry i * s + j, and ``np.add.at`` adds them in increasing k, so
    (i, j) and (j, i) get the same bits.  The sums go into a buffer that
    is written once first: ``np.bincount`` would add into a fresh
    calloc'd buffer, whose pages then fault twice, on the read and on the
    write (8 ms against 3 ms for the 700 x 700 Gram matrix of the
    net-large benchmark, 2 vCPUs).
    """
    rows, cols = np.divmod(nz, n)
    short, long_, s, l = (rows, cols, m, n) if m <= n else (cols, rows, n, m)
    h = np.bincount(long_, minlength=l)
    if _GRAM_RATIO * int(h.dot(h)) >= s * s * l:
        return None
    order = np.argsort(long_, kind="stable")
    short, vals, long_ = short[order], vals[order], long_[order]
    group = h[long_]
    # entry e pairs with its group's h entries: left repeats e, right runs
    # from the group's first position to its last
    first = np.cumsum(h)[long_] - group
    left = np.repeat(np.arange(nz.size), group)
    right = np.arange(left.size) - np.repeat(np.cumsum(group) - group - first, group)
    gram = np.empty(s * s)
    gram.fill(0.0)
    np.add.at(gram, short[left] * s + short[right], vals[left] * vals[right])
    return gram.reshape(s, s)


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

    Scalars are broadcast over box bounds.  A missing or mistyped field,
    or a non-finite entry of b, c, p or the weights, raises
    ConfigurationError.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source) as fh:
            spec = json.load(fh)
    else:
        spec = source

    def finite(value, length, name):
        v = _vector(value, length, name)
        if not np.all(np.isfinite(v)):
            raise ConfigurationError(f"{name} must be finite")
        return v

    try:
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
    except KeyError as exc:
        raise ConfigurationError(f"problem file missing field: {exc}") from exc
    except (TypeError, AttributeError, OverflowError) as exc:
        # a list or a scalar where an object belongs, an infinite or huge size
        raise ConfigurationError(f"malformed problem file: {exc}") from exc
    if A.shape != (m, n):
        raise ConfigurationError(f"linear.A has shape {A.shape}, expected ({m}, {n})")
    cons = ConstraintTerms(A, b)
    beta = spectral_norm(A)
    return ConvexProgram.from_terms(terms, cons, box, beta_hint=beta)
