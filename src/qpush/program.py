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
"""

import json
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
        v = float(self.lin @ x) if self._has_lin else 0.0
        if self._has_quad:
            v += float(self.quad @ (x * x))
        idx = self._log_idx
        if idx.size:
            with np.errstate(divide="ignore"):
                v -= float(self._log_w @ np.log(x[idx]))
        return v

    def gradient(self, x):
        grad = 2.0 * self.quad * x + self.lin
        idx = self._log_idx
        if idx.size:
            grad[idx] -= self.log_weight[idx] / x[idx]
        return grad


@dataclass(frozen=True)
class ConstraintTerms:
    """Separable constraint rows g_k(x) = A_k.x + Qc_k.x^2 - U_k.log(1+x) - b_k."""

    lin: np.ndarray
    offset: np.ndarray
    quad: np.ndarray = None
    neglog1p: np.ndarray = None

    def __post_init__(self):
        lin = np.atleast_2d(np.asarray(self.lin, dtype=float))
        m, n = lin.shape
        offset = _vector(self.offset, m, name="offset")
        quad = self.quad
        nl = self.neglog1p
        quad = np.zeros((m, n)) if quad is None else np.asarray(quad, dtype=float)
        nl = np.zeros((m, n)) if nl is None else np.asarray(nl, dtype=float)
        if quad.shape != (m, n) or nl.shape != (m, n):
            raise ValueError("quad/neglog1p must match the linear part's shape")
        if np.any(quad < 0) or np.any(nl < 0):
            raise ConfigurationError("quad and neglog1p coefficients must be nonnegative")
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "neglog1p", nl)
        object.__setattr__(self, "_has_quad", bool(quad.any()))
        object.__setattr__(self, "_has_nl", bool(nl.any()))

    @property
    def shape(self):
        return self.lin.shape

    @property
    def is_linear(self):
        return not (self._has_quad or self._has_nl)

    def values(self, x):
        g = self.lin @ x - self.offset
        if self._has_quad:
            g = g + self.quad @ (x * x)
        if self._has_nl:
            g = g - self.neglog1p @ np.log1p(x)
        return g

    def jacobian(self, x):
        jac = self.lin.copy()
        if self._has_quad:
            jac += 2.0 * self.quad * x[None, :]
        if self._has_nl:
            jac -= self.neglog1p / (1.0 + x)[None, :]
        return jac


class ConvexProgram:
    """Objective/constraint oracles over a box, plus structure tags.

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
    structure : str
        One of ``"general"``, ``"linear"`` (g(x) = A x - b exactly),
        ``"separable-quadratic"`` or ``"separable"``.
    objective_terms, constraint_terms : optional
        Separable descriptors enabling closed-form primal oracles.
    beta_hint : float, optional
        Lipschitz modulus of the stacked constraint map g on the box.
    """

    def __init__(self, n, m, box, objective, objective_grad, constraints,
                 constraint_jac, structure="general", objective_terms=None,
                 constraint_terms=None, beta_hint=None):
        if box.dim != n:
            raise ValueError(f"box dimension {box.dim} != n = {n}")
        self.n = int(n)
        self.m = int(m)
        self.box = box
        self._f = objective
        self._f_grad = objective_grad
        self._g = constraints
        self._g_jac = constraint_jac
        self.structure = structure
        self.objective_terms = objective_terms
        self.constraint_terms = constraint_terms
        self.beta_hint = None if beta_hint is None else float(beta_hint)
        if structure == "linear":
            if constraint_terms is None or not constraint_terms.is_linear:
                raise ConfigurationError("linear structure requires linear constraint terms")

    @classmethod
    def from_terms(cls, objective_terms, constraint_terms, box, beta_hint=None):
        """Assemble a program from separable descriptors; infers the tag."""
        n = objective_terms.dim
        m, nc = constraint_terms.shape
        if nc != n:
            raise ValueError(f"constraint terms have {nc} columns, expected {n}")
        if constraint_terms.is_linear:
            structure = "linear"
        elif not constraint_terms.neglog1p.any():
            structure = "separable-quadratic"
        else:
            structure = "separable"
        return cls(
            n, m, box,
            objective_terms.value, objective_terms.gradient,
            constraint_terms.values, constraint_terms.jacobian,
            structure=structure,
            objective_terms=objective_terms,
            constraint_terms=constraint_terms,
            beta_hint=beta_hint,
        )

    @classmethod
    def general(cls, n, m, box, objective, objective_grad, constraints,
                constraint_jac, beta_hint=None):
        return cls(n, m, box, objective, objective_grad, constraints,
                   constraint_jac, structure="general", beta_hint=beta_hint)

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
        g = np.asarray(self._g(x), dtype=float)
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
    x = _vector(x, program.n, name="x")
    return program.objective_value(x), program.constraint_values(x)


def spectral_norm(A):
    """sigma_max(A), the largest singular value of a finite matrix.

    The square root of the largest eigenvalue of the smaller Gram matrix
    (A A^T or A^T A), from a symmetric eigensolver: exact up to rounding,
    unlike an iterative estimate that approaches sigma_max from below.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    if not A.any():
        return 0.0
    gram = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


_OBJECTIVE_KINDS = ("linear", "diag-quadratic", "neg-log-utility")


def load_program(source):
    """Build a ConvexProgram from a JSON problem description.

    ``source`` may be a path to a JSON file or an already-parsed dict with
    fields::

        {"n": int, "m": int,
         "box": {"lo": [...], "hi": [...]},
         "linear": {"A": [[...], ...], "b": [...]},
         "objective": {"kind": "linear", "c": [...]}
                    | {"kind": "diag-quadratic", "p": [...], "c": [...]}
                    | {"kind": "neg-log-utility", "weights": [...]}}

    Scalars are broadcast over box bounds.
    """
    if isinstance(source, dict):
        spec = source
    else:
        with open(source) as fh:
            spec = json.load(fh)
    try:
        n = int(spec["n"])
        m = int(spec["m"])
        box = BoxSet(_vector(spec["box"]["lo"], n, "box.lo"),
                     _vector(spec["box"]["hi"], n, "box.hi"))
        A = np.asarray(spec["linear"]["A"], dtype=float)
        b = _vector(spec["linear"]["b"], m, "linear.b")
        obj = spec["objective"]
        kind = obj["kind"]
    except KeyError as exc:
        raise ConfigurationError(f"problem file missing field: {exc}") from exc
    if A.shape != (m, n):
        raise ConfigurationError(f"linear.A has shape {A.shape}, expected ({m}, {n})")
    if kind == "linear":
        terms = CoordinateTerms.linear(_vector(obj["c"], n, "objective.c"))
    elif kind == "diag-quadratic":
        terms = CoordinateTerms(_vector(obj["p"], n, "objective.p"),
                                _vector(obj["c"], n, "objective.c"),
                                np.zeros(n))
    elif kind == "neg-log-utility":
        terms = CoordinateTerms(np.zeros(n), np.zeros(n),
                                _vector(obj["weights"], n, "objective.weights"))
    else:
        raise ConfigurationError(f"unknown objective kind {kind!r}; expected one of {_OBJECTIVE_KINDS}")
    cons = ConstraintTerms(A, b)
    beta = spectral_norm(A)
    return ConvexProgram.from_terms(terms, cons, box, beta_hint=beta)
