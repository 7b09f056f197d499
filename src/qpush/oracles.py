"""Primal subproblem solvers.

Every iteration of the virtual-queue solver minimizes

    f(x) + W . g(x) + alpha ||x - x_prev||^2     over the box,

with nonnegative constraint weights W.  The prox term makes the
subproblem strongly convex with modulus 2*alpha, so the minimizer is
unique and no tie-breaking is ever needed.  When the program carries
separable descriptors the minimization splits into independent scalar
problems with exact solutions; otherwise a projected-gradient fallback
is used.  The separable solver also takes alpha = 0, the plain
Lagrangian of the dual subgradient baseline.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonConvergenceError, NumericalDomainError

__all__ = [
    "Subproblem",
    "solve_separable_quadratic",
    "solve_scalar_convex",
    "log_quadratic_minimizer",
    "log1p_quadratic_minimizer",
    "solve_projected_gradient",
    "SeparableOracle",
    "make_oracle",
]

# Boxes with lo = 0 on log-utility coordinates are read as the closure of
# the domain; the minimizer is interior for positive weight, so brackets
# start at this floor instead of 0.
LOG_DOMAIN_FLOOR = 1e-12

SCALAR_TOL = 1e-12


@dataclass
class Subproblem:
    """One penalized primal update: weights, prox center and strength."""

    program: object
    weights: np.ndarray
    x_prev: np.ndarray
    alpha: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.x_prev = np.asarray(self.x_prev, dtype=float)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.weights.shape != (self.program.m,):
            raise ValueError("weights length must equal the constraint count")
        if self.x_prev.shape != (self.program.n,):
            raise ValueError("x_prev length must equal the program dimension")

    def value(self, x):
        f = self.program.objective_value(x)
        g = self.program.constraint_values(x)
        d = x - self.x_prev
        return f + float(self.weights @ g) + self.alpha * float(d @ d)


def solve_separable_quadratic(a, b, lo, hi):
    """Exact minimizer of a*x^2 + b*x over [lo, hi] for a > 0."""
    if a <= 0:
        raise ValueError("quadratic coefficient must be positive")
    if lo > hi:
        raise ValueError("empty interval")
    return min(max(-b / (2.0 * a), lo), hi)


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


def log_quadratic_minimizer(a, b, w, lo, hi):
    """Exact minimizer of a*z^2 + b*z - w*log(z) over [lo, hi], a > 0, w >= 0.

    The stationarity condition 2a z^2 + b z - w = 0 has a single positive
    root; with w > 0 the minimizer is interior to the left endpoint.
    Vectorized over numpy inputs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    root = (-b + np.sqrt(b * b + 8.0 * a * w)) / (4.0 * a)
    return np.clip(root, np.maximum(lo, LOG_DOMAIN_FLOOR), hi)


def log1p_quadratic_minimizer(a, b, d, lo, hi):
    """Exact minimizer of a*z^2 + b*z - d*log(1+z) over [lo, hi] in [0, inf).

    Stationarity multiplies out to 2a z^2 + (2a+b) z + (b-d) = 0 whose
    discriminant (2a-b)^2 + 8ad is never negative; the larger root is the
    unique stationary point on (-1, inf).  Vectorized; uses the
    cancellation-free quadratic form when 2a+b > 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    s = 2.0 * a + b
    sq = np.sqrt((2.0 * a - b) ** 2 + 8.0 * a * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(s > 0, 2.0 * (d - b) / (s + sq), (sq - s) / (4.0 * a))
    return np.clip(root, lo, hi)


def _objective_curvature(program):
    terms = program.objective_terms
    if terms is None:
        return 0.0
    if terms.log_weight.any():
        raise ConfigurationError(
            "projected gradient does not handle log-barrier objectives; "
            "use the separable oracle")
    return 2.0 * float(terms.quad.max()) if terms.quad.size else 0.0


def solve_projected_gradient(sub, tol=1e-9, max_iter=10000):
    """Projected (sub)gradient descent fallback for general subproblems.

    Uses a fixed step 1/(2*alpha + L_est) with the crude curvature
    estimate L_est = ||W|| * beta + f-curvature, and stops when the
    projected-gradient mapping norm drops below ``tol``.
    """
    program = sub.program
    if program.beta_hint is None:
        raise ConfigurationError("projected gradient needs beta_hint on the program")
    alpha = sub.alpha
    box = program.box
    curv = 2.0 * alpha + float(np.linalg.norm(sub.weights)) * program.beta_hint
    curv += _objective_curvature(program)
    step = 1.0 / curv
    x = box.clamp(sub.x_prev)
    residual = np.inf
    for _ in range(max_iter):
        grad = (program.objective_subgradient(x)
                + program.constraint_jacobian(x).T @ sub.weights
                + 2.0 * alpha * (x - sub.x_prev))
        x_new = box.clamp(x - step * grad)
        residual = float(np.linalg.norm(x - x_new)) / step
        x = x_new
        if residual < tol:
            return x
    raise NonConvergenceError(
        f"projected gradient did not reach tol={tol} in {max_iter} iterations",
        iterate=x, residual=residual, iterations=max_iter)


class SeparableOracle:
    """Closed-form per-coordinate subproblem solver for separable programs.

    Coordinates are classed once by pattern: plain quadratic, quadratic
    plus -w*log(z) (utility coordinates), and quadratic plus
    -d*log(1+z) (capacity/power coordinates).  Each class has an exact
    scalar minimizer, so a solve is a handful of vector operations.
    Coordinates are independent; any execution order gives the same
    result.

    The class index sets, the log weights and the box with its log floor
    are taken once, and the per-class multiples of the curvature
    obj_quad + alpha are kept for the last alpha seen, so a solve does
    only the arithmetic that depends on the weights.

    At alpha = 0 a coordinate with no curvature is flat or log-shaped:
    it goes to the endpoint its slope points to, or to the stationary
    point of its log term, and to the low endpoint on an exact zero slope.
    """

    name = "separable-closed-form"

    def __init__(self, program):
        if not program.separable:
            raise ConfigurationError("program carries no separable descriptors")
        obj = program.objective_terms
        cons = program.constraint_terms
        self.program = program
        self.lo = program.box.lo
        self.hi = program.box.hi
        self.obj_quad = obj.quad
        self.obj_lin = obj.lin
        self._has_obj_lin = bool(obj.lin.any())
        self.logw = obj.log_weight
        self.lin_T = np.ascontiguousarray(cons.lin.T)
        self.has_cons_quad = bool(cons.quad.any())
        self.quad_T = np.ascontiguousarray(cons.quad.T) if self.has_cons_quad else None
        nl_cols = cons.neglog1p.any(axis=0)
        log_cols = self.logw > 0
        if np.any(nl_cols & log_cols):
            raise ConfigurationError("a coordinate cannot carry both log and log1p terms")
        self.idx_log = np.flatnonzero(log_cols)
        self.idx_nl1p = np.flatnonzero(nl_cols)
        self.idx_quad = np.flatnonzero(~(log_cols | nl_cols))
        self.nl1p_T = np.ascontiguousarray(cons.neglog1p[:, self.idx_nl1p].T) if self.idx_nl1p.size else None
        self._logw_l = self.logw[self.idx_log]
        # the box, with log coordinates raised to the domain floor
        self._lo_eff = self.lo.copy()
        self._lo_eff[self.idx_log] = np.maximum(self.lo[self.idx_log], LOG_DOMAIN_FLOOR)
        # (alpha, obj_quad + alpha, its class constants), one tuple so that a
        # reader never pairs one alpha's curvature with another's constants
        self._curvature = (None, None, None)

    def _class_constants(self, quad):
        """Curvature multiples each class's closed form uses: 2a (quadratic),
        (8a)w and 4a (log), 2a, 8a and 4a (log1p), with a = quad there."""
        two_q = 2.0 * quad[self.idx_quad] if self.idx_quad.size else None
        log_c = nl_c = None
        if self.idx_log.size:
            a = quad[self.idx_log]
            log_c = ((8.0 * a) * self._logw_l, 4.0 * a)
        if self.idx_nl1p.size:
            a = quad[self.idx_nl1p]
            nl_c = (2.0 * a, 8.0 * a, 4.0 * a)
        return two_q, log_c, nl_c

    def solve(self, weights, x_prev, alpha):
        lin = self.lin_T @ weights
        if self._has_obj_lin:
            lin = self.obj_lin + lin
        lin = lin - (2.0 * alpha) * x_prev
        curvature = self._curvature
        if alpha != curvature[0]:
            quad = self.obj_quad + alpha
            curvature = self._curvature = (alpha, quad, self._class_constants(quad))
        quad = curvature[1]
        if self.has_cons_quad:
            wq = self.quad_T @ weights
            if (wq < 0).any():
                # negative weights on quadratic rows would break convexity
                raise ConfigurationError("negative weight on a quadratic constraint row")
            quad = quad + wq
        il, ip = self.idx_log, self.idx_nl1p
        if ip.size:
            d = self.nl1p_T @ weights
            if (d < 0).any():
                raise ConfigurationError("negative weight on a log(1+z) constraint row")
        flat = None
        if not (alpha > 0 or quad.all()):
            flat = quad == 0
            # -inf and inf clip to the low and high endpoints
            target = np.where(lin < 0, np.inf, -np.inf)
            w_over_b = np.divide(self._logw_l, lin[il], out=np.full(il.size, np.inf),
                                 where=lin[il] > 0)
            target[il] = np.maximum(w_over_b, LOG_DOMAIN_FLOOR)
            if ip.size:
                target[ip] = np.divide(d, lin[ip], out=np.full(ip.size, np.inf),
                                       where=lin[ip] > 0) - 1.0
            x_flat = np.clip(target, self.lo, self.hi)
            if flat.all():
                return x_flat
            # any positive stand-in keeps the closed forms below finite
            quad = np.where(flat, 1.0, quad)
        if flat is None and not self.has_cons_quad:
            two_q, log_c, nl_c = curvature[2]
        else:
            two_q, log_c, nl_c = self._class_constants(quad)
        # unconstrained stationary point of each class, then one clip to the box
        x = np.empty_like(lin)
        if two_q is not None:
            iq = self.idx_quad
            x[iq] = -lin[iq] / two_q
        if log_c is not None:
            # positive root of 2a z^2 + b z - w = 0, as in log_quadratic_minimizer
            eight_aw, four_a = log_c
            b = lin[il]
            x[il] = (-b + np.sqrt(b * b + eight_aw)) / four_a
        if nl_c is not None:
            # larger root of 2a z^2 + (2a+b) z + (b-d) = 0, as in
            # log1p_quadratic_minimizer; the cancellation-free form where 2a+b > 0
            two_a, eight_a, four_a = nl_c
            b = lin[ip]
            s = two_a + b
            sq = np.sqrt((two_a - b) ** 2 + eight_a * d)
            root = (sq - s) / four_a
            np.divide(2.0 * (d - b), s + sq, out=root, where=s > 0)
            x[ip] = root
        x = np.minimum(np.maximum(x, self._lo_eff), self.hi)
        if flat is not None:
            x[flat] = x_flat[flat]
        return x

    def __call__(self, weights, x_prev, alpha):
        return self.solve(weights, x_prev, alpha)


class _ProjectedGradientOracle:
    name = "projected-gradient"

    def __init__(self, program, tol=1e-10, max_iter=100000):
        self.program = program
        self.tol = tol
        self.max_iter = max_iter

    def __call__(self, weights, x_prev, alpha):
        sub = Subproblem(self.program, weights, x_prev, alpha)
        return solve_projected_gradient(sub, tol=self.tol, max_iter=self.max_iter)


def make_oracle(program):
    """Pick the subproblem solver a program supports (built once per run)."""
    if program.separable:
        return SeparableOracle(program)
    return _ProjectedGradientOracle(program)
