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

import math

import numpy as np

from .errors import ConfigurationError, NonConvergenceError, NumericalDomainError
from .program import _selector

__all__ = [
    "log_quadratic_minimizer",
    "solve_projected_gradient",
    "SeparableOracle",
    "make_oracle",
]

# Boxes with lo = 0 on log-utility coordinates are read as the closure of
# the domain; the minimizer is interior for positive weight, so brackets
# start at this floor instead of 0.
LOG_DOMAIN_FLOOR = 1e-12


def log_quadratic_minimizer(a, b, w, lo, hi):
    """Exact minimizer of a*z^2 + b*z - w*log(z) over [lo, hi], a > 0, w >= 0.

    The stationarity condition 2a z^2 + b z - w = 0 has a single positive
    root; with w > 0 the minimizer is interior to the left endpoint.
    Vectorized over numpy inputs.
    """
    root = (-b + np.sqrt(b * b + 8.0 * a * w)) / (4.0 * a)
    # Python's max on a float bound saves a numpy call per agent round
    floor = (max(lo, LOG_DOMAIN_FLOOR) if isinstance(lo, float)
             else np.maximum(lo, LOG_DOMAIN_FLOOR))
    return np.minimum(np.maximum(root, floor), hi)


def _objective_curvature(program):
    terms = program.objective_terms
    if terms is None:
        return 0.0
    if terms.log_weight.any():
        raise ConfigurationError(
            "projected gradient does not handle log-barrier objectives; "
            "use the separable oracle")
    return 2.0 * float(terms.quad.max()) if terms.quad.size else 0.0


def solve_projected_gradient(program, weights, x_prev, alpha, tol=1e-9, max_iter=10000):
    """Projected (sub)gradient descent fallback for general subproblems.

    Minimizes f(x) + weights.g(x) + alpha ||x - x_prev||^2 over the box
    with a fixed step 1/(2*alpha + L_est), using the crude curvature
    estimate L_est = ||W|| * beta + f-curvature, and stops when the
    projected-gradient mapping norm drops below ``tol``.  A non-finite
    residual raises NumericalDomainError at once.
    """
    weights = np.asarray(weights, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if weights.shape != (program.m,):
        raise ValueError("weights length must equal the constraint count")
    if x_prev.shape != (program.n,):
        raise ValueError("x_prev length must equal the program dimension")
    if program.beta_hint is None:
        raise ConfigurationError("projected gradient needs beta_hint on the program")
    box = program.box
    curv = 2.0 * alpha + float(np.linalg.norm(weights)) * program.beta_hint
    curv += _objective_curvature(program)
    step = 1.0 / curv
    x = box.clamp(x_prev)
    residual = np.inf
    for k in range(max_iter):
        grad = (program.objective_subgradient(x)
                + program.constraint_jacobian(x).T @ weights
                + 2.0 * alpha * (x - x_prev))
        x_new = box.clamp(x - step * grad)
        residual = float(np.linalg.norm(x - x_new)) / step
        if not math.isfinite(residual):  # a NaN gradient never recovers
            raise NumericalDomainError(f"projected gradient: non-finite residual at step {k}")
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
    only the arithmetic that depends on the weights.  A^T W is a product
    with the transposed A, or one ``np.bincount`` segment sum by column
    over the nonzero triples that the constraint terms keep of a sparse A.

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
        self._triples = cons._triples
        self.lin_T = np.ascontiguousarray(cons.lin.T) if self._triples is None else None
        self.has_cons_quad = cons._has_quad
        self.quad_T = np.ascontiguousarray(cons.quad.T) if self.has_cons_quad else None
        nl_cols = cons.neglog1p.any(axis=0) if cons._has_nl else np.zeros(program.n, dtype=bool)
        log_cols = self.logw > 0
        if np.any(nl_cols & log_cols):
            raise ConfigurationError("a coordinate cannot carry both log and log1p terms")
        self.idx_log = np.flatnonzero(log_cols)
        self.idx_nl1p = np.flatnonzero(nl_cols)
        self.idx_quad = np.flatnonzero(~(log_cols | nl_cols))
        # each class as a slice when its coordinates are one run (as on every
        # bundled and benchmark program), so that reading lin copies nothing
        self._sel_log, self._sel_nl1p = _selector(self.idx_log), _selector(self.idx_nl1p)
        self.nl1p_T = np.ascontiguousarray(cons.neglog1p[:, self.idx_nl1p].T) if self.idx_nl1p.size else None
        self._logw_l = self.logw[self.idx_log]
        # the box, with log coordinates raised to the domain floor
        self._lo_eff = self.lo.copy()
        self._lo_eff[self.idx_log] = np.maximum(self.lo[self.idx_log], LOG_DOMAIN_FLOOR)
        # (alpha, obj_quad + alpha, its class constants), one tuple so that a
        # reader never pairs one alpha's curvature with another's constants
        self._curvature = (None, None, None)

    def _class_constants(self, quad):
        """Curvature multiples the closed forms use: -2a (quadratic), (8a)w
        and 4a (log), 2a, 8a and 4a (log1p), with a = quad there.  The -2a
        vector spans every coordinate, with -1 on the log and log1p classes,
        whose quadratic value is overwritten: no division there overflows."""
        neg_two_a = -2.0 * quad
        log_c = nl_c = None
        if self.idx_log.size:
            a = quad[self._sel_log]
            log_c = ((8.0 * a) * self._logw_l, 4.0 * a)
            neg_two_a[self._sel_log] = -1.0
        if self.idx_nl1p.size:
            a = quad[self._sel_nl1p]
            nl_c = (2.0 * a, 8.0 * a, 4.0 * a)
            neg_two_a[self._sel_nl1p] = -1.0
        return neg_two_a, log_c, nl_c

    def solve(self, weights, x_prev, alpha):
        if self._triples is None:
            lin = self.lin_T.dot(weights)
        else:
            rows, cols, vals = self._triples
            lin = np.bincount(cols, vals * weights[rows], x_prev.shape[0])
        if self._has_obj_lin:
            lin = self.obj_lin + lin
        lin = lin - (2.0 * alpha) * x_prev
        curvature = self._curvature
        if alpha != curvature[0]:
            quad = self.obj_quad + alpha
            curvature = self._curvature = (alpha, quad, self._class_constants(quad))
        quad = curvature[1]
        if self.has_cons_quad:
            wq = self.quad_T.dot(weights)
            if np.count_nonzero(wq < 0):
                # negative weights on quadratic rows would break convexity
                raise ConfigurationError("negative weight on a quadratic constraint row")
            quad = quad + wq
        il, ip = self.idx_log, self.idx_nl1p
        sl, sp = self._sel_log, self._sel_nl1p
        if ip.size:
            d = self.nl1p_T.dot(weights)
            if np.count_nonzero(d < 0):
                raise ConfigurationError("negative weight on a log(1+z) constraint row")
        flat = None
        if not (alpha > 0 or np.count_nonzero(quad) == quad.shape[0]):
            flat = quad == 0
            # -inf and inf clip to the low and high endpoints
            target = np.where(lin < 0, np.inf, -np.inf)
            w_over_b = np.divide(self._logw_l, lin[sl], out=np.full(il.size, np.inf),
                                 where=lin[sl] > 0)
            target[sl] = np.maximum(w_over_b, LOG_DOMAIN_FLOOR)
            if ip.size:
                target[sp] = np.divide(d, lin[sp], out=np.full(ip.size, np.inf),
                                       where=lin[sp] > 0) - 1.0
            x_flat = np.minimum(np.maximum(target, self.lo), self.hi)
            if np.count_nonzero(flat) == flat.shape[0]:
                return x_flat
            # any positive stand-in keeps the closed forms below finite
            quad = np.where(flat, 1.0, quad)
        if flat is None and not self.has_cons_quad:
            neg_two_a, log_c, nl_c = curvature[2]
        else:
            neg_two_a, log_c, nl_c = self._class_constants(quad)
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
        np.maximum(x, self._lo_eff, out=x)
        np.minimum(x, self.hi, out=x)
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
        return solve_projected_gradient(self.program, weights, x_prev, alpha,
                                        tol=self.tol, max_iter=self.max_iter)


def make_oracle(program):
    """Pick the subproblem solver a program supports (built once per run)."""
    if program.separable:
        return SeparableOracle(program)
    return _ProjectedGradientOracle(program)
