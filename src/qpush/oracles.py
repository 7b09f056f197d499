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


def _require_separable(program):
    if not program.separable:
        raise ConfigurationError("program carries no separable descriptors")


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
    only the arithmetic that depends on the weights.  A^T W, Qc^T W and
    U^T W are the constraint terms' ``rmatvec``, ``quad_rmatvec`` and
    ``nl_rmatvec``, bound when they were built.

    At alpha = 0 a coordinate with no curvature is flat or log-shaped:
    it goes to the endpoint its slope points to, or to the stationary
    point of its log term, and to the low endpoint on an exact zero slope.
    There x_prev is not read, and with no quadratic constraint rows the
    flat coordinates and their class constants are kept with the
    curvature.
    """

    name = "separable-closed-form"

    def __init__(self, program):
        _require_separable(program)
        obj = program.objective_terms
        cons = program.constraint_terms
        self.program = program
        self.lo = program.box.lo
        self.hi = program.box.hi
        self.obj_quad = obj.quad
        self.obj_lin = obj.lin
        self._has_obj_lin = bool(obj.lin.any())
        self.logw = obj.log_weight
        self._rmatvec, self._quad_rmatvec = cons.rmatvec, cons.quad_rmatvec
        self._nl_rmatvec = cons.nl_rmatvec
        self.idx_nl1p = cons.nl_cols
        if np.any(self.logw[self.idx_nl1p] > 0):
            raise ConfigurationError("a coordinate cannot carry both log and log1p terms")
        self.idx_log = np.flatnonzero(self.logw > 0)
        # each class as a slice when its coordinates are one run (as on every
        # bundled and benchmark program), so that reading lin copies nothing
        self._sel_log, self._sel_nl1p = _selector(self.idx_log), _selector(self.idx_nl1p)
        self._logw_l = self.logw[self.idx_log]
        # the box, with log coordinates raised to the domain floor
        self._lo_eff = self.lo.copy()
        self._lo_eff[self.idx_log] = np.maximum(self.lo[self.idx_log], LOG_DOMAIN_FLOOR)
        # (alpha, obj_quad + alpha, its class constants, its flat split), one
        # tuple so that a reader never pairs one alpha's curvature with
        # another's constants
        self._curvature = (None, None, None, None)
        # copied into by the flat closed forms where the slope points outward
        self._inf_log = np.full(self.idx_log.size, np.inf)
        self._inf_nl1p = np.full(self.idx_nl1p.size, np.inf)

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

    def _flat_split(self, quad):
        """The coordinates of the curvature ``quad`` that have none, at
        alpha = 0: None when there are none, else their mask and the class
        constants with 1.0 standing in for 0 on the flat ones (any positive
        stand-in keeps the closed forms finite there), None when every
        coordinate is flat."""
        if np.count_nonzero(quad) == quad.shape[0]:
            return None
        flat = quad == 0
        if np.count_nonzero(flat) == flat.shape[0]:
            return flat, None
        return flat, self._class_constants(np.where(flat, 1.0, quad))

    def solve(self, weights, x_prev, alpha):
        lin = self._rmatvec(weights)
        if self._has_obj_lin:
            lin = self.obj_lin + lin
        if alpha != 0:
            lin = lin - (2.0 * alpha) * x_prev
        curvature = self._curvature
        if alpha != curvature[0]:
            quad = self.obj_quad + alpha
            curvature = self._curvature = (alpha, quad, self._class_constants(quad),
                                           None if alpha > 0 else self._flat_split(quad))
        quad, split = curvature[1], curvature[3]
        if self._quad_rmatvec is not None:
            wq = self._quad_rmatvec(weights)
            if np.count_nonzero(wq < 0):
                # negative weights on quadratic rows would break convexity
                raise ConfigurationError("negative weight on a quadratic constraint row")
            quad = quad + wq
            if not alpha > 0:
                split = self._flat_split(quad)
        ip = self.idx_nl1p
        sl, sp = self._sel_log, self._sel_nl1p
        if ip.size:
            d = self._nl_rmatvec(weights)
            if np.count_nonzero(d < 0):
                raise ConfigurationError("negative weight on a log(1+z) constraint row")
        if split is not None:
            flat, constants = split
            # -inf and inf clip to the low and high endpoints
            target = np.where(lin < 0, np.inf, -np.inf)
            b = lin[sl]
            w_over_b = np.divide(self._logw_l, b, out=self._inf_log.copy(), where=b > 0)
            target[sl] = np.maximum(w_over_b, LOG_DOMAIN_FLOOR)
            if ip.size:
                b = lin[sp]
                target[sp] = np.divide(d, b, out=self._inf_nl1p.copy(), where=b > 0) - 1.0
            x_flat = np.maximum(target, self.lo, out=target)
            np.minimum(x_flat, self.hi, out=x_flat)
            if constants is None:
                return x_flat
            neg_two_a, log_c, nl_c = constants
        elif self._quad_rmatvec is not None:
            neg_two_a, log_c, nl_c = self._class_constants(quad)
        else:
            neg_two_a, log_c, nl_c = curvature[2]
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
        if split is not None:
            x[flat] = x_flat[flat]
        return x

    def __call__(self, weights, x_prev, alpha):
        return self.solve(weights, x_prev, alpha)


class _ProjectedGradientOracle:
    name = "projected-gradient"

    def __init__(self, program):
        self.program = program

    def __call__(self, weights, x_prev, alpha):
        return solve_projected_gradient(self.program, weights, x_prev, alpha,
                                        tol=1e-10, max_iter=100000)


def make_oracle(program):
    """Pick the subproblem solver a program supports (built once per run)."""
    if program.separable:
        return SeparableOracle(program)
    return _ProjectedGradientOracle(program)
