"""Virtual-queue prox solver.

Each iteration observes the previous iterate x(t-1) and the queue vector
Q(t), builds the weights W = Q(t) + g(x(t-1)), and performs

    x(t)      = argmin over the box of  f(x) + W.g(x) + alpha||x - x(t-1)||^2
    Q_k(t+1)  = max(-g_k(x(t)), Q_k(t) + g_k(x(t)))
    xbar(t+1) = xbar(t) * t/(t+1) + x(t) / (t+1)

with Q_k(0) = max(0, -g_k(x_init)).  Every row is an inequality
g_k(x) <= 0; an affine equality H x = d is the two blocks of rows
H x - d <= 0 and d - H x <= 0, whose modulus is sqrt(2) sigma_max(H).  For
the averaged iterate to carry the O(1/t) guarantees, alpha must be at
least beta^2/2 where beta is the Lipschitz modulus of g on the box; the
solver only warns when that cannot be verified, since exploring smaller
alpha is legitimate.

Runtime invariants (checked for every step when ``validate`` is on,
with absolute tolerance 1e-9 at desk scale):

* queues stay nonnegative and the weights W stay nonnegative,
* |Q_k(t)| >= |g_k(x(t-1))| for t >= 1 (reversed at t = 0),
* the Lyapunov drift of 0.5||Q||^2 never exceeds Q(t).g(x(t)) + ||g(x(t))||^2,
* Q_k(t) >= sum_{tau<t} g_k(x(tau)).

The drift's rounding error grows with its terms, so the drift check
allows max(1e-9, (m+4) eps M), M = 0.5||Q(t+1)||^2 + ||Q(t)||^2 + 1.5||g||^2
bounding the dot products it is built from (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3); at desk scale that is 1e-9.

A validated step hands its row of the checks (Q(t+1), g(x(t)), the running
sum and the four drift scalars, all kept by reference) to a pending block.
``run`` tests the block every 32 steps, at the end of the run and before
any other exception leaves it: one 2-D pass writes every check of every
row into one boolean buffer, one reduction tests it, and only on a hit is
the first failing (step, check) looked up, so the error is that of the
earliest failing step, raised at most 31 steps later, before any error of
a later step.  ``step`` called on its own tests its own row at once, as a
one-row block.  A failure raises InvariantViolation, an AssertionError
carrying the invariant's name, t and margin.  The dual subgradient
baseline runs on this same ``step`` and loop: the four places where it
differs (the weights, the prox term, the update and the drift bound) come
from a law that the state's workspace carries, ``_Queues`` from ``init``
or the multipliers of ``baseline.dual_init`` (whose alpha is 0), and the
law's ``invariants`` name the checks the block pass runs.  The
decentralized agents (``netflow.simulate_decentralized``) run through
``run`` itself: their sources' phase is the oracle and their links' phase
the constraint evaluator, so every check here covers them too.

``init`` tests g(x_init) for finiteness, and every step, validated or
not, tests the oracle's iterate, then the evaluated f and g, then the
updated Q(t+1), which overflows when a queue does; a non-finite value
raises NumericalDomainError naming the initial point or the iteration
that produced it, before it can reach the state.  A step's tests are
screens on dots, exact in their decision: x.dot(0) is finite exactly
when x is, and a finite ||g||^2 (||Q(t+1)||^2), which the drift needs
anyway, proves g (Q(t+1)) finite; only a non-finite sum of squares (a
NaN or inf, or finite entries whose squares overflow) takes the exact
mask.  On an infinite iterate numpy also warns "invalid value encountered
in dot".
"""

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, InvariantViolation, NonConvergenceError,
                     NumericalDomainError)
from .oracles import make_oracle
from .program import _FLOAT, _all_finite, evaluate
from .report import TraceRecorder, _write_table

__all__ = [
    "SolverState",
    "AlphaBelowCurvatureWarning",
    "init",
    "queue_update",
    "step",
    "run",
    "BoundReport",
    "verify_bounds",
    "kkt_residual",
]

INVARIANT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)

# names and messages of the invariants, in the order a step's failures are
# reported in
_INVARIANTS = (
    ("queue", "queue invariant violated: Q_k < 0"),
    ("weight", "weight invariant violated: Q_k + g_k(x_prev) < 0"),
    ("lower", "queue lower bound violated: |Q_k(t+1)| < |g_k(x(t))|"),
    ("drift", "drift exceeded its upper bound"),
    ("cumulative", "queue fell below the cumulative constraint sum"),
)
# steps whose invariants a runner tests together in one block pass
_BLOCK = 32


class AlphaBelowCurvatureWarning(UserWarning):
    """alpha < beta^2/2 (or beta unknown): O(1/t) guarantees not certified."""


@dataclass
class SolverState:
    """Mutable state owned by a single run; one step depends on the last."""

    t: int
    x_prev: np.ndarray
    g_prev: np.ndarray
    Q: np.ndarray
    x_bar: np.ndarray
    alpha: float
    cum_g: np.ndarray
    f_prev: float = float("nan")
    drift: float = float("nan")
    drift_bound: float = float("nan")
    _work: object = field(default=None, repr=False, compare=False)


def queue_update(Q, g_now):
    """One queue transition, max(-g, Q + g), which keeps the queue at
    least |g|."""
    # arrays the solver built itself are float already; convert the rest
    if Q.__class__ is not np.ndarray or Q.dtype is not _FLOAT:
        Q = np.asarray(Q, dtype=float)
    if g_now.__class__ is not np.ndarray or g_now.dtype is not _FLOAT:
        g_now = np.asarray(g_now, dtype=float)
    if Q.shape != g_now.shape:
        raise ValueError("queue and constraint vectors must have equal length")
    return np.maximum(-g_now, Q + g_now)


class _Queues:
    """The virtual-queue law of ``step``: the weights Q(t) + g(x(t-1)), the
    update max(-g, Q + g) and the drift bound Q.g + ||g||^2, whose ||g||^2
    is also the drift tolerance's term; the baseline's multiplier law
    supplies its own four.  The update goes through the module's
    ``queue_update``, so a replacement of it takes effect."""

    __slots__ = ()
    invariants = _INVARIANTS
    noun = "queue"

    @staticmethod
    def weights(Q, g_prev):
        return Q + g_prev

    @staticmethod
    def update(Q, g):
        return queue_update(Q, g)

    @staticmethod
    def bound(Q, g, gg):
        return float(Q.dot(g)) + gg, gg


_QUEUES = _Queues()


class _Workspace:
    """Per-run state of a step: its law (``_Queues`` or the baseline's
    multipliers), the block of steps whose invariants wait for their test,
    the zero vector of the iterate's finiteness test and the last step's
    Q(t+1) with its 0.5||Q(t+1)||^2."""

    __slots__ = ("law", "deferred", "t0", "vectors", "scalars", "zeros", "Q_next", "half_qq")

    def __init__(self, n, law):
        self.law = law
        # True while a runner collects steps for a block test; False tests
        # each step at once
        self.deferred = False
        # the block: its first step t0; Q, g(x_prev) and the running sum
        # that t0 started from, then Q(t+1), g(x(t)) and the running sum of
        # each step; each step's drift, bound, 0.5||Q||^2 and the law's
        # term of the drift tolerance
        self.t0 = 0
        self.vectors = []
        self.scalars = []
        self.zeros = np.zeros(n)
        # 0.5||Q(t)||^2 is the last step's 0.5||Q(t+1)||^2 while state.Q is
        # still the array that step made
        self.Q_next = None
        self.half_qq = math.nan


def init(program, x_init, alpha):
    """Set up a solver state at t = 0.

    ``x_init`` plays the role of the initial guess x(-1) and must lie in
    the box.  The queues start at max(0, -g_k(x_init)); a non-finite
    g(x_init) raises NumericalDomainError naming the initial point.
    """
    x_init = np.asarray(x_init, dtype=float)
    if x_init.shape != (program.n,):
        raise ValueError(f"x_init has shape {x_init.shape}, expected ({program.n},)")
    if not program.box.contains(x_init):
        raise ValueError("x_init lies outside the box")
    if not 0 < alpha < math.inf:  # NaN fails both comparisons
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    beta = program.beta_hint
    if beta is None:
        warnings.warn("beta is unknown; cannot verify alpha >= beta^2/2",
                      AlphaBelowCurvatureWarning, stacklevel=2)
    elif alpha < 0.5 * beta * beta:
        warnings.warn(
            f"alpha={alpha:g} < beta^2/2={0.5 * beta * beta:g}; convergence "
            "guarantees are not certified", AlphaBelowCurvatureWarning, stacklevel=2)
    g0 = program.constraint_values(x_init)
    if not _all_finite(g0):
        raise NumericalDomainError("constraint value is not finite at the initial point x_init")
    return SolverState(
        t=0,
        x_prev=x_init.copy(),
        g_prev=g0,
        Q=np.maximum(0.0, -g0),
        x_bar=None,
        alpha=float(alpha),
        cum_g=np.zeros(program.m),
        _work=_Workspace(program.n, _QUEUES),
    )


def _check_block(work):
    """Test every runtime invariant of the pending steps with one reduction.

    Row i of the stacked queues, constraint values and running sums is
    what step t0 + i starts from, so rows i and i + 1 hold all that step's
    checks read; W is recomputed with the step's own addition.  The law's
    ``invariants`` name the checks: the queue law's four vector checks
    and the drift, or the multiplier law's lambda(t+1) >= 0 and the drift.
    Each check writes a contiguous section of one flag buffer, (k, m) for
    the vector checks and (k,) for the drift.  The drift flags are a
    screen at the absolute tolerance, which the scale-aware one only
    widens; on a hit the flagged drifts are tested again at their own
    tolerance.  The earliest step with a flag left is reported, by its
    first check in the order of the law's ``invariants``, with its margin
    recomputed from that step alone.
    """
    t0, scalars, invariants = work.t0, work.scalars, work.law.invariants
    m = work.vectors[0].shape[0]
    k = len(scalars) // 4
    rows = np.concatenate(work.vectors)
    work.vectors.clear()
    work.scalars = []
    drift, bound, L, gg = np.array(scalars).reshape(k, 4).T
    # k + 1 rows, given explicitly: a -1 cannot be inferred when m = 0
    Qs, gs, cums = rows.reshape(k + 1, 3, m).transpose(1, 0, 2).copy()
    Q, Qn, g = Qs[:-1], Qs[1:], gs[1:]
    # the vector checks; the drift is the law's other invariant
    c = len(invariants) - 1
    flags = np.empty(k * (c * m + 1), dtype=bool)
    # sections: queue, weight, lower, cumulative (k, m each), or the
    # multiplier's, then drift (k)
    vector_flags = flags[:c * k * m].reshape(c, k, m)
    drift_flags = flags[c * k * m:]
    if c == 1:
        np.less(Qn, 0.0, out=vector_flags[0])
    else:
        np.less(Q, 0.0, out=vector_flags[0])
        np.less(Q + gs[:-1], -INVARIANT_TOL, out=vector_flags[1])
        np.less(np.abs(Qn), np.abs(g) - INVARIANT_TOL, out=vector_flags[2])
        cum_tol = np.arange(t0 + 1, t0 + k + 1) * 1e-12
        np.less(Qn, (cums[1:] - cum_tol[:, None]) - INVARIANT_TOL, out=vector_flags[3])
    np.greater(drift, bound + INVARIANT_TOL, out=drift_flags)
    if not np.count_nonzero(flags):
        return
    # |Q.g| <= L + gg/2, so M = 0.5||Q'||^2 + 2L + 1.5gg bounds the terms
    drift_tol = np.fmax(INVARIANT_TOL, (m + 4) * _EPS * (drift + 3.0 * L + 1.5 * gg))
    np.logical_and(drift_flags, drift > bound + drift_tol, out=drift_flags)
    if not np.count_nonzero(flags):
        return
    # (k, 5) or (k, 2) hits per step, in the order of the invariants: the
    # drift follows the first three vector checks
    counts = np.count_nonzero(vector_flags, axis=2)
    hits = np.vstack((counts[:3], drift_flags, counts[3:])).T
    r, i = divmod(int(np.flatnonzero(hits)[0]), len(invariants))
    t = t0 + r
    name, message = invariants[i]
    if name == "drift":
        raise InvariantViolation(message, name, t, float(bound[r] + drift_tol[r] - drift[r]))
    Q, Qn, g = Qs[r], Qs[r + 1], gs[r + 1]
    margin = (Qn if c == 1 else
              (Q, Q + gs[r] + INVARIANT_TOL, np.abs(Qn) - (np.abs(g) - INVARIANT_TOL), None,
               Qn - ((cums[r + 1] - (t + 1) * 1e-12) - INVARIANT_TOL))[i])
    failed = vector_flags[min(i, 3), r]
    raise InvariantViolation(message, name, t, float(margin[failed].min()))


def step(state, program, oracle=None, validate=True):
    """Advance one iteration in place and return the state.

    The state's law (the queues of ``init`` or the multipliers of
    ``baseline.dual_init``) gives the weights, the update and the drift
    bound.  The cached g(x(t-1)) is reused for the weights so the
    subproblem and the previous queue update see exactly the same
    numbers, and 0.5||Q(t)||^2 is the previous step's 0.5||Q(t+1)||^2
    while ``state.Q`` is the array that step made: to change the queues,
    assign a new array.  From t = 1 on, ``state.x_bar`` is updated in place.
    """
    if oracle is None:
        oracle = make_oracle(program)
    work = state._work
    if work is None:
        work = state._work = _Workspace(program.n, _QUEUES)
    law = work.law
    t = state.t
    Q = state.Q
    W = law.weights(Q, state.g_prev)
    try:
        x_new = oracle(W, state.x_prev, state.alpha)
    except NonConvergenceError as exc:
        raise NonConvergenceError(
            f"primal oracle failed at iteration {t}: {exc}",
            iterate=exc.iterate, residual=exc.residual,
            iterations=exc.iterations) from exc
    except NumericalDomainError as exc:
        raise NumericalDomainError(f"primal oracle failed at iteration {t}: {exc}") from exc
    if not _all_finite(x_new, x_new.dot(work.zeros)):
        raise NumericalDomainError(f"primal oracle returned a non-finite iterate at iteration {t}")
    f_new, g_new = evaluate(program, x_new)
    gg = float(g_new.dot(g_new))
    if not (math.isfinite(f_new) and _all_finite(g_new, gg)):
        raise NumericalDomainError(
            f"objective or constraint value is not finite at iteration {t}")
    Q_next = law.update(Q, g_new)
    half_qq = 0.5 * float(Q_next.dot(Q_next))
    if not _all_finite(Q_next, half_qq):
        raise NumericalDomainError(f"{law.noun} is not finite at iteration {t}")
    L = work.half_qq if Q is work.Q_next else 0.5 * float(Q.dot(Q))
    work.Q_next, work.half_qq = Q_next, half_qq
    delta = half_qq - L
    bound, tol_term = law.bound(Q, g_new, gg)
    cum_g = state.cum_g + g_new
    if validate:
        vectors = work.vectors
        if not vectors:
            work.t0 = t
            vectors += (Q, state.g_prev, state.cum_g)
        vectors += (Q_next, g_new, cum_g)
        work.scalars += (delta, bound, L, tol_term)
        if not work.deferred:
            _check_block(work)
    if state.x_bar is None:
        state.x_bar = x_new.copy()
    else:
        state.x_bar *= t / (t + 1.0)
        state.x_bar += x_new / (t + 1.0)
    state.cum_g = cum_g
    state.drift = delta
    state.drift_bound = bound
    state.x_prev = x_new
    state.g_prev = g_new
    state.f_prev = f_new
    state.Q = Q_next
    state.t = t + 1
    return state


def _drive(state, program, solve, T, record_every, validate, **config):
    """The iteration loop of ``run`` and ``dsg_run``: ``T`` calls of
    ``step(state, program, solve, validate)``.

    Each trace row is read from the state the step leaves and recorded on
    the recorder's schedule together with the evaluation at xbar; on
    NonConvergenceError the rows recorded so far are attached to the
    exception as ``partial_report``.  The steps' invariants wait in the
    block of the state's workspace, which is tested every ``_BLOCK``
    steps, after the last step and before any other exception leaves.
    ``config`` goes to the report, with the program and the oracle's name.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    config.update(program=program, oracle=getattr(solve, "name", type(solve).__name__))
    recorder = TraceRecorder(T, record_every)
    work = state._work
    full = 4 * _BLOCK
    work.deferred = True
    started = time.perf_counter()
    try:
        for t in range(T):
            try:
                step(state, program, solve, validate)
            except NonConvergenceError as exc:
                # hand back whatever was recorded up to the failure
                if recorder.rows:
                    exc.partial_report = recorder.build(
                        iterations=t, wall_time=time.perf_counter() - started, **config)
                raise
            if len(work.scalars) == full or (t == T - 1 and work.scalars):
                _check_block(work)
            if recorder.wants(t + 1):
                f_xbar, g_xbar = evaluate(program, state.x_bar)
                recorder.add(t + 1, state.x_prev, state.x_bar, state.Q, state.f_prev,
                             state.g_prev, f_xbar, g_xbar, state.cum_g, state.drift,
                             state.drift_bound)
    except Exception:
        # an earlier step's failed check outranks a later step's error
        if work.scalars:
            _check_block(work)
        raise
    return recorder.build(iterations=T, wall_time=time.perf_counter() - started,
                          **config)


def run(program, x_init, alpha, T, oracle=None, record_every=None, validate=True,
        label="program"):
    """Run ``T`` iterations and collect a trace.

    Rows are recorded every ``record_every`` iterations (defaults to
    roughly 1000 rows) plus always at t = 1 and t = T.  Row t holds the
    iterate x(t-1), the queue Q(t), the running average xbar(t) and the
    drift of the step that produced them.  Deterministic given inputs.
    """
    if oracle is None:
        oracle = make_oracle(program)
    state = init(program, x_init, alpha)
    return _drive(state, program, oracle, T, record_every, validate, algorithm="vq",
                  problem=label, alpha=alpha, x_init=np.asarray(x_init, dtype=float).copy())


# ---------------------------------------------------------------------------
# Certified error bounds for a finished run

@dataclass
class BoundReport:
    """Pass/fail margins of the four a-posteriori bounds per recorded t.

    Margins are bound minus achieved value, so nonnegative (up to the
    slack) means pass.  Bounds whose constants are undefined for the run
    are reported as skipped, not failed.
    """

    t: np.ndarray
    objective_margin: np.ndarray
    constraint_margin: np.ndarray
    queue_margin: np.ndarray
    queue_lower_margin: np.ndarray
    constant: float
    slack: float
    skipped: dict

    _NAMES = ("objective", "constraint", "queue", "queue_lower")

    def margins(self, name):
        return getattr(self, f"{name}_margin")

    def passed(self, name):
        if name in self.skipped:
            return None
        return bool(np.all(self.margins(name) >= -self.slack))

    def worst(self, name):
        if name in self.skipped:
            return float("nan")
        return float(self.margins(name).min())

    @property
    def ok(self):
        return all(self.passed(n) in (True, None) for n in self._NAMES)

    def summary(self):
        return {name: {"passed": self.passed(name), "worst_margin": self.worst(name),
                       "skipped": self.skipped.get(name)}
                for name in self._NAMES}

    def to_csv(self, path):
        _write_table(path, ("t",) + tuple(f"{n}_margin" for n in self._NAMES),
                     [self.t] + [self.margins(n) for n in self._NAMES])


def verify_bounds(report, f_star, x_star, lambda_star, beta):
    """Check a trace against the certified decay bounds.

    For every recorded t >= 1:

    * objective:   f(xbar(t)) <= f* + alpha ||x* - x(-1)||^2 / t
    * constraint:  max_k g_k(xbar(t)) <= C / t
    * queue:       ||Q(t)|| <= C
    * queue_lower: Q_k(t) >= sum_{tau<t} g_k(x(tau))

    each passing with a slack of 1e-9,
    with C = 2||lambda*|| + sqrt(2 alpha)||x* - x(-1)||
           + sqrt(alpha / (alpha - beta^2/2)) ||g(x*)||.

    The reference (f*, x*, lambda*) must come from the literature value
    or an independent derivation.  The constraint and queue bounds need
    alpha > beta^2/2 and the objective bound needs alpha >= beta^2/2;
    otherwise those checks are skipped.  A report without alpha (a dual
    subgradient run) has no such bounds: ConfigurationError.
    """
    program = report.program
    if program is None:
        raise ConfigurationError("report carries no program reference")
    if report.alpha is None:
        raise ConfigurationError(f"the bounds hold for virtual-queue runs, not {report.algorithm}")
    x_star = np.asarray(x_star, dtype=float)
    lambda_star = np.asarray(lambda_star, dtype=float)
    alpha = report.alpha
    x_init = report.x_init
    dist = float(np.linalg.norm(x_star - x_init))
    g_star = program.constraint_values(x_star)
    t = report.t.astype(float)
    skipped = {}

    half_beta_sq = 0.5 * beta * beta
    if alpha + 1e-15 >= half_beta_sq:
        obj_bound = f_star + alpha * dist * dist / t
        objective_margin = obj_bound - report.f_xbar
    else:
        objective_margin = np.full_like(t, np.nan)
        skipped["objective"] = "alpha < beta^2/2"

    if alpha > half_beta_sq:
        constant = (2.0 * float(np.linalg.norm(lambda_star))
                    + np.sqrt(2.0 * alpha) * dist
                    + np.sqrt(alpha / (alpha - half_beta_sq)) * float(np.linalg.norm(g_star)))
        constraint_margin = constant / t - report.max_violation
        queue_margin = constant - report.queue_norm
    else:
        constant = float("nan")
        constraint_margin = np.full_like(t, np.nan)
        queue_margin = np.full_like(t, np.nan)
        skipped["constraint"] = "alpha <= beta^2/2"
        skipped["queue"] = "alpha <= beta^2/2"

    queue_lower_margin = (report.Q - report.cum_g).min(axis=1, initial=np.inf)

    return BoundReport(
        t=report.t.copy(),
        objective_margin=objective_margin,
        constraint_margin=constraint_margin,
        queue_margin=queue_margin,
        queue_lower_margin=queue_lower_margin,
        constant=constant,
        slack=1e-9,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# KKT certification

def kkt_residual(program, x, lam):
    """Max violation of the first-order optimality system at (x, lam).

    Checks stationarity of the Lagrangian against the box normal cone (a
    coordinate within 1e-9 of a bound is on it), primal feasibility, dual
    feasibility and complementary slackness; returns the largest violation.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    g = program.constraint_values(x)
    grad = program.objective_subgradient(x) + program.constraint_jacobian(x).T @ lam
    lo, hi = program.box.lo, program.box.hi
    at_lo = x <= lo + 1e-9
    at_hi = x >= hi - 1e-9
    stat = np.abs(grad.copy())
    stat[at_lo] = np.maximum(0.0, -grad[at_lo])
    stat[at_hi & ~at_lo] = np.maximum(0.0, grad[at_hi & ~at_lo])
    residuals = [
        float(stat.max()) if stat.size else 0.0,
        float(np.maximum(g, 0.0).max()) if g.size else 0.0,
        float(np.maximum(-lam, 0.0).max()) if lam.size else 0.0,
        float(np.abs(lam * g).max()) if g.size else 0.0,
        float(np.maximum(lo - x, 0.0).max()),
        float(np.maximum(x - hi, 0.0).max()),
    ]
    return max(residuals)
