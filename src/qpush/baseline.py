"""Dual subgradient method with primal averaging, for head-to-head runs.

The classical scheme: pick x(t) minimizing the plain Lagrangian
f(x) + lambda(t).g(x) over the box, then project the multiplier step

    lambda(t+1) = max(lambda(t) + gamma * g(x(t)), 0)

and report the running average of the primal iterates.  At a fixed step
size gamma the averaged iterate approaches the optimum only up to an
error floor set by gamma.

Without a prox term the Lagrangian can be flat in some coordinates (a
linear objective over a box); the convention here is the low endpoint
when a coordinate's coefficient is exactly zero.

Every step tests the iterate, f, g and the next multiplier for
finiteness, and raises NumericalDomainError naming the iteration.  Its
runtime invariants, lambda(t+1) >= 0 and the drift bound of the
projected step,

    ||lambda(t+1)||^2/2 - ||lambda(t)||^2/2 <= gamma lambda(t).g + gamma^2 ||g||^2/2

(Nedic & Ozdaglar, SIAM J. Optim. 19(4), 2009), go to the block pass of
the virtual-queue solver, which ``dsg_run`` runs every 32 steps, after
the last step and before any other exception leaves it; ``dual_step``
called on its own tests its step at once.  The drift is allowed the
scale-aware rounding tolerance of the solver's drift check, with
||gamma g||^2 in the place of ||g||^2.  A failure raises
InvariantViolation for the earliest failing step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDomainError
from .oracles import SeparableOracle
from .program import _all_finite, evaluate
from .solver import _Workspace, _check_block, _drive

__all__ = ["DualState", "multiplier_update", "dual_step", "dsg_run"]


@dataclass
class DualState:
    """Multiplier vector, running primal average, and the step size."""

    t: int
    lam: np.ndarray
    x_bar: np.ndarray
    step: float
    cum_g: np.ndarray
    x_last: np.ndarray = None
    g_last: np.ndarray = None
    f_last: float = float("nan")
    drift: float = float("nan")
    drift_bound: float = float("nan")
    _work: object = field(default=None, repr=False, compare=False)


def multiplier_update(lam, g, gamma):
    """One projected multiplier step, max(lam + gamma g, 0)."""
    lam_next = gamma * g
    lam_next += lam
    return np.maximum(lam_next, 0.0, out=lam_next)


class LagrangianOracle(SeparableOracle):
    """Per-coordinate minimizer of f(x) + lambda.g(x) over the box: the
    separable oracle at alpha = 0, with no quadratic pushback."""

    name = "lagrangian-closed-form"

    def __init__(self, program):
        super().__init__(program)
        self.center = np.zeros(program.n)

    def __call__(self, lam):
        return self.solve(lam, self.center, 0.0)


def dual_step(state, program, oracle=None):
    """One dual subgradient iteration; returns the mutated state.  A
    non-finite iterate, f, g or next multiplier raises NumericalDomainError
    naming t, and a failed invariant InvariantViolation (see the module
    docstring).  0.5||lambda(t)||^2 is the previous step's
    0.5||lambda(t+1)||^2 while ``state.lam`` is the array that step made,
    and from t = 1 on ``state.x_bar`` is updated in place."""
    if oracle is None:
        oracle = LagrangianOracle(program)
    work = state._work
    if work is None:
        work = state._work = _Workspace(program.n, dual=True)
    t = state.t
    lam = state.lam
    x = oracle(lam)
    if not _all_finite(x, x.dot(work.zeros)):
        raise NumericalDomainError(
            f"Lagrangian oracle returned a non-finite iterate at iteration {t}")
    f, g = evaluate(program, x)
    gg = float(g.dot(g))
    if not (math.isfinite(f) and _all_finite(g, gg)):
        raise NumericalDomainError(
            f"objective or constraint value is not finite at iteration {t}")
    gamma = state.step
    lam_next = multiplier_update(lam, g, gamma)
    half_next = 0.5 * float(lam_next.dot(lam_next))
    if not _all_finite(lam_next, half_next):
        raise NumericalDomainError(f"multiplier is not finite at iteration {t}")
    L = work.half_qq if lam is work.Q_next else 0.5 * float(lam.dot(lam))
    work.Q_next, work.half_qq = lam_next, half_next
    delta = half_next - L
    # ||max(lam + gamma g, 0)||^2 <= ||lam + gamma g||^2
    bound = gamma * float(lam.dot(g)) + 0.5 * gamma * gamma * gg
    vectors = work.vectors
    if not vectors:
        work.t0 = t
    vectors.append(lam_next)
    work.scalars += (delta, bound, L, gamma * gamma * gg)
    if not work.deferred:
        _check_block(work)
    if state.x_bar is None:
        state.x_bar = x.copy()
    else:
        state.x_bar *= t / (t + 1.0)
        state.x_bar += x / (t + 1.0)
    state.cum_g += g
    state.lam = lam_next
    state.x_last = x
    state.g_last = g
    state.f_last = f
    state.drift = delta
    state.drift_bound = bound
    state.t = t + 1
    return state


def dsg_run(program, x_init_ignored, gamma, T, oracle=None, record_every=None,
            label="program"):
    """Run the baseline for ``T`` iterations with multiplier start zero.

    The primal initial guess is unused (the first iterate is determined
    by lambda(0) = 0); the argument stays for signature parity with the
    queue-based runner.  Emits the same report schema so traces overlay.
    Every step is tested for finiteness at once; lambda(t+1) >= 0 and the
    drift bound of every step are tested in blocks of 32 steps, after the
    last step and before any other exception leaves, and a failure raises
    InvariantViolation for the earliest failing step.
    """
    if not 0 < gamma < math.inf:  # NaN fails both comparisons
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if oracle is None:
        oracle = LagrangianOracle(program)
    state = DualState(t=0, lam=np.zeros(program.m), x_bar=None, step=float(gamma),
                      cum_g=np.zeros(program.m), _work=_Workspace(program.n, dual=True))

    def advance(t):
        dual_step(state, program, oracle)

    def row():
        return (state.x_last, state.x_bar, state.lam, state.f_last, state.g_last,
                state.cum_g, state.drift, state.drift_bound)

    x_init = np.zeros(program.n) if x_init_ignored is None else np.asarray(x_init_ignored, dtype=float)
    return _drive(T, record_every, advance, row, work=state._work, algorithm="dsg",
                  problem=label, alpha=None, gamma=float(gamma),
                  oracle=getattr(oracle, "name", type(oracle).__name__),
                  x_init=x_init, program=program)
