"""Dual subgradient method with primal averaging, for head-to-head runs.

The classical scheme: pick x(t) minimizing the plain Lagrangian
f(x) + lambda(t).g(x) over the box, then project the multiplier step

    lambda(t+1) = max(lambda(t) + gamma * g(x(t)), 0)

and report the running average of the primal iterates.  At a fixed step
size gamma the averaged iterate approaches the optimum only up to an
error floor set by gamma.

It runs on the virtual-queue solver's ``step``, which differs from it in
four places only; the multiplier law here supplies them: the weights
lambda(t) against Q(t) + g(x(t-1)), the prox term alpha = 0, the update
above and the drift bound of the projected step,

    ||lambda(t+1)||^2/2 - ||lambda(t)||^2/2 <= gamma lambda(t).g + gamma^2 ||g||^2/2

(Nedic & Ozdaglar, SIAM J. Optim. 19(4), 2009).  ``dual_init`` builds a
``SolverState`` with lambda(0) = 0 whose Q is lambda, and ``dsg_run`` runs
it through the solver's loop.

Without a prox term the Lagrangian can be flat in some coordinates (a
linear objective over a box); the convention here is the low endpoint
when a coordinate's coefficient is exactly zero.

Every step tests the iterate, f, g and the next multiplier for
finiteness, and raises NumericalDomainError naming the iteration.  The
runtime invariants, lambda(t+1) >= 0 and the drift bound, go to the
solver's block pass, which ``dsg_run`` runs every 32 steps, after the
last step and before any other exception leaves it; ``solver.step``
called on its own tests its step at once.  The drift is allowed the
scale-aware rounding tolerance of the solver's drift check, with
||gamma g||^2 in the place of ||g||^2.  A failure raises
InvariantViolation for the earliest failing step.
"""

import math

import numpy as np

from .oracles import SeparableOracle, _require_separable
from .solver import SolverState, _drive, _Workspace

__all__ = ["multiplier_update", "dual_init", "dsg_run"]

# names and messages of the invariants, in the order a step's failures are
# reported in
_DUAL_INVARIANTS = (
    ("multiplier", "multiplier projection failed"),
    ("drift", "drift exceeded its upper bound"),
)


def multiplier_update(lam, g, gamma):
    """One projected multiplier step, max(lam + gamma g, 0)."""
    lam_next = gamma * g
    lam_next += lam
    return np.maximum(lam_next, 0.0, out=lam_next)


class _Multipliers:
    """The multiplier law of ``solver.step``: the weights lambda(t), the
    update max(lambda + gamma g, 0) and the drift bound
    gamma lambda.g + gamma^2 ||g||^2 / 2, with ||gamma g||^2 as the drift
    tolerance's term.  The update goes through the module's
    ``multiplier_update``, so a replacement of it takes effect."""

    __slots__ = ("gamma",)
    invariants = _DUAL_INVARIANTS
    noun = "multiplier"

    def __init__(self, gamma):
        self.gamma = gamma

    @staticmethod
    def weights(lam, g_prev):
        return lam

    def update(self, lam, g):
        return multiplier_update(lam, g, self.gamma)

    def bound(self, lam, g, gg):
        gamma = self.gamma
        # ||max(lam + gamma g, 0)||^2 <= ||lam + gamma g||^2
        return gamma * float(lam.dot(g)) + 0.5 * gamma * gamma * gg, gamma * gamma * gg


class LagrangianOracle(SeparableOracle):
    """The separable oracle, which minimizes f(x) + lambda.g(x) over the
    box when ``step`` calls it at alpha = 0, under the baseline's name."""

    name = "lagrangian-closed-form"


def dual_init(program, gamma):
    """A solver state for the dual subgradient law at t = 0: lambda(0) = 0
    in ``Q``, alpha = 0, and zero x_prev and g_prev, which that law does
    not read (the separable oracle reads no x_prev at alpha = 0).  The law
    needs that closed-form Lagrangian oracle, so a program without separable
    descriptors raises ConfigurationError, as ``dsg_run`` does."""
    _require_separable(program)
    n, m = program.n, program.m
    return SolverState(t=0, x_prev=np.zeros(n), g_prev=np.zeros(m), Q=np.zeros(m),
                       x_bar=None, alpha=0.0, cum_g=np.zeros(m),
                       _work=_Workspace(n, _Multipliers(float(gamma))))


def dsg_run(program, x_init_ignored, gamma, T, record_every=None, label="program"):
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
    x_init = np.zeros(program.n) if x_init_ignored is None else np.asarray(x_init_ignored, dtype=float)
    return _drive(dual_init(program, gamma), program, LagrangianOracle(program), T,
                  record_every, True, algorithm="dsg", problem=label, alpha=None,
                  gamma=float(gamma), x_init=x_init)
