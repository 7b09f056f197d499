"""Bundled experiment instances.

Three problems back the numerical studies:

* ``fig1-num``          the 9-link / 7-path / 3-source rate-allocation
                        network (bundled fixture), utilities
                        log(y1) + 2 log(y2) + 2 log(y3);
* ``fig1-flow-power``   the same network with elastic link capacities
                        log(1 + p_l) and power cost 0.25 p_l per link;
* ``qp``                a seeded random 100-dimensional quadratic
                        program with one quadratic constraint.

Each registry entry carries the program, the reporting sense (the two
network problems are maximizations reported as utilities), a reference
optimum, and the default penalty parameter.  ``get_problem`` loads the
fixture network once per call and builds the two network programs from
it, ``fig1-num`` with ``netflow.build_num_program`` and
``fig1-flow-power`` with :func:`build_flow_power_program`, both at
``FIG1_ALPHA`` and with the topology attached.
"""

import importlib.resources
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .netflow import NumProblem, Topology, build_num_program, load_topology
from .program import BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms
from .solver import kkt_residual

__all__ = [
    "fig1_topology",
    "fig1_num_instance",
    "fig1_reference",
    "FIG1_ALPHA",
    "half_hop_alpha",
    "build_flow_power_program",
    "P_MAX",
    "POWER_COST",
    "FLOW_POWER_OPTIMUM",
    "QpInstance",
    "generate_qp",
    "QpReference",
    "qp_reference_optimum",
    "ExperimentProblem",
    "PROBLEM_NAMES",
    "get_problem",
]

# Historical penalty choice for the fixture network: half the hop-count
# bound capped at 10, kept literal so runs reproduce the published traces.
FIG1_ALPHA = 10.0

# Utility at the optimal source rates y* = (0.8, 1.6, 1.6) of the fixture
# network; the published six-digit value is 1.65687.
FIG1_UTILITY_OPTIMUM = float(np.log(0.8 * 1.6 ** 4))

# Power cap and per-unit power cost of every link in the joint flow/power
# variant on the same network, and its published optimum (utility minus
# power cost), which holds at these two values.
P_MAX = 10.0
POWER_COST = 0.25
FLOW_POWER_OPTIMUM = -0.521318


def fig1_topology():
    """The bundled 9-link, 7-path, 3-source fixture network."""
    ref = importlib.resources.files("qpush.data") / "fig1_topology.json"
    return load_topology(json.loads(ref.read_text()))


def fig1_num_instance():
    """NumProblem for the fixture network."""
    return NumProblem(*fig1_topology())


def half_hop_alpha(topology):
    """Penalty rule (S + K + total hops) / 2 + 1, hops counted from the
    incidence matrix."""
    hops = int(topology.hop_counts.sum())
    return 0.5 * (topology.S + topology.K + hops) + 1.0


def fig1_reference():
    """Exact optimal primal/dual pair of the fixture network.

    The source rates y* = (0.8, 1.6, 1.6) are the unique maximizer; the
    path split below attains them and the multipliers close the KKT
    system exactly (active links 3, 4, 6, 8 and all three source-rate
    rows price at w_s / y_s* = 1.25).  Returns (z_star, lambda_star,
    f_star) with f_star in minimization sense.
    """
    z_star = np.array([0.4, 0.4, 0.6, 0.6, 0.4, 0.6, 1.0,  # path rates
                       0.8, 1.6, 1.6])                      # source rates
    lambda_star = np.array([0.0, 0.0, 0.0, 1.25, 1.25, 0.0, 1.25, 0.0, 1.25,
                            1.25, 1.25, 1.25])
    return z_star, lambda_star, -FIG1_UTILITY_OPTIMUM


def build_flow_power_program(topology, utilities, y_max):
    """Joint rate and power allocation on z = (x, y, p), 0 <= p_l <= P_MAX.

    Capacity rows become sum_{k in D_l} x_k - log(1 + p_l) <= 0 and the
    objective gains the linear power cost POWER_COST p_l.  The Lipschitz
    hint is the spectral norm of the slope-bound pattern matrix
    [[R, 0, I], [-T, I, 0]] (the log slope is at most 1 at p = 0,
    entrywise domination does the rest).  Negating its source rows and y
    columns makes it nonnegative, so its norm is the unsigned one.  The
    constraint rows and the pattern are built from the topology's index
    arrays and the L power entries, with no dense array.

    A path rate is capped at log(1 + P_MAX), the largest capacity a link
    can reach, so the box never cuts off the optimum.
    """
    L, K, S = topology.L, topology.K, topology.S
    num = NumProblem(topology, utilities, np.full(K, np.log1p(P_MAX)),
                     np.broadcast_to(np.asarray(y_max, dtype=float), (S,)))
    n = K + S + L
    obj = CoordinateTerms(
        quad=np.zeros(n),
        lin=np.concatenate([np.zeros(K + S), np.full(L, POWER_COST)]),
        log_weight=np.concatenate([np.zeros(K), num.utility_weights, np.zeros(L)]),
    )
    rows, cols, vals = topology._stacked_triples()
    link = np.arange(L)
    power = (link, K + S + link, np.ones(L))
    cons = ConstraintTerms.from_triples(rows, cols, vals, (L + S, n), np.zeros(L + S),
                                        neglog1p=power)
    box = BoxSet(np.zeros(n), np.concatenate([num.x_max, num.y_max, np.full(L, P_MAX)]))
    pattern = ConstraintTerms.from_triples(
        *map(np.concatenate, zip((rows, cols, vals), power)), (L + S, n), np.zeros(L + S))
    return ConvexProgram.from_terms(obj, cons, box,
                                    beta_hint=pattern.unsigned_spectral_norm())


@dataclass(frozen=True)
class QpInstance:
    """Seeded random quadratic program with one quadratic constraint.

    minimize   x.P x + c.x       (P diagonal >= 0)
    subject to x.Qm x + d.x <= e (Qm diagonal >= 0)
               0 <= x <= 1

    Drawn from a Philox counter-based generator (portable, bit-stable
    across platforms) in fixed stream order: P diagonal, c, Qm diagonal,
    d, e.
    """

    seed: int
    P: np.ndarray
    c: np.ndarray
    Qm: np.ndarray
    d: np.ndarray
    e: float

    @property
    def n(self):
        return self.P.shape[0]

    def program(self):
        """The instance's ConvexProgram, built on the first call and the
        same (immutable) object on every later one."""
        return self._program

    @cached_property
    def _program(self):
        obj = CoordinateTerms(self.P, self.c, np.zeros(self.n))
        cons = ConstraintTerms(self.d[None, :], np.array([self.e]),
                               quad=self.Qm[None, :])
        box = BoxSet(np.zeros(self.n), np.ones(self.n))
        return ConvexProgram.from_terms(obj, cons, box, beta_hint=self.beta())

    def beta(self):
        """Exact Lipschitz modulus of the constraint on the box.

        The gradient 2 Qm x + d is componentwise monotone in x, so its
        norm peaks at a box vertex:  sqrt(sum_i max(|d_i|, |d_i+2q_i|)^2).
        """
        worst = np.maximum(np.abs(self.d), np.abs(self.d + 2.0 * self.Qm))
        return float(np.sqrt((worst * worst).sum()))


def generate_qp(seed):
    """Draw a 100-dimensional QpInstance; the same seed always returns
    identical data."""
    n = 100
    gen = np.random.Generator(np.random.Philox(seed))
    P = gen.uniform(0.0, 4.0, n)
    c = gen.uniform(-15.0, 20.0, n)
    Qm = gen.uniform(0.0, 1.0, n)
    d = gen.uniform(-1.0, 1.0, n)
    e = float(gen.uniform(4.0, 5.0))
    return QpInstance(seed=int(seed), P=P, c=c, Qm=Qm, d=d, e=e)


@dataclass(frozen=True)
class QpReference:
    """Independent optimum of a QpInstance with its certificate."""

    x: np.ndarray
    lam: float
    f: float
    kkt: float


def _qp_lagrangian_argmin(qp, lam, positive):
    """The minimizer over [0, 1]^n of the Lagrangian a.x^2 + b.x at the
    multiplier lam >= 0, where a = P + lam Qm and b = c + lam d: each
    coordinate's vertex -b_i / (2 a_i), clipped to [0, 1].

    ``positive`` says that every P_i > 0, so that every a_i >= P_i > 0
    (the program's build has rejected a negative Qm) and the vertex is a
    plain division, none of it by zero.  No floating-point
    state is switched, as there is no divide-by-zero or invalid flag to
    hide, and no mask is built.  Otherwise a flat coordinate, a_i = 0,
    has the linear cost b_i x_i and goes to 1 when b_i < 0 and to 0 when
    b_i >= 0 (an exact-zero slope to the low end), as in the separable
    oracle's closed forms at alpha = 0 that the baseline runs: its vertex
    is prefilled as +-inf and the division runs only where a_i > 0, so
    that again none is by zero.
    """
    a = qp.P + lam * qp.Qm
    b = qp.c + lam * qp.d
    if positive:
        x = -b / (2.0 * a)
    else:
        x = np.where(b < 0, np.inf, -np.inf)
        np.divide(-b, 2.0 * a, out=x, where=a > 0)
    return x.clip(0.0, 1.0, out=x)


def qp_reference_optimum(qp):
    """Solve a QpInstance by bisection on the scalar dual variable.

    With one constraint the dual problem is one-dimensional: the
    Lagrangian minimizer x(lam) is closed-form per coordinate and
    g(x(lam)) is nonincreasing in lam, so the complementary-slackness
    root brackets cleanly, in [0, 1e8], to a relative width of 1e-12.
    Entirely independent of the iterative solvers; the returned KKT
    residual certifies the answer.

    Whether every P_i > 0, as on every :func:`generate_qp` draw, is read
    once.  A step is then only its arithmetic on n-vectors: a division
    and an in-place clip for x(lam), and the constraint terms' values
    for g, with no mask, no floating-point state and no copy.  At
    n = 100 a step takes about 7 us and the masked form that a flat
    coordinate needs about 11 us (a shared 2-vCPU x86-64 Xeon, numpy
    2.4); a reference of the QP family makes 47-48 of them.
    """
    program = qp.program()
    values = program.constraint_terms.values
    positive = bool((qp.P > 0).all())

    def g_of(lam):
        return float(values(_qp_lagrangian_argmin(qp, lam, positive))[0])

    if g_of(0.0) <= 0.0:
        x = _qp_lagrangian_argmin(qp, 0.0, positive)
        lam = 0.0
    else:
        hi = 1.0
        while g_of(hi) > 0.0:
            hi *= 2.0
            if hi > 1e8:
                raise ConfigurationError("dual variable exceeded the search range")
        lo = 0.0
        while hi - lo > 1e-12 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if g_of(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        x = _qp_lagrangian_argmin(qp, lam, positive)
    f = program.objective_value(x)
    return QpReference(x=x, lam=lam, f=f, kkt=kkt_residual(program, x, np.array([lam])))


@dataclass(frozen=True)
class ExperimentProblem:
    """Registry entry: program plus reporting metadata."""

    name: str
    program: ConvexProgram
    sense: str                 # "max" problems report objective = -f
    f_star: float              # minimization sense; None if unknown
    default_alpha: float
    topology: Topology = None

    def reported_objective(self, f_value):
        return -f_value if self.sense == "max" else f_value

    @property
    def f_star_reported(self):
        return None if self.f_star is None else self.reported_objective(self.f_star)


PROBLEM_NAMES = ("fig1-num", "fig1-flow-power", "qp")


def get_problem(name, seed=1):
    """Look up a named experiment instance; an unknown name raises
    ConfigurationError before anything is built."""
    if name not in PROBLEM_NAMES:
        raise ConfigurationError(f"unknown problem {name!r}; expected one of {PROBLEM_NAMES}")
    if name == "qp":
        qp = generate_qp(seed)
        program = qp.program()
        return ExperimentProblem(
            name=f"qp(seed={seed})",
            program=program,
            sense="min",
            f_star=None,
            default_alpha=0.5 * program.beta_hint ** 2 + 1.0,
        )
    topo, weights, x_max, y_max = fig1_topology()
    if name == "fig1-num":
        program, f_star = build_num_program(topo, weights, x_max, y_max), -FIG1_UTILITY_OPTIMUM
    else:
        program, f_star = build_flow_power_program(topo, weights, y_max), -FLOW_POWER_OPTIMUM
    return ExperimentProblem(
        name=name,
        program=program,
        sense="max",
        f_star=f_star,
        default_alpha=FIG1_ALPHA,
        topology=topo,
    )
