"""Virtual-queue prox solver for convex programs with Lipschitz constraints.

The averaged iterate of the queue-weighted prox iteration approaches the
optimum of

    minimize f(x)  s.t.  g(x) <= 0,  x in a box

at rate O(1/t) in both objective error and constraint violation, without
strong convexity, provided the penalty parameter alpha is at least half
the squared Lipschitz modulus of g.  Separable problems decompose into
per-coordinate closed forms, which is what the decentralized network
flow-control simulator exploits.
"""

from .baseline import dsg_run, dual_init
from .errors import (ConfigurationError, InvariantViolation, NonConvergenceError,
                     NumericalDomainError)
from .netflow import (NumProblem, Topology, beta_bounds, build_num_program,
                      load_topology, simulate_decentralized)
from .oracles import SeparableOracle, make_oracle, solve_projected_gradient
from .problems import (ExperimentProblem, QpInstance, build_flow_power_program,
                       fig1_num_instance, fig1_reference, fig1_topology,
                       generate_qp, get_problem, half_hop_alpha,
                       qp_reference_optimum)
from .program import (BoxSet, ConstraintTerms, ConvexProgram, CoordinateTerms,
                      evaluate, load_program, spectral_norm)
from .report import (RunReport, SlopeResult, parse_trace_csv, plot_trace,
                     render_convergence_svg, slope_check, write_summary,
                     write_trace_csv)
from .solver import (AlphaBelowCurvatureWarning, BoundReport, SolverState, init,
                     kkt_residual, queue_update, run, step, verify_bounds)

__version__ = "0.1.0"
