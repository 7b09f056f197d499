"""Experiment runner.

Subcommands::

    qpush run    --problem fig1-num --algo vq --alpha 10 --T 100000
    qpush verify --problem fig1-num --alpha 10 --T 1000 --reference ref.json
    qpush bench  --problem fig1-num --T 10000 --alpha 10 --gamma 0.01
    qpush plot   --trace out/trace.csv

``run`` writes ``trace.csv`` and ``summary.json`` into the output
directory (``--out``, else the ``QPUSH_OUT`` environment variable, else
the working directory), plus an optional full-trace sidecar, bound
margins, and a log-log convergence SVG.  ``verify`` re-runs a problem
and checks the trace against the certified decay bounds from a
reference file ``{"f_star":.., "x_star":[..], "lambda_star":[..],
"beta":..}``; it exits 4 when a bound is violated.  Exit codes: 0 ok,
2 configuration error, 3 numerical failure (a non-finite value, an
oracle that does not converge, or an ``InvariantViolation``: a runtime
invariant failed beyond its rounding tolerance), 4 bound violation.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .baseline import dsg_run
from .errors import (ConfigurationError, InvariantViolation, NonConvergenceError,
                     NumericalDomainError)
from .problems import PROBLEM_NAMES, ExperimentProblem, get_problem, half_hop_alpha
from .program import load_program
from .report import (plot_trace, render_convergence_svg, write_full_trace_csv,
                     write_summary, write_trace_csv)
from .solver import run, verify_bounds

__all__ = ["main", "run_command", "build_parser"]


def _out_dir(args):
    out = args.out or os.environ.get("QPUSH_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file in the way, a file as a parent, no permission
        raise ConfigurationError(f"unusable output directory {out!r}: {exc}") from exc
    return out


def _read_json(path, what):
    """Parse the JSON input file ``path``; a file that cannot be opened or
    parsed (missing, a directory, not JSON) is a ConfigurationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigurationError(f"cannot read {what} {path!r}: {exc}") from exc


def _load_instance(args):
    if args.problem_file:
        program = load_program(_read_json(args.problem_file, "problem file"))
        return ExperimentProblem(name=os.path.basename(args.problem_file),
                                 program=program, sense="min", f_star=None,
                                 default_alpha=None)
    if not args.problem:
        raise ConfigurationError("one of --problem or --problem-file is required")
    return get_problem(args.problem, seed=args.seed)


def _resolve_alpha(args, instance):
    """The VQ penalty and how it was chosen: ``--alpha`` (a number or
    ``auto``), else the problem's default."""
    if args.alpha is None:
        if instance.default_alpha is None:
            raise ConfigurationError("--alpha is required for this problem")
        return instance.default_alpha, "default"
    if args.alpha == "auto":
        beta = instance.program.beta_hint
        if beta is None:
            raise ConfigurationError("--alpha auto needs a program with a beta hint")
        return 0.5 * beta * beta + 1.0, "auto"
    try:
        return float(args.alpha), "explicit"
    except ValueError as exc:
        raise ConfigurationError(f"bad --alpha value {args.alpha!r}") from exc


def _resolve_x_init(args, program):
    if args.x_init == "zeros":
        x0 = np.zeros(program.n)
    else:
        x0 = _read_json(args.x_init, "--x-init file")
        if not isinstance(x0, list):
            raise ConfigurationError("--x-init file must hold a JSON list of numbers")
        try:
            x0 = np.asarray(x0, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"--x-init file must hold a JSON list of numbers: {exc}") from exc
    if not program.box.contains(x0):
        raise ConfigurationError("initial point lies outside the box")
    return x0


def _beta_summary(program):
    info = {"beta_hint": program.beta_hint}
    if program.structure == "linear":
        # every linear program the CLI loads carries sigma_max(A) as its hint
        info["beta_spectral"] = program.beta_hint
        info["beta_frobenius"] = float(np.linalg.norm(program.A))
    return info


def _execute(args, instance, alpha, alpha_rule):
    program = instance.program
    label = instance.name
    if args.algo == "vq":
        x0 = _resolve_x_init(args, program)
        report = run(program, x0, alpha, args.T, record_every=args.record_every,
                     label=label)
    elif args.algo == "dsg":
        report = dsg_run(program, None, args.gamma, args.T,
                         record_every=args.record_every, label=label)
    else:
        raise ConfigurationError(f"unknown algorithm {args.algo!r}")
    extra = _beta_summary(program)
    extra["sense"] = instance.sense
    extra["objective"] = instance.reported_objective(report.final["f_xbar"])
    if instance.f_star_reported is not None:
        extra["f_star_reference"] = instance.f_star_reported
    if alpha_rule == "auto":
        extra["alpha_rule"] = "auto"
    if instance.topology is not None:
        extra["alpha_half_hop_rule"] = half_hop_alpha(instance.topology)
    return report, extra


def _load_reference(path):
    ref = _read_json(path, "reference file")
    try:
        return (float(ref["f_star"]), np.asarray(ref["x_star"], dtype=float),
                np.asarray(ref["lambda_star"], dtype=float), float(ref["beta"]))
    except KeyError as exc:
        raise ConfigurationError(f"reference file missing field: {exc}") from exc
    except (TypeError, AttributeError, OverflowError) as exc:
        # a list or a scalar where an object belongs, an integer beyond any float
        raise ConfigurationError(f"malformed reference file: {exc}") from exc


def _apply_reference(report, reference):
    """Fill the bound-residual trace columns from a reference."""
    f_star, x_star, lambda_star, beta = reference
    program = report.program
    for name, v, k in (("x_star", x_star, program.n), ("lambda_star", lambda_star, program.m)):
        if v.shape != (k,):
            got = f"length {v.shape[0]}" if v.ndim == 1 else f"shape {v.shape}"
            raise ConfigurationError(f"reference {name} has {got}, expected length {k}")
    bounds = verify_bounds(report, f_star, x_star, lambda_star, beta)
    report.obj_bound_residual = bounds.objective_margin
    report.cons_bound_residual = bounds.constraint_margin
    return bounds


def run_command(args):
    out = _out_dir(args)
    instance = _load_instance(args)
    alpha, alpha_rule = _resolve_alpha(args, instance) if args.algo == "vq" else (None, None)
    report, extra = _execute(args, instance, alpha, alpha_rule)
    bounds = None
    if args.verify_bounds:
        bounds = _apply_reference(report, _load_reference(args.verify_bounds))
        bounds.to_csv(os.path.join(out, "bounds.csv"))
        extra["bounds"] = bounds.summary()
    trace_path = os.path.join(out, "trace.csv")
    write_trace_csv(report, trace_path)
    if args.full_trace:
        write_full_trace_csv(report, os.path.join(out, "trace_full.csv"))
    summary = write_summary(report, os.path.join(out, "summary.json"), extra=extra)
    if args.plot:
        # the report's columns, not trace.csv read back: %.17g round-trips
        # every double, so the SVG is the one ``qpush plot`` makes of the CSV
        svg = render_convergence_svg(report.columns(), f_star=instance.f_star,
                                     title=instance.name)
        with open(os.path.join(out, "convergence.svg"), "w") as fh:
            fh.write(svg)
    print(f"wrote {trace_path}")
    print(f"final objective {summary['objective'] if 'objective' in summary else summary['f_xbar']:.6f}, "
          f"max violation {summary['max_violation']:.3e}, "
          f"queue norm {summary['queue_norm']:.3e}")
    return 0


def verify_command(args):
    out = _out_dir(args)
    instance = _load_instance(args)
    alpha, alpha_rule = _resolve_alpha(args, instance)
    args.algo = "vq"
    report, extra = _execute(args, instance, alpha, alpha_rule)
    bounds = _apply_reference(report, _load_reference(args.reference))
    bounds.to_csv(os.path.join(out, "bounds.csv"))
    write_trace_csv(report, os.path.join(out, "trace.csv"))
    write_summary(report, os.path.join(out, "summary.json"),
                  extra={**extra, "bounds": bounds.summary()})
    for name in ("objective", "constraint", "queue", "queue_lower"):
        state = bounds.passed(name)
        tag = "skipped" if state is None else ("ok" if state else "VIOLATED")
        print(f"{name:12s} {tag:9s} worst margin {bounds.worst(name):.3e}")
    return 0 if bounds.ok else 4


def bench_command(args):
    out = _out_dir(args)
    instance = _load_instance(args)
    alpha = _resolve_alpha(args, instance)[0]
    program = instance.program
    x0 = np.zeros(program.n)
    rows = []
    vq = run(program, x0, alpha, args.T, record_every=args.record_every,
             label=instance.name)
    dsg = dsg_run(program, None, args.gamma, args.T,
                  record_every=args.record_every, label=instance.name)
    for rep in (vq, dsg):
        row = {"algorithm": rep.algorithm, **rep.final,
               "objective": instance.reported_objective(rep.final["f_xbar"]),
               "wall_time_s": rep.wall_time}
        if instance.f_star is not None:
            row["objective_error"] = abs(rep.final["f_xbar"] - instance.f_star)
        rows.append(row)
    with open(os.path.join(out, "bench.json"), "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    header = f"{'algo':6s} {'objective':>12s} {'violation':>11s} {'queue':>10s} {'seconds':>8s}"
    print(header)
    for row in rows:
        print(f"{row['algorithm']:6s} {row['objective']:12.6f} "
              f"{row['max_violation']:11.3e} {row['queue_norm']:10.3e} "
              f"{row['wall_time_s']:8.2f}")
    if instance.f_star is not None and all("objective_error" in r for r in rows):
        faster = min(rows, key=lambda r: r["objective_error"])["algorithm"]
        print(f"smaller final error: {faster}")
    return 0


def plot_command(args):
    out = _out_dir(args)
    f_star = args.f_star
    if f_star is None and args.problem:
        f_star = get_problem(args.problem, seed=args.seed).f_star
    svg = os.path.join(out, "convergence.svg")
    try:
        plot_trace(args.trace, svg, f_star=f_star,
                   title=args.problem or os.path.basename(args.trace))
    except OSError as exc:  # a trace that is a directory or unreadable
        raise ConfigurationError(f"cannot plot trace {args.trace!r}: {exc}") from exc
    print(f"wrote {svg}")
    return 0


def _stride(value):
    """An argparse type: a record stride of at least 1."""
    stride = int(value)
    if stride < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {stride}")
    return stride


def _add_problem_args(p):
    p.add_argument("--problem", choices=PROBLEM_NAMES, help="named instance")
    p.add_argument("--problem-file", help="JSON problem description")
    p.add_argument("--seed", type=int, default=1, help="seed for the qp instance")


def _add_run_args(p):
    p.add_argument("--algo", choices=("vq", "dsg"), default="vq")
    p.add_argument("--alpha", help="penalty parameter, a number or 'auto'")
    p.add_argument("--gamma", type=float, default=0.01, help="dsg step size")
    p.add_argument("--T", type=int, required=True, help="iteration count")
    p.add_argument("--record-every", type=_stride, default=None)
    p.add_argument("--x-init", default="zeros", help="'zeros' or a JSON vector file")
    p.add_argument("--out", default=None, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(prog="qpush",
                                     description="virtual-queue prox experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one solver configuration")
    _add_problem_args(p_run)
    _add_run_args(p_run)
    p_run.add_argument("--full-trace", action="store_true",
                       help="also write per-iteration vectors")
    p_run.add_argument("--verify-bounds", metavar="REF_JSON", default=None,
                       help="fill bound residual columns from a reference file")
    p_run.add_argument("--plot", action="store_true", help="write convergence.svg")

    p_ver = sub.add_parser("verify", help="check decay bounds against a reference")
    _add_problem_args(p_ver)
    _add_run_args(p_ver)
    p_ver.add_argument("--reference", required=True, metavar="REF_JSON")

    p_bench = sub.add_parser("bench", help="paired vq/dsg comparison")
    _add_problem_args(p_bench)
    p_bench.add_argument("--alpha", default=None)
    p_bench.add_argument("--gamma", type=float, default=0.01)
    p_bench.add_argument("--T", type=int, required=True)
    p_bench.add_argument("--record-every", type=_stride, default=None)
    p_bench.add_argument("--out", default=None)

    p_plot = sub.add_parser("plot", help="re-render a saved trace")
    p_plot.add_argument("--trace", required=True)
    p_plot.add_argument("--f-star", type=float, default=None,
                        help="reference optimum in minimization sense")
    p_plot.add_argument("--problem", choices=PROBLEM_NAMES, default=None)
    p_plot.add_argument("--seed", type=int, default=1)
    p_plot.add_argument("--out", default=None)
    return parser


_COMMANDS = {"run": run_command, "verify": verify_command,
             "bench": bench_command, "plot": plot_command}

# built on the first call: a build costs about 1.3 ms, parsing reuses it
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, NumericalDomainError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"numerical failure: {exc} at iteration {exc.t}, margin {exc.margin:.3e}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
