"""The benchmark's workloads: seeded inputs, set-up, one repetition, checks.

Each workload turns the benchmark seed into inputs (:meth:`inputs`, pure
and deterministic), turns inputs into solver-ready programs, references
and start files (:meth:`setup`, timed as ``setup_s``), and runs one
repetition of closed-loop solves (:meth:`repetition`): one client in one
process starts the next solve when the previous one has returned.

Every library call made here goes through a module attribute
(``solver.run``, ``cli.main``, ...), so the traced run sees it through
the wrappers that :func:`layer_targets` installs.
"""

import contextlib
import io
import json
import os
import time
import traceback

import numpy as np

from hostref import PLAIN_CLOCK
from qpush import baseline, cli, netflow, oracles, problems, report, solver

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")

# An agent trace must equal the centralized trace to this tolerance.
AGENT_TOL = 1e-9
# Objective error that defines solver.iters_to_tol on fig1-num.
ITERS_TOL = 1e-3
# Reference kernel parts for calls whose cost is interpreter and numpy
# per-call overhead.
INTERPRETER = ("python", "small_numpy")


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


class Checks:
    """Counts program calls and output checks; nothing is retried."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{name}: {detail}")
        return bool(ok)

    def call(self, name, fn, *args, **kwargs):
        """Run one program call; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the benchmark reports the failure and goes on
            self.failed += 1
            self.messages.append(f"{name} raised:\n{traceback.format_exc(limit=4)}")
            return None


class NullProbe:
    """Stands in for the tracer in untraced runs."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, key, value=1):
        pass


NULL_PROBE = NullProbe()


def _scaled(T, scale):
    return max(1, int(round(T * scale)))


def first_t_within(rep, f_star, tol):
    """First recorded t whose averaged objective is within tol of f_star."""
    hit = np.flatnonzero(np.abs(rep.f_xbar - f_star) <= tol)
    return int(rep.t[hit[0]]) if hit.size else -1


def compare_agent_trace(checks, name, agents, central):
    """Agent rows must equal the centralized rows at every common t."""
    common, ia, ic = np.intersect1d(agents.t, central.t, return_indices=True)
    if not checks.check(f"{name} rows", common.size and common[-1] == agents.t[-1],
                        "the centralized run does not record the agents' last t"):
        return
    diff = max(float(np.abs(agents.x[ia] - central.x[ic]).max()),
               float(np.abs(agents.Q[ia] - central.Q[ic]).max()))
    checks.check(f"{name} equals centralized", diff <= AGENT_TOL,
                 f"max |difference| {diff:.3e} > {AGENT_TOL}")


def _finite_inside(checks, name, rep):
    if rep is None:
        return
    box = rep.program.box
    ok = np.isfinite(rep.final["f_xbar"]) and box.contains(rep.x_bar[-1], tol=1e-12)
    checks.check(f"{name} final average finite and in the box", ok)


class Workload:
    name = None
    # set-ups timed before each repetition; cheap ones repeat for a steadier median
    setups_per_rep = 1
    # host reference kernel parts whose cost is of the same kind as each
    # timed call's (see hostref)
    reference_parts = {"setup_s": INTERPRETER, "vq_s": INTERPRETER, "dsg_s": INTERPRETER,
                       "agent_s": INTERPRETER, "run_ms": INTERPRETER}

    def inputs(self, seed):
        return {}

    def setup(self, inputs, out_dir, probe=NULL_PROBE):
        raise NotImplementedError

    def repetition(self, ctx, checks, scale=1.0, probe=NULL_PROBE, clock=PLAIN_CLOCK):
        """One repetition; ``clock`` times each of its solves.

        Returns counts and raw times, with the times at nominal host speed
        under ``"nominal"`` (see ``hostref``).
        """
        raise NotImplementedError

    def _timed(self, clock, totals, key, fn, *args, **kwargs):
        """Add the call's wall time to ``totals[key]`` and its time at nominal
        host speed to ``totals["nominal"][key]``."""
        result, seconds, factor = clock.timed(self.reference_parts[key], fn, *args, **kwargs)
        totals[key] = totals.get(key, 0.0) + seconds
        nominal = totals.setdefault("nominal", {})
        nominal[key] = nominal.get(key, 0.0) + seconds * factor
        return result

    def calibration(self, ctx):
        """(program, x_init, alpha, T, f_star) of one VQ run.

        With an f_star, the run also measures solver.iters_to_tol.
        """
        raise NotImplementedError


class Fig1(Workload):
    """The paper's experiments on the bundled 9-link network."""

    name = "fig1"
    setups_per_rep = 20
    ALPHA = 10.0
    GAMMA = 0.01
    T_NUM = 10000
    T_FLOW_POWER = 4000
    T_DSG = 4000
    T_AGENTS = 4000
    T_CALIBRATION = 25000

    def __init__(self):
        self.expected = load_spec()["expected"]["fig1"]

    def setup(self, inputs, out_dir, probe=NULL_PROBE):
        num = problems.get_problem("fig1-num")
        flow_power = problems.get_problem("fig1-flow-power")
        z_star, lam_star, f_star = problems.fig1_reference()
        instance = problems.fig1_num_instance()
        return {"num": num, "flow_power": flow_power,
                "reference": (f_star, z_star, lam_star), "instance": instance}

    def repetition(self, ctx, checks, scale=1.0, probe=NULL_PROBE, clock=PLAIN_CLOCK):
        t = {}
        num = ctx["num"].program
        flow_power = ctx["flow_power"].program
        inst = ctx["instance"]
        T_num = _scaled(self.T_NUM, scale)
        T_fp = _scaled(self.T_FLOW_POWER, scale)
        T_dsg = _scaled(self.T_DSG, scale)
        T_agents = _scaled(self.T_AGENTS, scale)

        vq = self._timed(clock, t, "vq_s", checks.call, "vq fig1-num", solver.run, num,
                    np.zeros(num.n), self.ALPHA, T_num, label="fig1-num")
        if vq is not None:
            f_star, z_star, lam_star = ctx["reference"]
            bounds = checks.call("verify_bounds fig1-num", solver.verify_bounds,
                                 vq, f_star, z_star, lam_star, num.beta_hint)
            if bounds is not None:
                checks.check("fig1-num bounds", bounds.ok and not bounds.skipped,
                             json.dumps(bounds.summary(), default=str))
        fp = self._timed(clock, t, "vq_s", checks.call, "vq fig1-flow-power", solver.run,
                    flow_power, np.zeros(flow_power.n), self.ALPHA, T_fp,
                    label="fig1-flow-power")
        dsg = self._timed(clock, t, "dsg_s", checks.call, "dsg fig1-flow-power", baseline.dsg_run,
                     flow_power, None, self.GAMMA, T_dsg, label="fig1-flow-power")
        agents = self._timed(clock, t, "agent_s", checks.call, "agents fig1-num",
                        netflow.simulate_decentralized, inst.topology,
                        inst.utility_weights, inst.x_max, inst.y_max, self.ALPHA,
                        np.zeros(inst.topology.K), np.zeros(inst.topology.S), T_agents)
        probe.count("netflow.rounds", T_agents)
        if scale == 1.0:
            self._check_expected(checks, "fig1-flow-power vq", fp, T_fp)
            self._check_expected(checks, "fig1-flow-power dsg", dsg, T_dsg)
        if agents is not None and vq is not None:
            compare_agent_trace(checks, "fig1 agents", agents, vq)
        return {"vq_iters": T_num + T_fp, "dsg_iters": T_dsg,
                "agent_rounds": T_agents, **t,
                "messages_per_round": _messages_per_round(agents)}

    def _check_expected(self, checks, name, rep, T):
        if rep is None:
            return
        want = self.expected[name]
        if not checks.check(f"{name} run length", want["T"] == T,
                            f"expected values are stored for T={want['T']}, ran T={T}"):
            return
        got = rep.final["f_xbar"]
        checks.check(f"{name} final objective", abs(got - want["f_xbar"]) <= want["tolerance"],
                     f"{got!r} differs from {want['f_xbar']!r} by more than {want['tolerance']}")

    def calibration(self, ctx):
        num = ctx["num"]
        return num.program, np.zeros(num.program.n), self.ALPHA, self.T_CALIBRATION, num.f_star


def _messages_per_round(rep):
    if rep is None:
        return 0
    extras = rep.extras
    return extras.get("price_messages_per_round", 0) + extras.get("rate_messages_per_round", 0)


def net_large_inputs(seed, links=400, sources=300, paths_per_source=4, hops=(2, 6)):
    """A random multipath network drawn from ``seed``.

    Every path crosses 2 to 6 distinct links chosen uniformly; capacities,
    utility weights and rate caps are uniform on fixed ranges.  The dense
    (L+S) x (K+S) constraint matrix is then 700 x 1500 doubles, 8.4 MB.
    """
    rng = np.random.default_rng([int(seed), 1])
    capacities = rng.uniform(1.0, 5.0, links)
    paths = []
    for s in range(sources):
        for _ in range(paths_per_source):
            h = int(rng.integers(hops[0], hops[1] + 1))
            paths.append((s, sorted(int(l) for l in rng.choice(links, h, replace=False))))
    K = len(paths)
    return {"capacities": capacities, "paths": paths,
            "weights": rng.uniform(0.5, 2.0, sources),
            "x_max": rng.uniform(0.5, 2.0, K),
            "y_max": rng.uniform(1.0, 4.0, sources)}


class NetLarge(Workload):
    """A seeded random multipath network whose constraint matrix outgrows L2."""

    name = "net-large"
    # VQ and DSG steps are dense matrix-vector products; the agents and the
    # topology build are Python loops; set-up also runs the power iteration.
    reference_parts = {"setup_s": ("python", "small_numpy", "matvec"),
                       "vq_s": ("small_numpy", "matvec"), "dsg_s": ("small_numpy", "matvec"),
                       "agent_s": INTERPRETER}
    GAMMA = 0.01
    T_VQ = 300
    T_DSG = 300
    T_AGENTS = 40
    T_CALIBRATION = 100

    def inputs(self, seed):
        return net_large_inputs(seed)

    def setup(self, inputs, out_dir, probe=NULL_PROBE):
        with probe.span("problems.build"):
            topology = netflow.Topology.from_paths(inputs["capacities"], inputs["paths"])
        program = netflow.build_num_program(topology, inputs["weights"],
                                            inputs["x_max"], inputs["y_max"])
        hop_bound, _ = netflow.beta_bounds(topology)
        beta = program.beta_hint
        return {"topology": topology, "program": program, "inputs": inputs,
                "alpha": 0.5 * beta * beta + 1.0, "hop_bound": hop_bound}

    def repetition(self, ctx, checks, scale=1.0, probe=NULL_PROBE, clock=PLAIN_CLOCK):
        t = {}
        program, alpha, inputs = ctx["program"], ctx["alpha"], ctx["inputs"]
        topology = ctx["topology"]
        T_vq = _scaled(self.T_VQ, scale)
        T_dsg = _scaled(self.T_DSG, scale)
        T_agents = _scaled(self.T_AGENTS, scale)
        checks.check("net-large beta below the hop bound",
                     program.beta_hint <= ctx["hop_bound"] + 1e-9)
        vq = self._timed(clock, t, "vq_s", checks.call, "vq net-large", solver.run, program,
                    np.zeros(program.n), alpha, T_vq, label="net-large")
        _finite_inside(checks, "vq net-large", vq)
        dsg = self._timed(clock, t, "dsg_s", checks.call, "dsg net-large", baseline.dsg_run,
                     program, None, self.GAMMA, T_dsg, label="net-large")
        _finite_inside(checks, "dsg net-large", dsg)
        agents = self._timed(clock, t, "agent_s", checks.call, "agents net-large",
                        netflow.simulate_decentralized, topology, inputs["weights"],
                        inputs["x_max"], inputs["y_max"], alpha,
                        np.zeros(topology.K), np.zeros(topology.S), T_agents)
        probe.count("netflow.rounds", T_agents)
        if agents is not None and vq is not None:
            compare_agent_trace(checks, "net-large agents", agents, vq)
        return {"vq_iters": T_vq, "dsg_iters": T_dsg, "agent_rounds": T_agents, **t,
                "messages_per_round": _messages_per_round(agents)}

    def calibration(self, ctx):
        program = ctx["program"]
        return program, np.zeros(program.n), ctx["alpha"], self.T_CALIBRATION, None


def qp_sweep_inputs(seed, instances=4, alphas=5, starts=5, n=100):
    """QP seeds, alpha factors over beta^2/2, and start points from ``seed``."""
    rng = np.random.default_rng([int(seed), 2])
    return {"qp_seeds": [int(s) for s in rng.choice(1_000_000, instances, replace=False)],
            "alpha_factors": rng.uniform(1.05, 4.0, (instances, alphas)),
            "starts": rng.uniform(0.0, 1.0, (starts, n))}


class QpSweep(Workload):
    """Multi-start alpha sweep of short CLI runs over the paper's QP family."""

    name = "qp-sweep"
    setups_per_rep = 10
    T = 200
    T_CALIBRATION = 2000
    RUNS_PER_CHUNK = 10

    def inputs(self, seed):
        return qp_sweep_inputs(seed)

    def setup(self, inputs, out_dir, probe=NULL_PROBE):
        in_dir = os.path.join(out_dir, "inputs")
        os.makedirs(in_dir, exist_ok=True)
        start_files = []
        for j, x0 in enumerate(inputs["starts"]):
            path = os.path.join(in_dir, f"x0_{j}.json")
            with open(path, "w") as fh:
                json.dump(x0.tolist(), fh)
            start_files.append(path)
        runs, instances = [], []
        for i, qp_seed in enumerate(inputs["qp_seeds"]):
            qp = problems.generate_qp(qp_seed)
            with probe.span("problems.build"):
                program = qp.program()
            beta = program.beta_hint
            ref = problems.qp_reference_optimum(qp)
            ref_path = os.path.join(in_dir, f"ref_{i}.json")
            with open(ref_path, "w") as fh:
                json.dump({"f_star": ref.f, "x_star": ref.x.tolist(),
                           "lambda_star": [ref.lam], "beta": beta}, fh)
            alphas = [float(factor * 0.5 * beta * beta) for factor in inputs["alpha_factors"][i]]
            instances.append((program, alphas[0]))
            for alpha in alphas:
                for x0_path in start_files:
                    run_dir = os.path.join(out_dir, "runs", f"r{len(runs):03d}")
                    runs.append((run_dir, ["run", "--problem", "qp", "--seed", str(qp_seed),
                                           "--alpha", repr(alpha), "--x-init", x0_path,
                                           "--T", str(self.T), "--verify-bounds", ref_path,
                                           "--full-trace", "--plot", "--out", run_dir]))
        return {"runs": runs, "instances": instances, "start": inputs["starts"][0]}

    def repetition(self, ctx, checks, scale=1.0, probe=NULL_PROBE, clock=PLAIN_CLOCK):
        runs = ctx["runs"][:_scaled(len(ctx["runs"]), scale)]
        run_ms, nominal_ms = [], []
        for first in range(0, len(runs), self.RUNS_PER_CHUNK):
            chunk = runs[first:first + self.RUNS_PER_CHUNK]
            chunk_ms, _, factor = clock.timed(self.reference_parts["run_ms"], self._run_chunk,
                                              chunk, checks, probe)
            run_ms += chunk_ms
            nominal_ms += [ms * factor for ms in chunk_ms]
        return {"vq_iters": self.T * len(runs), "vq_s": sum(run_ms) / 1e3, "run_ms": run_ms,
                "nominal": {"vq_s": sum(nominal_ms) / 1e3, "run_ms": nominal_ms}}

    def _run_chunk(self, runs, checks, probe):
        """CLI runs back to back, each checked; returns ms per run."""
        run_ms = []
        for run_dir, argv in runs:
            summary_path = os.path.join(run_dir, "summary.json")
            if os.path.exists(summary_path):
                os.remove(summary_path)
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = checks.call("qpush run " + run_dir, cli.main, argv)
            run_ms.append((time.perf_counter() - started) * 1e3)
            if not checks.check(f"{run_dir} exit code", code == 0, f"exit {code}"):
                probe.count("cli.exit_nonzero")
                continue
            summary = checks.call(f"{run_dir} summary", _read_json, summary_path)
            if summary is None:
                continue
            passed = {name: b["passed"] for name, b in summary.get("bounds", {}).items()}
            checks.check(f"{run_dir} bounds", len(passed) == 4 and all(v is True for v in passed.values()),
                         f"bounds {passed}")
            checks.check(f"{run_dir} iterations", summary.get("iterations") == self.T)
            if probe is not NULL_PROBE:
                probe.count("report.bytes_written", _dir_bytes(run_dir))
        return run_ms

    def calibration(self, ctx):
        program, alpha = ctx["instances"][0]
        return program, ctx["start"], alpha, self.T_CALIBRATION, None


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


WORKLOADS = {w.name: w for w in (Fig1, NetLarge, QpSweep)}


def get(name):
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    return WORKLOADS[name]()


# ---------------------------------------------------------------------------
# Layer boundaries for the traced run

def _array_bytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _evaluate_bytes(program):
    """Term arrays an evaluation reads, plus x in and g out (computed)."""
    total = 8 * (program.n + program.m)
    for terms in (program.objective_terms, program.constraint_terms):
        if terms is not None:
            # all-zero term arrays are skipped by the evaluator
            total += sum(v.nbytes for v in vars(terms).values()
                         if isinstance(v, np.ndarray) and v.ndim and v.any())
    return total


def layer_targets(tracer):
    """Module and class attributes the drivers call, with their span names."""
    def evaluate_bytes(args):
        return tracer.nbytes_of(args[0], _evaluate_bytes)

    def solve_bytes(args):
        oracle, weights, x_prev = args[0], args[1], args[2]
        return tracer.nbytes_of(oracle, _array_bytes) + weights.nbytes + 2 * x_prev.nbytes

    def retained(rep):
        tracer.count("report.retained_bytes", _array_bytes(rep))

    plain = [
        (problems, "get_problem", "problems.build"),
        (cli, "get_problem", "problems.build"),
        (problems, "fig1_num_instance", "problems.build"),
        (problems, "build_flow_power_program", "problems.build"),
        (problems, "generate_qp", "problems.build"),
        (netflow, "build_num_program", "problems.build"),
        (problems, "fig1_reference", "problems.reference"),
        (problems, "qp_reference_optimum", "problems.reference"),
        (netflow, "spectral_norm", "program.spectral_norm"),
        (problems, "spectral_norm", "program.spectral_norm"),
        (cli, "spectral_norm", "program.spectral_norm"),
        (solver, "make_oracle", "oracles.make"),
        (solver, "step", "solver.step"),
        (solver, "queue_update", "solver.queue_update"),
        (solver, "run", "solver.run"),
        (cli, "run", "solver.run"),
        (solver, "verify_bounds", "solver.verify_bounds"),
        (cli, "verify_bounds", "solver.verify_bounds"),
        (baseline.LagrangianOracle, "__call__", "baseline.oracle"),
        (baseline, "make_dual_oracle", "baseline.make_oracle"),
        (baseline, "dual_step", "baseline.dual_step"),
        (baseline, "dsg_run", "baseline.run"),
        (cli, "dsg_run", "baseline.run"),
        (netflow, "simulate_decentralized", "netflow.simulate"),
        (netflow, "beta_bounds", "netflow.beta_bounds"),
        (report.TraceRecorder, "add", "report.add"),
        (cli, "write_trace_csv", "report.write_trace"),
        (cli, "write_full_trace_csv", "report.write_full_trace"),
        (cli, "write_summary", "report.write_summary"),
        (cli, "plot_trace", "report.plot"),
        (solver.BoundReport, "to_csv", "report.write_bounds"),
        (cli, "main", "cli.command"),
    ]
    targets = [(owner, attr, name, None, None) for owner, attr, name in plain]
    targets += [
        (solver, "evaluate", "program.evaluate", evaluate_bytes, None),
        (baseline, "evaluate", "program.evaluate", evaluate_bytes, None),
        (netflow, "evaluate", "program.evaluate", evaluate_bytes, None),
        (oracles.SeparableOracle, "solve", "oracles.solve", solve_bytes, None),
        (report.TraceRecorder, "build", "report.build", None, retained),
    ]
    return targets
