"""qpush benchmark: closed-loop solves on one workload, checked and timed.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates traced and untraced units (one set-up plus one
repetition each) and reports the per-layer split; its spans are written
to ``.perfbench_out/<workload>-spans.npz`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
come from ``BENCHMARK.json``.  Every line before it is for people.  The
program under test is imported from ``src/`` of the same checkout; without
it the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# One client in one process: BLAS gets at most the cores there are, and
# no more than two, so the matrix-vector products of net-large do not
# oversubscribe a small machine.
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))

MIN_REPS = 3
MIN_TRACED_UNITS = 2
# Share of a repetition run before timing starts, to warm imports and caches.
WARM_SCALE = 0.1
# Traced units that the calibration runs are filed under.
CALIBRATION_ON, CALIBRATION_OFF = -2, -3


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _pin_blas_threads():
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "qpush", "__init__.py")):
        _fail(f"no qpush sources under {SRC}")
    sys.path.insert(0, SRC)
    import qpush

    if not os.path.abspath(qpush.__file__).startswith(SRC + os.sep):
        _fail(f"qpush was imported from {qpush.__file__}, not from {SRC}")


def _load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        _fail(f"{path} is missing")
    with open(path) as fh:
        return json.load(fh)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return None


def _environment(spec, seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "git_commit": _git_commit(), "seed": seed,
            "held_out_seed": spec["held_out_seed"]}


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics

def rep_metrics(rep):
    """End-to-end metrics of one repetition."""
    out = {"wall_s": rep["wall_s"], "peak_rss_mb": rep["peak_rss_mb"],
           "vq_iters_per_s": rep["vq_iters"] / rep["vq_s"]}
    if "dsg_s" in rep:
        out["dsg_iters_per_s"] = rep["dsg_iters"] / rep["dsg_s"]
        out["agent_rounds_per_s"] = rep["agent_rounds"] / rep["agent_s"]
    if "run_ms" in rep:
        run_ms = rep["run_ms"]
        out["sweep_runs_per_s"] = len(run_ms) / rep["wall_s"]
        out["run_ms_p50"] = stats.percentile(run_ms, 50)
        if stats.highest_percentile(len(run_ms)) >= 90:
            out["run_ms_p90"] = stats.percentile(run_ms, 90)
    return out


def at_nominal_speed(rep, factor):
    """A repetition's metrics at nominal host speed.

    Each solve was scaled by the factor of its own reference samples; the
    wall time of the whole repetition is scaled by ``factor``.
    """
    return {**rep, **rep["nominal"], "wall_s": rep["wall_s"] * factor}


def untraced_run(workload, inputs, checks, seconds):
    """Set-ups and repetitions take turns, so both sample the whole window.

    Each round is a batch of set-ups and one repetition.  The batch and
    each solve of the repetition are timed between two passes of the host
    reference kernel and scaled by their speed factor (see ``hostref``);
    the repetition's wall time is scaled by the time-weighted factor of its
    solves.  Reference passes are not counted in any time.  Returns the
    scaled samples, the raw ones and the log of timed calls.
    """
    import hostref

    out_dir = os.path.join(OUT, workload.name)
    started = time.perf_counter()
    host = hostref.HostReference()
    ctx = workload.setup(inputs, out_dir)
    workload.repetition(ctx, checks, scale=WARM_SCALE, clock=host)

    def timed_setups():
        nonlocal ctx
        times = []
        for _ in range(workload.setups_per_rep):
            t0 = time.perf_counter()
            ctx = workload.setup(inputs, out_dir)
            times.append(time.perf_counter() - t0)
        return times

    setups, raw_setups, reps, raw_reps, factors = [], [], [], [], []
    while True:
        round_setups, _, setup_factor = host.timed(workload.reference_parts["setup_s"],
                                                   timed_setups)
        raw_setups += round_setups
        setups += [s * setup_factor for s in round_setups]
        first, sampling = host.mark(), host.sampling_s
        t0 = time.perf_counter()
        rep = workload.repetition(ctx, checks, clock=host)
        rep["wall_s"] = time.perf_counter() - t0 - (host.sampling_s - sampling)
        rep["peak_rss_mb"] = _peak_rss_mb()
        factors.append(host.factor_since(first))
        raw_reps.append(rep_metrics(rep))
        reps.append(rep_metrics(at_nominal_speed(rep, factors[-1])))
        typical = stats.quartiles([r["wall_s"] for r in raw_reps])[1]
        if len(reps) >= MIN_REPS and time.perf_counter() - started + typical > seconds:
            break
    samples = {"setup_s": setups}
    raw = {"setup_s": raw_setups, "host_speed_factor": factors}
    for name in reps[0]:
        samples[name] = [r[name] for r in reps]
        raw[name] = [r[name] for r in raw_reps]
    return samples, raw, host.log


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics

LAYERS = ("problems", "program", "oracles", "solver", "baseline", "netflow",
          "report", "cli")


def _calibrate(workload, ctx, tracer, targets):
    """Step self time with and without invariant checks, same VQ run."""
    import workloads
    from qpush import solver

    program, x0, alpha, T, f_star = workload.calibration(ctx)
    reports = {}
    for unit, validate in ((CALIBRATION_ON, True), (CALIBRATION_OFF, False)):
        tracer.current_unit = unit
        tracer.install(targets)
        try:
            reports[validate] = solver.run(program, x0, alpha, T, validate=validate)
        finally:
            tracer.uninstall()
    if f_star is None:
        return 0
    return workloads.first_t_within(reports[True], f_star, workloads.ITERS_TOL)


def traced_run(workload, inputs, checks, seconds, tracer):
    import workloads

    out_dir = os.path.join(OUT, workload.name)
    started = time.perf_counter()
    ctx = workload.setup(inputs, out_dir)
    workload.repetition(ctx, checks, scale=WARM_SCALE)
    targets = workloads.layer_targets(tracer)
    iters_to_tol = _calibrate(workload, ctx, tracer, targets)
    traced_walls, untraced_walls, units, messages = [], [], [], 0
    while True:
        unit = len(units)
        order = (True, False) if unit % 2 == 0 else (False, True)
        for traced in order:
            if traced:
                tracer.current_unit = unit
                missing = tracer.install(targets)
                t0 = time.perf_counter()
                try:
                    with tracer.span("bench.setup"):
                        ctx = workload.setup(inputs, out_dir, probe=tracer)
                    with tracer.span("bench.repetition"):
                        rep = workload.repetition(ctx, checks, probe=tracer)
                finally:
                    tracer.uninstall()
                    tracer.forget_objects()
                traced_walls.append(time.perf_counter() - t0)
                messages = rep.get("messages_per_round", 0)
            else:
                t0 = time.perf_counter()
                ctx = workload.setup(inputs, out_dir)
                workload.repetition(ctx, checks)
                untraced_walls.append(time.perf_counter() - t0)
        units.append(unit)
        typical = stats.quartiles(traced_walls)[1] + stats.quartiles(untraced_walls)[1]
        if len(units) >= MIN_TRACED_UNITS and time.perf_counter() - started + typical > seconds:
            break
    return layer_metrics(tracer, units, traced_walls, untraced_walls,
                         iters_to_tol, messages), missing


def layer_metrics(tracer, units, traced_walls, untraced_walls, iters_to_tol, messages):
    import spans

    n = len(units)
    tot = tracer.totals(units)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def self_ns(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def counter(key):
        return tracer.counter_total(key, units)

    def per_call_us(name, per=None):
        c = calls(per or name)
        return self_ns(name) / c / 1e3 if c else 0.0

    def per_unit_ms(name):
        return self_ns(name) / n / 1e6

    def per_call_bytes(name):
        c = calls(name)
        return counter(name + ".bytes") / c if c else 0.0

    cal = tracer.totals([CALIBRATION_ON])
    cal_off = tracer.totals([CALIBRATION_OFF])

    def step_self_us(t):
        c, _, s = t.get("solver.step", (0, 0.0, 0.0))
        return s / c / 1e3 if c else 0.0

    m = {
        "problems.build_ms": per_unit_ms("problems.build"),
        "problems.reference_ms": per_unit_ms("problems.reference"),
        "program.spectral_norm_ms": per_unit_ms("program.spectral_norm"),
        "program.evaluate.calls": calls("program.evaluate") / n,
        "program.evaluate.us": per_call_us("program.evaluate"),
        "program.evaluate.bytes": per_call_bytes("program.evaluate"),
        "oracles.solve.calls": calls("oracles.solve") / n,
        "oracles.solve.us": per_call_us("oracles.solve"),
        "oracles.solve.bytes": per_call_bytes("oracles.solve"),
        "solver.step.self_us": per_call_us("solver.step"),
        "solver.check.us": step_self_us(cal) - step_self_us(cal_off),
        "solver.queue_update.us": per_call_us("solver.queue_update"),
        "solver.run.self_us": per_call_us("solver.run", per="solver.step"),
        "solver.verify_bounds.ms": per_unit_ms("solver.verify_bounds"),
        "solver.iters_to_tol": iters_to_tol,
        "solver.failures": counter("solver.run.raised") / n,
        "baseline.oracle.us": per_call_us("baseline.oracle"),
        "baseline.dual_step.self_us": per_call_us("baseline.dual_step"),
        "baseline.run.self_us": per_call_us("baseline.run", per="baseline.dual_step"),
        "netflow.round.us": (self_ns("netflow.simulate") / counter("netflow.rounds") / 1e3
                             if counter("netflow.rounds") else 0.0),
        "netflow.messages_per_round": messages,
        "netflow.beta_bounds.ms": per_unit_ms("netflow.beta_bounds"),
        "report.add.calls": calls("report.add") / n,
        "report.add.us": per_call_us("report.add"),
        "report.build.ms": per_unit_ms("report.build"),
        "report.write_trace.ms": per_unit_ms("report.write_trace"),
        "report.write_full_trace.ms": per_unit_ms("report.write_full_trace"),
        "report.write_bounds.ms": per_unit_ms("report.write_bounds"),
        "report.write_summary.ms": per_unit_ms("report.write_summary"),
        "report.plot.ms": per_unit_ms("report.plot"),
        "report.bytes_written": counter("report.bytes_written") / n,
        "report.retained_mb": counter("report.retained_bytes") / n / 1e6,
        "cli.command.self_ms": per_call_us("cli.command") / 1e3,
        "cli.exit_nonzero": counter("cli.exit_nonzero") / n,
    }
    layer_self = {layer: 0.0 for layer in LAYERS + (spans.BENCH_LAYER,)}
    for name, (_, _, own) in tot.items():
        layer_self[spans.layer_of(name)] += own
    wall_ns = sum(tot.get(root, (0, 0.0, 0.0))[1] for root in ("bench.setup", "bench.repetition"))
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer] / n / 1e6
    m["bench.unattributed_ms"] = layer_self[spans.BENCH_LAYER] / n / 1e6
    m["bench.traced_wall_ms"] = wall_ns / n / 1e6
    m["bench.unattributed_share"] = layer_self[spans.BENCH_LAYER] / wall_ns
    m["bench.trace_overhead"] = (stats.quartiles(traced_walls)[1]
                                 / stats.quartiles(untraced_walls)[1])
    return m


# ---------------------------------------------------------------------------

def _print_table(rows):
    for name, value, unit, extra in rows:
        print(f"  {name:30s} {value:14.6g} {unit:12s} {extra}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = _load_benchmark()
    _pin_blas_threads()
    _import_program()
    import spans
    import workloads

    spec = workloads.load_spec()
    try:
        workload = workloads.get(args.workload)
    except KeyError as exc:
        _fail(str(exc.args[0]))
    env = _environment(spec, args.seed)
    env["loadavg_before"] = os.getloadavg()
    os.makedirs(OUT, exist_ok=True)
    inputs = workload.inputs(args.seed)
    checks = workloads.Checks()
    units = {m["name"]: m["unit"] for m in spec["metrics"]}
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")

    if args.trace:
        tracer = spans.Tracer()
        values, missing = traced_run(workload, inputs, checks, args.seconds, tracer)
        tracer.save(os.path.join(OUT, f"{workload.name}-spans.npz"))
        env["unwrapped_boundaries"] = missing
        units.update(spec["per_layer_units"])
        _print_table([(n, v, units[n], "") for n, v in values.items()])
        names = [m["name"] for m in bench["per_layer"]]
        detail = values
    else:
        samples, raw, timed_calls = untraced_run(workload, inputs, checks, args.seconds)
        detail = {name: {**stats.summary(v), "samples": v} for name, v in samples.items()}
        detail["raw"] = {name: {**stats.summary(v), "samples": v} for name, v in raw.items()}
        detail["timed_calls"] = [{"parts": parts, "seconds": sec, "factor": factor}
                                 for parts, sec, factor in timed_calls]
        detail["fail_rate"] = {"median": checks.failed / max(checks.attempted, 1)}
        names = [m["name"] for m in bench["end_to_end"]]
        _print_table([(n, s["median"], units[n],
                       f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]" if "q1" in s else "")
                      for n, s in detail.items() if n not in ("raw", "timed_calls")])
        print("raw times, before scaling to nominal host speed:")
        _print_table([(n, s["median"], units.get(n, "1"), f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]")
                      for n, s in detail["raw"].items()])
        values = {n: detail[n]["median"] for n in names}

    env["loadavg_after"] = os.getloadavg()
    env["peak_rss_mb"] = _peak_rss_mb()
    for message in checks.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in names}}
    with open(os.path.join(OUT, f"{workload.name}-trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": env, "detail": detail, "result": result}, fh, indent=1)
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
