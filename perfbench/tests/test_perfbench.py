"""Tests of the benchmark's own arithmetic, names and input generators."""

import json
import os
import re
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- percentile rule --------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("n, expected", [(100, 90.0), (99, 75.0), (1000, 99.0),
                                         (10000, 99.9), (20, 50.0), (19, None)])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND


def test_p90_reported_only_with_ten_runs_beyond():
    rep = {"wall_s": 2.0, "peak_rss_mb": 1.0, "vq_iters": 10, "vq_s": 1.0}
    full = run.rep_metrics({**rep, "run_ms": [float(i) for i in range(1, 101)]})
    assert full["run_ms_p90"] == 90.0 and full["run_ms_p50"] == 50.0
    short = run.rep_metrics({**rep, "run_ms": [float(i) for i in range(1, 100)]})
    assert "run_ms_p90" not in short


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q1, med, q3 = stats.quartiles(values)
    assert (q1, med, q3) == tuple(__import__("statistics").quantiles(values, n=4))
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


# -- self-time arithmetic ---------------------------------------------------

def test_self_times_of_nested_spans():
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [30.0, 20.0, 10.0, 40.0]
    assert own.sum() == 100.0


def test_tracer_wraps_and_restores_attributes():
    calls = []
    lib = types.SimpleNamespace(inner=lambda x: calls.append(x) or x + 1)
    lib.outer = lambda x: lib.inner(x) * 2
    tracer = spans.Tracer()
    tracer.current_unit = 0
    original = lib.inner, lib.outer
    missing = tracer.install([(lib, "outer", "solver.run", None, None),
                              (lib, "inner", "oracles.solve", lambda a: 8 * a[0], None),
                              (lib, "gone", "cli.command", None, None)])
    assert len(missing) == 1 and missing[0].endswith(".gone")
    assert lib.outer(3) == 8
    tracer.uninstall()
    assert (lib.inner, lib.outer) == original
    totals = tracer.totals([0])
    calls_run, total_run, self_run = totals["solver.run"]
    calls_solve, total_solve, self_solve = totals["oracles.solve"]
    assert calls_run == calls_solve == 1
    assert self_run == pytest.approx(total_run - total_solve)
    assert tracer.counter_total("oracles.solve.bytes", [0]) == 24


def test_tracer_counts_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "solver.run")()
    assert tracer.counter_total("solver.run.raised", [-1]) == 1
    assert tracer.end[0] >= tracer.start[0]


def test_layer_split_sums_to_traced_wall():
    tracer = spans.Tracer()
    tracer.current_unit = 0
    with tracer.span("bench.setup"):
        with tracer.span("problems.build"):
            with tracer.span("program.spectral_norm"):
                sum(range(1000))
    with tracer.span("bench.repetition"):
        with tracer.span("solver.run"):
            for _ in range(3):
                with tracer.span("solver.step"):
                    with tracer.span("oracles.solve"):
                        sum(range(100))
    m = run.layer_metrics(tracer, [0], [1.0], [1.0], 0, 0)
    layers = sum(m[f"{layer}.self_ms"] for layer in run.LAYERS)
    assert layers + m["bench.unattributed_ms"] == pytest.approx(m["bench.traced_wall_ms"])
    assert m["bench.unattributed_share"] == pytest.approx(
        m["bench.unattributed_ms"] / m["bench.traced_wall_ms"])
    assert m["oracles.solve.calls"] == 3
    spec = workloads.load_spec()
    assert set(m) == set(spec["per_layer_units"])
    assert {entry["name"] for entry in _benchmark()["per_layer"]} <= set(m)
    for layer in spec["layers"].values():
        assert set(layer["metrics"]) <= set(m)


# -- host speed normalisation -----------------------------------------------

def test_timed_call_is_scaled_by_the_two_passes_around_it():
    host = hostref.HostReference()
    passes = iter([0.01, 0.03])
    host.sample = lambda parts: next(passes)
    result, seconds, factor = host.timed(("python",), sum, range(10))
    assert result == 45 and seconds >= 0.0
    assert factor == pytest.approx(hostref.NOMINAL_S["python"] / 0.02)
    assert hostref.PLAIN_CLOCK.timed(("python",), sum, range(10))[0::2] == (45, 1.0)


def test_factor_since_weights_calls_by_time():
    host = hostref.HostReference()
    host.log = [(("python",), 9.0, 5.0), (("python",), 1.0, 2.0), (("matvec",), 3.0, 0.5)]
    assert host.factor_since(1) == pytest.approx((1.0 * 2.0 + 3.0 * 0.5) / 4.0)
    with pytest.raises(ValueError):
        host.factor_since(3)


def test_sampling_time_is_counted():
    host = hostref.HostReference()
    host.timed(("small_numpy",), sum, range(10))
    assert host.sampling_s > 0.0 and len(host.log) == 1


def test_reference_parts_are_checked():
    assert hostref.nominal_s(tuple(hostref.NOMINAL_S)) == pytest.approx(
        sum(hostref.NOMINAL_S.values()))
    for bad in ((), ("disk",)):
        with pytest.raises(ValueError):
            hostref.nominal_s(bad)
    for workload in workloads.WORKLOADS.values():
        assert set(workload.reference_parts) >= {"setup_s", "vq_s"}
        for parts in workload.reference_parts.values():
            hostref.nominal_s(parts)


def test_repetition_metrics_at_nominal_speed():
    rep = {"wall_s": 2.0, "peak_rss_mb": 1.0, "vq_iters": 100, "vq_s": 1.0,
           "nominal": {"vq_s": 0.5}}
    scaled = run.rep_metrics(run.at_nominal_speed(rep, 0.25))
    assert scaled["wall_s"] == 0.5 and scaled["vq_iters_per_s"] == 200.0
    assert run.rep_metrics(rep)["vq_iters_per_s"] == 100.0


# -- metric names -----------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_match_the_pattern():
    assert spans.NAME_PATTERN == r"[A-Za-z0-9_.-]+"
    bench = _benchmark()
    spec = workloads.load_spec()
    entries = bench["end_to_end"] + bench["per_layer"] + spec["metrics"]
    entries += [{"name": n, "unit": u} for n, u in spec["per_layer_units"].items()]
    names = [e["name"] for e in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for entry in bench["per_layer"]:
        assert spec["per_layer_units"][entry["name"]] == entry["unit"]
    for entry in entries:
        assert re.fullmatch(spans.NAME_PATTERN, entry["name"]), entry["name"]
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert UNIT.fullmatch(entry["unit"]), entry["unit"]
    span_names = {t[2] for t in workloads.layer_targets(spans.Tracer())}
    for name in span_names:
        assert re.fullmatch(spans.NAME_PATTERN, name)
        assert spans.layer_of(name) in run.LAYERS


def test_gated_metrics_are_the_end_to_end_list():
    bench = _benchmark()
    gated = [m["name"] for m in workloads.load_spec()["metrics"] if m["gated"]]
    assert gated == [m["name"] for m in bench["end_to_end"]]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


# -- generators -------------------------------------------------------------

def _plain(inputs):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in inputs.items()}


@pytest.mark.parametrize("generate", [workloads.net_large_inputs, workloads.qp_sweep_inputs])
def test_generators_are_deterministic_per_seed(generate):
    assert _plain(generate(3)) == _plain(generate(3))
    assert _plain(generate(3)) != _plain(generate(4))


def test_net_large_size_and_topology():
    inputs = workloads.net_large_inputs(1)
    from qpush import netflow

    topo = netflow.Topology.from_paths(inputs["capacities"], inputs["paths"])
    assert (topo.L, topo.K, topo.S) == (400, 1200, 300)
    assert topo.stacked_matrix().nbytes == 700 * 1500 * 8
    assert all(2 <= len(links) <= 6 for links in topo.path_links)


def test_qp_sweep_has_a_hundred_runs_above_the_curvature_floor():
    inputs = workloads.qp_sweep_inputs(1)
    runs = (len(inputs["qp_seeds"]) * inputs["alpha_factors"].shape[1]
            * len(inputs["starts"]))
    assert runs >= 100
    assert np.all(inputs["alpha_factors"] > 1.0)
    assert len(set(inputs["qp_seeds"])) == len(inputs["qp_seeds"])
    assert np.all((inputs["starts"] >= 0) & (inputs["starts"] <= 1))
