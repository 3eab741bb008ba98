"""Self-tests for the benchmark's own checks and span accounting.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench`` from the repo root.
"""

import json
import math
import os

import numpy as np
import pytest

import calibration
import run
import tracer
import workload
from sqzmet import metrology, network
from sqzmet.gaussian import SqueezeParameter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_matches_exact_survival_probability(seed):
    rng = np.random.default_rng(seed)
    modes = int(rng.integers(1, 8))
    weights = rng.dirichlet(np.ones(modes))
    phases = rng.uniform(-0.4, 0.4, size=modes)
    squeeze = SqueezeParameter(rng.uniform(0.1, 2.0), rng.uniform(0.0, 2 * math.pi))
    exact, _ = metrology.exact_survival_probability(weights, phases, squeeze)
    reference = workload.closed_form_survival(weights, phases, squeeze.mean_photon_number)
    assert abs(exact - reference) <= 1e-9


def test_synthesize_check_passes_clean_output_and_flags_nan_residual():
    unitary = network.embed_weights_unitary([0.5, 0.3, 0.2])
    mesh = network.reck_decompose(unitary)
    netlist = network.mesh_to_netlist(mesh)
    clean = ("modes = 3\nfirst-column residual = 0.0\nunitarity residual = 1e-16\n"
             "mesh round-trip residual = 2e-16\n")
    assert workload.check_synthesize(0, clean, netlist, unitary) is None
    nan = clean.replace("= 2e-16", "= nan")
    assert "nan" in workload.check_synthesize(0, nan, netlist, unitary)
    nan_mesh = network.mesh_to_netlist(network.RotationMesh(mesh.elements, [math.nan] * 3))
    assert "round trip" in workload.check_synthesize(0, clean, nan_mesh, unitary)
    assert "exit code" in workload.check_synthesize(2, clean, netlist, unitary)


def test_self_times_sum_to_at_most_the_operation_wall_time(tmp_path):
    ops = workload.protocol_ops(np.random.default_rng(3), str(tmp_path))
    ops += workload.synthesize_ops(np.random.default_rng(3), str(tmp_path))[:2]
    trace = tracer.Tracer()
    names = trace.install()
    try:
        for op in ops[:4] + ops[-2:]:
            trace.spans.clear()
            _, wall, error = workload.run_op(op, trace)
            assert error is None
            total = sum(self_s for _, self_s in tracer.self_times(trace.spans))
            assert 0.0 < total <= wall + 1e-6
    finally:
        trace.uninstall()
    assert "gaussian.apply_network" in names and "cli.main" in names
    assert not any(name.split(".")[1].startswith("_") for name in names)
    assert network.reck_decompose.__module__ == "sqzmet.network"
    assert not hasattr(network.reck_decompose, "__wrapped__")


def test_covered_length_merges_overlapping_children():
    assert tracer.covered_length([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert tracer.covered_length([(0, 5)], 1, 2) == 1


def test_tail_latency_is_at_a_fixed_percentile():
    assert run.tail_latency(range(100), 90.0) == (89, 10)
    assert run.tail_latency(range(1000), 99.0) == (989, 10)
    assert run.tail_latency(range(150), 90.0) == (134, 15)
    assert run.tail_latency([5.0, 1.0], 99.0) == (5.0, 0)


def test_p50_is_the_median_of_per_input_medians():
    metrics = run.end_to_end(["a", "b", "a", "b", "c"], [1.0, 5.0, 3.0, 7.0, 0.5], 90.0)
    assert metrics["op_p50_ms"] == 2000.0
    assert metrics["ops_per_s"] == 5 / 16.5


def test_speed_factors_use_the_median_of_nearby_calibration_passes():
    ref = calibration.CAL_REF_S
    passes = [(0, ref), (2, ref), (3, 2 * ref), (3, 2 * ref), (5, 2 * ref), (9, 2 * ref)]
    factors = calibration.speed_factors(10, passes)
    assert factors[:2] == [1.0, 1.0]  # after pass 0: passes 0-2 are ref, ref, 2 ref
    assert factors[2] == pytest.approx(1 / 1.5)  # after pass 1: passes 0-3
    assert factors[3:] == [0.5] * 7  # after pass 3 and later: mostly 2 ref
    assert calibration.speed_factors(3, [(0, ref / 2)]) == [2.0] * 3


def test_calibration_runs_between_operations_without_touching_them():
    ops = [workload.Op("a", "a", lambda: 1, lambda out: None)] * 4
    phase = workload.timed_phase(ops, 0, 2, count=4, calibrate=True)
    assert phase.labels == ["a"] * 4 and not phase.failures
    assert phase.calibration[0][0] == 0 and phase.calibration[0][1] > 0.0
    assert not workload.timed_phase(ops, 0, 2, count=4).calibration


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
