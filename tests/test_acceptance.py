"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Random draws are seeded, so every run checks identical cases.
"""

import math
import time

import numpy as np
import pytest

from sqzmet import (
    SqueezeParameter,
    cli,
    embed_weights_unitary,
    generator_moments_sectors,
    generator_variance,
    mach_zehnder_factorization_residual,
    mach_zehnder_unitary,
    phase_moments,
    photon_moments,
    recommend_cutoff,
    reck_decompose,
    recompose,
    scaling_sweep,
    series_partial_sum,
    squeezed_probe,
    squeezed_vacuum_probabilities,
    survival_probability,
    survival_probability_sectors,
    unitarity_defect,
)
from sqzmet.metrology import exact_survival_probability
from conftest import random_unitary

MASTER_SEED = 20260808
SPOT_SQUEEZE = SqueezeParameter(math.asinh(1.0))  # one mean photon
SPOT_VALUE = 0.962369  # survival probability at phi = 0.1, frozen closed form


def _report(number, name):
    print(f"ACCEPTANCE {number} [{name}]: PASS")


def _draw_case(rng, max_modes=5, max_r=1.2, phase_span=1.0):
    modes = int(rng.integers(1, max_modes + 1))
    weights = rng.dirichlet(np.ones(modes))
    weights = weights / weights.sum()
    phases = rng.uniform(-phase_span, phase_span, size=modes)
    squeeze = SqueezeParameter(
        rng.uniform(0.02, max_r), rng.uniform(0.0, 2 * math.pi)
    )
    return weights, phases, squeeze


def test_criterion_1_heisenberg_scaling():
    started = time.perf_counter()
    result = scaling_sweep([0.5, 1.0, 2.0, 4.0], 10 ** 5, 200, MASTER_SEED)
    elapsed = time.perf_counter() - started
    assert -2.15 <= result.slope <= -1.85, f"slope {result.slope}"
    unit_point = result.results[1]
    level = unit_point.delta_phi_sq * 10 ** 5
    assert abs(level - 0.125) <= 0.1 * 0.125, f"nbar=1 level {level}"
    assert elapsed < 120.0
    _report(1, f"Heisenberg scaling: slope {result.slope:.3f}, level {level:.4f}")


def test_criterion_2_shot_noise_contrast():
    result = scaling_sweep(
        [0.5, 1.0, 2.0, 4.0], 10 ** 5, 200, MASTER_SEED, baseline="coherent"
    )
    assert -1.15 <= result.slope <= -0.85, f"slope {result.slope}"
    _report(2, f"shot-noise contrast: slope {result.slope:.3f}")


def test_criterion_3_exact_moment_identities():
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst_mean = worst_var = worst_number = 0.0
    for _ in range(200):
        weights, phases, squeeze = _draw_case(rng)
        nbar = squeeze.mean_photon_number
        cutoff = recommend_cutoff(squeeze, 1e-14, moment_power=2)
        probs = squeezed_vacuum_probabilities(squeeze, cutoff)
        series = generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=2)
        moments = phase_moments(weights, phases)

        worst_mean = max(worst_mean, abs(series.moments[1] - moments.mean * nbar))
        oracle_var = series.moments[2] - series.moments[1] ** 2
        analytic_var = generator_variance(
            moments,
            photon_moments(squeezed_probe(weights.size, squeeze)),
        )
        worst_var = max(worst_var, abs(oracle_var - analytic_var))

        totals = 2.0 * np.arange(len(probs))
        number_var = float(probs @ totals ** 2) - float(probs @ totals) ** 2
        worst_number = max(worst_number, abs(number_var - 2 * nbar * (nbar + 1)))
    assert worst_mean <= 1e-9
    assert worst_var <= 1e-9
    assert worst_number <= 1e-9
    _report(
        3,
        "moment identities: defects "
        f"{worst_mean:.1e} / {worst_var:.1e} / {worst_number:.1e}",
    )


def test_criterion_4_series_structure():
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst_zero = worst_odd = 0.0
    for _ in range(200):
        weights, phases, squeeze = _draw_case(rng, phase_span=0.3)
        cutoff = recommend_cutoff(squeeze, 1e-13, moment_power=8)
        series = generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=8)
        worst_zero = max(worst_zero, abs(series.terms[0] - 1.0))
        worst_odd = max(worst_odd, float(np.max(np.abs(series.terms[1::2]))))
    assert worst_zero <= 1e-10
    assert worst_odd <= 1e-10

    # residual of the series through the sixth-order term falls off with
    # fitted exponent >= 7 in the regime ratio
    weights = np.array([0.2, 0.5, 0.3])
    base = np.array([1.0, -0.4, 0.7])
    squeeze = SqueezeParameter(math.asinh(1.0))
    nbar = squeeze.mean_photon_number
    cutoff = recommend_cutoff(squeeze, 1e-16, moment_power=8)
    ratios = np.geomspace(0.05, 0.2, 8)
    residuals = []
    for ratio in ratios:
        phases = base * (ratio / (np.max(np.abs(base)) * nbar))
        exact = survival_probability_sectors(weights, phases, squeeze, cutoff)
        series = generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=6)
        residuals.append(abs(series_partial_sum(series.terms, 6) - exact))
    exponent = float(np.polyfit(np.log(ratios), np.log(residuals), 1)[0])
    assert exponent >= 7.0, f"fitted exponent {exponent}"
    _report(
        4,
        f"series structure: odd terms {worst_odd:.1e}, exponent {exponent:.2f}",
    )


def test_criterion_5_cross_engine_equality():
    rng = np.random.default_rng(MASTER_SEED + 5)
    worst_sector = 0.0
    for _ in range(60):
        weights, phases, squeeze = _draw_case(rng, phase_span=math.pi)
        p_gauss, _ = exact_survival_probability(weights, phases, squeeze)
        p_fock, _ = exact_survival_probability(weights, phases, squeeze, engine="fock")
        worst_sector = max(worst_sector, abs(p_gauss - p_fock))
    assert worst_sector <= 1e-6

    worst_table = 0.0
    for _ in range(20):
        weights, phases, squeeze = _draw_case(
            rng, max_modes=3, max_r=0.9, phase_span=math.pi
        )
        cutoff = recommend_cutoff(squeeze, 1e-11)
        probs = squeezed_vacuum_probabilities(squeeze, cutoff)
        assert 1.0 - float(np.sum(probs)) < 1e-10
        p_table = survival_probability(weights, phases, squeeze, cutoff)
        p_gauss, _ = exact_survival_probability(weights, phases, squeeze)
        worst_table = max(worst_table, abs(p_gauss - p_table))
    assert worst_table <= 1e-6

    for engine in ("gaussian", "fock"):
        spot, _ = exact_survival_probability([1.0], [0.1], SPOT_SQUEEZE, engine=engine)
        assert abs(spot - SPOT_VALUE) <= 1e-6, f"{engine} spot {spot}"
    _report(
        5,
        f"cross-engine equality: sector {worst_sector:.1e}, table {worst_table:.1e}",
    )


def test_criterion_6_quadratic_approximation_quality():
    # the fourth-order bound needs at least one mean photon; the doubled
    # regime ratio 2 * max|phi| * nbar is capped at 0.2
    rng = np.random.default_rng(MASTER_SEED + 6)
    worst_fraction = 0.0
    for _ in range(150):
        modes = int(rng.integers(1, 6))
        weights = rng.dirichlet(np.ones(modes))
        weights = weights / weights.sum()
        squeeze = SqueezeParameter(
            rng.uniform(math.asinh(1.0), 1.2), rng.uniform(0.0, 2 * math.pi)
        )
        nbar = squeeze.mean_photon_number
        raw = rng.uniform(-1.0, 1.0, size=modes)
        ratio = rng.uniform(0.02, 0.2)
        phases = raw * (ratio / (2.0 * np.max(np.abs(raw)) * nbar))
        exact, _ = exact_survival_probability(weights, phases, squeeze)
        variance = generator_variance(
            phase_moments(weights, phases),
            photon_moments(squeezed_probe(modes, squeeze)),
        )
        residual = abs(exact - (1.0 - variance))
        bound = 2.0 * ratio ** 4
        worst_fraction = max(worst_fraction, residual / bound)
        assert residual <= bound, f"residual {residual} over bound {bound}"

    spot, _ = exact_survival_probability([1.0], [0.1], SPOT_SQUEEZE)
    spot_residual = abs(spot - 0.96)
    assert spot_residual == pytest.approx(2.4e-3, abs=1e-4)
    assert spot_residual <= 2.0 * 0.2 ** 4
    _report(
        6,
        f"quadratic approximation: worst residual/bound {worst_fraction:.2f}, "
        f"spot residual {spot_residual:.2e}",
    )


def test_criterion_7_network_synthesis():
    rng = np.random.default_rng(MASTER_SEED + 7)
    worst_column = worst_unitarity = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        weights = rng.dirichlet(np.ones(dim))
        weights = weights / weights.sum()
        unitary = embed_weights_unitary(weights)
        worst_column = max(
            worst_column, float(np.max(np.abs(unitary[:, 0] - np.sqrt(weights))))
        )
        worst_unitarity = max(worst_unitarity, unitarity_defect(unitary))
    assert worst_column <= 1e-12
    assert worst_unitarity <= 1e-10

    worst_roundtrip = 0.0
    for dim in range(2, 17):
        unitary = random_unitary(rng, dim)
        gap = float(np.linalg.norm(recompose(reck_decompose(unitary)) - unitary))
        worst_roundtrip = max(worst_roundtrip, gap)
    assert worst_roundtrip <= 1e-9

    for w1 in (0.0, 0.25, 0.5, 1.0):
        expected = np.array(
            [
                [math.sqrt(w1), math.sqrt(1.0 - w1)],
                [math.sqrt(1.0 - w1), -math.sqrt(w1)],
            ],
            dtype=complex,
        )
        assert np.array_equal(mach_zehnder_unitary(w1), expected)
    _report(
        7,
        "network synthesis: column "
        f"{worst_column:.1e}, unitarity {worst_unitarity:.1e}, "
        f"round-trip {worst_roundtrip:.1e}",
    )


def test_criterion_8_mach_zehnder_factorization():
    rng = np.random.default_rng(MASTER_SEED + 8)
    cutoff = 12
    worst = 0.0
    for _ in range(50):
        phi1, phi2 = rng.uniform(-math.pi, math.pi, size=2)
        worst = max(
            worst,
            mach_zehnder_factorization_residual(phi1, phi2, cutoff - 2),
        )
    assert worst <= 1e-9
    _report(8, f"mach-zehnder factorization: residual {worst:.1e}")


def test_criterion_9_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "weights = 0.25,0.75\n"
        "true_phases = 0.08,0.02\n"
        f"squeeze = {math.asinh(1.0)!r}\n"
        "shots = 20000\n"
        f"seed = {MASTER_SEED}\n"
    )
    first = tmp_path / "sim1.csv"
    second = tmp_path / "sim2.csv"
    assert cli.main(["simulate", "--config", str(config), "--out", str(first)]) == 0
    assert cli.main(["simulate", "--config", str(config), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    base = [
        "sweep", "--config", str(config), "--nbars", "0.5,1,2",
        "--repetitions", "50",
    ]
    assert cli.main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert cli.main(base + ["--jobs", "3", "--out", str(threaded)]) == 0
    assert serial.read_bytes() == threaded.read_bytes()
    _report(9, "determinism: identical bytes across runs and thread counts")
