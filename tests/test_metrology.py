import math

import numpy as np
import pytest

from sqzmet import (
    ExperimentConfig,
    PhotonMoments,
    RegimeError,
    SqueezeParameter,
    apply_squeeze,
    check_regime,
    estimate_phase,
    exact_survival_probability,
    generator_moments_sectors,
    generator_variance,
    heisenberg_sensitivity,
    phase_moments,
    photon_moments,
    recommend_cutoff,
    run_protocol,
    scaling_sweep,
    simulate_shots,
    squeezed_vacuum_amplitudes,
    sweep_point_probability,
    vacuum_state,
)
from conftest import random_weights

R_UNIT = math.asinh(1.0)


class TestPhaseMoments:
    def test_weighted_sums(self):
        moments = phase_moments([0.25, 0.75], [0.2, 0.0])
        assert moments.mean == pytest.approx(0.05, abs=1e-15)
        assert moments.mean_sq == pytest.approx(0.01, abs=1e-15)

    def test_equal_phases(self):
        moments = phase_moments([0.1, 0.2, 0.7], [0.3, 0.3, 0.3])
        assert moments.mean == pytest.approx(0.3, abs=1e-15)
        assert moments.mean_sq == pytest.approx(0.09, abs=1e-15)

    def test_zero_weight_channel_ignored(self):
        moments = phase_moments([1.0, 0.0], [0.3, 99.0])
        assert moments.mean == pytest.approx(0.3, abs=1e-15)

    def test_mean_square_dominates_square_mean(self, rng):
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            moments = phase_moments(random_weights(rng, dim), rng.uniform(-2, 2, dim))
            assert moments.mean_sq >= moments.mean ** 2 - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            phase_moments([0.5, 0.5], [0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_phases(self, bad):
        with pytest.raises(ValueError, match="phases must be finite"):
            phase_moments([0.5, 0.5], [0.1, bad])


class TestAnalyticFormulas:
    def test_generator_variance_reference_case(self):
        value = generator_variance(
            phase_moments([0.25, 0.75], [0.2, 0.0]), PhotonMoments(1.0, 5.0, 4.0)
        )
        assert value == pytest.approx(0.0175, abs=1e-15)

    def test_generator_variance_zero_phases(self):
        value = generator_variance(
            phase_moments([0.5, 0.5], [0.0, 0.0]), PhotonMoments(1.0, 5.0, 4.0)
        )
        assert value == 0.0

    def test_variance_matches_oracle(self, rng):
        for _ in range(50):
            modes = int(rng.integers(1, 6))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-1.0, 1.0, size=modes)
            squeeze = SqueezeParameter(rng.uniform(0.05, 1.2), rng.uniform(0, 6))
            probe = apply_squeeze(vacuum_state(modes), 0, squeeze)
            analytic = generator_variance(
                phase_moments(weights, phases), photon_moments(probe)
            )
            amps = squeezed_vacuum_amplitudes(
                squeeze, recommend_cutoff(squeeze, 1e-14, moment_power=2)
            )
            series = generator_moments_sectors(amps, weights, phases, max_order=2)
            oracle = series.moments[2] - series.moments[1] ** 2
            assert analytic == pytest.approx(oracle, abs=1e-9)

    def test_equal_moment_pairs_share_variance_and_survival(self):
        # (0.2, 0) and (-0.1, 0.1) have identical weighted mean and mean
        # square under (0.25, 0.75); the generator variance is then exactly
        # equal, and the survival probabilities agree once the higher
        # weighted moments are suppressed by the small-phase regime
        squeeze = SqueezeParameter(R_UNIT)
        weights = [0.25, 0.75]
        probe_moments = photon_moments(apply_squeeze(vacuum_state(2), 0, squeeze))
        scale = 0.05  # the survival gap shrinks as the fourth power of this
        first = np.array([0.2, 0.0]) * scale
        second = np.array([-0.1, 0.1]) * scale
        mom_a = phase_moments(weights, first)
        mom_b = phase_moments(weights, second)
        assert mom_a == mom_b
        assert generator_variance(mom_a, probe_moments) == generator_variance(
            mom_b, probe_moments
        )
        p_a, _ = exact_survival_probability(weights, first, squeeze)
        p_b, _ = exact_survival_probability(weights, second, squeeze)
        assert abs(p_a - p_b) <= 1e-9

    def test_swapping_equal_weight_channels_is_exact(self):
        # permutations among equal-weight channels preserve every moment
        squeeze = SqueezeParameter(0.9, 1.7)
        weights = [0.5, 0.5]
        p_a, _ = exact_survival_probability(weights, [0.8, -0.3], squeeze)
        p_b, _ = exact_survival_probability(weights, [-0.3, 0.8], squeeze)
        assert p_a == pytest.approx(p_b, abs=1e-14)

    def test_quadratic_residual_is_fourth_order(self):
        # exact value sits 2.4e-3 below the quadratic model at this bias
        p, _ = exact_survival_probability([1.0], [0.1], SqueezeParameter(R_UNIT))
        residual = abs(p - 0.96)
        assert residual == pytest.approx(2.37e-3, abs=2e-5)


class TestRegimeAndSensitivity:
    def test_regime_ok(self):
        assert check_regime([0.1], 1.0) == (pytest.approx(0.1), True)

    def test_regime_warning(self):
        ratio, ok = check_regime([0.5, 0.1], 4.0)
        assert ratio == pytest.approx(2.0)
        assert not ok

    def test_regime_zero_phases(self):
        assert check_regime([0.0, 0.0], 5.0).ok

    def test_heisenberg_values(self):
        assert heisenberg_sensitivity(2.0) == pytest.approx(0.03125, abs=1e-15)
        assert heisenberg_sensitivity(1.0) == pytest.approx(0.125, abs=1e-15)
        assert heisenberg_sensitivity(2.0) / heisenberg_sensitivity(1.0) == pytest.approx(0.25)

    def test_heisenberg_rejects_zero(self):
        with pytest.raises(ValueError):
            heisenberg_sensitivity(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_heisenberg_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="nbar"):
            heisenberg_sensitivity(bad)

    @staticmethod
    def _numeric_slope(nbar, phi, step=1e-6):
        squeeze = SqueezeParameter(math.asinh(math.sqrt(nbar)))
        plus, _ = exact_survival_probability([1.0], [phi + step], squeeze)
        minus, _ = exact_survival_probability([1.0], [phi - step], squeeze)
        return (plus - minus) / (2 * step)

    def test_numeric_slope_matches_leading_order_at_large_nbar(self):
        # -4 nbar^2 phi is the large-photon-number slope; ratio kept at 0.1
        nbar = 25.0
        phi = 0.1 / nbar
        assert self._numeric_slope(nbar, phi) == pytest.approx(
            -4.0 * nbar ** 2 * phi, rel=0.05
        )

    def test_numeric_slope_matches_exact_prefactor_at_unit_nbar(self):
        # at nbar = 1 the exact response carries the (nbar + 1) factor
        phi = 0.05
        assert self._numeric_slope(1.0, phi) == pytest.approx(
            -4.0 * 1.0 * 2.0 * phi, rel=0.05
        )


class TestShotSimulation:
    def test_certain_outcomes(self):
        assert simulate_shots(1.0, 500, 1) == 500
        assert simulate_shots(0.0, 500, 1) == 0

    def test_deterministic_given_seed(self):
        assert simulate_shots(0.7, 1000, 42) == simulate_shots(0.7, 1000, 42)
        assert simulate_shots(0.7, 1000, [7, 1, 2]) == simulate_shots(0.7, 1000, [7, 1, 2])

    def test_binomial_concentration(self):
        p, shots = 0.962369, 10 ** 6
        bound = 3 * math.sqrt(p * (1 - p) / shots)
        hits = sum(
            abs(simulate_shots(p, shots, [99, k]) / shots - p) <= bound
            for k in range(100)
        )
        assert hits >= 99

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            simulate_shots(1.5, 10, 0)
        with pytest.raises(ValueError):
            simulate_shots(0.5, 0, 0)


class TestEstimatePhase:
    def test_full_survival_gives_zero(self):
        assert estimate_phase(1000, 1000, 1.0) == 0.0

    def test_reference_inversion(self):
        assert estimate_phase(9600, 10000, 1.0) == pytest.approx(0.1, abs=1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            estimate_phase(11, 10, 1.0)
        with pytest.raises(ValueError):
            estimate_phase(5, 10, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_nbar(self, bad):
        with pytest.raises(ValueError, match="nbar"):
            estimate_phase(5, 10, bad)

    def test_consistency_at_equal_phases(self):
        # estimator converges to the true average when all phases are equal
        # and the bias point is deep in the quadratic regime
        squeeze = SqueezeParameter(R_UNIT)
        phi = 0.02
        p, _ = exact_survival_probability([0.5, 0.5], [phi, phi], squeeze)
        shots = 10 ** 6
        estimates = [
            estimate_phase(simulate_shots(p, shots, [3, k]), shots, 1.0)
            for k in range(50)
        ]
        sigma_mean = math.sqrt(p / (8 * 1.0 * 2.0) / shots / 50)
        assert abs(np.mean(estimates) - phi) <= 3 * sigma_mean + 5e-5

    def test_unequal_phase_bias_is_measured(self):
        # the phase-spread term is not invertible from one number; the
        # resulting bias should match its first-order prediction
        squeeze = SqueezeParameter(R_UNIT)
        weights, phases = [0.25, 0.75], [0.2, 0.0]
        p, _ = exact_survival_probability(weights, phases, squeeze)
        predicted = math.sqrt((1 - p) / 4.0)  # what the estimator converges to
        shots = 10 ** 5
        mean_est = np.mean(
            [
                estimate_phase(simulate_shots(p, shots, [11, k]), shots, 1.0)
                for k in range(200)
            ]
        )
        assert abs(mean_est - predicted) < 5e-4
        bias = mean_est - 0.05
        assert bias == pytest.approx(0.01506, abs=1e-3)


class TestEngines:
    def test_engines_agree(self, rng):
        for _ in range(20):
            modes = int(rng.integers(1, 6))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-1.0, 1.0, size=modes)
            squeeze = SqueezeParameter(rng.uniform(0.05, 1.2), rng.uniform(0, 6))
            p_gauss, _ = exact_survival_probability(weights, phases, squeeze)
            p_fock, cutoff = exact_survival_probability(
                weights, phases, squeeze, engine="fock"
            )
            assert cutoff is not None and cutoff % 2 == 0
            assert abs(p_gauss - p_fock) <= 1e-6

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            exact_survival_probability([1.0], [0.1], SqueezeParameter(0.5), engine="exact")

    @pytest.mark.parametrize("modes", [2, 8, 32, 128])
    def test_covariance_engine_matches_closed_form(self, modes):
        # P = 1 / |1 + nbar (1 - m^2)|, m = sum_j w_j exp(-i phi_j), at the
        # protocol sizes, squeezings and phases up to pi
        rng = np.random.default_rng(modes)
        for _ in range(15):
            weights = random_weights(rng, modes)
            phases = rng.uniform(-math.pi, math.pi, size=modes) * rng.uniform(0.0, 1.0)
            squeeze = SqueezeParameter(rng.uniform(0.1, 2.5), rng.uniform(0.0, 2 * math.pi))
            m = np.sum(weights * np.exp(-1j * phases))
            closed = 1.0 / abs(1.0 + squeeze.mean_photon_number * (1.0 - m * m))
            p, _ = exact_survival_probability(weights, phases, squeeze)
            assert abs(p - closed) <= 1e-9

    @pytest.mark.parametrize("engine", ["gaussian", "fock"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_phases(self, engine, bad):
        with pytest.raises(ValueError, match="phases must be finite"):
            exact_survival_probability(
                [0.5, 0.5], [0.1, bad], SqueezeParameter(0.5), engine=engine
            )


class TestExperimentConfig:
    def test_valid_roundtrip(self):
        config = ExperimentConfig(
            weights=np.array([0.5, 0.5]),
            true_phases=np.array([0.1, 0.1]),
            squeeze=SqueezeParameter(R_UNIT),
            shots=100,
            seed=7,
        )
        assert config.shots == 100 and config.seed == 7
        assert not config.weights.flags.writeable

    def test_caller_arrays_stay_writable_and_detached(self):
        weights = np.array([0.5, 0.5])
        phases = np.array([0.1, 0.2])
        config = ExperimentConfig(
            weights=weights, true_phases=phases, squeeze=SqueezeParameter(R_UNIT),
            shots=100, seed=7,
        )
        weights[0] = 0.3
        phases[1] = 9.0
        assert config.weights.tolist() == [0.5, 0.5]
        assert config.true_phases.tolist() == [0.1, 0.2]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shots": 0},
            {"true_phases": np.array([0.1, np.nan])},
            {"true_phases": np.array([0.1])},
            {"weights": np.array([0.2, 0.3, 0.5])},
            {"true_phases": np.array([np.inf, 0.1])},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(
            weights=np.array([0.5, 0.5]),
            true_phases=np.array([0.1, 0.1]),
            squeeze=SqueezeParameter(0.5),
            shots=100,
            seed=7,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            ExperimentConfig(**base)


class TestRunProtocol:
    def test_single_run_row(self):
        config = ExperimentConfig(
            weights=np.array([1.0]),
            true_phases=np.array([0.1]),
            squeeze=SqueezeParameter(R_UNIT),
            shots=10 ** 5,
            seed=123,
        )
        run = run_protocol(config)
        assert run.phi_bar_true == pytest.approx(0.1)
        assert run.p_exact == pytest.approx(0.962369108664265, abs=1e-12)
        assert abs(run.p_hat - run.p_exact) < 5e-3
        assert run.regime_ok and run.regime_ratio == pytest.approx(0.1)
        assert run_protocol(config) == run  # deterministic
        # the stream key [seed, 0, 0] is the stream of [seed] and [seed, 0]
        assert round(run.p_hat * config.shots) == np.random.default_rng(
            [config.seed, 0, 0]
        ).binomial(config.shots, run.p_exact)

    def test_zero_phase_run(self):
        config = ExperimentConfig(
            weights=np.array([1.0]),
            true_phases=np.array([0.0]),
            squeeze=SqueezeParameter(R_UNIT),
            shots=1000,
            seed=5,
        )
        run = run_protocol(config)
        assert run.p_exact == pytest.approx(1.0, abs=1e-12)
        assert run.phi_hat == 0.0


class TestScalingSweep:
    def test_refuses_outside_regime(self):
        with pytest.raises(RegimeError):
            scaling_sweep([1.0, 2.0], 1000, 10, 0, bias_product=0.4)
        forced = scaling_sweep([1.0, 2.0], 1000, 10, 0, bias_product=0.4, force=True)
        assert len(forced.results) == 2

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            scaling_sweep([], 1000, 10, 0)
        with pytest.raises(ValueError):
            scaling_sweep([0.0, 1.0], 1000, 10, 0)
        with pytest.raises(ValueError):
            scaling_sweep([1.0], 1000, 1, 0)
        with pytest.raises(ValueError):
            scaling_sweep([1.0], 0, 10, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_bad_nbar(self, bad):
        with pytest.raises(ValueError, match=f"nbar = {bad}"):
            scaling_sweep([1.0, bad], 1000, 10, 0)

    def test_rejects_non_finite_bias_product(self):
        with pytest.raises(ValueError, match="bias_product must be finite"):
            scaling_sweep([1.0, 2.0], 1000, 10, 0, bias_product=math.nan)

    @pytest.mark.parametrize("bias_product, shots", [(0.0, 1000), (1e-9, 20000)])
    def test_refuses_zero_variance(self, bias_product, shots):
        # every repetition sees full survival, so there is no spread to fit
        with pytest.raises(ValueError, match=r"zero sample variance at nbar = 0\.5") as info:
            scaling_sweep([0.5, 1.0], shots, 20, 0, bias_product=bias_product)
        assert f"bias_product {bias_product}" in str(info.value)
        assert f"shots {shots}" in str(info.value)

    def test_point_streams_are_keyed_by_index(self):
        # point i draws only from the stream keyed by (seed, i), so a call
        # repeats itself and appending points leaves earlier points unchanged
        nbars = [0.5, 1.0, 2.0]
        full = scaling_sweep(nbars, 5000, 20, 99)
        assert scaling_sweep(nbars, 5000, 20, 99) == full
        assert full.results[:2] == scaling_sweep(nbars[:2], 5000, 20, 99).results

    def test_vectorised_inversion_matches_loop(self):
        # reference: draw point i's counts from the (seed, i) stream and
        # invert them one repetition at a time
        nbars, shots, reps, seed = [0.5, 2.0], 5000, 30, 7
        result = scaling_sweep(nbars, shots, reps, seed)
        for i, (nbar, point) in enumerate(zip(nbars, result.results)):
            p = sweep_point_probability(nbar, 0.05 / nbar)
            counts = np.random.default_rng([seed, i]).binomial(shots, p, size=reps)
            estimates = [
                math.sqrt(max(0.0, 1.0 - int(c) / shots) / (2.0 * nbar ** 2))
                for c in counts
            ]
            assert point.p_hat == sum(int(c) for c in counts) / (reps * shots)
            assert point.phi_hat == pytest.approx(np.mean(estimates), rel=1e-12)
            assert point.delta_phi_sq == pytest.approx(
                np.var(estimates, ddof=1), rel=1e-9
            )

    def test_point_variance_near_reference(self):
        # the sample variance of 2000 repetitions has relative SD
        # sqrt(2 / 1999) ~ 0.032, so rel=0.15 is a band of about 4.6 sigma
        result = scaling_sweep([1.0], 10 ** 5, 2000, 2024)
        point = result.results[0]
        assert point.delta_phi_sq * 10 ** 5 == pytest.approx(0.125, rel=0.15)
        assert point.heisenberg_bound == pytest.approx(0.125 / 10 ** 5)
        assert math.isnan(result.slope)

    def test_slope_and_baseline_contrast(self):
        nbars = [0.5, 1.0, 2.0, 4.0]
        squeezed = scaling_sweep(nbars, 10 ** 4, 100, 314)
        coherent = scaling_sweep(nbars, 10 ** 4, 100, 314, baseline="coherent")
        assert -2.3 < squeezed.slope < -1.7
        assert -1.3 < coherent.slope < -0.7

    def test_coherent_point_probability(self):
        # Poissonian statistics in the quadratic model: 1 - nbar * phi^2
        p = sweep_point_probability(2.0, 0.025, baseline="coherent")
        assert p == pytest.approx(1.0 - 2.0 * 0.025 ** 2, abs=1e-15)

    def test_rejects_unknown_baseline(self):
        with pytest.raises(ValueError):
            sweep_point_probability(1.0, 0.05, baseline="thermal")
