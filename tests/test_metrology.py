import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sqzmet import (
    ExperimentConfig,
    PhotonMoments,
    RegimeError,
    SqueezeParameter,
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
    squeezed_probe,
    squeezed_vacuum_probabilities,
    sweep_point_probability,
)
import sqzmet.gaussian
import sqzmet.metrology
import sqzmet.network
from sqzmet import validate
from sqzmet.validate import quick_suite
from conftest import closed_form_survival, random_weights

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


PHASE_MAX = sqzmet.network.PHASE_MAX
# every entry point that takes a phase vector, on two modes
PHASE_CALLS = {
    "config": lambda phases: ExperimentConfig(
        weights=[0.5, 0.5], true_phases=phases, squeeze=SqueezeParameter(0.5), shots=100, seed=7
    ),
    "exact": lambda phases: exact_survival_probability([0.5, 0.5], phases, SqueezeParameter(0.5)),
    "regime": lambda phases: check_regime(phases, 1.0),
    "moments": lambda phases: phase_moments([0.5, 0.5], phases),
}


class TestPhaseEnvelope:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("call", sorted(PHASE_CALLS))
    def test_one_ulp_past_phase_max_is_refused_by_name(self, call, sign):
        # a phase of 1e308 used to pass, and simulate wrote regime_ratio inf
        past = math.nextafter(PHASE_MAX, math.inf)
        message = (
            f"phases must lie in [-PHASE_MAX, PHASE_MAX] with PHASE_MAX = {PHASE_MAX}, "
            f"got max |phi| = {past}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PHASE_CALLS[call]([0.0, sign * past])

    @pytest.mark.parametrize("call", sorted(PHASE_CALLS))
    def test_phase_max_itself_is_accepted(self, call):
        PHASE_CALLS[call]([PHASE_MAX, -PHASE_MAX])

    def test_regime_phases_must_be_a_vector(self):
        # a 2 x 2 array once read "expected 4 phases, got shape (2, 2)"; the
        # other faults of the vector rule are in test_network.py's TestVectorRule
        with pytest.raises(ValueError, match=r"^phases must be a non-empty vector, got shape \(2, 2\)$"):
            check_regime(np.zeros((2, 2)), 1.0)


class TestAnalyticFormulas:
    def test_generator_variance_reference_case(self):
        value = generator_variance(
            phase_moments([0.25, 0.75], [0.2, 0.0]), PhotonMoments(1.0, 4.0)
        )
        assert value == pytest.approx(0.0175, abs=1e-15)

    def test_generator_variance_zero_phases(self):
        value = generator_variance(
            phase_moments([0.5, 0.5], [0.0, 0.0]), PhotonMoments(1.0, 4.0)
        )
        assert value == 0.0

    def test_variance_matches_oracle(self, rng):
        for _ in range(50):
            modes = int(rng.integers(1, 6))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-1.0, 1.0, size=modes)
            squeeze = SqueezeParameter(rng.uniform(0.05, 1.2), rng.uniform(0, 6))
            probe = squeezed_probe(modes, squeeze)
            analytic = generator_variance(
                phase_moments(weights, phases), photon_moments(probe)
            )
            cutoff = recommend_cutoff(squeeze, 1e-14, moment_power=2)
            series = generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=2)
            oracle = series.moments[2] - series.moments[1] ** 2
            assert analytic == pytest.approx(oracle, abs=1e-9)

    def test_equal_moment_pairs_share_variance_and_survival(self):
        # (0.2, 0) and (-0.1, 0.1) have identical weighted mean and mean
        # square under (0.25, 0.75); the generator variance is then exactly
        # equal, and the survival probabilities agree once the higher
        # weighted moments are suppressed by the small-phase regime
        squeeze = SqueezeParameter(R_UNIT)
        weights = [0.25, 0.75]
        probe_moments = photon_moments(squeezed_probe(2, squeeze))
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

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_regime_rejects_bad_nbar(self, bad):
        # a negative nbar would make a negative ratio, which passes the threshold
        with pytest.raises(ValueError, match=re.escape(f"nbar = {bad}")):
            check_regime([0.5], bad)

    @pytest.mark.parametrize("phase, nbar", [(math.nan, 1.0), (math.inf, 0.0), (-math.inf, 2.0)])
    def test_regime_rejects_non_finite_phase(self, phase, nbar):
        # NaN gave RegimeCheck(nan, False); inf at nbar = 0 gave NaN with a RuntimeWarning
        with pytest.raises(ValueError, match="phases must be finite"):
            check_regime([0.1, phase], nbar)

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

    @pytest.mark.parametrize("bad", [1e200, 1e-300, 1e-160])
    def test_heisenberg_rejects_unrepresentable_square(self, bad):
        # 8 nbar^2 overflows to inf, underflows to 0, or is subnormal with
        # 1 / (8 nbar^2) = inf; all three lie outside [NBAR_MIN, NBAR_MAX]
        with pytest.raises(ValueError, match=re.escape(f"nbar = {bad}")):
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

    def test_binomial_concentration(self):
        p, shots = 0.962369, 10 ** 6
        bound = 3 * math.sqrt(p * (1 - p) / shots)
        hits = sum(
            abs(simulate_shots(p, shots, k) / shots - p) <= bound
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
        # sin^2 phi = (0.96^-2 - 1) / (4 nbar (nbar + 1)) at nbar = 1
        assert estimate_phase(9600, 10000, 1.0) == pytest.approx(
            0.10330337608029334, rel=1e-14
        )

    def test_no_survival_gives_a_quarter_turn(self):
        assert estimate_phase(0, 10, 1.0) == math.pi / 2

    @pytest.mark.parametrize("nbar", [0.25, 1.0, 4.0, 16.0])
    def test_inverts_the_equal_phase_closed_form(self, nbar):
        # an exact fraction count / shots at equal phases, up to just
        # below the regime threshold, comes back as the phase
        shots = 10 ** 15
        for ratio in (1e-3, 0.01, 0.05, 0.1, 0.2, 0.29):
            phi = ratio / nbar
            count = round(sweep_point_probability(nbar, phi) * shots)
            assert estimate_phase(count, shots, nbar) == pytest.approx(phi, rel=0, abs=1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            estimate_phase(11, 10, 1.0)
        with pytest.raises(ValueError):
            estimate_phase(5, 10, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_nbar(self, bad):
        with pytest.raises(ValueError, match="nbar"):
            estimate_phase(5, 10, bad)

    @pytest.mark.parametrize("count, nbar", [(5, 1e200), (9, 1e154)])
    def test_rejects_nbar_whose_scale_overflows(self, count, nbar):
        # 4 nbar (nbar + 1) is inf here, which would turn any count into phi = 0
        with pytest.raises(ValueError, match=re.escape(f"nbar = {nbar}")):
            estimate_phase(count, 10, nbar)

    def test_zero_shots_are_refused(self):
        # zero shots carry no survival fraction to invert
        with pytest.raises(ValueError, match=re.escape("shots must lie in [1, ")):
            estimate_phase(0, 0, 1.0)

    def test_consistency_at_equal_phases(self):
        # estimator converges to the true average when all phases are equal
        # and the bias point is deep in the quadratic regime
        squeeze = SqueezeParameter(R_UNIT)
        phi = 0.02
        p, _ = exact_survival_probability([0.5, 0.5], [phi, phi], squeeze)
        shots = 10 ** 6
        counts = np.random.default_rng(3).binomial(shots, p, size=50)
        estimates = [estimate_phase(int(count), shots, 1.0) for count in counts]
        sigma_mean = math.sqrt(p / (8 * 1.0 * 2.0) / shots / 50)
        assert abs(np.mean(estimates) - phi) <= 3 * sigma_mean + 5e-5

    def test_unequal_phase_bias_is_measured(self):
        # the phase-spread term is not invertible from one number; the
        # estimates converge to the equal-phase inverse of the exact P
        squeeze = SqueezeParameter(R_UNIT)
        weights, phases = [0.25, 0.75], [0.2, 0.0]
        p, _ = exact_survival_probability(weights, phases, squeeze)
        predicted = math.asin(math.sqrt((p ** -2 - 1) / 8.0))
        shots = 10 ** 5
        counts = np.random.default_rng(11).binomial(shots, p, size=200)
        mean_est = np.mean([estimate_phase(int(count), shots, 1.0) for count in counts])
        assert abs(mean_est - predicted) < 5e-4
        bias = mean_est - 0.05
        assert bias == pytest.approx(0.01595, abs=1e-3)


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
        # the closed form at the protocol sizes, squeezings and phases up to pi
        rng = np.random.default_rng(modes)
        for _ in range(15):
            weights = random_weights(rng, modes)
            phases = rng.uniform(-math.pi, math.pi, size=modes) * rng.uniform(0.0, 1.0)
            squeeze = SqueezeParameter(rng.uniform(0.1, 2.5), rng.uniform(0.0, 2 * math.pi))
            closed = closed_form_survival(weights, phases, squeeze.mean_photon_number)
            p, _ = exact_survival_probability(weights, phases, squeeze)
            assert abs(p - closed) <= 1e-9

    @pytest.mark.parametrize("modes", [2, 8, 32, 128])
    def test_passive_network_is_the_dense_product(self, monkeypatch, modes):
        # the route forms U^dag diag(exp(-i phi)) U in real arithmetic; the
        # network it hands apply_network is that complex product within 1e-14
        # (Frobenius norm), for random and equal weights and phases up to pi
        seen = []
        real_apply = sqzmet.gaussian.apply_network

        def recording(state, unitary):
            seen.append(unitary)
            return real_apply(state, unitary)

        monkeypatch.setattr(sqzmet.gaussian, "apply_network", recording)
        rng = np.random.default_rng(2900 + modes)
        for weights in (random_weights(rng, modes), np.full(modes, 1.0 / modes)):
            for spread in (0.05, math.pi):
                phases = rng.uniform(-spread, spread, modes)
                exact_survival_probability(weights, phases, SqueezeParameter(R_UNIT))
                unitary = sqzmet.network.embed_weights_unitary(weights).astype(complex)
                dense = unitary.conj().T @ np.diag(np.exp(-1j * phases)) @ unitary
                assert seen[-1].dtype == np.complex128
                assert np.linalg.norm(seen[-1] - dense) <= 1e-14
        assert len(seen) == 4

    @pytest.mark.parametrize("engine", ["gaussian", "fock"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_phases(self, engine, bad):
        with pytest.raises(ValueError, match="phases must be finite"):
            exact_survival_probability(
                [0.5, 0.5], [0.1, bad], SqueezeParameter(0.5), engine=engine
            )

    @pytest.mark.parametrize("engine", ["gaussian", "fock"])
    @pytest.mark.parametrize(
        "phases, message",
        [
            pytest.param([math.nan, 0.0], r"phases must be finite, got \[nan  0\.\]", id="nan"),
            pytest.param([0.1], r"expected 2 phases, got shape \(1,\)", id="short"),
        ],
    )
    def test_phases_are_checked_before_the_engine_runs(self, engine, phases, message):
        # no cutoff certifies r = 5.5: the fock engine once refused these
        # phases with that message, after paying for the certification
        with pytest.raises(ValueError, match=f"^{message}$"):
            exact_survival_probability([0.5, 0.5], phases, SqueezeParameter(5.5), engine=engine)

    @pytest.mark.parametrize("engine", ["gaussian", "fock"])
    def test_complex_phases_are_refused_by_name(self, engine):
        # a complex phase is not a real number: refused by name, not with numpy's float() TypeError
        with pytest.raises(ValueError, match="^phases must be real numbers, got dtype complex128$"):
            exact_survival_probability([1.0], [0.1 + 0.5j], SqueezeParameter(0.5), engine=engine)


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

    def test_equal_configs_compare_by_identity(self):
        # == may not compare the array fields: an array has no single truth value
        config, twin = _config(), _config()
        assert config == config and config != twin
        assert len({config, twin}) == 2

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

    @pytest.mark.parametrize(
        "r, side",
        [
            (1e-60, "below NBAR_MIN = 1e-100"),
            (1e-51, "below NBAR_MIN = 1e-100"),
            (116.0, "above NBAR_MAX = 1e+100"),
            (177.0, "above NBAR_MAX = 1e+100"),
        ],
    )
    def test_squeeze_outside_the_nbar_envelope_is_refused_before_the_route(
        self, monkeypatch, r, side
    ):
        # SqueezeParameter accepts these r, but the estimator cannot invert at
        # their nbar: the config refuses by naming r, nbar and the bound,
        # before any covariance-route call
        def refuse(*args, **kwargs):
            raise AssertionError("the covariance route ran")

        monkeypatch.setattr(sqzmet.metrology, "_survival_probability", refuse)
        monkeypatch.setattr(sqzmet.gaussian, "squeezed_probe", refuse)
        nbar = math.sinh(r) ** 2
        message = f"squeeze r = {r} gives nbar = sinh(r)^2 = {nbar:.3e}, {side}; "
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            _config(squeeze=SqueezeParameter(r))

    @pytest.mark.parametrize("squeeze", [0.5, None, (0.5, 0.0)])
    def test_squeeze_must_be_a_squeeze_parameter(self, squeeze):
        # a bare number used to pass the config and fail in run_protocol with
        # an AttributeError that named no argument
        with pytest.raises(ValueError, match=re.escape(f"squeeze must be a SqueezeParameter, got {squeeze!r}")):
            _config(squeeze=squeeze)

    @pytest.mark.parametrize("r", [0.0, 1e-49, 1e-20, R_UNIT])
    def test_squeeze_at_or_inside_the_nbar_envelope_runs(self, r):
        # nbar = 0 (the vacuum) and nbar within [NBAR_MIN, NBAR_MAX] both run
        run = run_protocol(_config(squeeze=SqueezeParameter(r)))
        if r == 0:
            assert run.p_exact == 1.0 and run.phi_hat == 0.0
        assert math.isfinite(run.p_exact) and math.isfinite(run.phi_hat)


CHECKS = [
    "check_cross_engine",
    "check_table_route",
    "check_odd_terms",
    "check_variance_identity",
    "check_mz_factorization",
    "check_series_convergence",
]


@pytest.mark.parametrize("entry", ["config", "sweep", "validate", "shots", *CHECKS])
def test_negative_seed_is_refused_by_name(entry):
    calls = {
        "config": lambda: ExperimentConfig(
            np.array([1.0]), np.array([0.1]), SqueezeParameter(0.5), 100, -1
        ),
        "sweep": lambda: scaling_sweep([1.0, 2.0], 1000, 10, -1),
        "validate": lambda: quick_suite(-1),
        "shots": lambda: simulate_shots(0.5, 10, -1),
        **{name: (lambda name=name: getattr(validate, name)(-1)) for name in CHECKS},
    }
    with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
        calls[entry]()


@pytest.mark.parametrize("shots", [0, 2 ** 63])
@pytest.mark.parametrize("entry", ["config", "sweep", "shots"])
def test_shots_outside_the_sampler_range_are_refused_by_value(entry, shots):
    # past 2^63 - 1 numpy's binomial sampler raises an OverflowError that
    # names no argument
    calls = {
        "config": lambda: ExperimentConfig(
            np.array([1.0]), np.array([0.1]), SqueezeParameter(0.5), shots, 1
        ),
        "sweep": lambda: scaling_sweep([1.0, 2.0], shots, 10, 1),
        "shots": lambda: simulate_shots(0.5, shots, 1),
    }
    with pytest.raises(
        ValueError, match=re.escape(f"shots must lie in [1, {2 ** 63 - 1}], got {shots}")
    ):
        calls[entry]()


def _config(shots=100, seed=1, squeeze=SqueezeParameter(0.5)):
    return ExperimentConfig(np.array([1.0]), np.array([0.1]), squeeze, shots, seed)


COUNT_ARGUMENTS = {
    "config-shots": ("shots", lambda value: _config(shots=value)),
    "config-seed": ("seed", lambda value: _config(seed=value)),
    "simulate-shots": ("shots", lambda value: simulate_shots(0.5, value, 1)),
    "simulate-seed": ("seed", lambda value: simulate_shots(0.5, 10, value)),
    "sweep-shots": ("shots", lambda value: scaling_sweep([1.0, 2.0], value, 10, 1)),
    "sweep-repetitions": ("repetitions", lambda value: scaling_sweep([1.0, 2.0], 1000, value, 1)),
    "sweep-seed": ("seed", lambda value: scaling_sweep([1.0, 2.0], 1000, 10, value)),
    "estimate-count": ("count", lambda value: estimate_phase(value, 10, 1.0)),
    "estimate-shots": ("shots", lambda value: estimate_phase(5, value, 1.0)),
    "quick_suite": ("seed", quick_suite),
    **{name: ("seed", getattr(validate, name)) for name in CHECKS},
}


@pytest.mark.parametrize("value", [1.5, 2.5, 1000.5, True, "7", np.float64(3.0)], ids=repr)
@pytest.mark.parametrize("entry", COUNT_ARGUMENTS)
def test_counts_must_be_integers(entry, value):
    # numpy would draw int(1000.5) trials while p_hat divides by 1000.5, and
    # a bool would count as 1
    name, call = COUNT_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(value)


def test_numpy_integer_counts_are_stored_as_ints():
    config = _config(shots=np.int64(100), seed=np.uint8(1))
    assert type(config.shots) is int and type(config.seed) is int
    assert run_protocol(config) == run_protocol(_config())


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
        assert round(run.p_hat * config.shots) == np.random.default_rng(
            config.seed
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

    def test_single_shot_run(self):
        config = ExperimentConfig(
            weights=np.array([0.5, 0.5]),
            true_phases=np.array([0.1, 0.1]),
            squeeze=SqueezeParameter(R_UNIT),
            shots=1,
            seed=3,
        )
        assert run_protocol(config).p_hat in (0.0, 1.0)

    def test_unsqueezed_probe_run(self):
        # nbar = 0: the probe always survives and no phase can be inferred
        config = ExperimentConfig(
            weights=np.array([0.25, 0.75]),
            true_phases=np.array([0.1, -0.2]),
            squeeze=SqueezeParameter(0.0),
            shots=1000,
            seed=5,
        )
        run = run_protocol(config)
        assert (run.p_exact, run.p_hat, run.phi_hat) == (1.0, 1.0, 0.0)

    @pytest.mark.parametrize("ratio", [0.01, 0.05, 0.1, 0.2, 0.29])
    def test_equal_phases_come_back_without_shot_noise(self, monkeypatch, ratio):
        # the count is the exact expectation, so phi_hat carries no shot noise
        monkeypatch.setattr(
            sqzmet.metrology, "simulate_shots", lambda p, shots, seed: round(p * shots)
        )
        for weights in ([1.0], [0.25, 0.75], [0.2, 0.3, 0.5]):
            phi = ratio  # nbar = 1
            config = ExperimentConfig(
                weights=np.array(weights),
                true_phases=np.full(len(weights), phi),
                squeeze=SqueezeParameter(R_UNIT),
                shots=10 ** 15,
                seed=0,
            )
            assert run_protocol(config).phi_hat == pytest.approx(phi, rel=0, abs=1e-12)


class TestRunProtocolChecksOnce:
    """``ExperimentConfig`` is the one place a protocol run's arrays are checked."""

    def test_arrays_are_checked_at_most_once_per_run(self, monkeypatch):
        config = ExperimentConfig(
            np.array([0.25, 0.25, 0.5]), np.array([0.02, -0.01, 0.03]), SqueezeParameter(R_UNIT), 1000, 4
        )
        calls = {"validate_weights": 0, "validate_phases": 0}
        for name in calls:
            original = getattr(sqzmet.network, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(sqzmet.network, name, counted)
        run_protocol(config)
        # the weight network's own check of its argument is the one left
        assert calls["validate_weights"] <= 1 and calls["validate_phases"] <= 1, calls

    @pytest.mark.parametrize("modes", [1, 2, 8, 32, 128])
    def test_fields_are_the_bits_of_the_public_functions(self, modes):
        rng = np.random.default_rng(2700 + modes)
        for r, theta, spread in [(0.0, 0.0, 0.1), (0.3, 1.1, 1e-6), (1.5, 4.0, 0.02), (2.5, 6.0, 2.0)]:
            weights = rng.dirichlet(np.ones(modes))
            phases = rng.uniform(-spread, spread, modes)
            squeeze = SqueezeParameter(r, theta)
            run = run_protocol(ExperimentConfig(weights, phases, squeeze, 10 ** 6, int(rng.integers(2 ** 31))))
            nbar = squeeze.mean_photon_number
            assert run.phi_bar_true == phase_moments(weights, phases).mean
            assert run.p_exact == exact_survival_probability(weights, phases, squeeze)[0]
            assert (run.regime_ratio, run.regime_ok) == tuple(check_regime(phases, nbar))


def _assert_sweep_matches_loop(nbars, shots, reps, seed, bias_product, baseline):
    """Check each point against its counts inverted and reduced on their own; return the counts."""
    result = scaling_sweep(nbars, shots, reps, seed, bias_product=bias_product, baseline=baseline)
    all_counts = []
    for i, (nbar, point) in enumerate(zip(nbars, result.results)):
        p = sweep_point_probability(nbar, bias_product / nbar, baseline)
        scale = 2.0 * nbar ** 2 if baseline == "squeezed" else nbar
        counts = np.random.default_rng([seed, i]).binomial(shots, p, size=reps)
        # the reference clamps the deficit; the sweep does not need to
        estimates = np.sqrt(np.maximum(0.0, 1.0 - counts / shots) / scale)
        assert point.p_hat == sum(counts.tolist()) / (reps * shots)
        assert point.phi_hat == float(estimates.mean())
        assert point.delta_phi_sq == float(estimates.var(ddof=1))
        all_counts.append(counts)
    return all_counts


class TestScalingSweep:
    def test_refuses_outside_regime(self):
        # the refusal names the ratio and the threshold and offers no override
        with pytest.raises(RegimeError, match=r"\(ratio 0\.4, threshold 0\.3\)$"):
            scaling_sweep([1.0, 2.0], 1000, 10, 0, bias_product=0.4)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            scaling_sweep([], 1000, 10, 0)
        with pytest.raises(ValueError):
            scaling_sweep([0.0, 1.0], 1000, 10, 0)
        with pytest.raises(ValueError):
            scaling_sweep([1.0], 1000, 1, 0)
        with pytest.raises(ValueError):
            scaling_sweep([1.0], 0, 10, 0)

    def test_two_repetitions_are_enough(self):
        result = scaling_sweep([1.0, 2.0], 10 ** 5, 2, 0)
        assert result.repetitions == 2
        assert all(point.delta_phi_sq > 0 for point in result.results)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 1e200, 1e-300])
    def test_rejects_bad_nbar(self, bad):
        # the last two overflow or underflow 8 nbar^2
        with pytest.raises(ValueError, match=re.escape(f"nbar = {bad}")):
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
        assert "repetitions 20" in str(info.value)

    def test_point_streams_are_keyed_by_index(self):
        # point i draws only from the stream keyed by (seed, i), so a call
        # repeats itself and appending points leaves earlier points unchanged
        nbars = [0.5, 1.0, 2.0]
        full = scaling_sweep(nbars, 5000, 20, 99)
        assert scaling_sweep(nbars, 5000, 20, 99) == full
        assert full.results[:2] == scaling_sweep(nbars[:2], 5000, 20, 99).results

    @pytest.mark.parametrize("baseline", ["squeezed", "coherent"])
    @pytest.mark.parametrize("nbars", [[1.0], [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]])
    @pytest.mark.parametrize("reps", [2, 3, 129, 8193, 10 ** 5])
    def test_vectorised_inversion_matches_loop(self, reps, nbars, baseline):
        # reference: draw point i's counts from the (seed, i) stream and invert
        # and reduce them as a 1-D array of their own.  The sweep reduces all
        # points along the rows of one array; the CSV bytes need the same bits,
        # and sums reordered around numpy's pairwise block (128) or buffer
        # (8192) sizes would not give them
        _assert_sweep_matches_loop(nbars, 10 ** 5, reps, 7, 0.05, baseline)

    @pytest.mark.parametrize("baseline", ["squeezed", "coherent"])
    def test_vectorised_inversion_matches_loop_at_full_survival(self, baseline):
        # 1000 shots at bias 0.01 lose 0.1 to 0.6 shots per repetition on
        # average, so some repetitions, but not all, see count == shots
        counts = _assert_sweep_matches_loop([0.5, 1.0], 1000, 200, 7, 0.01, baseline)
        assert all(0 < np.count_nonzero(row == 1000) < row.size for row in counts)

    def test_survival_fraction_at_the_largest_shot_count(self):
        # repetitions x shots is far past int64; the fraction must not wrap
        result = scaling_sweep([1.0, 2.0], 2 ** 63 - 1, 10, 1)
        for nbar, point in zip(result.nbars, result.results):
            p = sweep_point_probability(nbar, 0.05 / nbar)
            assert point.p_hat == pytest.approx(p, rel=0, abs=1e-6)

    def test_point_variance_near_reference(self):
        # the sample variance of 2000 repetitions has relative SD
        # sqrt(2 / 1999) ~ 0.032, so rel=0.15 is a band of about 4.6 sigma
        result = scaling_sweep([1.0], 10 ** 5, 2000, 2024)
        point = result.results[0]
        assert point.delta_phi_sq * 10 ** 5 == pytest.approx(0.125, rel=0.15)
        assert point.heisenberg_bound == pytest.approx(0.125 / 10 ** 5)
        assert math.isnan(result.slope)

    def test_default_points_reach_the_heisenberg_bound(self):
        # On-off detection has Fisher information F = (dP/dphi)^2 / (P (1 - P))
        # per shot.  With P = (1 + 4 nbar (nbar + 1) sin^2 phi)^(-1/2), F tends
        # to 8 nbar (nbar + 1) at small phi (Braunstein and Caves, PRL 72, 3439).
        # The sweep inverts with 2 nbar^2 instead of 2 nbar (nbar + 1), which
        # scales its estimates by sqrt((nbar + 1) / nbar), so their variance
        # should be (nbar + 1) / nbar / (F shots) = 1 / (8 nbar^2 shots): the
        # ratio column is the efficiency against the Cramer-Rao bound.  The
        # sample variance of R repetitions has relative SD sqrt(2 / (R - 1)),
        # and the band is 5 of those.
        reps = 2000
        result = scaling_sweep([0.5, 1.0, 2.0, 4.0], 10 ** 5, reps, 20260808)
        band = 5.0 * math.sqrt(2.0 / (reps - 1))
        for point in result.results:
            assert abs(point.delta_phi_sq / point.heisenberg_bound - 1.0) <= band

    def test_slope_and_baseline_contrast(self):
        nbars = [0.5, 1.0, 2.0, 4.0]
        squeezed = scaling_sweep(nbars, 10 ** 4, 100, 314)
        coherent = scaling_sweep(nbars, 10 ** 4, 100, 314, baseline="coherent")
        assert -2.3 < squeezed.slope < -1.7
        assert -1.3 < coherent.slope < -0.7

    def test_squeezed_point_is_the_engine_probability(self):
        # the sweep's one-mode closed form against the covariance engine
        # over the photon numbers and operating biases a sweep can reach
        for nbar in np.geomspace(1e-3, 1e4, 15):
            squeeze = SqueezeParameter(math.asinh(math.sqrt(nbar)))
            for bias in (1e-6, 1e-3, 0.05, 0.3, 1.0, 3.0):
                for signed in (bias, -bias):
                    phi_bar = signed / nbar
                    engine, _ = exact_survival_probability([1.0], [phi_bar], squeeze)
                    closed = sweep_point_probability(nbar, phi_bar)
                    assert closed == pytest.approx(engine, rel=0, abs=1e-12)

    def test_squeezed_sweep_runs_no_engine(self, monkeypatch):
        expected = scaling_sweep([0.5, 1.0, 2.0], 5000, 20, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep called an engine")

        monkeypatch.setattr(sqzmet.metrology, "exact_survival_probability", refuse)
        monkeypatch.setattr(sqzmet.gaussian, "squeezed_probe", refuse)
        monkeypatch.setattr(sqzmet.network, "embed_weights_unitary", refuse)
        assert scaling_sweep([0.5, 1.0, 2.0], 5000, 20, 3) == expected

    @pytest.mark.parametrize(
        "bias_product",
        [0.0, -0.0, math.nextafter(0.3, 0), -math.nextafter(0.3, 0), 0.3, -0.3, 0.31, -0.31,
         -0.5],
    )
    def test_regime_rule_is_the_magnitude_of_the_bias(self, bias_product):
        # check_regime's ratio max|phi| nbar is |bias_product| at every point:
        # the sweep refuses exactly where check_regime warns, which is from
        # the threshold 0.3 itself up
        regime = check_regime([bias_product], 1.0)
        assert regime == (abs(bias_product), abs(bias_product) < 0.3)
        if regime.ok:
            # a result, or the zero-variance refusal at bias 0
            try:
                scaling_sweep([1.0, 2.0], 10 ** 5, 10, 0, bias_product=bias_product)
            except ValueError as error:
                assert not isinstance(error, RegimeError)
        else:
            with pytest.raises(RegimeError, match=re.escape(f"(ratio {abs(bias_product)}, ")):
                scaling_sweep([1.0, 2.0], 10 ** 5, 10, 0, bias_product=bias_product)

    @pytest.mark.parametrize("baseline", ["squeezed", "coherent"])
    def test_sign_of_the_bias_changes_nothing(self, baseline):
        nbars = [0.5, 1.0, 2.0]
        positive = scaling_sweep(nbars, 5000, 20, 11, bias_product=0.05, baseline=baseline)
        negative = scaling_sweep(nbars, 5000, 20, 11, bias_product=-0.05, baseline=baseline)
        assert negative == positive

    @pytest.mark.parametrize("nbars", [[1.0, 1.0], [2.0, 2.0, 2.0], [1e15, 1e15 + 0.125]])
    def test_rejects_nbars_without_log_spread(self, nbars, monkeypatch):
        # the last pair are distinct floats with one and the same log
        def no_draw(*args, **kwargs):
            raise AssertionError("refusal came after a draw")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=re.escape(f"nbars {nbars} have no spread")):
            scaling_sweep(nbars, 1000, 10, 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        # each number from the whole envelope or from where a sweep answers
        nbars=st.lists(
            st.floats(0.1, 10.0) | st.floats(sqzmet.network.NBAR_MIN, sqzmet.network.NBAR_MAX),
            min_size=2,
            max_size=3,
        ),
        bias_product=st.floats(-0.3, 0.3) | st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_coherent_sweep_answers_or_names_its_input(self, nbars, bias_product):
        # the coherent law lies in [0, 1] at every finite bias, so a sweep
        # either answers with finite rows or refuses by naming the regime or
        # a point that every repetition saw alike
        logs = [math.log(nbar) for nbar in nbars]
        assume(min(logs) < max(logs))
        for nbar in nbars:
            phi_bar = bias_product / nbar
            if abs(phi_bar) <= sqzmet.network.PHASE_MAX:
                assert 0.0 <= sweep_point_probability(nbar, phi_bar, "coherent") <= 1.0
        try:
            result = scaling_sweep(nbars, 10 ** 5, 10, 0, bias_product=bias_product, baseline="coherent")
        except RegimeError:
            assert abs(bias_product) >= sqzmet.metrology.REGIME_THRESHOLD
            return
        except ValueError as error:
            assert "zero sample variance" in str(error)
            return
        assert math.isfinite(result.slope)
        for point in result.results:
            assert 0.0 <= point.p_hat <= 1.0
            assert math.isfinite(point.phi_hat)
            assert math.isfinite(point.delta_phi_sq) and point.delta_phi_sq > 0

    def test_coherent_point_probability_is_the_poisson_phase_sum(self):
        # <a|a e^(-i phi)> sums the Poisson photon-number weights of |a>,
        # each with the phase n phi: P = |sum_n e^-nbar nbar^n / n! e^(-i n phi)|^2.
        # Terms past nbar + 40 sqrt(nbar) + 40 are below double precision
        for nbar in np.geomspace(1e-3, 1e2, 16):
            nbar = float(nbar)
            for phi in np.linspace(-math.pi, math.pi, 25):
                weight, real, imag = math.exp(-nbar), [], []
                for n in range(int(nbar + 40.0 * math.sqrt(nbar) + 40.0)):
                    real.append(weight * math.cos(n * phi))
                    imag.append(-weight * math.sin(n * phi))
                    weight *= nbar / (n + 1)
                expected = math.fsum(real) ** 2 + math.fsum(imag) ** 2
                p = sweep_point_probability(nbar, float(phi), baseline="coherent")
                assert p == pytest.approx(expected, rel=0, abs=1e-12), (nbar, phi)

    def test_rejects_unknown_baseline(self):
        with pytest.raises(ValueError):
            sweep_point_probability(1.0, 0.05, baseline="thermal")

    @pytest.mark.parametrize("baseline", ["squeezed", "coherent"])
    @pytest.mark.parametrize(
        "nbar, phi_bar",
        # unchecked, both laws would answer a negative nbar with a
        # "probability" >= 1, a NaN with NaN and an infinite nbar with 0, and
        # math.sin would refuse an infinite phase without naming it; 1e200 is
        # past NBAR_MAX, where the squeezed law forms inf * 0 = NaN.  The
        # cases with nbar = 1.0 have the bad phi_bar
        [(-1.0, 0.01), (math.nan, 0.01), (math.inf, 0.01), (1.0, math.nan),
         (1.0, math.inf), (1e200, 0.0)],
    )
    def test_point_probability_refuses_bad_inputs(self, baseline, nbar, phi_bar):
        name, value = ("phi_bar", phi_bar) if nbar == 1.0 else ("nbar", nbar)
        with pytest.raises(ValueError, match=re.escape(f"{name} = {value} outside [")):
            sweep_point_probability(nbar, phi_bar, baseline=baseline)

    def test_coherent_phase_past_phase_max_is_refused(self):
        # at nbar = 0 the law would answer 1 for any phase; the phase
        # envelope still names the input
        with pytest.raises(ValueError, match=re.escape("phi_bar = 1e+200")):
            sweep_point_probability(0.0, 1e200, baseline="coherent")


class TestFitSlope:
    # the one least-squares fit of the sweep and of validate's series check
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("points", [2, 3, 5, 17, 64])
    def test_matches_polyfit(self, points, noise):
        # np.polyfit is the reference, over log spreads from 1e-16 up to the
        # whole nbar envelope.  Both fits lose digits in proportion to the
        # data's offset over its spread, so the offsets stay within a few
        # spreads, where np.polyfit is accurate to about 1e-14
        rng = np.random.default_rng([points, round(10 * noise)])
        low, high = math.log(sqzmet.network.NBAR_MIN), math.log(sqzmet.network.NBAR_MAX)
        for spread in np.geomspace(1e-16, high - low, 12):
            start = rng.uniform(max(low, -spread), min(0.0, high - spread))
            fractions = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, points - 2)])
            xs = start + spread * fractions
            slope = -rng.uniform(0.5, 3.0)
            ys = spread * rng.uniform(-1.0, 1.0) + slope * xs
            ys += noise * abs(slope) * spread * rng.standard_normal(points)
            expected = np.polyfit(xs, ys, 1)[0]
            fitted = sqzmet.metrology._fit_slope(xs.tolist(), ys.tolist())
            assert fitted == pytest.approx(expected, rel=1e-12), (points, spread)

    def test_one_point_or_no_spread_gives_nan(self):
        assert math.isnan(sqzmet.metrology._fit_slope([0.7], [-3.0]))
        assert math.isnan(sqzmet.metrology._fit_slope([0.7, 0.7], [-3.0, 1.0]))

    def test_sweep_and_full_suite_need_no_polyfit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.polyfit was called")

        monkeypatch.setattr(np, "polyfit", refuse)
        result = scaling_sweep([0.5, 1.0, 2.0, 4.0], 10 ** 5, 200, 20260808)
        assert -2.3 < result.slope < -1.7
        checks = validate.full_suite(0)
        assert checks[-1].name == "series convergence order"
        assert all(check.passed for check in checks)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda s: exact_survival_probability([1.0], [0.1], s), id="exact-gaussian"),
        pytest.param(
            lambda s: exact_survival_probability([1.0], [0.1], s, engine="fock"), id="exact-fock"
        ),
        pytest.param(lambda s: recommend_cutoff(s, 1e-10), id="recommend-cutoff"),
        pytest.param(lambda s: squeezed_vacuum_probabilities(s, 4), id="fock-ladder"),
        pytest.param(lambda s: squeezed_probe(2, s), id="squeezed-probe"),
    ],
)
@pytest.mark.parametrize("squeeze", [0.5, (0.5, 0.0), None], ids=["float", "tuple", "none"])
def test_verifier_entry_points_refuse_a_squeeze_by_name(call, squeeze):
    # each raised a bare AttributeError ('float' object has no attribute
    # 'theta' or 'r'); now ExperimentConfig's one check and its message
    with pytest.raises(ValueError, match=re.escape(f"squeeze must be a SqueezeParameter, got {squeeze!r}")):
        call(squeeze)


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("nbar", lambda: heisenberg_sensitivity(10 ** 400), id="heisenberg-huge"),
        pytest.param("nbar", lambda: heisenberg_sensitivity("1"), id="heisenberg-str"),
        pytest.param("nbar", lambda: estimate_phase(5, 10, 10 ** 400), id="estimate-huge"),
        pytest.param("nbar", lambda: check_regime([0.1], -10 ** 400), id="regime-huge"),
        pytest.param("probability p", lambda: simulate_shots("0.5", 10, 1), id="shots-str"),
        pytest.param("phi_bar", lambda: sweep_point_probability(1.0, 10 ** 400), id="point-huge"),
        pytest.param(
            "bias_product",
            lambda: scaling_sweep([1.0, 2.0], 1000, 10, 0, bias_product=10 ** 400),
            id="sweep-bias-huge",
        ),
        pytest.param(
            "nbars", lambda: scaling_sweep([1.0, 10 ** 400], 1000, 10, 0), id="sweep-nbar-huge"
        ),
    ],
)
def test_values_outside_the_envelope_are_refused_by_name(name, call):
    # an int past the float range raised a bare OverflowError, "1" a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(name)} (=|must)"):
        call()
