import math

import numpy as np
import pytest

from sqzmet import (
    SqueezeParameter,
    apply_network,
    apply_phases,
    apply_squeeze,
    mach_zehnder_unitary,
    photon_moments,
    purity_defect,
    vacuum_overlap_probability,
    vacuum_state,
)
from conftest import random_unitary

R_UNIT = math.asinh(1.0)  # one mean photon


def brute_force_survival(r, phi, terms=200):
    """Independent oracle: generating-function sum over the even photon ladder.

    Uses exact binomials, not the package's amplitude recurrence.
    """
    total = 0j
    for n in range(terms):
        prob = math.comb(2 * n, n) * (math.tanh(r) ** 2 / 4.0) ** n / math.cosh(r)
        total += prob * np.exp(-2j * n * phi)
    return abs(total) ** 2


class TestStatePreparation:
    def test_vacuum_covariance(self):
        assert np.array_equal(vacuum_state(1).covariance, 0.5 * np.eye(2))
        assert np.array_equal(vacuum_state(3).covariance, 0.5 * np.eye(6))

    def test_vacuum_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            vacuum_state(0)

    def test_squeeze_covariance_diagonal(self):
        state = apply_squeeze(vacuum_state(1), 0, SqueezeParameter(R_UNIT))
        expected = np.diag([math.exp(2 * R_UNIT) / 2, math.exp(-2 * R_UNIT) / 2])
        assert np.allclose(state.covariance, expected, atol=1e-12)
        assert np.allclose(np.diag(state.covariance), [2.914214, 0.085786], atol=1e-6)
        assert purity_defect(state) < 1e-12

    def test_zero_squeeze_is_identity(self):
        state = apply_squeeze(vacuum_state(2), 1, SqueezeParameter(0.0, 1.3))
        assert np.allclose(state.covariance, 0.5 * np.eye(4), atol=1e-15)

    def test_squeeze_then_opposite_phase_restores_vacuum(self):
        for theta in (0.0, 0.7, 4.0):
            state = apply_squeeze(vacuum_state(1), 0, SqueezeParameter(0.9, theta))
            state = apply_squeeze(state, 0, SqueezeParameter(0.9, theta + math.pi))
            assert np.allclose(state.covariance, 0.5 * np.eye(2), atol=1e-12)

    def test_squeeze_mode_out_of_range(self):
        with pytest.raises(IndexError):
            apply_squeeze(vacuum_state(2), 2, SqueezeParameter(0.5))

    def test_squeeze_parameter_validation(self):
        with pytest.raises(ValueError):
            SqueezeParameter(-0.1)
        assert SqueezeParameter(0.3, -1.0).theta == pytest.approx(2 * math.pi - 1.0)
        assert SqueezeParameter(R_UNIT).mean_photon_number == pytest.approx(1.0)


class TestNetworkAndPhases:
    def test_identity_network_fixes_state(self, rng):
        state = apply_squeeze(vacuum_state(3), 0, SqueezeParameter(0.8))
        after = apply_network(state, np.eye(3))
        assert np.allclose(after.covariance, state.covariance, atol=1e-14)

    def test_any_network_fixes_vacuum(self, rng):
        for dim in (2, 4):
            after = apply_network(vacuum_state(dim), random_unitary(rng, dim))
            assert np.allclose(after.covariance, 0.5 * np.eye(2 * dim), atol=1e-13)

    def test_network_preserves_photon_number(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            r = float(rng.uniform(0.0, 2.0))
            state = apply_squeeze(vacuum_state(dim), 0, SqueezeParameter(r))
            before = photon_moments(state).mean_n
            after = photon_moments(apply_network(state, random_unitary(rng, dim))).mean_n
            assert abs(before - after) <= 1e-12 * max(1.0, before)

    def test_balanced_splitter_preserves_unit_photon(self):
        state = apply_squeeze(vacuum_state(2), 0, SqueezeParameter(R_UNIT))
        after = apply_network(state, mach_zehnder_unitary(0.5))
        assert photon_moments(after).mean_n == pytest.approx(1.0, abs=1e-12)

    def test_network_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_network(vacuum_state(2), np.eye(3))

    def test_zero_phases_identity(self):
        state = apply_squeeze(vacuum_state(2), 0, SqueezeParameter(0.6))
        after = apply_phases(state, [0.0, 0.0])
        assert np.allclose(after.covariance, state.covariance, atol=1e-15)

    def test_full_turn_phases_identity(self):
        state = apply_squeeze(vacuum_state(2), 0, SqueezeParameter(0.6))
        after = apply_phases(state, [2 * math.pi, 2 * math.pi])
        assert np.allclose(after.covariance, state.covariance, atol=1e-12)

    def test_quarter_turn_swaps_squeezing_axes(self):
        # rotating the quadratures by pi/2 turns the squeezer phase by pi
        squeezed = apply_squeeze(vacuum_state(1), 0, SqueezeParameter(0.7, 0.0))
        rotated = apply_phases(squeezed, [math.pi / 2])
        flipped = apply_squeeze(vacuum_state(1), 0, SqueezeParameter(0.7, math.pi))
        assert np.allclose(rotated.covariance, flipped.covariance, atol=1e-12)

    def test_phases_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_phases(vacuum_state(2), [0.1])

    def test_purity_preserved_through_pipeline(self, rng):
        state = apply_squeeze(vacuum_state(4), 0, SqueezeParameter(1.4, 2.2))
        state = apply_network(state, random_unitary(rng, 4))
        state = apply_phases(state, rng.uniform(-1, 1, size=4))
        state = apply_network(state, random_unitary(rng, 4))
        assert purity_defect(state) <= 1e-9


class TestPhotonMoments:
    def test_vacuum_moments_are_zero(self):
        moments = photon_moments(vacuum_state(3))
        assert (moments.mean_n, moments.mean_n_sq, moments.var_n) == (0.0, 0.0, 0.0)

    def test_unit_photon_squeezer(self):
        state = apply_squeeze(vacuum_state(1), 0, SqueezeParameter(R_UNIT))
        assert photon_moments(state).mean_n == pytest.approx(1.0, abs=1e-12)
        moments = photon_moments(state)
        assert moments.var_n == pytest.approx(4.0, abs=1e-9)
        assert moments.mean_n_sq == pytest.approx(5.0, abs=1e-9)

    def test_variance_is_super_poissonian(self, rng):
        for _ in range(20):
            r = float(rng.uniform(0.05, 2.0))
            state = apply_squeeze(vacuum_state(2), 0, SqueezeParameter(r, rng.uniform(0, 6)))
            moments = photon_moments(state)
            nbar = math.sinh(r) ** 2
            assert moments.mean_n == pytest.approx(nbar, abs=1e-9)
            assert moments.var_n == pytest.approx(2 * nbar * (nbar + 1), abs=1e-9)


class TestVacuumOverlap:
    def test_zero_phases_give_unity(self, rng):
        for dim in (1, 3):
            squeeze = SqueezeParameter(float(rng.uniform(0.1, 1.2)))
            state = apply_squeeze(vacuum_state(dim), 0, squeeze)
            unitary = random_unitary(rng, dim)
            state = apply_network(state, unitary)
            state = apply_phases(state, np.zeros(dim))
            state = apply_network(state, unitary.conj().T)
            assert vacuum_overlap_probability(state, squeeze) == pytest.approx(1.0, abs=1e-12)

    def test_unsqueezed_probe_always_survives(self):
        squeeze = SqueezeParameter(0.0)
        state = apply_phases(vacuum_state(2), [0.4, -0.2])
        assert vacuum_overlap_probability(state, squeeze) == pytest.approx(1.0, abs=1e-12)

    def test_against_generating_function_oracle(self):
        # frozen from brute_force_survival(asinh(1), 0.1): 0.962369108664265
        squeeze = SqueezeParameter(R_UNIT)
        state = apply_phases(apply_squeeze(vacuum_state(1), 0, squeeze), [0.1])
        value = vacuum_overlap_probability(state, squeeze)
        assert value == pytest.approx(0.962369108664265, abs=1e-12)
        assert value == pytest.approx(brute_force_survival(R_UNIT, 0.1), abs=1e-12)

    def test_equal_phases_match_single_mode(self):
        # the phase-spread term vanishes when every channel has the same phase
        squeeze = SqueezeParameter(R_UNIT)
        unitary = mach_zehnder_unitary(0.5)
        state = apply_squeeze(vacuum_state(2), 0, squeeze)
        state = apply_network(state, unitary)
        state = apply_phases(state, [0.1, 0.1])
        state = apply_network(state, unitary.conj().T)
        assert vacuum_overlap_probability(state, squeeze) == pytest.approx(
            0.962369108664265, abs=1e-10
        )

    def test_even_in_phase_and_decreasing(self):
        squeeze = SqueezeParameter(0.9)
        base = apply_squeeze(vacuum_state(1), 0, squeeze)

        def prob(phi):
            return vacuum_overlap_probability(apply_phases(base, [phi]), squeeze)

        grid = np.linspace(0.05, math.pi / 2, 25)
        values = np.array([prob(phi) for phi in grid])
        mirrored = np.array([prob(-phi) for phi in grid])
        assert np.allclose(values, mirrored, atol=1e-12)
        assert np.all(np.diff(values) < 0)

    def test_gauge_invariance_of_trailing_columns(self, rng):
        # only the first network column matters; rephasing the others is invisible
        squeeze = SqueezeParameter(0.8, 1.1)
        unitary = random_unitary(rng, 4)
        phases = rng.uniform(-0.6, 0.6, size=4)
        gauge = np.diag(np.exp(1j * np.concatenate([[0.0], rng.uniform(0, 6, size=3)])))

        def run(u):
            state = apply_squeeze(vacuum_state(4), 0, squeeze)
            state = apply_network(state, u)
            state = apply_phases(state, phases)
            state = apply_network(state, u.conj().T)
            return vacuum_overlap_probability(state, squeeze)

        assert abs(run(unitary) - run(unitary @ gauge)) <= 1e-12

    def test_rejects_impure_state(self):
        from sqzmet import GaussianState

        thermal = GaussianState(np.eye(2))  # det(2V) = 4, far from pure
        with pytest.raises(ValueError, match="not pure"):
            vacuum_overlap_probability(thermal, SqueezeParameter(0.5))
