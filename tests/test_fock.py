import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from sqzmet import (
    SqueezeParameter,
    TruncationError,
    embed_weights_unitary,
    generator_moments,
    generator_moments_sectors,
    mach_zehnder_factorization_residual,
    mach_zehnder_unitary,
    photon_moments_fock,
    propagate_through_network,
    recommend_cutoff,
    series_partial_sum,
    squeezed_vacuum_amplitudes,
    survival_probability,
    survival_probability_sectors,
    two_mode_sector_operators,
)
from sqzmet.fock import _multinomial_weighted_moments
from conftest import random_weights

R_UNIT = math.asinh(1.0)
SQ_UNIT = SqueezeParameter(R_UNIT)


def multinomial_moment_brute_force(weights, phases, total, order):
    """Enumerate every occupation of ``total`` photons; the slow oracle."""
    modes = len(weights)
    acc = 0.0
    for combo in combinations_with_replacement(range(modes), total):
        occ = np.bincount(combo, minlength=modes)
        prob = math.factorial(total)
        for k, w in zip(occ, weights):
            prob *= w ** k / math.factorial(k)
        acc += prob * float(occ @ phases) ** order
    return acc


class TestAmplitudes:
    def test_vacuum_limit(self):
        amps = squeezed_vacuum_amplitudes(SqueezeParameter(0.0), 8)
        assert amps[0] == 1.0
        assert np.all(amps[1:] == 0.0)

    def test_unit_photon_values(self):
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, 10)
        assert abs(amps[0]) == pytest.approx(2 ** -0.25, abs=1e-12)
        assert abs(amps[1]) == pytest.approx(abs(amps[0]) / 2, abs=1e-12)

    def test_normalization_and_mean(self):
        for r in (0.3, 0.9, 1.2):
            squeeze = SqueezeParameter(r, 0.4)
            cutoff = recommend_cutoff(squeeze, 1e-13, moment_power=1)
            probs = np.abs(squeezed_vacuum_amplitudes(squeeze, cutoff)) ** 2
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            mean = float(probs @ (2 * np.arange(len(probs))))
            assert mean == pytest.approx(math.sinh(r) ** 2, abs=1e-11)

    def test_rejects_odd_cutoff(self):
        with pytest.raises(ValueError):
            squeezed_vacuum_amplitudes(SQ_UNIT, 7)

    def test_recommended_cutoff_certifies_tail(self):
        for r in (0.2, 0.8, 1.2):
            squeeze = SqueezeParameter(r)
            cutoff = recommend_cutoff(squeeze, 1e-10)
            probs = np.abs(squeezed_vacuum_amplitudes(squeeze, cutoff)) ** 2
            assert 1.0 - probs.sum() < 1e-10
            if cutoff >= 2:
                shorter = np.abs(squeezed_vacuum_amplitudes(squeeze, cutoff - 2)) ** 2
                assert 1.0 - shorter.sum() >= 1e-10 * 0.3  # not wildly conservative

    def test_uncertifiable_cutoff_names_the_squeezing(self):
        with pytest.raises(ValueError, match=r"r = 5\.5 \(nbar = 1\.497e\+04\)"):
            recommend_cutoff(SqueezeParameter(5.5), 1e-12)

    def test_photon_moment_reconstruction(self):
        # mean 1 and mean square 5 for the unit-photon squeezer
        cutoff = recommend_cutoff(SQ_UNIT, 1e-12, moment_power=2)
        probs = np.abs(squeezed_vacuum_amplitudes(SQ_UNIT, cutoff)) ** 2
        totals = 2.0 * np.arange(len(probs))
        assert float(probs @ totals) == pytest.approx(1.0, abs=1e-10)
        assert float(probs @ totals ** 2) == pytest.approx(5.0, abs=1e-9)


class TestPropagation:
    def test_identity_network_occupies_first_mode(self):
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, 8)
        table = propagate_through_network(amps, np.eye(3, dtype=complex))
        populated = table.occupations[np.abs(table.amplitudes) > 0]
        assert np.all(populated[:, 1:] == 0)
        assert np.all(populated[:, 0] % 2 == 0)

    def test_balanced_two_photon_sector(self):
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, 4)
        table = propagate_through_network(amps, mach_zehnder_unitary(0.5))
        pair_prob = abs(amps[1]) ** 2
        assert abs(table.amplitude((2, 0))) ** 2 == pytest.approx(0.25 * pair_prob, rel=1e-12)
        assert abs(table.amplitude((1, 1))) ** 2 == pytest.approx(0.50 * pair_prob, rel=1e-12)
        assert abs(table.amplitude((0, 2))) ** 2 == pytest.approx(0.25 * pair_prob, rel=1e-12)
        assert table.amplitude((1, 0)) == 0.0

    def test_sector_norms_preserved(self, rng):
        squeeze = SqueezeParameter(0.7, 2.0)
        amps = squeezed_vacuum_amplitudes(squeeze, 20)
        table = propagate_through_network(amps, embed_weights_unitary(random_weights(rng, 4)))
        totals = table.sector_totals()
        probs = table.probabilities()
        for half, amp in enumerate(amps):
            sector = float(probs[totals == 2 * half].sum())
            assert sector == pytest.approx(abs(amp) ** 2, abs=1e-12)

    def test_only_even_sectors_materialized(self, rng):
        amps = squeezed_vacuum_amplitudes(SqueezeParameter(0.5), 12)
        table = propagate_through_network(amps, embed_weights_unitary([0.5, 0.5]))
        assert np.all(table.sector_totals() % 2 == 0)

    def test_rejects_unnormalized_first_column(self):
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, 4)
        with pytest.raises(ValueError, match="first column"):
            propagate_through_network(amps, 0.9 * np.eye(2))


class TestSurvivalProbability:
    def test_zero_phases_is_unity_up_to_tail(self):
        amps = squeezed_vacuum_amplitudes(SqueezeParameter(0.6), 30)
        table = propagate_through_network(amps, embed_weights_unitary([0.4, 0.6]))
        assert survival_probability(table, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-9)

    def test_spot_value_at_cutoff_forty(self):
        # frozen closed-form value 0.962369108664265; cutoff 40 leaves ~6e-8
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, 40)
        table = propagate_through_network(amps, np.eye(1, dtype=complex))
        assert survival_probability(table, [0.1]) == pytest.approx(
            0.962369108664265, abs=1e-7
        )

    def test_table_matches_sector_resummation(self, rng):
        for _ in range(10):
            modes = int(rng.integers(1, 4))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-1.0, 1.0, size=modes)
            squeeze = SqueezeParameter(rng.uniform(0.1, 0.8), rng.uniform(0, 6))
            cutoff = recommend_cutoff(squeeze, 1e-10)
            amps = squeezed_vacuum_amplitudes(squeeze, cutoff)
            table = propagate_through_network(amps, embed_weights_unitary(weights))
            assert survival_probability(table, phases) == pytest.approx(
                survival_probability_sectors(amps, weights, phases), abs=1e-12
            )

    def test_truncation_error_raised(self):
        squeeze = SqueezeParameter(1.2)
        amps = squeezed_vacuum_amplitudes(squeeze, 10)  # tail far above 1e-6
        table = propagate_through_network(amps, np.eye(1, dtype=complex))
        with pytest.raises(TruncationError):
            survival_probability(table, [0.1])

    def test_phase_length_checked(self):
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, 6)
        table = propagate_through_network(amps, np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            survival_probability(table, [0.1])


class TestGeneratorMoments:
    def test_zero_phases(self):
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, recommend_cutoff(SQ_UNIT, 1e-13))
        series = generator_moments_sectors(amps, [1.0], [0.0], max_order=6)
        assert series.moments[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(series.moments[1:], 0.0, atol=1e-15)
        assert series.terms[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(series.terms[1:], 0.0, atol=1e-14)

    def test_weighted_mean_generator(self):
        # first moment is the weighted phase average times the photon number
        cutoff = recommend_cutoff(SQ_UNIT, 1e-13, moment_power=2)
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, cutoff)
        series = generator_moments_sectors(amps, [0.25, 0.75], [0.2, 0.0], max_order=2)
        assert series.moments[1] == pytest.approx(0.05, abs=1e-10)
        assert series.terms[2] == pytest.approx(0.035, abs=1e-10)

    def test_table_route_matches_sector_route(self, rng):
        weights = random_weights(rng, 3)
        phases = rng.uniform(-0.5, 0.5, size=3)
        squeeze = SqueezeParameter(0.6, 1.0)
        cutoff = recommend_cutoff(squeeze, 1e-12, moment_power=4)
        amps = squeezed_vacuum_amplitudes(squeeze, cutoff)
        table = propagate_through_network(amps, embed_weights_unitary(weights))
        from_table = generator_moments(table, phases, max_order=4)
        from_sectors = generator_moments_sectors(amps, weights, phases, max_order=4)
        assert np.allclose(from_table.moments, from_sectors.moments, atol=1e-11)
        assert np.allclose(from_table.terms, from_sectors.terms, atol=1e-11)

    def test_multinomial_moments_against_enumeration(self, rng):
        for _ in range(5):
            modes = int(rng.integers(1, 4))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-1.0, 1.0, size=modes)
            totals = np.array([0.0, 2.0, 5.0, 8.0])
            table = _multinomial_weighted_moments(weights, phases, totals, 4)
            for col, total in enumerate(totals):
                for order in range(5):
                    brute = multinomial_moment_brute_force(
                        weights, phases, int(total), order
                    )
                    assert table[order, col] == pytest.approx(brute, abs=1e-12)

    def test_odd_terms_vanish(self, rng):
        for _ in range(30):
            modes = int(rng.integers(1, 6))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-0.3, 0.3, size=modes)
            squeeze = SqueezeParameter(rng.uniform(0.05, 1.2), rng.uniform(0, 6))
            cutoff = recommend_cutoff(squeeze, 1e-13, moment_power=8)
            amps = squeezed_vacuum_amplitudes(squeeze, cutoff)
            series = generator_moments_sectors(amps, weights, phases, max_order=8)
            assert np.max(np.abs(series.terms[1::2])) <= 1e-10

    def test_moment_operator_bound(self, rng):
        # |<generator^k>| <= (max|phi|)^k <N^k> for every state
        for _ in range(10):
            modes = int(rng.integers(1, 5))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-0.8, 0.8, size=modes)
            squeeze = SqueezeParameter(rng.uniform(0.1, 1.0))
            cutoff = recommend_cutoff(squeeze, 1e-13, moment_power=4)
            amps = squeezed_vacuum_amplitudes(squeeze, cutoff)
            probs = np.abs(amps) ** 2
            totals = 2.0 * np.arange(len(probs))
            series = generator_moments_sectors(amps, weights, phases, max_order=4)
            phi_max = float(np.max(np.abs(phases)))
            for k in range(1, 5):
                bound = phi_max ** k * float(probs @ totals ** k)
                assert abs(series.moments[k]) <= bound + 1e-12

    def test_partial_sums_converge_to_exact(self):
        weights = np.array([0.3, 0.7])
        squeeze = SqueezeParameter(0.8)
        cutoff = recommend_cutoff(squeeze, 1e-14, moment_power=8)
        amps = squeezed_vacuum_amplitudes(squeeze, cutoff)
        phases = np.array([0.03, 0.01])
        exact = survival_probability_sectors(amps, weights, phases)
        series = generator_moments_sectors(amps, weights, phases, max_order=6)
        errors = [
            abs(series_partial_sum(series.terms, order) - exact) for order in (0, 2, 4, 6)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-10

    def test_order_cap_enforced(self):
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, 10)
        table = propagate_through_network(amps, np.eye(1, dtype=complex))
        with pytest.raises(ValueError):
            generator_moments(table, [0.1], max_order=9)
        with pytest.raises(ValueError):
            generator_moments_sectors(amps, [1.0], [0.1], max_order=9)

    @pytest.mark.parametrize("weights", [[math.nan, 0.5], [0.5, 0.5 + 5e-11]])
    @pytest.mark.parametrize(
        "route", [survival_probability_sectors, generator_moments_sectors]
    )
    def test_sector_routes_reject_bad_weights(self, route, weights):
        # same check as network.validate_weights: NaN and a sum off by more
        # than 1e-12 both raise instead of returning a number
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, 10)
        with pytest.raises(ValueError, match="weights must"):
            route(amps, weights, [0.1, 0.0])

    def test_fock_photon_moments_match_reference(self):
        cutoff = recommend_cutoff(SQ_UNIT, 1e-13, moment_power=2)
        amps = squeezed_vacuum_amplitudes(SQ_UNIT, cutoff)
        table = propagate_through_network(amps, embed_weights_unitary([0.5, 0.5]))
        moments = photon_moments_fock(table)
        assert moments.mean_n == pytest.approx(1.0, abs=1e-10)
        assert moments.mean_n_sq == pytest.approx(5.0, abs=1e-9)
        assert moments.var_n == pytest.approx(4.0, abs=1e-9)


class TestMachZehnderFactorization:
    def test_zero_phases(self):
        assert mach_zehnder_factorization_residual(0.0, 0.0, 8) <= 1e-12

    def test_equal_phases_pure_global_generator(self):
        assert mach_zehnder_factorization_residual(0.3, 0.3, 12) <= 1e-10

    def test_random_pairs(self, rng):
        for _ in range(10):
            phi1, phi2 = rng.uniform(-math.pi, math.pi, size=2)
            assert (
                mach_zehnder_factorization_residual(phi1, phi2, 12, max_total=10)
                <= 1e-9
            )

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            mach_zehnder_factorization_residual(0.1, 0.2, 1)

    def test_sector_operators_hermitian(self):
        for total in (1, 4, 9):
            ops = two_mode_sector_operators(total)
            assert np.max(np.abs(ops.jx - ops.jx.conj().T)) <= 1e-12
            assert np.max(np.abs(ops.jy - ops.jy.conj().T)) <= 1e-12

    def test_sector_operators_algebra(self):
        # [jx, jy] = i jz with jz = (n1 - n2)/2 on each sector
        ops = two_mode_sector_operators(6)
        jz = np.diag(ops.n_first - (6 - ops.n_first)) / 2.0
        commutator = ops.jx @ ops.jy - ops.jy @ ops.jx
        assert np.max(np.abs(commutator - 1j * jz)) <= 1e-12
