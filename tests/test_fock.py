import math
import re
import time
import tracemalloc
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqzmet import (
    SqueezeParameter,
    TruncationError,
    generator_moments_sectors,
    mach_zehnder_factorization_residual,
    recommend_cutoff,
    series_partial_sum,
    squeezed_vacuum_probabilities,
    survival_probability,
    survival_probability_sectors,
)
from sqzmet import fock, metrology, network, validate
from sqzmet.fock import (
    MAX_CUTOFF,
    MAX_MZ_CUTOFF,
    MAX_SERIES_ORDER,
    MAX_TABLE_ROWS,
    MAX_TABLE_TAIL,
    _probability_table,
    _multinomial_weighted_moments,
    _sector_generators,
    _sector_operators,
)
from conftest import nan_splitter_at, random_weights

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


def squeezed_probabilities_closed_form(r, cutoff):
    """``p_2n = sech(r) C(2n, n) (tanh(r)^2 / 4)^n``, term by term.

    The central binomial over ``4^n`` is divided exactly as integers; the
    power of ``tanh(r)^2`` is taken by repeated squaring.
    """
    def power(z, n):
        out = 1.0
        while n:
            if n & 1:
                out *= z
            z, n = z * z, n >> 1
        return out

    t2 = math.tanh(r) ** 2
    return np.array([
        power(t2, n) * (math.comb(2 * n, n) / 4 ** n) / math.cosh(r)
        for n in range(cutoff // 2 + 1)
    ])


def propagate_by_enumeration(ladder_probs, weights):
    """One occupation tuple at a time, as ``itertools`` enumerates them; the slow oracle.

    Each probability is the ladder's times the multinomial coefficient, an
    exact integer, times the weights' powers, over every mode.
    """
    modes = len(weights)
    occ_rows, prob_rows = [], []
    for half, ladder_prob in enumerate(ladder_probs):
        for combo in combinations_with_replacement(range(modes), 2 * half):
            occ = np.bincount(combo, minlength=modes)
            multinomial = math.factorial(2 * half) // math.prod(math.factorial(k) for k in occ)
            occ_rows.append(occ)
            prob_rows.append(ladder_prob * multinomial * math.prod(w ** k for w, k in zip(weights, occ)))
    return np.array(occ_rows, dtype=np.int64), np.array(prob_rows)


def table_rows(modes, cutoff):
    """Rows of the occupation table: every tuple of every even total up to ``cutoff``."""
    return sum(math.comb(total + modes - 1, modes - 1) for total in range(0, cutoff + 1, 2))


@lru_cache
def last_cutoff_within_the_cap(modes):
    """Largest even cutoff whose table has at most ``MAX_TABLE_ROWS`` rows; rows grow with the cutoff."""
    rows = 0
    for total in range(0, MAX_CUTOFF + 1, 2):
        rows += math.comb(total + modes - 1, modes - 1)
        if rows > MAX_TABLE_ROWS:
            return total - 2
    return MAX_CUTOFF


def mz_residual_by_sector(phi1, phi2, cutoff, norm="fro"):
    """Per-sector loop with fresh eigendecompositions; the slow oracle.

    ``norm`` is passed to ``np.linalg.norm``: ``"fro"`` is the residual's
    own norm, ``2`` the operator norm it bounds from above.
    """
    def expi(matrix, scale):
        values, vectors = np.linalg.eigh(matrix)
        return (vectors * np.exp(1j * scale * values)) @ vectors.conj().T

    worst = 0.0
    for total in range(cutoff + 1):
        jx, jy = _sector_generators(total)
        n_first = np.arange(total + 1.0)
        splitter = expi(jx, -math.pi / 2.0)
        diag_phase = np.exp(-1j * (phi1 * n_first + phi2 * (total - n_first)))
        composed = (splitter * diag_phase[None, :]) @ splitter.conj().T
        factorised = expi(jy, phi1 - phi2) * np.exp(-0.5j * (phi1 + phi2) * total)
        worst = max(worst, float(np.linalg.norm(composed - factorised, norm)))
    return worst


def certifies(ladder, squeeze, tail_bound, moment_power, cutoff):
    """``recommend_cutoff``'s certificate at ``cutoff``, read off the squeezer's ``ladder``.

    Entry ``m = cutoff / 2 + 1`` is the first one the cutoff leaves out, and
    every later term ratio of the tail weighted by ``(2m)^p`` is below
    ``tanh(r)^2 (1 + 1/m)^p``: the tail is below that entry's weighted term
    over one minus the ratio.
    """
    m = cutoff // 2 + 1
    ratio_bound = math.tanh(squeeze.r) ** 2 * (1.0 + 1.0 / m) ** moment_power
    return ratio_bound < 1.0 and ladder[m] * (2 * m) ** moment_power / (1.0 - ratio_bound) < tail_bound


def check_certified_cutoffs(radii, pairs):
    """``recommend_cutoff`` at every radius and ``(tail_bound, moment_power)`` pair.

    Each cutoff passes the certificate and the one two photons below it
    fails; each refusal names ``MAX_CUTOFF``, and the certificate fails at
    the last cutoff under it.  Returns the cutoffs pair by pair, None for a
    refusal.
    """
    cutoffs = {}
    for tail_bound, power in pairs:
        row = cutoffs[tail_bound, power] = []
        for r in radii:
            squeeze = SqueezeParameter(r)
            case = (r, tail_bound, power)
            try:
                cutoff = recommend_cutoff(squeeze, tail_bound, power)
            except ValueError as error:
                assert str(error).startswith(f"no cutoff below MAX_CUTOFF = {MAX_CUTOFF} photons"), error
                ladder = squeezed_vacuum_probabilities(squeeze, MAX_CUTOFF)
                assert not certifies(ladder, squeeze, tail_bound, power, MAX_CUTOFF - 2), case
                row.append(None)
                continue
            ladder = squeezed_vacuum_probabilities(squeeze, cutoff + 2)
            assert certifies(ladder, squeeze, tail_bound, power, cutoff), (case, cutoff)
            assert cutoff == 0 or not certifies(ladder, squeeze, tail_bound, power, cutoff - 2), (case, cutoff)
            row.append(cutoff)
    return cutoffs


# recommend_cutoff at r = k / 8 for k = 0..40, for each (tail_bound,
# moment_power) pair the package certifies with; None where no cutoff below
# MAX_CUTOFF certifies the tail
PINNED_RADII = [k / 8 for k in range(41)]
PINNED_CUTOFFS = {
    (metrology.ORACLE_TAIL_BOUND, 0): [
        0, 12, 18, 24, 32, 42, 56, 72, 92, 120, 154, 198, 254, 328, 420, 540, 694, 892,
        1144, 1470, 1888, 2424, 3112, 3996, 5132, 6588, 8460, 10864, 13948, 17910,
        22998, 29530, 37918, 48688, 62516, 80272, 103072, 132348, 169938, 218206,
        280182,
    ],
    (validate.TABLE_ROUTE_TAIL, 0): [
        0, 10, 14, 20, 26, 34, 46, 60, 76, 98, 126, 162, 210, 270, 346, 444, 570, 734,
        942, 1210, 1552, 1994, 2560, 3288, 4222, 5422, 6962, 8938, 11478, 14738, 18924,
        24298, 31200, 40060, 51440, 66050, 84810, 108898, 139828, 179542, 230538,
    ],
    (validate.ODD_TERM_TAIL, 8): [
        0, 24, 40, 58, 80, 110, 148, 198, 264, 350, 464, 614, 810, 1070, 1410, 1858,
        2446, 3218, 4230, 5556, 7294, 9572, 12556, 16460, 21570, 28252, 36990, 48412,
        63334, 82826, 108280, 141510, 184874, 241452, 315252, None, None, None, None,
        None, None,
    ],
    (validate.VARIANCE_IDENTITY_TAIL, 2): [
        0, 16, 26, 36, 48, 64, 84, 112, 146, 190, 248, 322, 420, 546, 710, 924, 1200,
        1560, 2026, 2632, 3418, 4438, 5762, 7480, 9708, 12600, 16350, 21212, 27520,
        35700, 46304, 60054, 77878, 100982, 130926, 169736, 220026, 285192, 369626,
        None, None,
    ],
    (validate.SERIES_CONVERGENCE_TAIL, 8): [
        0, 28, 46, 66, 90, 122, 164, 220, 292, 386, 510, 674, 886, 1168, 1536, 2018,
        2650, 3480, 4566, 5988, 7848, 10282, 13464, 17626, 23064, 30168, 39446, 51562,
        67374, 88008, 114926, 150032, 195806, 255476, 333240, None, None, None, None,
        None, None,
    ],
}


class TestLadder:
    def test_vacuum_limit(self):
        probs = squeezed_vacuum_probabilities(SqueezeParameter(0.0), 8)
        assert probs.dtype == np.float64
        assert probs[0] == 1.0
        assert np.all(probs[1:] == 0.0)

    def test_unit_photon_values(self):
        probs = squeezed_vacuum_probabilities(SQ_UNIT, 10)
        assert probs[0] == pytest.approx(2 ** -0.5, abs=1e-12)
        assert probs[1] == pytest.approx(probs[0] / 4, abs=1e-12)

    def test_normalization_and_mean(self):
        for r in (0.3, 0.9, 1.2):
            squeeze = SqueezeParameter(r, 0.4)
            cutoff = recommend_cutoff(squeeze, 1e-13, moment_power=1)
            probs = squeezed_vacuum_probabilities(squeeze, cutoff)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            mean = float(probs @ (2 * np.arange(len(probs))))
            assert mean == pytest.approx(math.sinh(r) ** 2, abs=1e-11)

    def test_rejects_odd_cutoff(self):
        with pytest.raises(ValueError):
            squeezed_vacuum_probabilities(SQ_UNIT, 7)

    def test_recommended_cutoff_certifies_tail(self):
        for r in (0.2, 0.8, 1.2):
            squeeze = SqueezeParameter(r)
            cutoff = recommend_cutoff(squeeze, 1e-10)
            probs = squeezed_vacuum_probabilities(squeeze, cutoff)
            assert 1.0 - probs.sum() < 1e-10
            if cutoff >= 2:
                shorter = squeezed_vacuum_probabilities(squeeze, cutoff - 2)
                assert 1.0 - shorter.sum() >= 1e-10 * 0.3  # not wildly conservative

    def test_probabilities_match_the_closed_form(self, rng):
        for r in [*rng.uniform(0.1, 2.0, size=10), 2.0]:
            theta = rng.uniform(0.0, 2 * math.pi)
            probs = squeezed_vacuum_probabilities(SqueezeParameter(r, theta), 400)
            exact = squeezed_probabilities_closed_form(r, 400)
            np.testing.assert_allclose(probs, exact, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("r", [0.3, 1.0])
    def test_the_squeezing_phase_does_not_enter(self, r):
        # the ladder was once |a|^2 of complex amplitudes carrying
        # (-e^(i theta))^n, which rounded apart with theta (5.6e-17 at r = 1)
        aligned, turned = SqueezeParameter(r, 0.0), SqueezeParameter(r, 2.1)
        np.testing.assert_array_equal(
            squeezed_vacuum_probabilities(aligned, 400), squeezed_vacuum_probabilities(turned, 400)
        )
        weights, phases = [0.2, 0.3, 0.5], [0.1, -0.2, 0.05]
        cutoff = recommend_cutoff(aligned, 1e-10)
        for route in FOCK_ROUTES.values():
            np.testing.assert_array_equal(
                route(weights, phases, aligned, cutoff), route(weights, phases, turned, cutoff)
            )

    def test_certified_cutoffs_are_pinned(self):
        assert check_certified_cutoffs(PINNED_RADII, PINNED_CUTOFFS) == PINNED_CUTOFFS

    def test_uncertifiable_cutoff_names_the_squeezing(self):
        with pytest.raises(ValueError, match=r"^no cutoff below MAX_CUTOFF = 400000 .* r = 5\.5 \(nbar = 1\.497e\+04\)"):
            recommend_cutoff(SqueezeParameter(5.5), 1e-12)

    def test_a_cutoff_past_the_cap_is_refused_by_name(self):
        # 10**15 once met numpy's bare MemoryError and 2**70 its "Maximum allowed size exceeded"
        assert len(squeezed_vacuum_probabilities(SQ_UNIT, MAX_CUTOFF)) == MAX_CUTOFF // 2 + 1
        for cutoff in (MAX_CUTOFF + 2, 10 ** 15, 2 ** 70):
            with pytest.raises(ValueError, match=f"^cutoff must be even and at most MAX_CUTOFF = {MAX_CUTOFF}, got {cutoff}$"):
                squeezed_vacuum_probabilities(SQ_UNIT, cutoff)

    @pytest.mark.parametrize("tail", [math.ulp(0.0), 1e-16, 1.0])
    @pytest.mark.parametrize("power", range(MAX_SERIES_ORDER + 1))
    def test_vacuum_needs_no_photons(self, tail, power):
        # at r = 0 the first missing term and its ratio bound are both 0
        assert recommend_cutoff(SqueezeParameter(0.0), tail, moment_power=power) == 0

    def test_photon_moment_reconstruction(self):
        # mean 1 and mean square 5 for the unit-photon squeezer
        cutoff = recommend_cutoff(SQ_UNIT, 1e-12, moment_power=2)
        probs = squeezed_vacuum_probabilities(SQ_UNIT, cutoff)
        totals = 2.0 * np.arange(len(probs))
        assert float(probs @ totals) == pytest.approx(1.0, abs=1e-10)
        assert float(probs @ totals ** 2) == pytest.approx(5.0, abs=1e-9)


class TestPropagation:
    def test_identity_network_occupies_first_mode(self):
        # a mode of weight 0 gets no column, so its phase cannot matter
        ladder = squeezed_vacuum_probabilities(SQ_UNIT, 8)
        occupations, probs = _probability_table(ladder, np.array([1.0]))
        np.testing.assert_array_equal(occupations, np.arange(0, 9, 2)[:, None])
        np.testing.assert_array_equal(probs, ladder)
        assert survival_probability([1.0, 0.0, 0.0], [0.1, 2.0, -3.0], SQ_UNIT, 40) == (
            survival_probability([1.0], [0.1], SQ_UNIT, 40)
        )

    def test_balanced_two_photon_sector(self):
        ladder = squeezed_vacuum_probabilities(SQ_UNIT, 4)
        occupations, table = _probability_table(ladder, np.array([0.5, 0.5]))
        probs = dict(zip(map(tuple, occupations.tolist()), table))
        assert probs[(2, 0)] == pytest.approx(0.25 * ladder[1], rel=1e-12)
        assert probs[(1, 1)] == pytest.approx(0.50 * ladder[1], rel=1e-12)
        assert probs[(0, 2)] == pytest.approx(0.25 * ladder[1], rel=1e-12)
        assert (1, 0) not in probs

    def test_sector_norms_preserved(self, rng):
        ladder = squeezed_vacuum_probabilities(SqueezeParameter(0.7, 2.0), 20)
        occupations, probs = _probability_table(ladder, random_weights(rng, 4))
        totals = occupations.sum(axis=1)
        for half, ladder_prob in enumerate(ladder):
            sector = float(probs[totals == 2 * half].sum())
            assert sector == pytest.approx(ladder_prob, abs=1e-12)

    def test_only_even_sectors_materialized(self, rng):
        ladder = squeezed_vacuum_probabilities(SqueezeParameter(0.5), 12)
        occupations, _ = _probability_table(ladder, np.array([0.5, 0.5]))
        assert np.all(occupations.sum(axis=1) % 2 == 0)

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_table_matches_tuple_enumeration(self, rng, modes):
        squeeze = SqueezeParameter(0.6, 1.1)
        weight_sets = [np.eye(modes)[0], random_weights(rng, modes)]
        if modes > 1:
            zeroed = random_weights(rng, modes)
            zeroed[-1] = 0.0
            weight_sets.append(zeroed / zeroed.sum())
        for weights in weight_sets:
            kept = weights > 0
            for cutoff in range(0, 21, 2):
                ladder = squeezed_vacuum_probabilities(squeeze, cutoff)
                table_occupations, probs = _probability_table(ladder, weights[kept])
                occupations, expected = propagate_by_enumeration(ladder, weights)
                # the route drops the modes of weight 0: every row that
                # occupies one has probability exactly 0
                held = np.all(occupations[:, ~kept] == 0, axis=1)
                assert np.all(expected[~held] == 0.0)
                assert table_occupations.dtype == np.int64
                np.testing.assert_array_equal(table_occupations, occupations[held][:, kept])
                np.testing.assert_allclose(probs, expected[held], rtol=0, atol=1e-15)

    def test_row_count_is_the_table_length(self):
        for modes in (1, 2, 3, 4):
            for cutoff in (0, 2, 10, 24):
                ladder = squeezed_vacuum_probabilities(SQ_UNIT, cutoff)
                occupations, _ = _probability_table(ladder, np.full(modes, 1 / modes))
                assert len(occupations) == table_rows(modes, cutoff)

    @pytest.mark.parametrize("modes", [2, 3])
    def test_the_row_cap_admits_its_last_cutoff_and_refuses_the_next(self, modes):
        cutoff = last_cutoff_within_the_cap(modes)
        assert table_rows(modes, cutoff) <= MAX_TABLE_ROWS < table_rows(modes, cutoff + 2)
        weights, phases = np.full(modes, 1 / modes), np.linspace(-0.2, 0.3, modes)
        squeeze = SqueezeParameter(0.5)
        assert survival_probability(weights, phases, squeeze, cutoff) == pytest.approx(
            survival_probability_sectors(weights, phases, squeeze, cutoff), abs=1e-12
        )
        message = (
            f"^cutoff {cutoff + 2} at {modes} modes of nonzero weight needs more than "
            f"MAX_TABLE_ROWS = {MAX_TABLE_ROWS} table rows$"
        )
        with pytest.raises(ValueError, match=message):
            survival_probability(weights, phases, squeeze, cutoff + 2)

    def test_a_table_past_the_cap_is_refused_before_it_is_allocated(self):
        # 5.3e15 rows at three modes; the peak is mostly the 200001-entry ladder
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="MAX_TABLE_ROWS"):
                survival_probability([0.2, 0.3, 0.5], [0.0, 0.0, 0.0], SQ_UNIT, MAX_CUTOFF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.1
        assert peak < 16 * 2 ** 20

    def test_zero_weight_modes_add_no_rows(self):
        # one weighted mode of three: the table is the ladder, far below the
        # cap that three weighted modes pass at this cutoff
        assert survival_probability([0.0, 1.0, 0.0], [0.0, 0.1, 0.0], SQ_UNIT, MAX_CUTOFF) == pytest.approx(
            survival_probability_sectors([1.0], [0.1], SQ_UNIT, MAX_CUTOFF), abs=1e-12
        )

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match=r"^weights must sum to 1 within 1e-12, got sum 0\.81"):
            survival_probability([0.81, 0.0], [0.0, 0.0], SQ_UNIT, 4)

    def test_rejects_nan_weights(self):
        # a NaN weight once passed the norm check, and the table read tail 0.0
        with pytest.raises(ValueError, match="^weights must be finite$"):
            survival_probability([1.0, math.nan], [0.0, 0.0], SQ_UNIT, 4)

    def test_a_network_matrix_is_refused_as_weights(self):
        # the route takes the weights, not the network whose first column they square
        with pytest.raises(ValueError, match=re.escape("weights must be a non-empty vector, got shape (2, 2)")):
            survival_probability(np.eye(2), [0.0, 0.0], SQ_UNIT, 4)

    def test_modes_and_tail_are_read_off_the_arrays(self):
        squeeze = SqueezeParameter(1.2)
        weights = [0.25, 0.5, 0.25]
        occupations, probs = _probability_table(squeezed_vacuum_probabilities(squeeze, 10), np.array(weights))
        assert occupations.shape[1] == 3
        tail = 1.0 - float(np.sum(probs))
        assert tail > MAX_TABLE_TAIL
        with pytest.raises(TruncationError, match=f"^table tail {re.escape(f'{tail:.3e}')} beyond"):
            survival_probability(weights, [0.0, 0.0, 0.0], squeeze, 10)

    def test_caller_arrays_stay_writable_and_detached(self):
        squeeze = SqueezeParameter(0.5, 1.0)
        weights, phases = np.array([0.25, 0.75]), np.array([0.1, -0.2])
        copies = [weights.copy(), phases.copy()]
        for route in (survival_probability, survival_probability_sectors, generator_moments_sectors):
            route(weights, phases, squeeze, 24)
        for array, copy in zip((weights, phases), copies):
            assert array.flags.writeable
            assert np.array_equal(array, copy)
        ladder = squeezed_vacuum_probabilities(squeeze, 24)
        occupations, probs = _probability_table(ladder, weights)
        first = ladder[0]
        assert not np.shares_memory(probs, ladder)
        ladder[0] = 0.0
        assert probs[0] == first

    @pytest.mark.parametrize(
        "route",
        [survival_probability, survival_probability_sectors, generator_moments_sectors],
        ids=["table", "sectors", "moments"],
    )
    @pytest.mark.parametrize(
        "weights, phases, message",
        [
            ([0.5, 0.5], [0.1], r"expected 2 phases, got shape \(1,\)"),
            ([0.5, 0.5], [0.1, 0.2, 0.3], r"expected 2 phases, got shape \(3,\)"),
            ([], [], r"weights must be a non-empty vector, got shape \(0,\)"),
        ],
        ids=["short-phases", "long-phases", "no-modes"],
    )
    def test_arrays_that_do_not_pair_are_refused(self, route, weights, phases, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            route(weights, phases, SQ_UNIT, 20)


class TestSurvivalProbability:
    def test_zero_phases_is_unity_up_to_tail(self):
        assert survival_probability([0.4, 0.6], [0.0, 0.0], SqueezeParameter(0.6), 30) == pytest.approx(1.0, abs=1e-9)

    def test_spot_value_at_cutoff_forty(self):
        # frozen closed-form value 0.962369108664265; cutoff 40 leaves ~6e-8
        assert survival_probability([1.0], [0.1], SQ_UNIT, 40) == pytest.approx(
            0.962369108664265, abs=1e-7
        )

    def test_table_matches_sector_resummation(self, rng):
        for _ in range(10):
            modes = int(rng.integers(1, 4))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-1.0, 1.0, size=modes)
            squeeze = SqueezeParameter(rng.uniform(0.1, 0.8), rng.uniform(0, 6))
            cutoff = recommend_cutoff(squeeze, 1e-10)
            assert survival_probability(weights, phases, squeeze, cutoff) == pytest.approx(
                survival_probability_sectors(weights, phases, squeeze, cutoff), abs=1e-12
            )

    def test_truncation_error_raised(self):
        # cutoff 10 leaves a tail far above 1e-6
        with pytest.raises(TruncationError):
            survival_probability([1.0], [0.1], SqueezeParameter(1.2), 10)

    def test_one_tail_rule_refuses_an_under_resolved_table(self):
        # |1 - sum |a|^2| <= MAX_TABLE_TAIL: a stored tail once could be set
        # against the arrays.  At one mode and cutoff 0 the table is the
        # vacuum probability alone, 1 / cosh(r)
        tail = f"{1.0 - 1.0 / math.cosh(1.2):.3e}"
        with pytest.raises(TruncationError, match=f"^table tail {re.escape(tail)} beyond \\+-MAX_TABLE_TAIL"):
            survival_probability([1.0], [0.0], SqueezeParameter(1.2), 0)

    def test_a_large_cutoff_matches_the_sector_route(self):
        # a table of amplitudes once overflowed here (root-multinomial inf
        # times an underflowed column product gave a NaN tail); the log-space
        # probabilities stay finite, and the suite turns a numpy warning into
        # an error
        args = ([0.5, 0.5], [0.1, -0.2], SqueezeParameter(0.5), 2200)
        value = survival_probability(*args)
        assert math.isfinite(value)
        assert value == pytest.approx(survival_probability_sectors(*args), abs=1e-12)

    def test_a_tail_within_the_bound_is_accepted(self):
        # the first cutoff whose ladder misses at most MAX_TABLE_TAIL passes,
        # and the one below it is refused
        squeeze = SqueezeParameter(0.9)
        probs = squeezed_vacuum_probabilities(squeeze, 200)
        tails = 1.0 - np.cumsum(probs)
        cutoff = 2 * int(np.argmax(tails <= MAX_TABLE_TAIL))
        assert 0.0 < tails[cutoff // 2] <= MAX_TABLE_TAIL < tails[cutoff // 2 - 1]
        assert survival_probability([0.5, 0.5], [0.0, 0.0], squeeze, cutoff) == pytest.approx(1.0, abs=1e-5)
        with pytest.raises(TruncationError):
            survival_probability([0.5, 0.5], [0.0, 0.0], squeeze, cutoff - 2)

    def test_phase_length_checked(self):
        with pytest.raises(ValueError):
            survival_probability([1.0, 0.0], [0.1], SQ_UNIT, 6)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        raw_weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).filter(lambda w: sum(w) > 0),
        phases=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
        r=st.floats(0.0, 1.5),
        half=st.one_of(st.integers(0, 40), st.integers(0, MAX_CUTOFF // 2)),
    )
    def test_the_route_answers_or_refuses_by_name(self, raw_weights, phases, r, half):
        # a finite value within 1e-14 of the sector route (the worst gap of
        # 2387 accepted random calls over this range was 1.0e-15), or a
        # refusal naming MAX_TABLE_TAIL, or one naming MAX_TABLE_ROWS exactly
        # when the table over the modes of nonzero weight is past the cap
        weights = np.array(raw_weights) / sum(raw_weights)
        args = (weights, phases[: weights.size], SqueezeParameter(r), 2 * half)
        over_cap = 2 * half > last_cutoff_within_the_cap(int(np.count_nonzero(weights)))
        try:
            value = survival_probability(*args)
        except TruncationError as error:
            assert not over_cap and "MAX_TABLE_TAIL" in str(error)
        except ValueError as error:
            assert over_cap and "MAX_TABLE_ROWS" in str(error)
        else:
            assert not over_cap
            assert abs(value - survival_probability_sectors(*args)) <= 1e-14


class TestGeneratorMoments:
    def test_zero_phases(self):
        series = generator_moments_sectors([1.0], [0.0], SQ_UNIT, recommend_cutoff(SQ_UNIT, 1e-13), max_order=6)
        assert series.moments[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(series.moments[1:], 0.0, atol=1e-15)
        assert series.terms[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(series.terms[1:], 0.0, atol=1e-14)

    def test_weighted_mean_generator(self):
        # first moment is the weighted phase average times the photon number
        cutoff = recommend_cutoff(SQ_UNIT, 1e-13, moment_power=2)
        series = generator_moments_sectors([0.25, 0.75], [0.2, 0.0], SQ_UNIT, cutoff, max_order=2)
        assert series.moments[1] == pytest.approx(0.05, abs=1e-10)
        assert series.terms[2] == pytest.approx(0.035, abs=1e-10)

    @pytest.mark.parametrize("phase", [1e40, network.PHASE_MAX])
    def test_moments_past_the_float_range_are_refused_by_name(self, phase):
        # inside the phase envelope at 1e40, moments[8] and every term were once
        # NaN, with only numpy warnings; at 1e30 every value is finite
        cutoff = recommend_cutoff(SQ_UNIT, 1e-12, 8)
        series = generator_moments_sectors([0.5, 0.5], [1e30, -1e30], SQ_UNIT, cutoff, max_order=8)
        assert np.all(np.isfinite(series.moments)) and np.all(np.isfinite(series.terms))
        message = f"generator moments to max_order = 8 are not finite floats at max|phi| = {phase}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generator_moments_sectors([0.5, 0.5], [phase, -phase], SQ_UNIT, cutoff, max_order=8)

    def test_table_route_matches_sector_route(self, rng):
        weights = random_weights(rng, 3)
        phases = rng.uniform(-0.5, 0.5, size=3)
        squeeze = SqueezeParameter(0.6, 1.0)
        cutoff = recommend_cutoff(squeeze, 1e-12, moment_power=4)
        occupations, probs = _probability_table(squeezed_vacuum_probabilities(squeeze, cutoff), weights)
        # the table route: plain diagonal sums over the explicit probability table
        generator = occupations @ phases
        from_table = [float(probs @ generator ** k) for k in range(5)]
        from_sectors = generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=4)
        assert np.allclose(from_table, from_sectors.moments, atol=1e-11)

    def test_multinomial_moments_against_enumeration(self, rng):
        # through MAX_SERIES_ORDER, the order check_odd_terms asks for
        for _ in range(5):
            modes = int(rng.integers(1, 4))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-1.0, 1.0, size=modes)
            totals = np.array([0.0, 2.0, 5.0, 8.0])
            table = _multinomial_weighted_moments(weights, phases, totals, MAX_SERIES_ORDER)
            for col, total in enumerate(totals):
                for order in range(MAX_SERIES_ORDER + 1):
                    brute = multinomial_moment_brute_force(
                        weights, phases, int(total), order
                    )
                    # orders above 4 reach 8^8 = 1.7e7, where 1e-12 is below one ulp
                    tolerance = {"abs": 1e-12} if order <= 4 else {"rel": 1e-13, "abs": 1e-12}
                    assert table[order, col] == pytest.approx(brute, **tolerance)

    def test_odd_terms_vanish(self, rng):
        for _ in range(30):
            modes = int(rng.integers(1, 6))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-0.3, 0.3, size=modes)
            squeeze = SqueezeParameter(rng.uniform(0.05, 1.2), rng.uniform(0, 6))
            cutoff = recommend_cutoff(squeeze, 1e-13, moment_power=8)
            series = generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=8)
            assert np.max(np.abs(series.terms[1::2])) <= 1e-10

    def test_moment_operator_bound(self, rng):
        # |<generator^k>| <= (max|phi|)^k <N^k> for every state
        for _ in range(10):
            modes = int(rng.integers(1, 5))
            weights = random_weights(rng, modes)
            phases = rng.uniform(-0.8, 0.8, size=modes)
            squeeze = SqueezeParameter(rng.uniform(0.1, 1.0))
            cutoff = recommend_cutoff(squeeze, 1e-13, moment_power=4)
            probs = squeezed_vacuum_probabilities(squeeze, cutoff)
            totals = 2.0 * np.arange(len(probs))
            series = generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=4)
            phi_max = float(np.max(np.abs(phases)))
            for k in range(1, 5):
                bound = phi_max ** k * float(probs @ totals ** k)
                assert abs(series.moments[k]) <= bound + 1e-12

    def test_partial_sums_converge_to_exact(self):
        weights = np.array([0.3, 0.7])
        squeeze = SqueezeParameter(0.8)
        cutoff = recommend_cutoff(squeeze, 1e-14, moment_power=8)
        phases = np.array([0.03, 0.01])
        exact = survival_probability_sectors(weights, phases, squeeze, cutoff)
        series = generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=6)
        errors = [
            abs(series_partial_sum(series.terms, order) - exact) for order in (0, 2, 4, 6)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-10

    def test_order_cap_enforced(self):
        with pytest.raises(ValueError):
            generator_moments_sectors([1.0], [0.1], SQ_UNIT, 10, max_order=9)

    @pytest.mark.parametrize("weights", [[math.nan, 0.5], [0.5, 0.5 + 5e-11]])
    @pytest.mark.parametrize(
        "route", [survival_probability_sectors, generator_moments_sectors]
    )
    def test_sector_routes_reject_bad_weights(self, route, weights):
        # same check as network.validate_weights: NaN and a sum off by more
        # than 1e-12 both raise instead of returning a number
        with pytest.raises(ValueError, match="weights must"):
            route(weights, [0.1, 0.0], SQ_UNIT, 10)

    @pytest.mark.parametrize("route", [survival_probability_sectors, generator_moments_sectors])
    def test_sector_routes_take_a_truncated_ladder(self, route):
        # a fixed cutoff far below the certified one leaves weight out, and passes
        squeeze = SqueezeParameter(1.2)
        assert float(np.sum(squeezed_vacuum_probabilities(squeeze, 4))) < 0.9
        route([1.0], [0.1], squeeze, 4)


FOCK_ROUTES = {
    "table": survival_probability,
    "sectors": survival_probability_sectors,
    "moments": generator_moments_sectors,
}


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("cutoff", lambda: squeezed_vacuum_probabilities(SQ_UNIT, 2.0), id="ladder-2.0"),
        pytest.param("cutoff", lambda: squeezed_vacuum_probabilities(SQ_UNIT, True), id="ladder-True"),
        pytest.param("cutoff", lambda: squeezed_vacuum_probabilities(SQ_UNIT, -2), id="ladder-neg"),
        *[
            pytest.param("cutoff", lambda route=route, cutoff=cutoff: route([1.0], [0.1], SQ_UNIT, cutoff),
                         id=f"{label}-cutoff-{cutoff_id}")
            for label, route in FOCK_ROUTES.items()
            for cutoff_id, cutoff in [("odd", 7), ("neg", -2), ("2.0", 2.0), ("True", True), ("huge", 10 ** 15)]
        ],
        *[
            pytest.param("squeeze", lambda route=route: route([1.0], [0.1], 0.5, 10), id=f"{label}-squeeze-float")
            for label, route in FOCK_ROUTES.items()
        ],
        pytest.param("tail_bound", lambda: recommend_cutoff(SQ_UNIT, 0.0), id="tail-0"),
        pytest.param("tail_bound", lambda: recommend_cutoff(SQ_UNIT, math.nan), id="tail-nan"),
        pytest.param("tail_bound", lambda: recommend_cutoff(SQ_UNIT, "1e-10"), id="tail-str"),
        pytest.param("moment_power", lambda: recommend_cutoff(SQ_UNIT, 1e-10, 1000), id="power-1000"),
        pytest.param("moment_power", lambda: recommend_cutoff(SQ_UNIT, 1e-10, -1), id="power-neg"),
        pytest.param("moment_power", lambda: recommend_cutoff(SQ_UNIT, 1e-10, 1.5), id="power-1.5"),
        pytest.param(
            "max_order",
            lambda: generator_moments_sectors([1.0], [0.1], SQ_UNIT, 10, max_order=2.5),
            id="order-2.5",
        ),
        pytest.param("max_term", lambda: series_partial_sum(np.ones(5), -2), id="term-neg"),
        pytest.param("max_term", lambda: series_partial_sum(np.ones(5), 2.5), id="term-2.5"),
        pytest.param("phi1", lambda: mach_zehnder_factorization_residual(math.nan, 0.2, 4), id="mz-phi1"),
        pytest.param("phi2", lambda: mach_zehnder_factorization_residual(0.1, 1e308, 4), id="mz-phi2"),
        pytest.param(
            "phi1",
            lambda: mach_zehnder_factorization_residual([0.1, math.nan], [0.2, 0.3], 4),
            id="mz-phi1-vector",
        ),
        pytest.param(
            "phi2",
            lambda: mach_zehnder_factorization_residual([0.1, 0.2], np.array([0.3, 1e308]), 4),
            id="mz-phi2-vector",
        ),
        pytest.param("cutoff", lambda: mach_zehnder_factorization_residual(0.1, 0.2, 4.0), id="mz-cutoff"),
    ],
)
def test_scalar_arguments_are_refused_by_name(name, call):
    # each answered with a TypeError, an OverflowError, a LinAlgError or a
    # silent number before it went through network.validate_count / validate_real
    with pytest.raises(ValueError, match=f"^{name} (=|must)"):
        call()


class TestMachZehnderFactorization:
    def test_zero_phases(self):
        assert mach_zehnder_factorization_residual(0.0, 0.0, 8) <= 1e-12

    def test_equal_phases_pure_global_generator(self):
        assert mach_zehnder_factorization_residual(0.3, 0.3, 12) <= 1e-10

    def test_random_pairs(self, rng):
        for _ in range(10):
            phi1, phi2 = rng.uniform(-math.pi, math.pi, size=2)
            assert mach_zehnder_factorization_residual(phi1, phi2, 10) <= 1e-9

    @pytest.mark.parametrize(
        "phi1, phi2, cutoff", [(1e6, 0.0, 12), (1e100, 0.0, 4), (1e15, 1.0, 12)]
    )
    def test_large_arm_phases_stay_at_rounding(self, phi1, phi2, cutoff):
        # unreduced, phi * n and (phi1 - phi2) Jy round apart: 3.7e-9, 1.97, 1.99
        assert mach_zehnder_factorization_residual(phi1, phi2, cutoff) <= 1e-9

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            mach_zehnder_factorization_residual(0.1, 0.2, 1)

    def test_rejects_cutoff_above_the_cap(self):
        # the cap bounds the cached per-sector entries and a call's (cutoff + 1)^4 cost
        assert mach_zehnder_factorization_residual(0.1, 0.2, MAX_MZ_CUTOFF) <= 1e-9
        with pytest.raises(ValueError, match=r"^cutoff must lie in \[2, 32\], got 33$"):
            mach_zehnder_factorization_residual(0.1, 0.2, MAX_MZ_CUTOFF + 1)

    @pytest.mark.parametrize("cutoff", [2, 5, 12, 30, 32])
    def test_batched_residual_matches_sector_loop(self, rng, cutoff):
        pairs = rng.uniform(-math.pi, math.pi, size=(5, 2))
        for phi1, phi2 in pairs:
            batched = mach_zehnder_factorization_residual(phi1, phi2, cutoff)
            looped = mz_residual_by_sector(phi1, phi2, cutoff)
            assert batched == pytest.approx(looped, rel=0, abs=1e-15)
        batched = mach_zehnder_factorization_residual(pairs[:, 0], pairs[:, 1], cutoff)
        looped = max(mz_residual_by_sector(phi1, phi2, cutoff) for phi1, phi2 in pairs)
        assert batched == pytest.approx(looped, rel=0, abs=1e-15)

    @pytest.mark.parametrize("cutoff", [2, 12, 32])
    def test_residual_bounds_the_operator_norm_gap(self, rng, cutoff):
        # ||G||_2 <= ||G||_F <= sqrt(rank) ||G||_2, and a sector has rank <= cutoff + 1
        for phi1, phi2 in rng.uniform(-math.pi, math.pi, size=(5, 2)):
            residual = mach_zehnder_factorization_residual(phi1, phi2, cutoff)
            spectral = mz_residual_by_sector(phi1, phi2, cutoff, norm=2)
            assert spectral <= residual <= math.sqrt(cutoff + 1) * spectral

    def test_a_wrong_generator_shows(self, monkeypatch):
        # a Jy of the wrong sign rotates the mixing the wrong way round
        sector_generators = fock._sector_generators

        def flipped(total):
            jx, jy = sector_generators(total)
            return jx, -jy

        _sector_operators.cache_clear()
        monkeypatch.setattr(fock, "_sector_generators", flipped)
        try:
            assert mach_zehnder_factorization_residual(0.4, -1.3, 6) > 1.0
        finally:
            _sector_operators.cache_clear()

    def test_sectors_are_cached_once_for_every_cutoff(self):
        # criterion 8 uses cutoff 10 and validate 12: the larger reuses the smaller's sectors
        _sector_operators.cache_clear()
        mach_zehnder_factorization_residual(0.4, -1.3, 10)
        mach_zehnder_factorization_residual([0.4, 0.1], [-1.3, 2.0], 12)
        info = _sector_operators.cache_info()
        assert info.currsize == 13
        assert info.maxsize == MAX_MZ_CUTOFF + 1
        for total in range(13):
            assert all(not array.flags.writeable for array in _sector_operators(total))
        assert _sector_operators.cache_info().currsize == 13

    @pytest.mark.parametrize("cutoff", [2, 12, 32])
    def test_batch_is_the_max_of_its_pairs(self, rng, cutoff):
        # one pair is a batch of one, so the batch reads exactly its worst pair
        phi1 = rng.uniform(-math.pi, math.pi, size=20)
        phi2 = np.concatenate([rng.uniform(-math.pi, math.pi, size=19), [1e15]])
        singles = [mach_zehnder_factorization_residual(a, b, cutoff) for a, b in zip(phi1, phi2)]
        assert mach_zehnder_factorization_residual(phi1, phi2, cutoff) == max(singles)
        assert mach_zehnder_factorization_residual(list(phi1), tuple(phi2), cutoff) == max(singles)
        assert mach_zehnder_factorization_residual(phi1[:1], phi2[:1], cutoff) == singles[0]

    @pytest.mark.parametrize(
        "phi1, phi2, message",
        [
            ([0.1, "1"], [0.2, 0.3], r"^phi1 must be real numbers, got dtype <U32$"),
            ([0.1, 0.2, 0.3], [0.2, 0.3], r"^phi1 and phi2 must have equal lengths, got 3 and 2$"),
            (0.1, [0.2, 0.3], r"^phi1 and phi2 must have equal lengths, got 1 and 2$"),
        ],
        ids=["str", "length", "scalar-vs-pair"],
    )
    def test_malformed_phase_vectors_are_refused(self, phi1, phi2, message):
        # the 2-d, empty, ragged and bool-entry faults are in test_network.py's TestVectorRule
        with pytest.raises(ValueError, match=message):
            mach_zehnder_factorization_residual(phi1, phi2, 4)

    def test_a_nan_sector_gap_gives_a_nan_residual(self, monkeypatch):
        # a running max(worst, gap) dropped a NaN gap and read the other sectors
        monkeypatch.setattr(fock, "_sector_operators", nan_splitter_at(fock._sector_operators, 3))
        assert math.isnan(mach_zehnder_factorization_residual(0.4, -1.3, 6))
        assert math.isnan(mach_zehnder_factorization_residual([0.4, 0.1], [-1.3, 2.0], 6))

    def test_arm_phases_follow_the_phase_rule_by_name(self):
        # the package's phase rule under the argument's name: a bool is not a
        # phase, and a refusal past the envelope names PHASE_MAX
        with pytest.raises(ValueError, match="^phi1 must be real numbers, got dtype bool$"):
            mach_zehnder_factorization_residual(True, 0.2, 4)
        with pytest.raises(ValueError, match=r"^phi2 must lie in \[-PHASE_MAX, PHASE_MAX\] with PHASE_MAX"):
            mach_zehnder_factorization_residual(0.1, 1e101, 4)

    def test_returned_operators_cannot_change_a_later_residual(self):
        # the residual reads the cached per-sector entries; none of them can be written
        before = mach_zehnder_factorization_residual(0.4, -1.3, 8)
        for total in range(9):
            splitter, jy_values, jy_vectors = _sector_operators(total)
            assert splitter.shape == jy_vectors.shape == (total + 1, total + 1)
            assert jy_values.shape == (total + 1,)
            for array in (splitter, jy_values, jy_vectors):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 7.0
        assert mach_zehnder_factorization_residual(0.4, -1.3, 8) == before

    def test_sector_operators_hermitian(self):
        for total in (1, 4, 9):
            jx, jy = _sector_generators(total)
            assert np.max(np.abs(jx - jx.conj().T)) <= 1e-12
            assert np.max(np.abs(jy - jy.conj().T)) <= 1e-12

    def test_sector_operators_algebra(self):
        # [jx, jy] = i jz with jz = (n1 - n2)/2 on each sector
        jx, jy = _sector_generators(6)
        n_first = np.arange(7.0)
        jz = np.diag(n_first - (6 - n_first)) / 2.0
        commutator = jx @ jy - jy @ jx
        assert np.max(np.abs(commutator - 1j * jz)) <= 1e-12
