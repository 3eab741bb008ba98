import math
import re

import numpy as np
import pytest

import sqzmet.network
from sqzmet import (
    ExperimentConfig,
    GaussianState,
    SqueezeParameter,
    apply_network,
    exact_survival_probability,
    mach_zehnder_unitary,
    photon_moments,
    purity_defect,
    run_protocol,
    squeezed_probe,
    vacuum_overlap_probability,
)
from sqzmet.gaussian import GAUSSIAN_MAX_MODES, SYMMETRY_TOL, _squeeze_block
from sqzmet.metrology import SQUEEZE_R_MAX
from conftest import random_unitary

R_UNIT = math.asinh(1.0)  # one mean photon


def phase_shift(state, phases):
    """Independent phase shifts ``exp(-i phi_j n_j)``: the diagonal passive network."""
    return apply_network(state, np.diag(np.exp(-1j * np.asarray(phases, dtype=float))))


def brute_force_survival(r, phi, terms=200):
    """Independent oracle: generating-function sum over the even photon ladder.

    Uses exact binomials, not the package's ladder recurrence.
    """
    total = 0j
    for n in range(terms):
        prob = math.comb(2 * n, n) * (math.tanh(r) ** 2 / 4.0) ** n / math.cosh(r)
        total += prob * np.exp(-2j * n * phi)
    return abs(total) ** 2


def dense_real_form(unitary):
    """Reference: the interleaved real form ``S`` of a complex matrix, block by block."""
    m = unitary.shape[0]
    sympl = np.zeros((2 * m, 2 * m))
    sympl[0::2, 0::2] = unitary.real
    sympl[0::2, 1::2] = -unitary.imag
    sympl[1::2, 0::2] = unitary.imag
    sympl[1::2, 1::2] = unitary.real
    return sympl


def dense_purity_defect(cov):
    """Reference: ``|det(2V) - 1|`` over the whole matrix."""
    sign, logdet = np.linalg.slogdet(2 * cov)
    return math.inf if sign <= 0 else abs(math.expm1(logdet))


class TestStatePreparation:
    def test_vacuum_covariance(self):
        for modes in (1, 3):
            vacuum = squeezed_probe(modes, SqueezeParameter(0.0))
            assert np.array_equal(vacuum.covariance, 0.5 * np.eye(2 * modes))

    def test_vacuum_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            squeezed_probe(0, SqueezeParameter(0.0))

    @pytest.mark.parametrize("modes", [2.0, True, "2"])
    def test_probe_modes_must_be_an_integer(self, modes):
        with pytest.raises(ValueError, match=re.escape(f"modes must be an integer, got {modes!r}")):
            squeezed_probe(modes, SqueezeParameter(0.5))

    def test_modes_above_the_ceiling_are_refused_before_any_array(self, monkeypatch):
        # the probe comes first on the route to P, so neither its (2M, 2M)
        # covariance nor the (M, M) weight network is built: both raise if asked
        def refuse(*args, **kwargs):
            raise AssertionError("an array was allocated above the mode ceiling")

        modes = GAUSSIAN_MAX_MODES + 1
        weights, phases = np.full(modes, 1 / modes), np.zeros(modes)
        config = ExperimentConfig(weights, phases, SqueezeParameter(0.5), 100, 0)
        monkeypatch.setattr(sqzmet.network, "embed_weights_unitary", refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        message = f"modes M = {modes} above GAUSSIAN_MAX_MODES = {GAUSSIAN_MAX_MODES}, "
        for call in (
            lambda: squeezed_probe(modes, SqueezeParameter(0.5)),
            lambda: exact_survival_probability(weights, phases, SqueezeParameter(0.5)),
            lambda: run_protocol(config),
        ):
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                call()

    def test_squeeze_covariance_diagonal(self):
        state = squeezed_probe(1, SqueezeParameter(R_UNIT))
        expected = np.diag([math.exp(2 * R_UNIT) / 2, math.exp(-2 * R_UNIT) / 2])
        assert np.allclose(state.covariance, expected, atol=1e-12)
        assert np.allclose(np.diag(state.covariance), [2.914214, 0.085786], atol=1e-6)
        assert purity_defect(state) < 1e-12

    def test_zero_squeeze_is_identity(self):
        state = squeezed_probe(2, SqueezeParameter(0.0, 1.3))
        assert np.allclose(state.covariance, 0.5 * np.eye(4), atol=1e-15)

    def test_squeeze_then_opposite_phase_restores_vacuum(self):
        # the squeezer at theta + pi inverts the one at theta
        for theta in (0.0, 0.7, 4.0):
            forward = _squeeze_block(SqueezeParameter(0.9, theta))
            back = _squeeze_block(SqueezeParameter(0.9, theta + math.pi))
            assert np.allclose(back @ forward, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("modes", [*range(1, 17), 128])
    def test_probe_is_the_dense_squeezer_on_vacuum(self, rng, modes):
        # reference: the full 2M symplectic with the squeezer on mode 0,
        # applied to the vacuum as S (I/2) S^T.  Each entry is a sum of two
        # products; BLAS kernels differ in whether they fuse that multiply-add,
        # so the dense product may round it once less than the 2 x 2 block does
        for r in np.linspace(0.0, 2.5, 6):
            squeeze = SqueezeParameter(r, rng.uniform(0.0, 2 * math.pi))
            sympl = np.eye(2 * modes)
            sympl[:2, :2] = _squeeze_block(squeeze)
            reference = sympl @ (0.5 * np.eye(2 * modes)) @ sympl.T
            probe = squeezed_probe(modes, squeeze).covariance
            gap = np.max(np.abs(probe - reference))
            assert gap <= 2 * np.finfo(float).eps * np.max(np.abs(reference))
            assert np.array_equal(probe[2:, :], 0.5 * np.eye(2 * modes)[2:, :])
            assert np.array_equal(probe[:, 2:], 0.5 * np.eye(2 * modes)[:, 2:])

    def test_squeeze_parameter_validation(self):
        with pytest.raises(ValueError):
            SqueezeParameter(-0.1)
        assert SqueezeParameter(0.3, -1.0).theta == pytest.approx(2 * math.pi - 1.0)
        assert SqueezeParameter(R_UNIT).mean_photon_number == pytest.approx(1.0)

    @pytest.mark.parametrize("r", [177.45, 354.89, 800.0, math.nan, -0.5])
    def test_squeeze_parameter_names_the_r_it_rejects(self, r):
        with pytest.raises(ValueError, match=re.escape(f"r = {r} outside [0, 177.4456")):
            SqueezeParameter(r)
        assert math.isfinite(SqueezeParameter(177.44).mean_photon_number)

    @pytest.mark.parametrize("r", [177.0, 177.44, SQUEEZE_R_MAX])
    def test_photon_moments_are_finite_up_to_the_r_bound(self, r):
        # var_n grows as exp(4r)/16; r = 200 used to give inf with a RuntimeWarning
        moments = photon_moments(squeezed_probe(1, SqueezeParameter(r)))
        assert math.isfinite(moments.mean_n) and math.isfinite(moments.var_n)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_squeeze_parameter_rejects_non_finite_phase(self, theta):
        with pytest.raises(ValueError, match="squeezing phase must be finite"):
            SqueezeParameter(1.0, theta)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("1",), "squeezing magnitude r must be a real number, got '1'"),
            ((True,), "squeezing magnitude r must be a real number, got True"),
            ((10 ** 400,), "squeezing magnitude r = inf outside [0, 177.4456"),
            ((1.0, "1"), "squeezing phase must be a real number, got '1'"),
            ((1.0, -10 ** 400), "squeezing phase must be finite, got -inf"),
        ],
    )
    def test_squeeze_parameter_refuses_what_is_not_a_finite_real(self, args, message):
        # a string raised TypeError, a huge int OverflowError, and True was r = 1
        with pytest.raises(ValueError, match=re.escape(message)):
            SqueezeParameter(*args)


class TestNetworkAndPhases:
    def test_identity_network_fixes_state(self, rng):
        state = squeezed_probe(3, SqueezeParameter(0.8))
        after = apply_network(state, np.eye(3))
        assert np.allclose(after.covariance, state.covariance, atol=1e-14)

    def test_any_network_fixes_vacuum(self, rng):
        for dim in (2, 4):
            vacuum = squeezed_probe(dim, SqueezeParameter(0.0))
            after = apply_network(vacuum, random_unitary(rng, dim))
            assert np.allclose(after.covariance, 0.5 * np.eye(2 * dim), atol=1e-13)

    def test_network_preserves_photon_number(self, rng):
        # a passive network keeps the whole photon-number distribution, so
        # both moments, each a trace of the full covariance it builds
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            r = float(rng.uniform(0.0, 2.0))
            state = squeezed_probe(dim, SqueezeParameter(r))
            before = photon_moments(state)
            after = photon_moments(apply_network(state, random_unitary(rng, dim)))
            assert abs(before.mean_n - after.mean_n) <= 1e-12 * max(1.0, before.mean_n)
            assert abs(before.var_n - after.var_n) <= 1e-12 * max(1.0, before.var_n)

    def test_balanced_splitter_preserves_unit_photon(self):
        state = squeezed_probe(2, SqueezeParameter(R_UNIT))
        after = apply_network(state, mach_zehnder_unitary(0.5))
        assert photon_moments(after).mean_n == pytest.approx(1.0, abs=1e-12)

    def test_network_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_network(squeezed_probe(2, SqueezeParameter(0.0)), np.eye(3))

    def test_zero_phases_identity(self):
        state = squeezed_probe(2, SqueezeParameter(0.6))
        after = phase_shift(state, [0.0, 0.0])
        assert np.allclose(after.covariance, state.covariance, atol=1e-15)

    def test_full_turn_phases_identity(self):
        state = squeezed_probe(2, SqueezeParameter(0.6))
        after = phase_shift(state, [2 * math.pi, 2 * math.pi])
        assert np.allclose(after.covariance, state.covariance, atol=1e-12)

    def test_quarter_turn_swaps_squeezing_axes(self):
        # rotating the quadratures by pi/2 turns the squeezer phase by pi
        squeezed = squeezed_probe(1, SqueezeParameter(0.7, 0.0))
        rotated = phase_shift(squeezed, [math.pi / 2])
        flipped = squeezed_probe(1, SqueezeParameter(0.7, math.pi))
        assert np.allclose(rotated.covariance, flipped.covariance, atol=1e-12)

    def test_phases_length_mismatch(self):
        # the covariance route checks the phases before it builds the network
        with pytest.raises(ValueError, match=re.escape("expected 2 phases, got shape (1,)")):
            exact_survival_probability([0.5, 0.5], [0.1], SqueezeParameter(0.5))

    def test_purity_preserved_through_pipeline(self, rng):
        state = squeezed_probe(4, SqueezeParameter(1.4, 2.2))
        state = apply_network(state, random_unitary(rng, 4))
        state = phase_shift(state, rng.uniform(-1, 1, size=4))
        state = apply_network(state, random_unitary(rng, 4))
        assert purity_defect(state) <= 1e-9


def vacuum_row_cases(rng):
    """(name, state, matrix) inputs for the vacuum-row tests: every kind of row span."""
    cases = []
    for modes in (1, 2, 3, 5, 8, 16, 33, 64):
        probe = squeezed_probe(modes, SqueezeParameter(rng.uniform(0.0, 2.5), rng.uniform(0, 6)))
        cases.append((f"probe-M{modes}", probe, random_unitary(rng, modes)))
    for modes in (2, 7):
        probe = squeezed_probe(modes, SqueezeParameter(1.1, 0.4))
        mixed = apply_network(probe, random_unitary(rng, modes))  # every row occupied
        cases.append((f"occupied-M{modes}", mixed, random_unitary(rng, modes)))
    general = (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))) / 4.0
    cases.append(("non-unitary", squeezed_probe(6, SqueezeParameter(0.9, 2.0)), general))
    # modes 0 and 3 squeezed: the vacuum rows of modes 1 and 2 lie inside the span
    cov = 0.5 * np.eye(10)
    cov[:2, :2] = squeezed_probe(1, SqueezeParameter(0.7, 1.0)).covariance
    cov[6:8, 6:8] = squeezed_probe(1, SqueezeParameter(1.6, 4.0)).covariance
    cases.append(("two-squeezers", GaussianState(cov), random_unitary(rng, 5)))
    # only mode 2 squeezed: the span starts and stops inside the state
    cov = 0.5 * np.eye(8)
    cov[4:6, 4:6] = squeezed_probe(1, SqueezeParameter(2.0, 5.0)).covariance
    cases.append(("inner-mode", GaussianState(cov), random_unitary(rng, 4)))
    # row 5 stays an exact vacuum row, while its column carries an asymmetry
    # within SYMMETRY_TOL in the occupied row 0
    cov = squeezed_probe(4, SqueezeParameter(1.2, 0.3)).covariance.copy()
    cov[0, 5] = 0.5 * SYMMETRY_TOL * np.max(np.abs(cov))
    cases.append(("asymmetric-column", GaussianState(cov), random_unitary(rng, 4)))
    return cases


class TestVacuumRows:
    """apply_network and purity_defect skip exact vacuum rows; the answer is the dense one."""

    def test_network_matches_the_dense_conjugation(self, rng):
        for name, state, matrix in vacuum_row_cases(rng):
            sympl = dense_real_form(matrix)
            dense = sympl @ state.covariance @ sympl.T
            gap = np.max(np.abs(apply_network(state, matrix).covariance - dense))
            assert gap <= 1e-13 * np.max(np.abs(state.covariance)), name

    def test_purity_defect_matches_the_full_determinant(self, rng):
        for name, state, matrix in vacuum_row_cases(rng):
            for candidate in (state, apply_network(state, matrix)):
                dense = dense_purity_defect(candidate.covariance)
                assert abs(purity_defect(candidate) - dense) <= 1e-10 * max(1.0, dense), name

    @pytest.mark.parametrize("modes", [1, 8, 128])
    def test_vacuum_is_exactly_pure(self, modes):
        # squeezed_probe counts one occupied mode, so its vacuum is one 2 x 2
        # determinant; a caller's covariance counts every mode, and an LU of
        # the whole 2M x 2M vacuum rounds to about 3e-13 at M = 128
        assert purity_defect(squeezed_probe(modes, SqueezeParameter(0.0, 1.0))) == 0.0
        assert purity_defect(GaussianState(0.5 * np.eye(2 * modes))) <= 1e-12

    @pytest.mark.parametrize("build", ["probe", "route"])
    def test_probe_purity_is_a_two_by_two_determinant(self, monkeypatch, build):
        # the covariance route checks the network's image on its full matrix
        # and the probe, which squeezed_probe built, on its 2 x 2 block
        squeeze = SqueezeParameter(1.3, 0.4)
        seen = []
        real = np.linalg.slogdet

        def recording(a):
            seen.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(np.linalg, "slogdet", recording)
        if build == "probe":
            assert purity_defect(squeezed_probe(64, squeeze)) <= 1e-12
            assert seen == [(2, 2)]
        else:
            exact_survival_probability(np.full(64, 1 / 64), np.full(64, 0.01), squeeze)
            assert seen == [(128, 128), (2, 2)]

    def test_vacuum_passes_through_any_network_as_its_image(self, rng):
        # no row is occupied, so the output is R(U U^dag)/2 alone
        for modes in (1, 4, 9):
            matrix = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
            after = apply_network(squeezed_probe(modes, SqueezeParameter(0.0)), matrix)
            expected = 0.5 * dense_real_form(matrix @ matrix.conj().T)
            gap = np.max(np.abs(after.covariance - expected))
            assert gap <= 1e-14 * np.max(np.abs(expected))


class TestCovarianceSymmetry:
    def test_equal_states_compare_by_identity(self):
        # == may not compare the array fields: an array has no single truth value
        state, twin = (squeezed_probe(2, SqueezeParameter(0.5)) for _ in range(2))
        assert state == state and state != twin
        assert len({state, twin}) == 2

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (0, 0), (4,)])
    def test_covariance_shape_is_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"even dimension, got shape {shape}")):
            GaussianState(np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_covariance_is_refused(self, bad):
        # an all-inf covariance used to pass the symmetry check, give a NaN
        # purity defect that the purity gate let through, and an overlap of 0.0
        with pytest.raises(ValueError, match=r"covariance must be symmetric, got max \|V - V\^T\| = nan"):
            GaussianState(np.full((2, 2), bad))

    def test_asymmetric_covariance_is_refused(self):
        with pytest.raises(ValueError, match=r"max \|V - V\^T\| = 1\.000e-01"):
            GaussianState(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_refusal_names_the_bound(self):
        message = (
            "covariance must be symmetric, got max |V - V^T| = 1.000e-01 "
            "beyond SYMMETRY_TOL = 1e-10 times max |V| = 5.000e-01"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaussianState(np.array([[0.5, 0.1], [0.0, -0.5]]))

    def test_caller_array_is_left_unchanged(self):
        cov = squeezed_probe(3, SqueezeParameter(0.7, 1.3)).covariance.copy()
        cov[0, 1] += 1e-12  # asymmetric within the bound
        before = cov.copy()
        state = GaussianState(cov)
        assert cov.tobytes() == before.tobytes() and cov.flags.writeable
        assert state.covariance is not cov and not state.covariance.flags.writeable
        assert state.covariance.tobytes() == before.tobytes()

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_tolerance_is_relative_to_the_largest_entry(self, scale):
        cov = scale * np.array([[0.5, 0.0], [0.0, 0.5]])
        cov[0, 1] = scale * 1e-11
        GaussianState(cov)
        cov[0, 1] = scale * 1e-9
        with pytest.raises(ValueError, match="covariance must be symmetric"):
            GaussianState(cov)


class TestPhotonMoments:
    def test_vacuum_moments_are_zero(self):
        moments = photon_moments(squeezed_probe(3, SqueezeParameter(0.0)))
        assert (moments.mean_n, moments.var_n) == (0.0, 0.0)

    def test_unit_photon_squeezer(self):
        state = squeezed_probe(1, SqueezeParameter(R_UNIT))
        assert photon_moments(state).mean_n == pytest.approx(1.0, abs=1e-12)
        moments = photon_moments(state)
        assert moments.var_n == pytest.approx(4.0, abs=1e-9)

    def test_variance_is_super_poissonian(self, rng):
        for _ in range(20):
            r = float(rng.uniform(0.05, 2.0))
            state = squeezed_probe(2, SqueezeParameter(r, rng.uniform(0, 6)))
            moments = photon_moments(state)
            nbar = math.sinh(r) ** 2
            assert moments.mean_n == pytest.approx(nbar, abs=1e-9)
            assert moments.var_n == pytest.approx(2 * nbar * (nbar + 1), abs=1e-9)

    @pytest.mark.parametrize("modes, n", [(1, 0.5), (3, 2.0), (8, 0.25)])
    def test_thermal_moments(self, modes, n):
        # a caller's mixed state: (n + 1/2) I holds M independent thermal modes
        moments = photon_moments(GaussianState((n + 0.5) * np.eye(2 * modes)))
        assert moments.mean_n == pytest.approx(modes * n, rel=1e-14)
        assert moments.var_n == pytest.approx(modes * n * (n + 1), rel=1e-14)

    def test_overflowing_covariance_is_refused_by_moment(self):
        # its squares once overflowed with a RuntimeWarning into var_n = inf
        for diagonal, moment in (
            ([1e200, 1e-200], "variance"), ([1e160, 1e-160], "variance"), ([-1e308, -1e308], "mean")
        ):
            with pytest.raises(ValueError, match=f"^photon-number {moment} is not a finite float"):
                photon_moments(GaussianState(np.diag(diagonal)))
        # a probe stays finite up to the squeezing cap
        for modes in (1, 3):
            moments = photon_moments(squeezed_probe(modes, SqueezeParameter(SQUEEZE_R_MAX, 0.7)))
            assert math.isfinite(moments.mean_n) and math.isfinite(moments.var_n)


class TestVacuumOverlap:
    def test_zero_phases_give_unity(self, rng):
        for dim in (1, 3):
            squeeze = SqueezeParameter(float(rng.uniform(0.1, 1.2)))
            probe = squeezed_probe(dim, squeeze)
            unitary = random_unitary(rng, dim)
            state = apply_network(probe, unitary)
            state = phase_shift(state, np.zeros(dim))
            state = apply_network(state, unitary.conj().T)
            assert vacuum_overlap_probability(state, probe) == pytest.approx(1.0, abs=1e-12)

    def test_unsqueezed_probe_always_survives(self):
        probe = squeezed_probe(2, SqueezeParameter(0.0))
        state = phase_shift(probe, [0.4, -0.2])
        assert vacuum_overlap_probability(state, probe) == pytest.approx(1.0, abs=1e-12)

    def test_against_generating_function_oracle(self):
        # frozen from brute_force_survival(asinh(1), 0.1): 0.962369108664265
        probe = squeezed_probe(1, SqueezeParameter(R_UNIT))
        value = vacuum_overlap_probability(phase_shift(probe, [0.1]), probe)
        assert value == pytest.approx(0.962369108664265, abs=1e-12)
        assert value == pytest.approx(brute_force_survival(R_UNIT, 0.1), abs=1e-12)

    def test_equal_phases_match_single_mode(self):
        # the phase-spread term vanishes when every channel has the same phase
        unitary = mach_zehnder_unitary(0.5)
        probe = squeezed_probe(2, SqueezeParameter(R_UNIT))
        state = apply_network(probe, unitary)
        state = phase_shift(state, [0.1, 0.1])
        state = apply_network(state, unitary.conj().T)
        assert vacuum_overlap_probability(state, probe) == pytest.approx(
            0.962369108664265, abs=1e-10
        )

    def test_even_in_phase_and_decreasing(self):
        probe = squeezed_probe(1, SqueezeParameter(0.9))

        def prob(phi):
            return vacuum_overlap_probability(phase_shift(probe, [phi]), probe)

        grid = np.linspace(0.05, math.pi / 2, 25)
        values = np.array([prob(phi) for phi in grid])
        mirrored = np.array([prob(-phi) for phi in grid])
        assert np.allclose(values, mirrored, atol=1e-12)
        assert np.all(np.diff(values) < 0)

    def test_gauge_invariance_of_trailing_columns(self, rng):
        # only the first network column matters; rephasing the others is invisible
        probe = squeezed_probe(4, SqueezeParameter(0.8, 1.1))
        unitary = random_unitary(rng, 4)
        phases = rng.uniform(-0.6, 0.6, size=4)
        gauge = np.diag(np.exp(1j * np.concatenate([[0.0], rng.uniform(0, 6, size=3)])))

        def run(u):
            state = apply_network(probe, u)
            state = phase_shift(state, phases)
            state = apply_network(state, u.conj().T)
            return vacuum_overlap_probability(state, probe)

        assert abs(run(unitary) - run(unitary @ gauge)) <= 1e-12

    def test_mode_counts_must_match(self):
        # numpy once refused it: operands could not be broadcast together
        # with shapes (4,4) (6,6); the counts are checked before purity
        squeeze = SqueezeParameter(0.5)
        for state in (squeezed_probe(3, squeeze), GaussianState(np.eye(6))):
            with pytest.raises(ValueError, match=r"^state has 3 modes, probe has 2$"):
                vacuum_overlap_probability(state, squeezed_probe(2, squeeze))

    def test_rejects_impure_state(self):
        from sqzmet import GaussianState

        thermal = GaussianState(np.eye(2))  # det(2V) = 4, far from pure
        probe = squeezed_probe(1, SqueezeParameter(0.5))
        with pytest.raises(ValueError, match="not pure"):
            vacuum_overlap_probability(thermal, probe)

    def test_rejects_impure_probe(self):
        from sqzmet import GaussianState

        # the probe is caller input too, so it gets the same purity check
        thermal = GaussianState(np.eye(2))
        with pytest.raises(ValueError, match=re.escape("not pure (purity defect 3.000e+00)")):
            vacuum_overlap_probability(squeezed_probe(1, SqueezeParameter(0.0)), thermal)

    @pytest.mark.parametrize("impure", ["state", "probe"])
    def test_purity_refusal_names_the_argument_and_the_bound(self, impure):
        from sqzmet import GaussianState

        pure, thermal = squeezed_probe(1, SqueezeParameter(0.0)), GaussianState(np.eye(2))
        state, probe = (thermal, pure) if impure == "state" else (pure, thermal)
        message = f"{impure} is not pure (purity defect 3.000e+00) beyond OVERLAP_PURITY_TOL = "
        message += "1e-06"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vacuum_overlap_probability(state, probe)

    def test_overlap_above_one_is_refused_naming_the_bound(self):
        from sqzmet import GaussianState

        # just below the vacuum: purity defect 2e-7 passes OVERLAP_PURITY_TOL,
        # but the overlap with the vacuum is 1 + 5e-8
        state = GaussianState(0.5 * (1 - 1e-7) * np.eye(2))
        probe = squeezed_probe(1, SqueezeParameter(0.0))
        assert purity_defect(state) <= 1e-6
        message = "overlap 1.0000000500000024 exceeds 1 beyond OVERLAP_EXCESS_TOL = 1e-12"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vacuum_overlap_probability(state, probe)

    def test_indefinite_sum_is_refused_by_name(self):
        # det(2V) = 1, so the purity check passes, but V + V_probe is singular
        state = GaussianState(np.diag([-0.5, -0.5, 0.5, 0.5]))
        probe = squeezed_probe(2, SqueezeParameter(0.0))
        assert purity_defect(state) == 0.0
        message = "state + probe covariance is not positive definite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vacuum_overlap_probability(state, probe)

    def test_overflowing_purity_defect_is_inf(self):
        from sqzmet import GaussianState

        # det(2V) = 4e600 is not a float, so expm1 of its log would overflow
        assert purity_defect(GaussianState(np.diag([1e300, 1e300]))) == math.inf
        probe = squeezed_probe(1, SqueezeParameter(100.0))
        with pytest.raises(ValueError, match="purity defect inf"):
            vacuum_overlap_probability(phase_shift(probe, [0.01]), probe)
