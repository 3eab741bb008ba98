import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqzmet import (
    ExperimentConfig,
    RotationMesh,
    SqueezeParameter,
    block_unitarity_defect,
    check_regime,
    embed_weights_unitary,
    exact_survival_probability,
    first_column,
    mach_zehnder_factorization_residual,
    mach_zehnder_unitary,
    mesh_gap,
    mesh_to_netlist,
    parse_netlist,
    phase_moments,
    reck_decompose,
    recompose,
    unitarity_defect,
    validate_weights,
    weight_chain,
)
from sqzmet import fock, network
from sqzmet.network import ELEMENT_DTYPE
from conftest import random_unitary, random_weights

HALF = math.sqrt(0.5)


class TestWeightValidation:
    def test_accepts_normalized(self):
        w = validate_weights([0.25, 0.75])
        assert np.array_equal(w, [0.25, 0.75])

    @pytest.mark.parametrize(
        "bad", [[0.5, 0.6], [-0.1, 1.1], [], [0.5, np.nan, 0.5]]
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            validate_weights(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([np.inf, -np.inf], "weights must be finite"),
            ([-np.inf, np.inf, 1.0], "weights must be finite"),
            ([np.inf, 0.0], "weights must be finite"),
            ([np.nan, 1.0], "weights must be finite"),
            ([1.5, -0.5], "weights must be non-negative"),
            ([0.5, 0.5 + 5e-11], "weights must sum to 1 within 1e-12"),
        ],
    )
    def test_refusal_names_the_rule(self, bad, message):
        # warnings are errors here: inf - inf in a sum would raise a RuntimeWarning
        with pytest.raises(ValueError, match=f"^{message}"):
            validate_weights(bad)

    @pytest.mark.parametrize(
        "bad, dtype",
        [
            (["0.5", "0.5"], "<U3"),
            ([True, False], "bool"),
            ([0.5 + 0j, 0.5], "complex128"),
            ([0.5, None], "object"),
            ([10 ** 400, 0], "object"),
        ],
        ids=["str", "bool", "complex", "none", "huge-int"],
    )
    @pytest.mark.parametrize("name", ["weights", "phases"])
    def test_only_integer_and_float_vectors_are_numbers(self, name, bad, dtype):
        # the vector form of the scalar rule: a string, a bool or a complex
        # number is not a real number
        call = validate_weights if name == "weights" else lambda v: network.validate_phases(v, 2)
        with pytest.raises(ValueError, match=f"^{name} must be real numbers, got dtype {dtype}$"):
            call(bad)

    @pytest.mark.parametrize(
        "bad",
        [[True, 0.0], [0.5, np.True_], [1, False], (0.0, True)],
        ids=["bool-float", "float-numpy-bool", "int-bool", "tuple"],
    )
    @pytest.mark.parametrize("name", ["weights", "phases"])
    def test_bool_inside_a_number_list_is_refused(self, name, bad):
        # numpy casts these to float64 or int64 before the dtype check sees them
        call = validate_weights if name == "weights" else lambda v: network.validate_phases(v, 2)
        with pytest.raises(ValueError, match=f"^{name} must be real numbers, got a bool entry$"):
            call(bad)

    @pytest.mark.parametrize(
        "values", [[1, 0], np.array([1, 0], dtype=np.uint8), np.array([0.5, 0.5], dtype=np.float32)]
    )
    def test_integer_and_float_vectors_are_accepted(self, values):
        for checked in (validate_weights(values), network.validate_phases(values, 2)):
            assert checked.dtype == np.float64
            assert np.array_equal(checked, np.asarray(values, dtype=float))


SQ = SqueezeParameter(0.5)
# every public entry point that reads a vector, with the name its refusals use
VECTOR_ENTRY_POINTS = {
    "weights": ("weights", validate_weights),
    "phases": ("phases", lambda v: network.validate_phases(v, 2)),
    "config": ("phases", lambda v: ExperimentConfig([0.5, 0.5], v, SQ, shots=100, seed=7)),
    "phase-moments": ("phases", lambda v: phase_moments([0.5, 0.5], v)),
    "exact": ("phases", lambda v: exact_survival_probability([0.5, 0.5], v, SQ)),
    "fock-table": ("phases", lambda v: fock.survival_probability([0.5, 0.5], v, SQ, 20)),
    "fock-sectors": ("phases", lambda v: fock.survival_probability_sectors([0.5, 0.5], v, SQ, 20)),
    "fock-moments": ("phases", lambda v: fock.generator_moments_sectors([0.5, 0.5], v, SQ, 20)),
    "regime": ("phases", lambda v: check_regime(v, 1.0)),
    "mesh-phase-layer": ("phase layer", lambda v: RotationMesh((), v)),
    "mz-phi1": ("phi1", lambda v: mach_zehnder_factorization_residual(v, 0.1, 4)),
    "mz-phi2": ("phi2", lambda v: mach_zehnder_factorization_residual(0.1, v, 4)),
}


class TestVectorRule:
    # network._real_vector is the one rule: one wording per fault at every entry point
    @pytest.mark.parametrize(
        "bad, message",
        [
            ([[0.5, 0.5]], "must be a non-empty vector, got shape (1, 2)"),
            ([], "must be a non-empty vector, got shape (0,)"),
            ([[0.5], 0.5], "must be real numbers, got a ragged sequence"),
            ([0.5, True], "must be real numbers, got a bool entry"),
            (["0.5", "0.5"], "must be real numbers, got dtype <U3"),
        ],
        ids=["2-d", "empty", "ragged", "bool-entry", "string"],
    )
    @pytest.mark.parametrize("entry", sorted(VECTOR_ENTRY_POINTS))
    def test_each_fault_has_one_wording_at_every_entry_point(self, entry, bad, message):
        # a 2-d phase array once read "expected 2 phases, got shape (1, 2)" at
        # some entry points and "phi1 must be a real number or a non-empty 1-D
        # sequence" at the Mach-Zehnder check; numpy's ragged message named no argument
        name, call = VECTOR_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
            call(bad)

    @pytest.mark.parametrize("entry", sorted(set(VECTOR_ENTRY_POINTS) - {"mz-phi1", "mz-phi2"}))
    def test_one_number_is_not_a_vector(self, entry):
        name, call = VECTOR_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be a non-empty vector, got shape \\(\\)$"):
            call(0.5)

    @pytest.mark.parametrize("number", [0.3, 3, np.float64(0.3), np.int64(3), np.array(0.3)])
    def test_one_number_is_one_mach_zehnder_pair(self, number):
        residual = mach_zehnder_factorization_residual
        assert residual(number, 0.1, 6) == residual([float(number)], [0.1], 6)
        assert residual(0.1, number, 6) == residual([0.1], [float(number)], 6)


class TestEmbedWeights:
    def test_unit_weight_gives_identity(self):
        assert np.array_equal(embed_weights_unitary([1.0, 0.0, 0.0]), np.eye(3))

    def test_balanced_two_mode(self):
        expected = np.array([[HALF, -HALF], [HALF, HALF]])
        assert np.allclose(embed_weights_unitary([0.5, 0.5]), expected, atol=1e-15)

    def test_quarter_weight_first_column(self):
        unitary = embed_weights_unitary([0.25, 0.75])
        assert np.allclose(unitary[:, 0], [0.5, math.sqrt(0.75)], atol=1e-15)
        assert np.allclose(unitary[1, 0], 0.8660254037844386, atol=1e-12)
        assert unitarity_defect(unitary) <= 1e-12

    def test_all_weight_on_last_channel_swaps(self):
        # the chain routes channel 1 down to channel 3 and shifts the rest up
        unitary = embed_weights_unitary([0.0, 0.0, 1.0])
        expected = np.array([[0, -1, 0], [0, 0, -1], [1, 0, 0]], dtype=float)
        assert np.allclose(unitary, expected, atol=1e-15)

    def test_zero_weight_channels_are_safe(self):
        unitary = embed_weights_unitary([0.3, 0.0, 0.7, 0.0])
        assert np.all(np.isfinite(unitary))
        assert unitarity_defect(unitary) <= 1e-12
        assert np.allclose(unitary[:, 0], np.sqrt([0.3, 0.0, 0.7, 0.0]), atol=1e-15)

    def test_deterministic(self):
        a = embed_weights_unitary([0.2, 0.3, 0.5])
        b = embed_weights_unitary([0.2, 0.3, 0.5])
        assert np.array_equal(a, b)

    def test_random_weight_vectors(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            w = random_weights(rng, dim)
            unitary = embed_weights_unitary(w)
            assert np.max(np.abs(unitary[:, 0] - np.sqrt(w))) <= 1e-12
            assert unitarity_defect(unitary) <= 1e-10

    @pytest.mark.parametrize("modes", [1, 2, 8, 128])
    def test_real_orthogonal_float_array(self, rng, modes):
        # the chain is real, and is returned as float64 without a complex
        # copy; U^T U = I entry by entry within 1e-14 (at M = 128 with equal
        # weights the Frobenius norm of the gap is about 2.6e-14)
        for weights in (random_weights(rng, modes), np.full(modes, 1.0 / modes)):
            unitary = embed_weights_unitary(weights)
            assert unitary.dtype == np.float64 and unitary.shape == (modes, modes)
            assert np.max(np.abs(unitary.T @ unitary - np.eye(modes))) <= 1e-14


class TestWeightChain:
    @staticmethod
    def _check(weights):
        mesh = weight_chain(weights)
        dim = len(weights)
        assert len(mesh.elements) <= dim - 1
        assert np.all((0 <= mesh.elements["mode"]) & (mesh.elements["mode"] < dim - 1))
        assert np.all(mesh.elements["phase"] == 0.0)
        assert np.array_equal(mesh.output_phases, np.zeros(dim))
        assert np.linalg.norm(recompose(mesh) - embed_weights_unitary(weights)) <= 1e-12

    @pytest.mark.parametrize("concentration", [0.05, 1.0, 5.0])
    def test_matches_embedding(self, rng, concentration):
        for dim in range(1, 17):
            for _ in range(5):
                w = rng.dirichlet(np.full(dim, concentration))
                self._check(w / w.sum())

    def test_zero_weight_channels(self):
        for w in ([0.3, 0.0, 0.7, 0.0], [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0]):
            self._check(w)
        assert weight_chain([0.3, 0.0, 0.7, 0.0]).elements["mode"][0] == 1

    @pytest.mark.parametrize("modes", [64, 128])
    def test_uniform_weights(self, modes):
        self._check(np.full(modes, 1.0 / modes))
        assert len(weight_chain(np.full(modes, 1.0 / modes)).elements) == modes - 1

    def test_unit_weight_gives_empty_chain(self):
        assert len(weight_chain([1.0]).elements) == 0
        assert len(weight_chain([1.0, 0.0, 0.0]).elements) == 0

    def test_applies_pair_zero_first(self):
        mesh = weight_chain([0.25, 0.25, 0.5])
        assert mesh.elements["mode"].tolist() == [1, 0]
        assert mesh.elements["theta"][1] == pytest.approx(math.atan2(math.sqrt(0.75), 0.5))
        assert mesh.elements["theta"][0] == pytest.approx(math.atan2(math.sqrt(0.5), 0.5))


class TestMachZehnder:
    def test_limiting_mirror(self):
        assert np.array_equal(mach_zehnder_unitary(1.0), np.diag([1.0, -1.0]))

    def test_balanced(self):
        expected = np.array([[HALF, HALF], [HALF, -HALF]])
        assert np.allclose(mach_zehnder_unitary(0.5), expected, atol=1e-15)

    def test_quarter_reflectivity(self):
        expected = np.array([[0.5, 0.8660254037844386], [0.8660254037844386, -0.5]])
        assert np.allclose(mach_zehnder_unitary(0.25), expected, atol=1e-12)

    def test_matches_embedding_on_two_modes(self, rng):
        for w1 in rng.uniform(0, 1, size=10):
            assert np.allclose(
                mach_zehnder_unitary(w1),
                embed_weights_unitary([w1, 1 - w1]) @ np.diag([1.0, -1.0]),
                atol=1e-12,
            )

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, "0.5", True])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="reflectivity w1"):
            mach_zehnder_unitary(bad)


class TestReckDecomposition:
    def test_identity_gives_empty_mesh(self):
        mesh = reck_decompose(np.eye(4))
        assert len(mesh.elements) == 0
        assert np.allclose(mesh.output_phases, 0.0)
        assert np.allclose(recompose(mesh), np.eye(4))

    def test_balanced_splitter_single_element(self):
        unitary = mach_zehnder_unitary(0.5)
        mesh = reck_decompose(unitary)
        assert len(mesh.elements) == 1
        assert abs(mesh.elements["theta"][0]) == pytest.approx(math.pi / 4, abs=1e-12)
        assert np.linalg.norm(recompose(mesh) - unitary) <= 1e-12

    def test_roundtrip_random_unitaries(self, rng):
        for dim in range(2, 17):
            unitary = random_unitary(rng, dim)
            mesh = reck_decompose(unitary)
            assert len(mesh.elements) <= dim * (dim - 1) // 2
            assert np.all(mesh.elements["mode"] + 1 < dim)
            assert np.linalg.norm(recompose(mesh) - unitary) <= 1e-9

    def test_roundtrip_seeded_five_mode(self):
        unitary = random_unitary(np.random.default_rng(5), 5)
        mesh = reck_decompose(unitary)
        assert np.linalg.norm(recompose(mesh) - unitary) <= 1e-9

    def test_phases_are_wrapped(self, rng):
        mesh = reck_decompose(random_unitary(rng, 6))
        assert np.all(mesh.elements["phase"] > -math.pi)
        assert np.all(mesh.elements["phase"] <= math.pi)
        assert np.all(mesh.output_phases > -math.pi - 1e-12)
        assert np.all(mesh.output_phases <= math.pi + 1e-12)

    @pytest.mark.parametrize("modes", [48, 64, 128])
    def test_uniform_weights_give_finite_mesh(self, modes):
        # a rotation ratio -target/pivot overflowed on tiny pivots here
        unitary = embed_weights_unitary(np.full(modes, 1.0 / modes))
        mesh = reck_decompose(unitary)
        assert np.all(np.isfinite(mesh.elements["theta"]))
        assert np.all(np.isfinite(mesh.elements["phase"]))
        assert np.all(np.isfinite(mesh.output_phases))
        assert np.linalg.norm(recompose(mesh) - unitary) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            reck_decompose(np.ones((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            reck_decompose(np.ones((2, 3)))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, 1e200])
    def test_rejects_a_non_finite_defect(self, entry):
        # a NaN defect once passed `defect > UNITARITY_TOL`, and the mesh came back
        # all NaN; an inf entry warned in unitarity_defect first
        unitary = np.eye(3, dtype=complex)
        unitary[1, 2] = entry
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(defect (nan|inf), bound 1e-10\)$"):
            reck_decompose(unitary)


class TestRotationMesh:
    def test_elements_are_one_read_only_record_array(self):
        mesh = RotationMesh([(1, 0.5, -0.0), (0, 0.25, 1.0)], np.zeros(3))
        assert mesh.elements.dtype == ELEMENT_DTYPE
        assert mesh.elements.tolist() == [(1, 0.5, -0.0), (0, 0.25, 1.0)]
        with pytest.raises(ValueError, match="read-only"):
            mesh.elements["theta"][0] = 0.0

    def test_record_array_is_copied_once_as_it_is(self):
        rows = [(2, 0.5, -0.0), (0, 5e-324, 1.0), (1, -1e308, math.pi)]
        records = np.array(rows, dtype=ELEMENT_DTYPE)
        mesh = RotationMesh(records, np.zeros(4))
        assert mesh.elements.tobytes() == RotationMesh(rows, np.zeros(4)).elements.tobytes()
        assert mesh.elements.dtype == ELEMENT_DTYPE and not mesh.elements.flags.writeable
        assert records.flags.writeable and not np.shares_memory(records, mesh.elements)
        # a strided view is read in its own order
        assert mesh.elements[::-1].tolist() == RotationMesh(records[::-1], np.zeros(4)).elements.tolist()

    @pytest.mark.parametrize("mode", [-1, 2])
    def test_mode_outside_the_phase_layer_is_refused(self, mode):
        # first_column used to rotate modes (-1, 0) as if they were (M - 1, 0)
        with pytest.raises(ValueError, match=rf"element mode {mode} outside \[0, M - 2\] for M = 3"):
            RotationMesh([(0, 0.5, 0.0), (mode, 0.5, 0.0)], np.zeros(3))

    def test_phase_layer_takes_only_real_numbers(self):
        # a complex phase once raised a bare TypeError; the other faults of the
        # vector rule are in TestVectorRule
        with pytest.raises(ValueError, match="^phase layer must be real numbers, got dtype complex128$"):
            RotationMesh((), [1j, 0.0])
        # non-finite phases are kept, in a copy of the caller's array
        phases = np.array([math.nan, 0.5, -math.inf])
        mesh = RotationMesh((), phases)
        phases[1] = 7.0
        assert phases.flags.writeable and not mesh.output_phases.flags.writeable
        assert np.array_equal(mesh.output_phases, [math.nan, 0.5, -math.inf], equal_nan=True)
        assert RotationMesh((), [1, 2]).output_phases.dtype == np.float64

    def test_equal_meshes_compare_by_identity(self):
        # == may not compare the array fields: an array has no single truth value
        mesh, twin = weight_chain([0.5, 0.5]), weight_chain([0.5, 0.5])
        assert mesh == mesh and mesh != twin
        assert len({mesh, twin}) == 2

    def test_one_mode_mesh_has_no_element(self):
        assert np.array_equal(recompose(RotationMesh((), [0.5])), [[np.exp(0.5j)]])
        with pytest.raises(ValueError, match="element mode 0 outside"):
            RotationMesh([(0, 0.5, 0.0)], [0.0])


# edges of the float format: signed zeros, subnormals and the largest magnitudes
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-309, -1e308, 1e308, 1.7976931348623157e308]
FINITE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))


@st.composite
def adjacent_meshes(draw):
    """A mesh of 1 to 64 modes with up to 3 (M - 1) elements on random adjacent pairs."""
    dim = draw(st.integers(1, 64))
    row = st.tuples(st.integers(0, max(dim - 2, 0)), FINITE_FLOATS, FINITE_FLOATS)
    elements = draw(st.lists(row, max_size=3 * (dim - 1)))
    return RotationMesh(elements, draw(st.lists(FINITE_FLOATS, min_size=dim, max_size=dim)))


class TestNetlist:
    def test_format_shape(self):
        mesh = reck_decompose(mach_zehnder_unitary(0.5))
        text = mesh_to_netlist(mesh)
        lines = text.strip().splitlines()
        assert lines[0].startswith("pair 0 1 / ")
        assert lines[-1].startswith("phases ")
        assert len(lines) == 2

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(mesh=adjacent_meshes())
    def test_roundtrip_is_bit_exact(self, mesh):
        text = mesh_to_netlist(mesh)
        parsed = parse_netlist(text)
        for got, want in ((parsed.elements, mesh.elements), (parsed.output_phases, mesh.output_phases)):
            assert np.array_equal(got, want)
            # array_equal has -0.0 == 0.0; the bytes also hold the sign of zero
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert mesh_to_netlist(parsed) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_netlist("pair 0 2 / 0.1 / 0.2\nphases 0.0 0.0 0.0\n")
        with pytest.raises(ValueError):
            parse_netlist("pair 0 1 | 0.1 | 0.2\nphases 0.0 0.0\n")
        with pytest.raises(ValueError, match="phase line"):
            parse_netlist("pair 0 1 / 0.1 / 0.2\n")

    def test_pair_outside_the_phase_line_is_named(self):
        text = "pair 0 1 / 0.1 / 0.0\npair 5 6 / 0.2 / 0.0\nphases 0.0 0.0 0.0\n"
        with pytest.raises(ValueError, match=r"line 2: pair outside the 3 modes.*'pair 5 6"):
            parse_netlist(text)
        # the last mode of the phase line cannot start a pair either
        with pytest.raises(ValueError, match="line 1: pair outside the 3 modes"):
            parse_netlist("pair 2 3 / 0.1 / 0.0\nphases 0.0 0.0 0.0\n")

    def test_second_phase_line_is_named(self):
        text = "pair 0 1 / 0.1 / 0.0\nphases 0.0 0.0\n# again\nphases 0.0 0.0\n"
        with pytest.raises(ValueError, match="line 4: second phase line"):
            parse_netlist(text)

    def test_empty_phase_line_is_named(self):
        with pytest.raises(ValueError, match="line 1: empty phase line"):
            parse_netlist("phases\n")
        with pytest.raises(ValueError, match="line 2: empty phase line"):
            parse_netlist("pair 0 1 / 0.1 / 0.0\n  phases   \n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("pair 0 1 / abc / 0\nphases 0.0 0.0\n", 1),
            ("# header\nphases 0 x\n", 2),
            ("phases 0.0 0.0 0.0\npair 0 2 / 0.1 / 0.0\n", 2),
            ("pair 0 1 / 0.1 / 0.0\npair 0 1 | 0.1 | 0.0\nphases 0.0 0.0\n", 2),
        ],
        ids=["angle", "phase", "non-adjacent", "bad-line"],
    )
    def test_every_refusal_names_the_line(self, text, lineno):
        with pytest.raises(ValueError, match=f"^netlist line {lineno}: "):
            parse_netlist(text)

    def test_phase_line_starts_with_its_own_word(self):
        # a prefix match would read "phases0.0" as the word and a 2-mode layer
        for line in ("phases0.0 0.0 0.0", "phasesX"):
            with pytest.raises(ValueError, match=f"line 1: not a pair or phase line: '{line}'"):
                parse_netlist(line + "\n")

    @pytest.mark.parametrize(
        "line",
        [
            "pair 0 1/0.5/0.0",
            "pair 0 1 / 0.5/ 0.0",
            "pair 0 1 /0.5 / 0.0",
            "pair +0 1 / 0.5 / 0.0",
            "pair 1_0 11 / 0.5 / 0.0",
            "pair 0 1 / 0.5 / 0.0 / 0.0",
            "pair 0 1 / 0.5",
        ],
        ids=["slashes-touch", "slash-touches-angle", "slash-touches-angle-left", "plus-mode",
             "underscore-mode", "eight-tokens", "five-tokens"],
    )
    def test_pair_line_is_exactly_seven_tokens(self, line):
        # the only pair layout is the one mesh_to_netlist writes; int() alone
        # would read "+0" as 0 and "1_0" as 10
        text = f"{line}\nphases {' '.join(['0.0'] * 12)}\n"
        message = f"netlist line 1: not a pair or phase line: '{line}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_netlist(text)

    def test_pair_line_tolerates_any_whitespace(self):
        mesh = parse_netlist("\t pair  0\t1 /  0.5 /\t-0.0  \n  # note\n\n phases 0.0  1.0 \n")
        assert mesh.elements.tolist() == [(0, 0.5, -0.0)]
        assert math.copysign(1.0, mesh.elements["phase"][0]) == -1.0
        assert mesh.output_phases.tolist() == [0.0, 1.0]

    def test_empty_mesh_netlist(self):
        mesh = RotationMesh((), np.zeros(3))
        parsed = parse_netlist(mesh_to_netlist(mesh))
        assert len(parsed.elements) == 0
        assert np.array_equal(parsed.output_phases, np.zeros(3))


def random_adjacent_mesh(rng, dim, count):
    """Elements on random adjacent pairs with random angles and non-zero phases."""
    modes = rng.integers(dim - 1, size=count).tolist()
    thetas, phases = rng.uniform(-np.pi, np.pi, size=(2, count)).tolist()
    return RotationMesh(list(zip(modes, thetas, phases)), rng.uniform(-np.pi, np.pi, size=dim))


class TestFirstColumn:
    def test_matches_dense_route_on_random_meshes(self, rng):
        for dim in range(2, 17):
            for count in (0, 1, dim, 3 * dim):
                mesh = random_adjacent_mesh(rng, dim, count)
                assert np.max(np.abs(first_column(mesh) - recompose(mesh)[:, 0])) <= 1e-14

    def test_chain_encodes_the_weights(self, rng):
        w = rng.dirichlet(np.ones(40))
        assert np.max(np.abs(first_column(weight_chain(w)) - np.sqrt(w))) <= 1e-14

    def test_nan_propagates(self):
        mesh = RotationMesh([(0, np.nan, 0.0)], [0.0, 0.0])
        assert np.all(np.isnan(first_column(mesh)))

    def test_non_finite_gives_nan_without_warning(self):
        # tier-1 turns any RuntimeWarning into an error; parse_netlist still
        # reads such numbers
        for bad in ("inf", "-inf", "nan"):
            for text in (
                f"pair 0 1 / {bad} / 0.0\nphases 0.0 0.0\n",
                f"pair 0 1 / 0.1 / {bad}\nphases 0.0 0.0\n",
                f"pair 0 1 / 0.1 / 0.0\nphases {bad} 0.0\n",
            ):
                mesh = parse_netlist(text)
                assert np.all(np.isnan(first_column(mesh)))
                assert np.all(np.isnan(recompose(mesh)[:, 0]))


class TestBlockUnitarityDefect:
    def test_rounding_level_on_random_meshes(self, rng):
        for dim in (2, 7, 30):
            mesh = random_adjacent_mesh(rng, dim, 2 * dim)
            assert block_unitarity_defect(mesh) <= 1e-15
            # the dense product of those blocks is unitary to the same order
            assert unitarity_defect(recompose(mesh)) <= 1e-13

    def test_every_walk_shares_the_one_block(self, rng, monkeypatch):
        # a lossy block must show in the block check, the dense product and
        # the O(M) column alike
        exact = network._element_entries

        def lossy(theta, phase):
            a, b, c, d = exact(theta, phase)
            return 1.01 * a, b, c, d

        mesh = random_adjacent_mesh(rng, 6, 12)
        monkeypatch.setattr(network, "_element_entries", lossy)
        assert block_unitarity_defect(mesh) > 1e-3
        assert unitarity_defect(recompose(mesh)) > 1e-3
        assert abs(np.linalg.norm(first_column(mesh)) - 1.0) > 1e-3

    def test_empty_mesh_is_exactly_unitary(self):
        assert block_unitarity_defect(RotationMesh((), np.zeros(4))) == 0.0

    @pytest.mark.parametrize(
        "mesh",
        [
            RotationMesh([(0, np.nan, 0.0)], [0.0, 0.0]),
            RotationMesh([(0, 0.1, np.inf)], [0.0, 0.0]),
            RotationMesh([(0, 0.1, 0.0)], [0.0, -np.inf]),
        ],
        ids=["nan-angle", "inf-phase", "inf-output-phase"],
    )
    def test_non_finite_gives_nan(self, mesh):
        assert math.isnan(block_unitarity_defect(mesh))


class TestMeshGap:
    def test_zero_against_itself(self, rng):
        mesh = random_adjacent_mesh(rng, 6, 10)
        assert mesh_gap(mesh, mesh) == 0.0

    def test_largest_angle_or_phase_gap(self):
        base = RotationMesh([(1, 0.5, 0.0), (0, 0.25, 0.0)], np.zeros(3))
        moved = RotationMesh([(1, 0.5, 1e-6), (0, 0.25 + 3e-6, 0.0)], np.zeros(3))
        assert mesh_gap(moved, base) == pytest.approx(3e-6, rel=1e-9)
        shifted = RotationMesh(base.elements, [0.0, 0.0, 2e-5])
        assert mesh_gap(shifted, base) == 2e-5

    @pytest.mark.parametrize(
        "other",
        [
            RotationMesh([(0, 0.5, 0.0), (1, 0.25, 0.0)], np.zeros(3)),
            RotationMesh([(1, 0.5, 0.0)], np.zeros(3)),
            RotationMesh([(1, 0.5, 0.0), (0, 0.25, 0.0)], np.zeros(4)),
        ],
        ids=["reordered", "missing-element", "mode-count"],
    )
    def test_different_structure_is_inf(self, other):
        base = RotationMesh([(1, 0.5, 0.0), (0, 0.25, 0.0)], np.zeros(3))
        assert mesh_gap(other, base) == math.inf

    def test_nan_propagates(self):
        base = RotationMesh([(0, 0.5, 0.0)], np.zeros(2))
        assert math.isnan(mesh_gap(RotationMesh([(0, np.nan, 0.0)], np.zeros(2)), base))
