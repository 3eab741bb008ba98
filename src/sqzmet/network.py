"""Synthesis and decomposition of the weight-encoding interferometer.

The protocol needs an ``(M, M)`` unitary whose first column is the
elementwise square root of the probability weights; every other column is
free.  ``weight_chain`` builds it from ``M - 1`` real rotations on adjacent
mode pairs (the first-column pass of Reck et al., PRL 73, 58, 1994) and
``embed_weights_unitary`` returns that chain's matrix.  A general unitary
factors into a triangular mesh of such rotations, which is how it would be
laid out as beam splitters and phase shifters.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12
# envelope of the scalar arguments: inside it 8 nbar^2, 1/(8 nbar^2),
# 4 nbar (nbar + 1), phi^2 nbar and phi times any photon count are finite floats
NBAR_MIN, NBAR_MAX, PHASE_MAX = 1e-100, 1e100, 1e100


def validate_count(name: str, value, low: int, high: int | None = None) -> int:
    """Return ``value`` as an int if it is an integer in ``[low, high]`` (``>= low`` without ``high``).

    Otherwise raise ValueError naming ``name``; a bool, ``1.5`` or ``"7"`` is not an integer.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return int(value)


def validate_real(
    name: str, value, low: float = -math.inf, high: float = math.inf, bounds: str | None = None
) -> float:
    """Return ``value`` as a float if it is a finite real number in ``[low, high]``.

    Otherwise raise ValueError naming ``name``, and the interval's constants
    ``bounds`` (say ``"[NBAR_MIN, NBAR_MAX]"``) where the limits have names; a
    bool or ``"1"`` is not a real number, and an int past the float range
    counts as +-inf.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if math.isfinite(number) and low <= number <= high:
        return number
    if low == -math.inf and high == math.inf:
        raise ValueError(f"{name} must be finite, got {number}")
    named = f" = {bounds}" if bounds else ""
    raise ValueError(f"{name} = {number} outside [{low}, {high}]{named}")


def _real_vector(name: str, values) -> np.ndarray:
    """``values`` as a float vector: the package's one rule for a vector argument.

    Refused, naming ``name``: a ragged sequence; a dtype other than integer or float,
    or a bool entry in a list, as :func:`validate_real` refuses such a scalar; then
    anything not 1-D and non-empty, as ``<name> must be a non-empty vector, got shape S``.
    """
    try:
        array = np.asarray(values)
    except ValueError:
        raise ValueError(f"{name} must be real numbers, got a ragged sequence") from None
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got dtype {array.dtype}")
    if isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise ValueError(f"{name} must be real numbers, got a bool entry")
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"{name} must be a non-empty vector, got shape {array.shape}")
    return np.asarray(array, dtype=float)


def validate_weights(weights) -> np.ndarray:
    """Return ``weights`` as a float vector, checking non-negativity and normalisation.

    Raises:
        ValueError: under :func:`_real_vector`'s rule (``weights must be a non-empty
            vector, got shape S``, ...), on non-finite values, negative entries, or
            a sum away from 1 by more than ``WEIGHT_SUM_TOL``.
    """
    w = _real_vector("weights", weights)
    # one accept test: a NaN fails the min, an inf the sum, and the sum is
    # taken only over non-negative entries, so inf - inf never occurs; a
    # vector that fails it is refused below, naming the first rule it breaks
    if w.min() >= 0 and abs(float(w.sum()) - 1.0) <= WEIGHT_SUM_TOL:
        return w
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError(f"weights must be non-negative, got {w}")
    raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got sum {float(w.sum())!r}")


def validate_phases(phases, modes: int, name: str = "phases") -> np.ndarray:
    """Return ``phases`` as a float vector of one phase in ``[-PHASE_MAX, PHASE_MAX]`` per mode.

    Raises:
        ValueError: naming ``name``: under :func:`_real_vector`'s rule (``phases must
            be a non-empty vector, got shape S``, ...); ``expected M phases, got shape
            (k,)`` for another length; on a non-finite entry, or one past ``PHASE_MAX``.
    """
    phases = _real_vector(name, phases)
    if phases.size != modes:
        raise ValueError(f"expected {modes} {name}, got shape {phases.shape}")
    # one accept test, which a NaN or an inf also fails
    largest = np.abs(phases).max()
    if not largest <= PHASE_MAX:
        if not np.all(np.isfinite(phases)):
            raise ValueError(f"{name} must be finite, got {phases}")
        raise ValueError(
            f"{name} must lie in [-PHASE_MAX, PHASE_MAX] with PHASE_MAX = {PHASE_MAX}, "
            f"got max |phi| = {largest}"
        )
    return phases


@np.errstate(invalid="ignore", over="ignore")
def unitarity_defect(matrix: np.ndarray) -> float:
    """Frobenius norm of ``U^dag U - I``; NaN or inf, without a warning, past the float range."""
    matrix = np.asarray(matrix, dtype=complex)
    return float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(matrix.shape[0])))


def _chain_angles(weights) -> np.ndarray:
    # theta_k of weight_chain for k = 0..M-2, tail sums from one reversed
    # running sum (np.add.accumulate: np.cumsum without its Python wrapper)
    w = validate_weights(weights)
    return np.arctan2(np.sqrt(np.add.accumulate(w[::-1])[::-1][1:]), np.sqrt(w[:-1]))


def embed_weights_unitary(weights) -> np.ndarray:
    """Matrix of :func:`weight_chain` as a float ``(M, M)`` array; first column ``sqrt(weights)``.

    With ``c_k, s_k = cos, sin(theta_k)`` and ``c_{-1} = c_{M-1} = 1`` it is
    orthogonal and lower Hessenberg: ``U[i, j] = c_{j-1} s_j ... s_{i-1} c_i`` for
    ``i >= j`` and ``U[j-1, j] = -s_{j-1}``; ``(1, 0, ..., 0)`` gives exactly the identity.
    """
    thetas = _chain_angles(weights)
    dim = thetas.size + 1
    s, c = np.ones((2, dim))
    s[1:], c[:-1] = np.sin(thetas), np.cos(thetas)  # s_{i-1} on row i; c_{M-1} = 1
    # the column-wise running product of s_{i-1} below the diagonal is
    # s_j ... s_{i-1}; np.multiply.accumulate is np.cumprod without its Python
    # wrapper, which costs more than the product itself at small M
    row = np.arange(dim)
    below = row[:, None] > row
    unitary = np.multiply.accumulate(np.where(below, s[:, None], 1.0), axis=0)
    unitary *= c[:, None]
    unitary[:, 1:] *= c[:-1]
    unitary[below.T] = 0.0
    unitary.ravel()[1::dim + 1] = -s[1:]
    return unitary


def mach_zehnder_unitary(w1: float) -> np.ndarray:
    """Two-channel beamsplitter with reflectivity ``w1`` and transmittivity ``1 - w1``.

    Raises:
        ValueError: unless ``w1`` is a real number in ``[0, 1]``.
    """
    w1 = validate_real("reflectivity w1", w1, 0, 1)
    a = math.sqrt(w1)
    b = math.sqrt(1.0 - w1)
    return np.array([[a, b], [b, -a]], dtype=complex)


ELEMENT_DTYPE = np.dtype([("mode", np.int64), ("theta", np.float64), ("phase", np.float64)])


@dataclass(frozen=True, eq=False)
class RotationMesh:
    """Ordered rotations plus a trailing diagonal phase layer.

    ``elements`` is a read-only ``ELEMENT_DTYPE`` array, one ``(mode, theta, phase)``
    record per rotation of modes ``(mode, mode + 1)``: a one-dimensional
    ``ELEMENT_DTYPE`` array is copied once, any other iterable of such tuples or
    records is converted once.  ``recompose`` multiplies the element blocks
    in listed order and then the phase diagonal, reproducing the decomposed unitary.
    Instances compare and hash by identity: an array field has no single truth value.

    Raises:
        ValueError: unless the phase layer passes :func:`_real_vector`'s rule (``phase
            layer must be a non-empty vector, got shape S``, ...; a non-finite phase is
            kept) and every element's mode lies in ``[0, M - 2]``.
    """

    elements: np.ndarray
    output_phases: np.ndarray

    def __post_init__(self):
        elements = self.elements
        if isinstance(elements, np.ndarray) and elements.dtype == ELEMENT_DTYPE and elements.ndim == 1:
            elements = np.array(elements, dtype=ELEMENT_DTYPE)
        else:
            # fromiter, not np.array: numpy reads a tuple, even (), as one record
            elements = np.fromiter(elements, dtype=ELEMENT_DTYPE)
        # a copy, so freezing it leaves the caller's array writable
        phases = _real_vector("phase layer", self.output_phases).copy()
        modes = elements["mode"]
        outside = modes[(modes < 0) | (modes > phases.size - 2)]
        if outside.size:
            raise ValueError(f"element mode {outside[0]} outside [0, M - 2] for M = {phases.size}")
        elements.flags.writeable = False
        phases.flags.writeable = False
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "output_phases", phases)


def weight_chain(weights) -> RotationMesh:
    """The weight network: ``M - 1`` real rotations whose first column is ``sqrt(weights)``.

    Element ``k`` rotates modes ``(k, k + 1)`` by ``theta_k = atan2(sqrt(sum_{j>k} w_j),
    sqrt(w_k))``; all phases are 0.  Elements run from ``k = M - 2`` down to 0, so
    :func:`recompose` applies pair (0, 1) first.  An element whose tail sum is 0
    has ``theta_k == 0`` and is skipped: ``(1, 0, ..., 0)`` gives an empty mesh.
    """
    thetas = _chain_angles(weights)
    modes = np.flatnonzero(thetas)[::-1]
    elements = np.zeros(modes.size, dtype=ELEMENT_DTYPE)
    elements["mode"], elements["theta"] = modes, thetas[modes]
    return RotationMesh(elements, np.zeros(thetas.size + 1))


def _element_entries(theta, phase):
    # the one definition of the element block [[a, b], [c, d]] =
    # [[cos t, -e^{ip} sin t], [e^{-ip} sin t, cos t]]; scalars or columns
    c, s = np.cos(theta), np.sin(theta)
    ph = np.cos(phase) + 1j * np.sin(phase)
    return c, -ph * s, s / ph, c


def _apply_elements(mesh: RotationMesh, rows):
    # left-multiply the blocks, last listed first, onto rows i, i + 1: numbers or array rows
    elements = mesh.elements[::-1]
    entries = _element_entries(elements["theta"], elements["phase"])
    for i, a, b, c, d in zip(elements["mode"].tolist(), *(e.tolist() for e in entries)):
        x, y = rows[i], rows[i + 1]
        rows[i], rows[i + 1] = a * x + b * y, c * x + d * y
    return rows


def _wrap_phase(angle: float) -> float:
    wrapped = (angle + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if wrapped == -math.pi else wrapped


def reck_decompose(unitary: np.ndarray) -> RotationMesh:
    """Factor a unitary into adjacent-pair rotations and output phases.

    Works column by column, zeroing the below-diagonal entries with Givens
    rotations on neighbouring rows; at most ``M (M - 1) / 2`` elements are
    produced and entries that are already exactly zero are skipped, so the
    identity yields an empty element list.  Each rotation angle is
    ``atan2(|target|, |pivot|)``, which stays finite however small the
    pivot is.

    Raises:
        ValueError: if the input is not square, or unless its unitarity
            defect is a number within ``UNITARITY_TOL`` (a NaN entry fails).
    """
    work = np.array(unitary, dtype=complex)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {work.shape}")
    defect = unitarity_defect(work)
    if not defect <= UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e}, bound {UNITARITY_TOL})")
    dim = work.shape[0]
    elements = []
    for col in range(dim - 1):
        for row in range(dim - 1, col, -1):
            pivot = work[row - 1, col]
            target = work[row, col]
            if target == 0:
                continue
            theta = math.atan2(abs(target), abs(pivot))
            phase = cmath.phase(pivot) - cmath.phase(-target)
            a, b, c, d = _element_entries(theta, phase)
            top, bottom = work[row - 1], work[row]
            work[row - 1], work[row] = a * top + b * bottom, c * top + d * bottom
            work[row, col] = 0.0
            # the stored element is the inverse rotation, same family with
            # the mixing angle negated
            elements.append((row - 1, -theta, _wrap_phase(phase)))
    return RotationMesh(elements, np.angle(np.diag(work)))


@np.errstate(invalid="ignore")
def recompose(mesh: RotationMesh) -> np.ndarray:
    """Multiply a mesh back into a dense unitary; a non-finite value gives NaN without a warning."""
    return _apply_elements(mesh, np.diag(np.exp(1j * mesh.output_phases)))


@np.errstate(invalid="ignore")
def first_column(mesh: RotationMesh) -> np.ndarray:
    """First column of :func:`recompose`'s unitary in O(M) time and memory.

    The phase layer and then the element blocks, in :func:`recompose`'s order,
    act on the first unit vector; any mesh of adjacent-pair elements works.
    A non-finite angle or phase gives NaN without a warning, as in :func:`recompose`.
    """
    column = [complex(np.exp(1j * mesh.output_phases[0]))] + [0j] * (mesh.output_phases.size - 1)
    return np.array(_apply_elements(mesh, column))


def block_unitarity_defect(mesh: RotationMesh) -> float:
    """Largest ``||B^dag B - I||_F`` over the element blocks ``B`` and the phase layer, in O(M).

    A product of unitaries is unitary, so this bounds the defect of the whole
    mesh without building it.  NaN if an angle or phase is not finite.
    """
    theta, phase = mesh.elements["theta"], mesh.elements["phase"]
    if not all(np.isfinite(values).all() for values in (theta, phase, mesh.output_phases)):
        return math.nan
    a, b, c, d = _element_entries(theta, phase)
    squared = (
        (np.abs(a) ** 2 + np.abs(c) ** 2 - 1.0) ** 2
        + (np.abs(b) ** 2 + np.abs(d) ** 2 - 1.0) ** 2
        + 2.0 * np.abs(np.conj(a) * b + np.conj(c) * d) ** 2
    )
    element_defect = math.sqrt(float(np.max(squared, initial=0.0)))
    layer = np.abs(np.exp(1j * mesh.output_phases)) ** 2 - 1.0
    return max(element_defect, float(np.linalg.norm(layer)))


def mesh_gap(mesh: RotationMesh, reference: RotationMesh) -> float:
    """Largest angle or phase gap between two meshes, element by element and in the phase layer.

    ``inf`` if their element pairs or mode counts differ; NaN if a value is NaN.
    """
    elements, ref = mesh.elements, reference.elements
    # array_equal is False for element lists of different lengths
    same_pairs = np.array_equal(elements["mode"], ref["mode"])
    if not same_pairs or mesh.output_phases.shape != reference.output_phases.shape:
        return math.inf
    gaps = [np.abs(elements[name] - ref[name]) for name in ("theta", "phase")]
    layer = np.abs(mesh.output_phases - reference.output_phases)
    return float(np.max(np.concatenate([*gaps, layer]), initial=0.0))


def mesh_to_netlist(mesh: RotationMesh) -> str:
    """Render a mesh as plain text, one element per line plus a phase line.

    Element lines read ``pair i j / angle / phase``; the trailing line lists
    the diagonal phases.  Numbers use shortest round-trip notation so the
    file parses back bit-exactly.
    """
    lines = [
        f"pair {i} {i + 1} / {theta!r} / {phase!r}" for i, theta, phase in mesh.elements.tolist()
    ]
    lines.append("phases " + " ".join(repr(p) for p in mesh.output_phases.tolist()))
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> RotationMesh:
    """Inverse of :func:`mesh_to_netlist`; each line is split on whitespace into tokens.

    Raises:
        ValueError: naming the line, on a line that is not blank, a ``#`` comment, a ``phases``
            line or exactly ``pair i j / theta / phase`` with decimal-digit modes, on an empty or
            repeated phase line, or on a pair outside its modes; also on a missing phase line.
    """
    lines = text.splitlines()
    modes, thetas, pair_phases, pair_linenos, phases = [], [], [], [], None
    for lineno, raw in enumerate(lines, 1):
        tokens = raw.split()
        try:
            if not tokens or tokens[0].startswith("#"):
                continue
            pair = len(tokens) == 7 and tokens[0] == "pair" and tokens[3] == tokens[5] == "/"
            if pair and tokens[1].isdecimal() and tokens[2].isdecimal():
                if int(tokens[2]) != int(tokens[1]) + 1:
                    raise ValueError(f"non-adjacent pair: {raw!r}")
                thetas.append(float(tokens[4]))
                pair_phases.append(float(tokens[6]))
                modes.append(int(tokens[1]))
                pair_linenos.append(lineno)
            elif tokens[0] != "phases":
                raise ValueError(f"not a pair or phase line: {raw!r}")
            elif phases is not None:
                raise ValueError(f"second phase line: {raw!r}")
            elif len(tokens) == 1:
                raise ValueError(f"empty phase line: {raw!r}")
            else:
                phases = np.array([float(tok) for tok in tokens[1:]], dtype=float)
        except ValueError as exc:
            # a number float() cannot read raises here too
            raise ValueError(f"netlist line {lineno}: {exc}") from None
    if phases is None:
        raise ValueError("netlist is missing the trailing phase line")
    for mode, lineno in zip(modes, pair_linenos):
        if mode + 1 >= phases.size:
            where = f"netlist line {lineno}: pair outside the {phases.size} modes"
            raise ValueError(f"{where} of the phase line: {lines[lineno - 1]!r}")
    return RotationMesh(zip(modes, thetas, pair_phases), phases)
