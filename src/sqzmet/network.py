"""Synthesis and decomposition of the weight-encoding interferometer.

The protocol needs an ``(M, M)`` unitary whose first column is the
elementwise square root of the probability weights; every other column is
free.  ``embed_weights_unitary`` completes the basis with a fixed
Householder reflection so the construction is deterministic, and
``reck_decompose`` factors any unitary into a triangular mesh of rotations
acting on adjacent mode pairs, which is how the matrix would be laid out
as beam splitters and phase shifters.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

UNITARITY_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12


def validate_weights(weights) -> np.ndarray:
    """Return ``weights`` as a float array, checking non-negativity and normalisation.

    Raises:
        ValueError: on negative entries, non-finite values, or a sum away
            from 1 by more than ``WEIGHT_SUM_TOL``.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weights must be a non-empty vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError(f"weights must be non-negative, got {w}")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got sum {total!r}")
    return w


def validate_phases(phases, modes: int) -> np.ndarray:
    """Return ``phases`` as a float array of one finite phase per mode.

    Raises:
        ValueError: if the shape is not ``(modes,)`` or an entry is not finite.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (modes,):
        raise ValueError(f"expected {modes} phases, got shape {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"phases must be finite, got {phases}")
    return phases


def unitarity_defect(matrix: np.ndarray) -> float:
    """Frobenius norm of ``U^dag U - I``."""
    matrix = np.asarray(matrix, dtype=complex)
    return float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(matrix.shape[0])))


def embed_weights_unitary(weights) -> np.ndarray:
    """Deterministic unitary whose first column is ``sqrt(weights)``.

    The matrix is the Householder reflection exchanging ``e_1`` with the
    target column, so it is real, symmetric and orthogonal.  For
    ``weights = (1, 0, ..., 0)`` it is exactly the identity; for all weight
    on channel ``k`` it is the signed reflection swapping channels 1 and
    ``k`` (the mirror-sign convention at those corners is part of the API).

    Returns:
        Complex ``(M, M)`` array with ``U[j, 0] == sqrt(weights[j])``.
    """
    w = validate_weights(weights)
    column = np.sqrt(w)
    rest = float(w[1:].sum())
    if rest == 0.0:
        return np.eye(w.size, dtype=complex)
    # u = e_1 - column, with u[0] computed as rest/(1 + sqrt(w_1)) to avoid
    # cancellation when most of the weight sits on the first channel
    u = -column
    u[0] = rest / (1.0 + column[0])
    norm_sq = u[0] ** 2 + rest
    return np.eye(w.size, dtype=complex) - (2.0 / norm_sq) * np.outer(u, u)


def mach_zehnder_unitary(w1: float) -> np.ndarray:
    """Two-channel beamsplitter with reflectivity ``w1`` and transmittivity ``1 - w1``.

    Raises:
        ValueError: if ``w1`` is outside ``[0, 1]``.
    """
    if not 0.0 <= w1 <= 1.0:
        raise ValueError(f"reflectivity must lie in [0, 1], got {w1}")
    a = math.sqrt(w1)
    b = math.sqrt(1.0 - w1)
    return np.array([[a, b], [b, -a]], dtype=complex)


class MeshElement(NamedTuple):
    """One two-mode rotation acting on the adjacent pair ``(mode, mode + 1)``."""

    mode: int
    theta: float
    phase: float


@dataclass(frozen=True)
class RotationMesh:
    """Ordered rotations plus a trailing diagonal phase layer.

    ``recompose`` multiplies the element blocks in listed order and then the
    phase diagonal, reproducing the decomposed unitary.
    """

    elements: tuple[MeshElement, ...]
    output_phases: np.ndarray

    def __post_init__(self):
        phases = np.array(self.output_phases, dtype=float)
        phases.flags.writeable = False
        object.__setattr__(self, "output_phases", phases)
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def dim(self) -> int:
        return self.output_phases.size


def _element_block(element: MeshElement) -> np.ndarray:
    c, s = math.cos(element.theta), math.sin(element.theta)
    ph = complex(math.cos(element.phase), math.sin(element.phase))
    return np.array([[c, -ph * s], [s / ph, c]])


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
        ValueError: if the input is not square or not unitary within
            ``UNITARITY_TOL``.
    """
    work = np.array(unitary, dtype=complex)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {work.shape}")
    defect = unitarity_defect(work)
    if defect > UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {UNITARITY_TOL})")
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
            c, s = math.cos(theta), math.sin(theta)
            ph = complex(math.cos(phase), math.sin(phase))
            givens = np.array([[c, -ph * s], [s / ph, c]])
            work[row - 1:row + 1, :] = givens @ work[row - 1:row + 1, :]
            work[row, col] = 0.0
            # the stored element is the inverse rotation, same family with
            # the mixing angle negated
            elements.append(MeshElement(row - 1, -theta, _wrap_phase(phase)))
    return RotationMesh(tuple(elements), np.angle(np.diag(work)))


def recompose(mesh: RotationMesh) -> np.ndarray:
    """Multiply a mesh back into a dense unitary."""
    result = np.diag(np.exp(1j * mesh.output_phases))
    for element in reversed(mesh.elements):
        i = element.mode
        result[i:i + 2, :] = _element_block(element) @ result[i:i + 2, :]
    return result


def mesh_to_netlist(mesh: RotationMesh) -> str:
    """Render a mesh as plain text, one element per line plus a phase line.

    Element lines read ``pair i j / angle / phase``; the trailing line lists
    the diagonal phases.  Numbers use shortest round-trip notation so the
    file parses back bit-exactly.
    """
    lines = [
        f"pair {el.mode} {el.mode + 1} / {float(el.theta)!r} / {float(el.phase)!r}"
        for el in mesh.elements
    ]
    lines.append("phases " + " ".join(repr(float(p)) for p in mesh.output_phases))
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> RotationMesh:
    """Inverse of :func:`mesh_to_netlist`.

    Raises:
        ValueError: on malformed lines or a missing phase layer.
    """
    elements = []
    phases = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("phases"):
            phases = np.array([float(tok) for tok in line.split()[1:]], dtype=float)
            continue
        match = re.fullmatch(
            r"pair\s+(\d+)\s+(\d+)\s*/\s*(\S+)\s*/\s*(\S+)", line
        )
        if match is None:
            raise ValueError(f"bad netlist line: {raw!r}")
        i, j = int(match.group(1)), int(match.group(2))
        if j != i + 1:
            raise ValueError(f"non-adjacent pair in netlist line: {raw!r}")
        elements.append(MeshElement(i, float(match.group(3)), float(match.group(4))))
    if phases is None:
        raise ValueError("netlist is missing the trailing phase line")
    return RotationMesh(tuple(elements), phases)
