"""Pure Gaussian states of a multimode interferometer, tracked as covariance matrices.

All states here are zero-mean and pure, so a single real symmetric matrix
fully describes them.  Conventions, fixed once for the whole package:

* quadrature ordering is interleaved, ``(x_1, p_1, x_2, p_2, ...)``;
* the vacuum covariance is ``(1/2) * identity`` (hbar = 1);
* ``apply_squeeze`` with phase ``theta = 0`` stretches the x quadrature,
  i.e. the squeezed vacuum has ``V = diag(exp(2r)/2, exp(-2r)/2)``.

With this normalisation the overlap of two pure states is
``1 / sqrt(det(V1 + V2))``, without any extra prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import validate_phases

OVERLAP_PURITY_TOL = 1e-6


@dataclass(frozen=True)
class SqueezeParameter:
    """Magnitude ``r >= 0`` and phase ``theta`` of a single-mode squeezer.

    The phase is normalised into ``[0, 2*pi)`` on construction.  The mean
    photon number of the squeezed vacuum it prepares is ``sinh(r)**2``.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"squeezing magnitude must be finite and >= 0, got {self.r}")
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * math.pi))

    @property
    def mean_photon_number(self) -> float:
        return math.sinh(self.r) ** 2


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean pure state of ``modes`` optical modes.

    Attributes:
        covariance: real symmetric ``(2M, 2M)`` array in interleaved
            quadrature ordering.  Stored read-only; operations return new
            states instead of mutating.
    """

    covariance: np.ndarray

    def __post_init__(self):
        cov = np.array(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 != 0 or cov.shape[0] == 0:
            raise ValueError(f"covariance must be square with even dimension, got shape {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        cov.flags.writeable = False
        object.__setattr__(self, "covariance", cov)

    @property
    def modes(self) -> int:
        return self.covariance.shape[0] // 2


@dataclass(frozen=True)
class PhotonMoments:
    """First two moments of the total photon number."""

    mean_n: float
    mean_n_sq: float
    var_n: float


def vacuum_state(modes: int) -> GaussianState:
    """Vacuum of ``modes`` modes, covariance ``(1/2) * identity``."""
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    return GaussianState(0.5 * np.eye(2 * modes))


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _squeeze_block(squeeze: SqueezeParameter) -> np.ndarray:
    # rotate by -theta/2, scale the quadratures, rotate back
    scale = np.diag([math.exp(squeeze.r), math.exp(-squeeze.r)])
    return _rotation(squeeze.theta / 2.0) @ scale @ _rotation(-squeeze.theta / 2.0)


def _conjugate(state: GaussianState, sympl: np.ndarray) -> GaussianState:
    return GaussianState(sympl @ state.covariance @ sympl.T)


def apply_squeeze(state: GaussianState, mode: int, squeeze: SqueezeParameter) -> GaussianState:
    """Squeeze a single mode of ``state``.

    Args:
        state: input pure state.
        mode: zero-based mode index.
        squeeze: magnitude and phase of the squeezer.

    Returns:
        New state with the squeezing symplectic applied to ``mode``.

    Raises:
        IndexError: if ``mode`` is out of range.
    """
    if not 0 <= mode < state.modes:
        raise IndexError(f"mode {mode} out of range for {state.modes} modes")
    sympl = np.eye(2 * state.modes)
    sympl[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = _squeeze_block(squeeze)
    return _conjugate(state, sympl)


def apply_network(state: GaussianState, unitary: np.ndarray) -> GaussianState:
    """Send ``state`` through a passive linear network.

    ``unitary`` is the ``(M, M)`` complex mode-mixing matrix; the entry at
    ``(i, j)`` is the transition amplitude from input mode ``j`` to output
    mode ``i``.  Passive networks conserve the total photon number.

    Raises:
        ValueError: if the matrix dimension does not match the state.
    """
    unitary = np.asarray(unitary, dtype=complex)
    m = state.modes
    if unitary.shape != (m, m):
        raise ValueError(f"network is {unitary.shape}, state has {m} modes")
    sympl = np.zeros((2 * m, 2 * m))
    sympl[0::2, 0::2] = unitary.real
    sympl[0::2, 1::2] = -unitary.imag
    sympl[1::2, 0::2] = unitary.imag
    sympl[1::2, 1::2] = unitary.real
    return _conjugate(state, sympl)


def apply_phases(state: GaussianState, phases) -> GaussianState:
    """Apply an independent phase shift to every mode.

    The shift ``exp(-i phi_j n_j)`` is the diagonal passive network
    ``diag(exp(-i phi))``.

    Raises:
        ValueError: if ``phases`` does not have one entry per mode or any
            entry is not finite.
    """
    phases = validate_phases(phases, state.modes)
    return apply_network(state, np.diag(np.exp(-1j * phases)))


def _ladder_covariances(state: GaussianState) -> tuple[np.ndarray, np.ndarray]:
    # second moments in ladder-operator form: alpha[j,k] = <adag_j a_k>,
    # beta[j,k] = <a_j a_k>, both derived from the symmetric covariance
    cov = state.covariance
    m = state.modes
    vxx = cov[0::2, 0::2]
    vpp = cov[1::2, 1::2]
    vxp = cov[0::2, 1::2]
    vpx = cov[1::2, 0::2]
    alpha = 0.5 * (vxx + vpp - np.eye(m)) + 0.5j * (vxp - vpx)
    beta = 0.5 * (vxx - vpp) + 0.5j * (vxp + vpx)
    return alpha, beta


def photon_moments(state: GaussianState) -> PhotonMoments:
    """First two moments of the total photon number of a pure zero-mean state.

    The second moment follows from Wick contractions of the ladder-operator
    covariances, so no Fock expansion is needed.  On vacuum all three fields
    are exactly zero.
    """
    alpha, beta = _ladder_covariances(state)
    mean_n = float(np.trace(alpha).real)
    var_n = float(np.sum(np.abs(beta) ** 2) + np.sum(np.abs(alpha) ** 2) + mean_n)
    var_n = max(var_n, 0.0)
    return PhotonMoments(mean_n=mean_n, mean_n_sq=var_n + mean_n ** 2, var_n=var_n)


def purity_defect(state: GaussianState) -> float:
    """``|det(2V) - 1|``; zero for pure states."""
    sign, logdet = np.linalg.slogdet(2.0 * state.covariance)
    if sign <= 0:
        return math.inf
    return abs(math.expm1(logdet))


def vacuum_overlap_probability(state: GaussianState, squeeze: SqueezeParameter) -> float:
    """Probability that ``state`` passes the unsqueeze-then-vacuum check.

    The detection stage undoes the input squeezer on mode 0 and projects
    onto the all-mode vacuum; equivalently it is the squared overlap of
    ``state`` with the squeezed-vacuum reference prepared by ``squeeze``.
    The caller must hand in the same parameter that prepared the probe.

    Returns:
        Probability in ``[0, 1]``, computed as ``1/sqrt(det(V1 + V2))``
        via a Cholesky factorisation.

    Raises:
        ValueError: if the state is not pure within ``OVERLAP_PURITY_TOL``.
    """
    defect = purity_defect(state)
    if defect > OVERLAP_PURITY_TOL:
        raise ValueError(f"state is not pure (purity defect {defect:.3e})")
    reference = apply_squeeze(vacuum_state(state.modes), 0, squeeze)
    chol = np.linalg.cholesky(reference.covariance + state.covariance)
    overlap = math.exp(-float(np.sum(np.log(np.diag(chol)))))
    if overlap > 1.0 + 1e-12:
        raise ValueError(f"overlap {overlap} exceeds 1 beyond tolerance")
    return min(overlap, 1.0)
