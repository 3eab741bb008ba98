"""Pure Gaussian states of a multimode interferometer, tracked as covariance matrices.

All states here are zero-mean and pure, so a single real symmetric matrix
fully describes them.  Conventions, fixed once for the whole package:

* quadrature ordering is interleaved, ``(x_1, p_1, x_2, p_2, ...)``;
* the vacuum covariance is ``(1/2) * identity`` (hbar = 1);
* the protocol's one probe, :func:`squeezed_probe`, is the vacuum with mode
  0 squeezed; phase ``theta = 0`` stretches the x quadrature, i.e. that
  mode has ``V = diag(exp(2r)/2, exp(-2r)/2)``.

With this normalisation the overlap of two pure states is
``1 / sqrt(det(V1 + V2))``, without any extra prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrology import _LOG_FLOAT_MAX, PhotonMoments, SqueezeParameter, validate_squeeze
from .network import validate_count

# a covariance that went through apply_network is symmetric only to rounding,
# a few ulps of its largest entry; this bound is relative to max|V|
SYMMETRY_TOL = 1e-10
OVERLAP_PURITY_TOL = 1e-6
# a purity defect within OVERLAP_PURITY_TOL still admits a covariance just
# below the vacuum's, whose overlap exceeds 1; an overlap may round above 1 by
# at most this much before it is refused
OVERLAP_EXCESS_TOL = 1e-12
# the covariance engine's mode ceiling, from a 1 GiB budget for its survival probability.  Its
# arrays grow as (2M)^2: in a fresh process, exact_survival_probability raised getrusage's peak
# RSS by 16.4, 56.3 and 209.5 MiB at M = 256, 512 and 1024 (numpy 2.4.6), 52 bytes per entry of
# the (2M, 2M) covariance at M = 1024.  The budget admits M <= 2263; at M = 2048 the same
# extrapolation gives about 840 MiB.  1 GiB keeps a verifier call to a small share of a 7 GB
# CI runner, and the Fock engine's sector route serves any larger M
GAUSSIAN_MAX_MODES = 2048


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Zero-mean pure state of ``modes`` optical modes.

    Attributes:
        covariance: real symmetric ``(2M, 2M)`` array in interleaved
            quadrature ordering, refused unless ``max|V - V^T|`` is at most
            ``SYMMETRY_TOL * max|V|`` (so also when an entry is NaN or inf).
            Stored as a read-only copy, so the caller's array is left as it
            is; operations return new states instead of mutating.

    Instances compare and hash by identity: an array field has no single truth value.
    """

    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "covariance", _checked(np.array(self.covariance, dtype=float)))
        # leading modes whose rows may differ from the vacuum's (every later
        # row is an exact vacuum row); a caller's covariance may occupy any mode
        object.__setattr__(self, "_occupied_modes", self.modes)

    @property
    def modes(self) -> int:
        return self.covariance.shape[0] // 2


def _checked(cov: np.ndarray) -> np.ndarray:
    # GaussianState's checks on a float array it owns, which is then made read-only
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 != 0 or cov.shape[0] == 0:
        raise ValueError(f"covariance must be square with even dimension, got shape {cov.shape}")
    # one scratch array: V - V^T is antisymmetric, so its largest entry
    # is max|V - V^T|; then |V| overwrites it.  One scale-relative
    # comparison, written negated so NaN and inf fail it
    with np.errstate(invalid="ignore", over="ignore"):
        scratch = cov - cov.T
    asymmetry = scratch.max()
    scale = np.abs(cov, out=scratch).max()
    if not asymmetry <= SYMMETRY_TOL * scale:
        raise ValueError(
            f"covariance must be symmetric, got max |V - V^T| = {asymmetry:.3e} "
            f"beyond SYMMETRY_TOL = {SYMMETRY_TOL} times max |V| = {scale:.3e}"
        )
    cov.flags.writeable = False
    return cov


def _adopt(cov: np.ndarray, occupied: int) -> GaussianState:
    # a state around a float array built here and referenced nowhere else:
    # GaussianState's checks, without its copy, and the builder's occupied modes
    state = object.__new__(GaussianState)
    object.__setattr__(state, "covariance", _checked(cov))
    object.__setattr__(state, "_occupied_modes", occupied)
    return state


def _squeeze_block(squeeze: SqueezeParameter) -> np.ndarray:
    # rotate by -theta/2, scale the quadratures, rotate back; the first
    # product has one nonzero term per entry, so it is written out
    c, s = math.cos(squeeze.theta / 2.0), math.sin(squeeze.theta / 2.0)
    stretch, squash = math.exp(squeeze.r), math.exp(-squeeze.r)
    rotated = np.array([[c * stretch, -s * squash], [s * stretch, c * squash]])
    return rotated @ np.array([[c, s], [-s, c]])


def squeezed_probe(modes: int, squeeze: SqueezeParameter) -> GaussianState:
    """The protocol's probe: ``modes``-mode vacuum with mode 0 squeezed by ``squeeze``.

    Every other mode keeps the vacuum covariance ``(1/2) * identity``; at
    ``r = 0`` the probe is the vacuum.

    Raises:
        ValueError: unless ``modes`` is an integer >= 1 and ``squeeze`` a
            :class:`SqueezeParameter`; above ``GAUSSIAN_MAX_MODES``, naming
            ``M`` and the ceiling, before any array is allocated.
    """
    modes = validate_count("modes", modes, 1)
    if modes > GAUSSIAN_MAX_MODES:
        raise ValueError(
            f"modes M = {modes} above GAUSSIAN_MAX_MODES = {GAUSSIAN_MAX_MODES}, the covariance "
            'engine\'s ceiling; exact_survival_probability(..., engine="fock") takes any M'
        )
    block = _squeeze_block(validate_squeeze(squeeze))
    cov = np.zeros((2 * modes, 2 * modes))
    cov.ravel()[:: 2 * modes + 1] = 0.5
    cov[:2, :2] = 0.5 * (block @ block.T)
    return _adopt(cov, 1)  # only mode 0 can differ from the vacuum


# i^t for the x (t = 0) and p (t = 1) row of a mode: row 2j + t of the
# interleaved real form of a complex matrix A is i^t conj(A[j]), read as
# (x, p) pairs
_ROW_PHASES = np.array([[1.0], [1j]])
_HALF_ROW_PHASES = 0.5 * _ROW_PHASES


def apply_network(state: GaussianState, unitary: np.ndarray) -> GaussianState:
    """Send ``state`` through a passive linear network.

    ``unitary`` is the ``(M, M)`` complex mode-mixing matrix; the entry at
    ``(i, j)`` is the transition amplitude from input mode ``j`` to output
    mode ``i``.  Passive networks conserve the total photon number.

    With ``S = R(U)`` the interleaved real form of ``unitary``, the output
    covariance ``S V S^T`` is computed as the image of the vacuum,
    ``R(U U^dag) / 2``, plus ``S (V - I/2) S^T`` over the modes the state's
    builder counts as occupied; the exact vacuum rows after them drop out.
    This holds for any matrix, unitary or not; for the probe only mode 0 is
    occupied, so the cost is one ``M x M`` complex product.

    Raises:
        ValueError: if the matrix dimension does not match the state.
    """
    unitary = np.asarray(unitary, dtype=complex)
    m = state.modes
    if unitary.shape != (m, m):
        raise ValueError(f"network is {unitary.shape}, state has {m} modes")
    ut = unitary.T
    # conj(U U^dag) = conj(U) U^T; its rows times i^t / 2 are R(U U^dag) / 2
    out = ((unitary.conj() @ ut)[:, None] * _HALF_ROW_PHASES).reshape(2 * m, m).view(float)
    occupied = state._occupied_modes
    dev = state.covariance[: 2 * occupied].copy()  # those rows of V - I/2
    diag = dev.ravel()[:: 2 * m + 1]
    diag -= 0.5
    # the rows of S^T = R(U^dag) for those modes are i^t U^T[j]; a real row
    # times S^T is the row read as complex times U^T, read back as (x, p)
    lead = (ut[:occupied, None] * _ROW_PHASES).reshape(-1, m).view(float)
    out += lead.T @ (dev.view(complex) @ ut).view(float)
    return _adopt(out, m)


def photon_moments(state: GaussianState) -> PhotonMoments:
    """Mean and variance of the total photon number of a zero-mean Gaussian state.

    Both are traces of the covariance ``V`` of ``M`` modes (Wick's theorem):
    ``<N> = (tr V - M) / 2`` and ``Var N = (tr V^2 - M/2) / 2``, with
    ``tr V^2`` summed elementwise as ``sum_jk V_jk^2``, so no Fock expansion
    is needed.  On vacuum both fields are exactly zero.

    Raises:
        ValueError: naming the moment, if the mean or the variance is not a
            finite float.  A caller's covariance may hold entries whose squares
            overflow; a probe built from a ``SqueezeParameter`` stays finite.
    """
    cov, m = state.covariance, state.modes
    # an overflow, or inf - inf after one, is refused below by name
    with np.errstate(over="ignore", invalid="ignore"):
        mean_n = float(np.trace(cov) - m) / 2.0
        var_n = float(np.sum(cov * cov) - m / 2.0) / 2.0
    for moment, value in (("mean", mean_n), ("variance", var_n)):
        if not math.isfinite(value):
            raise ValueError(f"photon-number {moment} is not a finite float, got {value}")
    return PhotonMoments(mean_n=mean_n, var_n=max(var_n, 0.0))


def purity_defect(state: GaussianState) -> float:
    """``|det(2V) - 1|``; zero for pure states, ``inf`` where it is not a finite float.

    A Laplace expansion along an exact vacuum row (1/2 on the diagonal, exact
    zeros elsewhere) takes a factor 1/2 out of ``det(V)`` whatever its column
    holds, so the determinant runs over the modes the state's builder counts
    as occupied: the probe's is 2 x 2, and the probe's vacuum reads exactly 0.0.
    """
    n = 2 * state._occupied_modes
    # log det(2V) = log det(V) + n log 2 over the n occupied rows, without a
    # scaled copy of V; the block is symmetric, and its transpose is already in
    # the Fortran order LAPACK's copy-in wants, so that copy is contiguous
    sign, logdet = np.linalg.slogdet(state.covariance[:n, :n].T)
    logdet += n * math.log(2.0)
    if sign <= 0 or logdet > _LOG_FLOAT_MAX:
        return math.inf
    return abs(math.expm1(logdet))


def vacuum_overlap_probability(state: GaussianState, probe: GaussianState) -> float:
    """Probability that ``state`` passes the unsqueeze-then-vacuum check.

    The detection stage undoes the squeezer that prepared ``probe`` and
    projects onto the all-mode vacuum; equivalently it is the squared
    overlap of ``state`` with ``probe``.

    Returns:
        Probability in ``[0, 1]``, computed as ``1/sqrt(det(V1 + V2))``
        via a Cholesky factorisation.

    Raises:
        ValueError: if the two states have different mode counts, naming both;
            if either state is not pure within ``OVERLAP_PURITY_TOL``, naming
            the argument, its purity defect and the bound; if the sum of the
            two covariances is not positive definite, which a pure but
            indefinite covariance allows; or if the overlap exceeds 1 by more
            than ``OVERLAP_EXCESS_TOL``, naming the overlap and the bound.
    """
    if state.modes != probe.modes:
        raise ValueError(f"state has {state.modes} modes, probe has {probe.modes}")
    for name, candidate in (("state", state), ("probe", probe)):
        defect = purity_defect(candidate)
        if defect > OVERLAP_PURITY_TOL:
            raise ValueError(
                f"{name} is not pure (purity defect {defect:.3e}) "
                f"beyond OVERLAP_PURITY_TOL = {OVERLAP_PURITY_TOL}"
            )
    try:
        # the transpose of the symmetric sum, in Fortran order like det above
        chol = np.linalg.cholesky((probe.covariance + state.covariance).T)
    except np.linalg.LinAlgError:
        # purity does not rule it out: det(2V) = 1 also holds for an indefinite V
        raise ValueError("state + probe covariance is not positive definite") from None
    overlap = math.exp(-float(np.log(chol.diagonal()).sum()))
    if overlap > 1.0 + OVERLAP_EXCESS_TOL:
        raise ValueError(
            f"overlap {overlap} exceeds 1 beyond OVERLAP_EXCESS_TOL = {OVERLAP_EXCESS_TOL}"
        )
    return min(overlap, 1.0)
