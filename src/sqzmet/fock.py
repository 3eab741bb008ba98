"""Exact occupation-basis oracle for the squeezed-probe interferometer.

Because the probe populates only the first input mode and phase shifts are
diagonal in the occupation basis, everything the protocol measures reduces
to sums over the photon-number distribution after the network.  This module
provides two interchangeable evaluation routes:

* an explicit truncated amplitude table (`FockAmplitudes`), built by
  propagating the single-mode amplitudes through the network one
  occupation tuple at a time, used for moderate cutoffs and as the ground
  truth for the per-sector bookkeeping; and
* per-sector resummation (`survival_probability_sectors`,
  `generator_moments_sectors`), which evaluates the same diagonal sums by
  collapsing each fixed-photon-number sector with exact combinatorics.
  This route costs nothing extra at large cutoffs, where the explicit
  table would need hundreds of millions of entries.

Both routes are cross-checked against each other in the test suite, and
independently against the covariance-matrix engine in
:mod:`sqzmet.gaussian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from . import network
from .gaussian import PhotonMoments, SqueezeParameter

MAX_SERIES_ORDER = 8


class TruncationError(ValueError):
    """Raised when a table's missing probability weight exceeds the allowed tail."""


def squeezed_vacuum_amplitudes(squeeze: SqueezeParameter, cutoff: int) -> np.ndarray:
    """Even-sector amplitudes of the single-mode squeezed vacuum.

    Entry ``n`` of the result is the amplitude of the ``2n``-photon
    component; odd photon numbers never appear.  Amplitudes follow the
    ratio recurrence of the closed form
    ``c_{2n} = cosh(r)^{-1/2} (-e^{i theta} tanh r)^n sqrt((2n)!) / (2^n n!)``
    so no factorial overflows occur.

    Args:
        squeeze: probe squeezer.
        cutoff: largest total photon number kept, even and >= 0.

    Raises:
        ValueError: if ``cutoff`` is negative or odd.
    """
    if cutoff < 0 or cutoff % 2 != 0:
        raise ValueError(f"cutoff must be even and >= 0, got {cutoff}")
    n_terms = cutoff // 2 + 1
    amps = np.zeros(n_terms, dtype=complex)
    amps[0] = 1.0 / math.sqrt(math.cosh(squeeze.r))
    step = -np.exp(1j * squeeze.theta) * math.tanh(squeeze.r)
    for n in range(n_terms - 1):
        amps[n + 1] = amps[n] * step * math.sqrt((2 * n + 1) / (2 * n + 2))
    return amps


def recommend_cutoff(
    squeeze: SqueezeParameter,
    tail_bound: float = 1e-10,
    moment_power: int = 0,
) -> int:
    """Smallest even cutoff whose certified tail is below ``tail_bound``.

    The plain tail is the probability weight above the cutoff; with
    ``moment_power = p`` the tail is weighted by ``(total photons)**p``,
    which certifies truncated photon-number moments up to order ``p``.
    Certification uses a geometric bound on the remainder of the
    single-mode series, so the result is conservative.
    """
    if tail_bound <= 0:
        raise ValueError("tail_bound must be positive")
    if squeeze.r == 0.0:
        return 0
    t2 = math.tanh(squeeze.r) ** 2
    prob = 1.0 / math.cosh(squeeze.r)
    for n in range(200_000):
        nxt = prob * t2 * (2 * n + 1) / (2 * n + 2)
        nxt_weighted = nxt * (2 * (n + 1)) ** moment_power
        # every later term ratio is below t2 * (1 + 1/m)^p at m = n + 1
        ratio_bound = t2 * (1.0 + 1.0 / (n + 1)) ** moment_power
        if ratio_bound < 1.0 and nxt_weighted / (1.0 - ratio_bound) < tail_bound:
            return 2 * n
        prob = nxt
    raise ValueError(
        f"no cutoff below 400000 photons certifies tail {tail_bound} at "
        f"r = {squeeze.r} (nbar = {squeeze.mean_photon_number:.4g})"
    )


@dataclass(frozen=True)
class FockAmplitudes:
    """Truncated multimode amplitude table, sparse over even photon sectors.

    Attributes:
        modes: number of optical modes.
        cutoff: largest total photon number materialised.
        occupations: ``(N, modes)`` integer array of occupation tuples.
        amplitudes: ``(N,)`` complex amplitudes, same row order.
        tail: probability weight missing above the cutoff.
    """

    modes: int
    cutoff: int
    occupations: np.ndarray
    amplitudes: np.ndarray
    tail: float

    def __post_init__(self):
        occ = np.asarray(self.occupations)
        amp = np.asarray(self.amplitudes)
        occ.flags.writeable = False
        amp.flags.writeable = False
        object.__setattr__(self, "occupations", occ)
        object.__setattr__(self, "amplitudes", amp)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def sector_totals(self) -> np.ndarray:
        return self.occupations.sum(axis=1)

    def amplitude(self, occupation) -> complex:
        """Amplitude of one occupation tuple (0 if absent from the table)."""
        occupation = np.asarray(occupation, dtype=int)
        hits = np.nonzero((self.occupations == occupation).all(axis=1))[0]
        return complex(self.amplitudes[hits[0]]) if hits.size else 0.0 + 0.0j


def propagate_through_network(amplitudes: np.ndarray, unitary: np.ndarray) -> FockAmplitudes:
    """Distribute single-mode amplitudes over the network's output modes.

    Only the first column of ``unitary`` matters, because only input mode 0
    is populated: the ``2n``-photon component maps onto every occupation
    tuple of total ``2n`` with the multinomial square-root weight times the
    product of first-column entries raised to the occupations.

    Args:
        amplitudes: output of :func:`squeezed_vacuum_amplitudes`.
        unitary: ``(M, M)`` network matrix; its first column must have unit
            norm within ``network.WEIGHT_SUM_TOL`` (its squared moduli are
            the weights).

    Raises:
        ValueError: on dimension problems or a non-normalised first column.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.ndim != 2 or unitary.shape[0] != unitary.shape[1]:
        raise ValueError(f"network must be square, got shape {unitary.shape}")
    column = unitary[:, 0]
    norm = float(np.sum(np.abs(column) ** 2))
    if abs(norm - 1.0) > network.WEIGHT_SUM_TOL:
        raise ValueError(f"first column norm {norm!r} is not 1 within {network.WEIGHT_SUM_TOL}")
    modes = unitary.shape[0]
    cutoff = 2 * (len(amplitudes) - 1)

    lgamma = [math.lgamma(k + 1) for k in range(cutoff + 1)]
    occ_rows = []
    amp_rows = []
    for half in range(cutoff // 2 + 1):
        total = 2 * half
        for combo in combinations_with_replacement(range(modes), total):
            occ = np.bincount(combo, minlength=modes)
            root_multinomial = math.exp(
                0.5 * (lgamma[total] - sum(lgamma[k] for k in occ))
            )
            occ_rows.append(occ)
            amp_rows.append(amplitudes[half] * root_multinomial * np.prod(column ** occ))
    occupations = np.array(occ_rows, dtype=np.int64)
    amps = np.array(amp_rows, dtype=complex)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    return FockAmplitudes(modes, cutoff, occupations, amps, tail)


def survival_probability(state: FockAmplitudes, phases, max_tail: float = 1e-6) -> float:
    """Probability that the probe leaves the interferometer unchanged.

    Phase shifts are diagonal here, so this is the squared modulus of the
    probability-weighted sum of ``exp(-i n . phi)`` over the table.

    Raises:
        TruncationError: if the table's missing weight exceeds ``max_tail``.
    """
    phases = network.validate_phases(phases, state.modes)
    if state.tail > max_tail:
        raise TruncationError(f"table tail {state.tail:.3e} exceeds {max_tail:.3e}")
    value = abs(np.sum(state.probabilities() * np.exp(-1j * (state.occupations @ phases)))) ** 2
    return min(float(value), 1.0)


class SurvivalSeries(NamedTuple):
    """Moments of the phase-shift generator and the survival-series terms built from them.

    ``moments[k]`` is the k-th moment of ``n . phi`` over the post-network
    photon-number distribution; ``terms[l]`` is the l-th expansion term of
    the survival probability, which vanishes for odd ``l`` and equals twice
    the generator variance at ``l = 2``.
    """

    moments: np.ndarray
    terms: np.ndarray


def _series_terms(moments: np.ndarray) -> np.ndarray:
    order = len(moments) - 1
    terms = np.zeros(order + 1)
    for ell in range(order + 1):
        terms[ell] = sum(
            (-1) ** k * math.comb(ell, k) * moments[ell - k] * moments[k]
            for k in range(ell + 1)
        )
    return terms


def series_partial_sum(terms: np.ndarray, max_term: int) -> float:
    """Alternating partial sum of the survival series through term ``max_term``."""
    total = 0.0
    for ell in range(0, min(max_term, len(terms) - 1) + 1, 2):
        total += (-1) ** (ell // 2) * terms[ell] / math.factorial(ell)
    return total


def generator_moments(state: FockAmplitudes, phases, max_order: int = 6) -> SurvivalSeries:
    """Diagonal moments ``<(n . phi)^k>`` over the table, for k up to ``max_order``.

    Raises:
        ValueError: if ``max_order`` exceeds ``MAX_SERIES_ORDER`` (the series
            terms lose accuracy to cancellation beyond that).
    """
    if not 0 <= max_order <= MAX_SERIES_ORDER:
        raise ValueError(f"max_order must be in [0, {MAX_SERIES_ORDER}], got {max_order}")
    phases = network.validate_phases(phases, state.modes)
    weighted = state.occupations @ phases
    probs = state.probabilities()
    moments = np.array(
        [float(np.sum(probs * weighted ** k)) for k in range(max_order + 1)]
    )
    return SurvivalSeries(moments, _series_terms(moments))


def photon_moments_fock(state: FockAmplitudes) -> PhotonMoments:
    """Total-photon-number moments summed over the table (truncation included)."""
    totals = state.sector_totals().astype(float)
    probs = state.probabilities()
    mean_n = float(np.sum(probs * totals))
    mean_sq = float(np.sum(probs * totals ** 2))
    return PhotonMoments(mean_n, mean_sq, max(mean_sq - mean_n ** 2, 0.0))


# ---------------------------------------------------------------------------
# per-sector resummation
# ---------------------------------------------------------------------------

def survival_probability_sectors(amplitudes: np.ndarray, weights, phases) -> float:
    """Survival probability from per-sector resummation.

    Within the ``t``-photon sector the occupations are multinomial over the
    first-column weights, so the sector sum of ``exp(-i n . phi)`` collapses
    to ``(sum_j w_j exp(-i phi_j))**t``.  Same value as the table route, at
    any cutoff.

    Args:
        amplitudes: single-mode amplitudes from :func:`squeezed_vacuum_amplitudes`.
        weights: squared magnitudes of the network's first column.
        phases: one phase per mode.
    """
    w = network.validate_weights(weights)
    phases = network.validate_phases(phases, w.size)
    probs = np.abs(np.asarray(amplitudes)) ** 2
    mixer = complex(np.sum(w * np.exp(-1j * phases)))
    value = abs(np.sum(probs * mixer ** (2 * np.arange(len(probs))))) ** 2
    return min(float(value), 1.0)


def _multinomial_weighted_moments(
    weights: np.ndarray, phases: np.ndarray, totals: np.ndarray, max_order: int
) -> np.ndarray:
    """``E[(n . phi)^k]`` for multinomial occupations, one column per entry of ``totals``.

    Uses the power-series recurrence for ``A(s)**t`` where
    ``A(s) = sum_j w_j exp(s phi_j)``; exact up to rounding, no truncation.
    """
    alpha = np.array(
        [float(np.sum(weights * phases ** m)) / math.factorial(m) for m in range(max_order + 1)]
    )
    coeffs = np.zeros((max_order + 1, len(totals)))
    coeffs[0] = 1.0
    for m in range(1, max_order + 1):
        acc = np.zeros(len(totals))
        for i in range(1, m + 1):
            acc += (i * totals - (m - i)) * alpha[i] * coeffs[m - i]
        coeffs[m] = acc / m
    factorials = np.array([math.factorial(k) for k in range(max_order + 1)])
    return coeffs * factorials[:, None]


def generator_moments_sectors(
    amplitudes: np.ndarray, weights, phases, max_order: int = 6
) -> SurvivalSeries:
    """Same moments as :func:`generator_moments`, via per-sector resummation."""
    if not 0 <= max_order <= MAX_SERIES_ORDER:
        raise ValueError(f"max_order must be in [0, {MAX_SERIES_ORDER}], got {max_order}")
    w = network.validate_weights(weights)
    phases = network.validate_phases(phases, w.size)
    probs = np.abs(np.asarray(amplitudes)) ** 2
    totals = 2.0 * np.arange(len(probs))
    per_sector = _multinomial_weighted_moments(w, phases, totals, max_order)
    moments = per_sector @ probs
    return SurvivalSeries(moments, _series_terms(moments))


# ---------------------------------------------------------------------------
# truncated two-mode operators and the Mach-Zehnder factorisation check
# ---------------------------------------------------------------------------

class TwoModeSectorOperators(NamedTuple):
    """Hermitian generators on one fixed-photon-number sector of two modes.

    The sector with ``total`` photons has basis ``|k, total - k>``; all three
    operators conserve the total, so truncation introduces no edge effects.
    """

    total: int
    jx: np.ndarray
    jy: np.ndarray
    n_first: np.ndarray


def two_mode_sector_operators(total: int) -> TwoModeSectorOperators:
    """Build the mixing generators on the ``total``-photon sector."""
    k = np.arange(total + 1)
    raising = np.zeros((total + 1, total + 1), dtype=complex)
    if total > 0:
        amp = np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
        raising[np.arange(1, total + 1), np.arange(total)] = amp
    jx = (raising + raising.conj().T) / 2.0
    jy = (raising - raising.conj().T) / 2.0j
    return TwoModeSectorOperators(total, jx, jy, k.astype(float))


def _expi_hermitian(matrix: np.ndarray, scale: float) -> np.ndarray:
    """``exp(1j * scale * H)`` for Hermitian ``H`` via eigendecomposition."""
    values, vectors = np.linalg.eigh(matrix)
    return (vectors * np.exp(1j * scale * values)) @ vectors.conj().T


def mach_zehnder_factorization_residual(
    phi1: float, phi2: float, cutoff: int, max_total: int | None = None
) -> float:
    """Operator-norm gap between the composed and the factorised balanced interferometer.

    The composed side is beamsplitter, per-arm phases, inverse beamsplitter,
    with the symmetric 50:50 splitter ``exp(-i (pi/2) Jx)``.  The factorised
    side is a mixing rotation by the phase difference times a global phase
    generated by the total photon number:
    ``exp(i (phi1 - phi2) Jy) . exp(-i (phi1 + phi2) N / 2)``.
    Both sides are built sector by sector, so the residual is pure rounding.

    Args:
        phi1, phi2: arm phases.
        cutoff: largest total photon number considered.
        max_total: optionally restrict the residual to sectors up to this
            total (defaults to ``cutoff``).
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    top = cutoff if max_total is None else min(max_total, cutoff)
    worst = 0.0
    for total in range(top + 1):
        ops = two_mode_sector_operators(total)
        splitter = _expi_hermitian(ops.jx, -math.pi / 2.0)
        diag_phase = np.exp(-1j * (phi1 * ops.n_first + phi2 * (total - ops.n_first)))
        composed = (splitter * diag_phase[None, :]) @ splitter.conj().T
        factorised = _expi_hermitian(ops.jy, phi1 - phi2) * np.exp(
            -0.5j * (phi1 + phi2) * total
        )
        worst = max(worst, float(np.linalg.norm(composed - factorised, 2)))
    return worst
