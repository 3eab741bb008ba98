"""Exact occupation-basis oracle for the squeezed-probe interferometer.

Because the probe populates only the first input mode and phase shifts are
diagonal in the occupation basis, everything the protocol measures reduces
to sums over the photon-number distribution after the network: the
multinomial image of the squeezer's even-photon probability ladder
(:func:`squeezed_vacuum_probabilities`).  This module provides two
interchangeable evaluation routes, which take the same arguments (the
weights, the phases, the squeezer and a cutoff) and build that ladder
themselves:

* an explicit truncated table of occupation probabilities
  (`survival_probability`), which the route builds from the ladder and the
  weights as whole arrays (every occupation tuple of every even sector at
  once, refused past `MAX_TABLE_ROWS` rows), used for moderate cutoffs and
  as the ground truth for the per-sector bookkeeping; and
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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import network
from .metrology import SqueezeParameter, validate_squeeze

MAX_SERIES_ORDER = 8
# largest missing weight a table may have for :func:`survival_probability`
MAX_TABLE_TAIL = 1e-6
# largest cutoff of any ladder: 200001 probabilities (1.6 MB), enough to certify a 1e-12 tail at r = 5
MAX_CUTOFF = 400_000
# largest occupation table survival_probability builds.  Its peak memory is
# 20 to 35 bytes per row and mode: 160 MiB at two modes (cutoff 2894, which
# takes about 0.3 s), 460 MiB at twelve
MAX_TABLE_ROWS = 2 ** 21
# largest cutoff mach_zehnder_factorization_residual accepts.  Its cache holds
# one entry per sector, shared by every cutoff: two complex (t + 1) x (t + 1)
# matrices and t + 1 eigenvalues, about 0.4 MB for all 33 sectors at this bound;
# a call costs about (cutoff + 1)^4 / 4 products per phase pair.  The checks
# use cutoffs 10 and 12, and the bound stays where callers and tests rely on it
MAX_MZ_CUTOFF = 32

_ORDERS = np.arange(MAX_SERIES_ORDER + 1)
_FACTORIALS = np.array([float(math.factorial(k)) for k in _ORDERS])
# _SIGNED_BINOMIAL[l, k] = (-1)^k C(l, k), zero above the diagonal; _LAG[l, k] = l - k there
_SIGNED_BINOMIAL = np.array(
    [[(-1) ** k * math.comb(ell, k) for k in _ORDERS] for ell in _ORDERS], dtype=float
)
_LAG = np.subtract.outer(_ORDERS, _ORDERS).clip(0)


class TruncationError(ValueError):
    """Raised when a table's tail ``1 - sum p`` is not a number within ``MAX_TABLE_TAIL`` of 0."""


def squeezed_vacuum_probabilities(squeeze: SqueezeParameter, cutoff: int) -> np.ndarray:
    """Even-sector photon-number probabilities of the single-mode squeezed vacuum.

    Entry ``n`` of the result is the probability of the ``2n``-photon
    component; odd photon numbers never appear, and the squeezing phase
    does not enter.  One running product, ``p_0 = 1 / cosh r`` and
    ``p_{n+1} = p_n tanh(r)^2 (2n + 1) / (2n + 2)``, so no factorial
    overflows.  :func:`recommend_cutoff` reads its cutoff off this array.

    Args:
        squeeze: probe squeezer.
        cutoff: largest total photon number kept, even and in ``[0, MAX_CUTOFF]``.

    Raises:
        ValueError: unless ``squeeze`` is a :class:`SqueezeParameter` and
            ``cutoff`` an even integer in ``[0, MAX_CUTOFF]``.
    """
    squeeze = validate_squeeze(squeeze)
    cutoff = network.validate_count("cutoff", cutoff, 0)
    if cutoff % 2 != 0 or cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff must be even and at most MAX_CUTOFF = {MAX_CUTOFF}, got {cutoff}")
    n = np.arange(cutoff // 2)
    ratios = math.tanh(squeeze.r) ** 2 * (2 * n + 1) / (2 * n + 2)
    return np.cumprod(np.concatenate(([1.0 / math.cosh(squeeze.r)], ratios)))


def recommend_cutoff(
    squeeze: SqueezeParameter,
    tail_bound: float,
    moment_power: int = 0,
) -> int:
    """Smallest even cutoff whose certified tail is below ``tail_bound``.

    The plain tail is the probability weight above the cutoff; with
    ``moment_power = p`` the tail is weighted by ``(total photons)**p``,
    which certifies truncated photon-number moments up to order ``p``.
    Certification uses a geometric bound on the remainder of the
    single-mode series, so the result is conservative.  It is read off the
    ladder :func:`squeezed_vacuum_probabilities` returns, built at windows
    of cutoffs four times longer each pass, so the certified tail is the
    tail of the very array the routes sum.  Most squeezers certify inside
    the first window; r = 5 reads 244,000 entries, about 8 ms of CPU.

    Raises:
        ValueError: unless ``squeeze`` is a :class:`SqueezeParameter`,
            ``tail_bound`` a real number > 0 and
            ``moment_power`` an integer in ``[0, MAX_SERIES_ORDER]``; or if
            no cutoff below ``MAX_CUTOFF`` photons certifies the tail.
    """
    squeeze = validate_squeeze(squeeze)
    tail_bound = network.validate_real("tail_bound", tail_bound, math.ulp(0.0))
    moment_power = network.validate_count("moment_power", moment_power, 0, MAX_SERIES_ORDER)
    t2 = math.tanh(squeeze.r) ** 2
    for window in (256, 1024, 4096, 16384, 65536, MAX_CUTOFF):
        probs = squeezed_vacuum_probabilities(squeeze, window)
        m = np.arange(1.0, len(probs))
        # past entry m every term ratio of the weighted tail is below t2 (1 + 1/m)^p
        ratio_bound = t2 * (1.0 + 1.0 / m) ** moment_power
        # where t2 rounds to 1, 1 - ratio_bound is 0; the mask drops those entries
        with np.errstate(divide="ignore", invalid="ignore"):
            remainder = probs[1:] * (2.0 * m) ** moment_power / (1.0 - ratio_bound)
        certified = (ratio_bound < 1.0) & (remainder < tail_bound)
        if certified.any():
            # entry m is the first one left out, so the cutoff is 2 (m - 1)
            return 2 * int(np.argmax(certified))
    raise ValueError(
        f"no cutoff below MAX_CUTOFF = {MAX_CUTOFF} photons certifies tail {tail_bound} at "
        f"r = {squeeze.r} (nbar = {squeeze.mean_photon_number:.4g})"
    )


def _occupation_rows(modes: int, totals: np.ndarray) -> np.ndarray:
    """Every occupation tuple of each total, sector after sector.

    Within a sector the rows come in ``itertools.combinations_with_replacement``
    order (descending first-mode count, then descending second, ...): each
    pass splits every row's remaining photons over the next mode, largest
    share first, and the last mode takes what is left.  No pass has more
    rows than the next, so one that counts past ``MAX_TABLE_ROWS`` refuses
    the table with a ``ValueError`` before it allocates.
    """
    occupations = np.zeros((len(totals), 0), dtype=np.int64)
    left = np.asarray(totals, dtype=np.int64)
    for _ in range(modes - 1):
        counts = left + 1
        if counts.sum() > MAX_TABLE_ROWS:
            raise ValueError(
                f"cutoff {totals[-1]} at {modes} modes of nonzero weight needs more than "
                f"MAX_TABLE_ROWS = {MAX_TABLE_ROWS} table rows"
            )
        parent = np.repeat(np.arange(len(left)), counts)
        kept = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        occupations = np.column_stack([occupations[parent], left[parent] - kept])
        left = kept
    return np.column_stack([occupations, left])


def _probability_table(ladder_probs: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(K, M)`` occupations of every even sector and their ``(K,)`` probabilities.

    Only input mode 0 is populated, so the ladder's ``t``-photon probability
    spreads multinomially over the weights (positive, and already checked):
    ``p[n] = ladder_probs[t/2] exp(lgamma(t+1) - sum_j lgamma(n_j+1) + n . log w)``.
    The exponent is a log-probability, at most 0 up to rounding, so no factor
    overflows at any cutoff.  A table of more than ``MAX_TABLE_ROWS`` rows is
    refused while :func:`_occupation_rows` counts it, before it is allocated.
    """
    cutoff = 2 * (len(ladder_probs) - 1)
    occupations = _occupation_rows(weights.size, np.arange(0, cutoff + 1, 2))
    lgamma = np.array([math.lgamma(k + 1) for k in range(cutoff + 1)])
    totals = occupations.sum(axis=1)
    log_multinomial = lgamma[totals] - lgamma[occupations].sum(axis=1)
    probs = ladder_probs[totals // 2] * np.exp(log_multinomial + occupations @ np.log(weights))
    return occupations, probs


def survival_probability(weights, phases, squeeze: SqueezeParameter, cutoff: int) -> float:
    """Survival probability from the explicit occupation table.

    The table holds the probability of every occupation up to ``cutoff``
    (:func:`_probability_table`), over the modes of nonzero weight; a mode of
    weight 0 holds no photons.  Phase shifts are diagonal there, so this is
    the squared modulus of the probability-weighted sum of
    ``exp(-i n . phi)`` over the table.  Same arguments as
    :func:`survival_probability_sectors`.

    Raises:
        ValueError: on weights, phases, squeeze or cutoff refused by their
            validators, in that order; or if the table would have more than
            ``MAX_TABLE_ROWS`` rows.
        TruncationError: unless the table's tail ``1 - sum p`` lies within
            ``MAX_TABLE_TAIL`` of 0, which a cutoff too small for the
            squeezer fails.
    """
    w = network.validate_weights(weights)
    phases = network.validate_phases(phases, w.size)
    kept = w > 0
    occupations, probs = _probability_table(squeezed_vacuum_probabilities(squeeze, cutoff), w[kept])
    tail = 1.0 - float(np.sum(probs))
    if not abs(tail) <= MAX_TABLE_TAIL:
        raise TruncationError(f"table tail {tail:.3e} beyond +-MAX_TABLE_TAIL = {MAX_TABLE_TAIL:.3e}")
    value = abs(np.sum(probs * np.exp(-1j * (occupations @ phases[kept])))) ** 2
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
    # terms[l] = sum_k (-1)^k C(l, k) moments[l - k] moments[k]
    size = len(moments)
    return (_SIGNED_BINOMIAL[:size, :size] * moments[_LAG[:size, :size]]) @ moments


def series_partial_sum(terms: np.ndarray, max_term: int) -> float:
    """Alternating partial sum of the survival series through term ``max_term`` (an integer >= 0)."""
    max_term = network.validate_count("max_term", max_term, 0)
    total = 0.0
    for ell in range(0, min(max_term, len(terms) - 1) + 1, 2):
        total += (-1) ** (ell // 2) * terms[ell] / math.factorial(ell)
    return total


# ---------------------------------------------------------------------------
# per-sector resummation
# ---------------------------------------------------------------------------

def survival_probability_sectors(weights, phases, squeeze: SqueezeParameter, cutoff: int) -> float:
    """Survival probability from per-sector resummation.

    Within the ``t``-photon sector the occupations are multinomial over the
    first-column weights, so the sector sum of ``exp(-i n . phi)`` collapses
    to ``(sum_j w_j exp(-i phi_j))**t``.  Same value as the table route, at
    any cutoff; a cutoff too small for the squeezer leaves weight out.

    Args:
        weights: squared magnitudes of the network's first column.
        phases: one phase per mode.
        squeeze: probe squeezer.
        cutoff: largest total photon number kept, as for
            :func:`squeezed_vacuum_probabilities`.

    Raises:
        ValueError: on weights, phases, squeeze or cutoff refused by their
            validators, in that order.
    """
    w = network.validate_weights(weights)
    phases = network.validate_phases(phases, w.size)
    probs = squeezed_vacuum_probabilities(squeeze, cutoff)
    mixer = complex(np.sum(w * np.exp(-1j * phases)))
    value = abs(np.sum(probs * mixer ** (2 * np.arange(len(probs))))) ** 2
    return min(float(value), 1.0)


def _multinomial_weighted_moments(
    weights: np.ndarray, phases: np.ndarray, totals: np.ndarray, max_order: int
) -> np.ndarray:
    """``E[(n . phi)^k]`` for multinomial occupations, one column per entry of ``totals``.

    Uses the power-series recurrence for ``A(s)**t`` where
    ``A(s) = sum_j w_j exp(s phi_j)``; exact up to rounding, no truncation.
    Order ``m`` of the recurrence is one product over the earlier
    coefficients, newest first.
    """
    factorials = _FACTORIALS[: max_order + 1]
    alpha = (phases[None, :] ** _ORDERS[: max_order + 1, None]) @ weights / factorials
    # i t - (m - i) = i (t + 1) - m for i = 1..m
    scaled = _ORDERS[1 : max_order + 1, None] * (totals + 1.0)
    coeffs = np.zeros((max_order + 1, len(totals)))
    coeffs[0] = 1.0
    for m in range(1, max_order + 1):
        coeffs[m] = alpha[1 : m + 1] @ ((scaled[:m] - m) * coeffs[m - 1 :: -1]) / m
    return coeffs * factorials[:, None]


@np.errstate(over="ignore", invalid="ignore")
def generator_moments_sectors(
    weights, phases, squeeze: SqueezeParameter, cutoff: int, max_order: int = 6
) -> SurvivalSeries:
    """Diagonal moments ``<(n . phi)^k>`` for k up to ``max_order``, via per-sector resummation.

    Raises:
        ValueError: unless ``max_order`` is an integer in ``[0, MAX_SERIES_ORDER]``
            (the series terms lose accuracy to cancellation beyond that); on
            weights, phases, squeeze or cutoff refused as in
            :func:`survival_probability_sectors`; or if a moment or term is not a finite float.
    """
    max_order = network.validate_count("max_order", max_order, 0, MAX_SERIES_ORDER)
    w = network.validate_weights(weights)
    phases = network.validate_phases(phases, w.size)
    probs = squeezed_vacuum_probabilities(squeeze, cutoff)
    totals = 2.0 * np.arange(len(probs))
    moments = _multinomial_weighted_moments(w, phases, totals, max_order) @ probs
    terms = _series_terms(moments)
    if not (np.all(np.isfinite(moments)) and np.all(np.isfinite(terms))):
        raise ValueError(
            f"generator moments to max_order = {max_order} are not finite floats "
            f"at max|phi| = {np.abs(phases).max()}"
        )
    return SurvivalSeries(moments, terms)


# ---------------------------------------------------------------------------
# truncated two-mode operators and the Mach-Zehnder factorisation check
# ---------------------------------------------------------------------------

def _sector_generators(total: int) -> tuple[np.ndarray, np.ndarray]:
    """The mixing generators ``(Jx, Jy)`` on the ``total``-photon sector of two modes.

    The sector has basis ``|k, total - k>``; both generators conserve the
    total, so truncation introduces no edge effects.
    """
    k = np.arange(total)
    raising = np.zeros((total + 1, total + 1), dtype=complex)
    raising[k + 1, k] = np.sqrt((k + 1.0) * (total - k))
    return (raising + raising.conj().T) / 2.0, (raising - raising.conj().T) / 2.0j


@lru_cache(maxsize=MAX_MZ_CUTOFF + 1)
def _sector_operators(total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 50:50 splitter and the eigensystem of ``Jy`` on the ``total``-photon sector.

    They depend only on the sector total, so every cutoff shares them.  Each
    array is cached and returned read-only, so no caller can alter a later
    residual.
    """
    jx, jy = _sector_generators(total)
    values, vectors = np.linalg.eigh(jx)
    splitter = (vectors * np.exp(-0.5j * math.pi * values)) @ vectors.conj().T
    operators = (splitter, *np.linalg.eigh(jy))
    for array in operators:
        array.flags.writeable = False
    return operators


def _arm_phases(name: str, value) -> np.ndarray:
    """One arm phase (a number, numpy scalar or 0-d array) or a vector of them, modulo ``2 pi``."""
    if isinstance(value, (int, float)) or getattr(value, "ndim", None) == 0:
        value = [value]
    phases = network._real_vector(name, value)
    phases = network.validate_phases(phases, phases.size, name)
    # both sides are 2pi-periodic in each arm phase; reducing first keeps
    # phi * n from rounding apart on the two sides as |phi| grows
    return np.array([math.remainder(phase, 2 * math.pi) for phase in phases.tolist()])


def mach_zehnder_factorization_residual(phi1, phi2, cutoff: int) -> float:
    """Gap between the composed and the factorised balanced interferometer.

    Each sector's gap is its Frobenius-norm gap (an upper bound on the
    operator-norm gap), the norm of every other operator check in the package.
    The composed side is beamsplitter, per-arm phases, inverse beamsplitter,
    with the symmetric 50:50 splitter ``exp(-i (pi/2) Jx)``.  The factorised
    side is a mixing rotation by the phase difference times a global phase
    generated by the total photon number:
    ``exp(i (phi1 - phi2) Jy) . exp(-i (phi1 + phi2) N / 2)``.
    Both sides are built sector by sector, so the residual is pure rounding,
    over the whole ``PHASE_MAX`` envelope: each arm phase is first reduced
    modulo ``2 pi`` (which leaves a phase in ``[-pi, pi]`` unchanged).
    The splitter and the eigensystem of ``Jy`` depend only on the sector
    total and are cached once per sector.  Each sector then evaluates every
    phase pair in one stacked product, so the result equals the largest
    single-pair residual.

    Args:
        phi1, phi2: arm phases, each in ``[-network.PHASE_MAX, network.PHASE_MAX]``:
            one number each, or two equal-length vectors (``phi1 must be a non-empty vector, ...``).
        cutoff: largest total photon number considered, an integer in
            ``[2, MAX_MZ_CUTOFF]``; the products cost about ``(cutoff + 1)^4 / 4``
            per pair.

    Returns:
        The largest Frobenius-norm gap over every pair and every sector.
    """
    phi1 = _arm_phases("phi1", phi1)
    phi2 = _arm_phases("phi2", phi2)
    if phi1.size != phi2.size:
        raise ValueError(
            f"phi1 and phi2 must have equal lengths, got {phi1.size} and {phi2.size}"
        )
    cutoff = network.validate_count("cutoff", cutoff, 2, MAX_MZ_CUTOFF)
    difference = (phi1 - phi2)[:, None]
    half_sum = (-0.5j * (phi1 + phi2))[:, None, None]
    phi1, phi2 = phi1[:, None], phi2[:, None]
    gaps = []
    for total in range(cutoff + 1):
        splitter, jy_values, jy_vectors = _sector_operators(total)
        n_first = np.arange(total + 1.0)
        diag_phase = np.exp(-1j * (phi1 * n_first + phi2 * (total - n_first)))
        composed = (splitter * diag_phase[:, None, :]) @ splitter.conj().T
        mixing_phase = np.exp(1j * difference * jy_values)
        mixing = (jy_vectors * mixing_phase[:, None, :]) @ jy_vectors.conj().T
        gaps.append(np.linalg.norm(composed - mixing * np.exp(half_sum * total), axis=(1, 2)))
    return float(np.max(gaps))  # np.max keeps a NaN gap
