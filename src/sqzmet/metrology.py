"""Analytic sensitivity formulas, shot-level simulation, and scaling sweeps.

The protocol estimates the weighted average of the unknown phases from the
probability that the probe survives the interferometer unchanged.  This
module holds the small-phase expansion of that probability, the binomial
shot simulator, the quadratic phase estimator, and the Monte-Carlo sweep
that measures how the estimation variance scales with the probe's mean
photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fock, network
from .gaussian import (
    PhotonMoments,
    SqueezeParameter,
    apply_network,
    apply_phases,
    apply_squeeze,
    vacuum_overlap_probability,
    vacuum_state,
)

REGIME_THRESHOLD = 0.3
ENGINES = ("gaussian", "fock")


class RegimeError(ValueError):
    """Raised when a sweep is asked to run outside the small-phase regime."""


class PhaseMoments(NamedTuple):
    """Weighted mean and mean square of the unknown phases."""

    mean: float
    mean_sq: float


class RegimeCheck(NamedTuple):
    """Result of the small-phase validity check; ``ok`` is False on warning."""

    ratio: float
    ok: bool


def phase_moments(weights, phases) -> PhaseMoments:
    """Weighted first and second moments of the phase vector.

    Raises:
        ValueError: if the two vectors have different lengths or a phase is
            not finite.
    """
    w = network.validate_weights(weights)
    phi = network.validate_phases(phases, w.size)
    return PhaseMoments(float(w @ phi), float(w @ phi ** 2))


def generator_variance(moments: PhaseMoments, photon: PhotonMoments) -> float:
    """Variance of the phase-shift generator over the post-network state.

    Splits into a photon-number-fluctuation part scaled by the squared
    weighted phase mean and a phase-spread part scaled by the mean photon
    number.
    """
    spread = moments.mean_sq - moments.mean ** 2
    return moments.mean ** 2 * photon.var_n + spread * photon.mean_n


def check_regime(phases, nbar: float) -> RegimeCheck:
    """Small-phase expansion validity: ratio ``max|phi| * nbar`` against ``REGIME_THRESHOLD``."""
    phases = np.asarray(phases, dtype=float)
    ratio = float(np.max(np.abs(phases)) * nbar) if phases.size else 0.0
    return RegimeCheck(ratio, ratio < REGIME_THRESHOLD)


def heisenberg_sensitivity(nbar: float) -> float:
    """Reference squared phase error per shot, ``1 / (8 nbar^2)``.

    Raises:
        ValueError: unless ``nbar`` is finite and positive; the reference is
            undefined elsewhere.
    """
    if not 0 < nbar < math.inf:
        raise ValueError(f"sensitivity reference undefined for nbar = {nbar}")
    return 1.0 / (8.0 * nbar ** 2)


def simulate_shots(p: float, shots: int, seed) -> int:
    """Count of unchanged-probe outcomes over ``shots`` on-off detections.

    Each shot is a Bernoulli trial with success probability ``p``.  The
    ``seed`` may be an integer or a sequence of integers.  numpy's
    ``SeedSequence`` ignores trailing zero words, so ``s``, ``[s, 0]`` and
    ``[s, 0, 0]`` key one and the same stream: the ``[seed, 0, 0]`` that
    :func:`run_protocol` passes draws from the stream of sweep point 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return int(np.random.default_rng(seed).binomial(shots, p))


def estimate_phase(count: int, shots: int, nbar: float) -> float:
    """Invert the observed survival fraction into a phase-average magnitude.

    Uses the finite-photon-number prefactor ``2 nbar (nbar + 1)``, which
    removes the leading small-``nbar`` bias.  The survival probability is
    even in the phase average, so only the magnitude is identifiable and the
    non-negative root is returned.

    Raises:
        ValueError: if ``count > shots`` or ``nbar`` is not finite and
            positive.
    """
    if not 0 <= count <= shots:
        raise ValueError(f"count must lie in [0, {shots}], got {count}")
    if not 0 < nbar < math.inf:
        raise ValueError(f"estimator undefined for nbar = {nbar}")
    deficit = max(0.0, 1.0 - count / shots)
    return math.sqrt(deficit / (2.0 * nbar * (nbar + 1.0)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one protocol run."""

    weights: np.ndarray
    true_phases: np.ndarray
    squeeze: SqueezeParameter
    shots: int
    seed: int

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable
        w = network.validate_weights(self.weights).copy()
        phi = network.validate_phases(self.true_phases, w.size).copy()
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        w.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "true_phases", phi)


def exact_survival_probability(
    weights, phases, squeeze: SqueezeParameter, engine: str = "gaussian"
) -> tuple[float, int | None]:
    """Exact unchanged-probe probability for the full interferometer.

    The ``gaussian`` engine pushes the covariance matrix through squeezer,
    network, phases, and inverse network, then takes the overlap with the
    probe state.  The ``fock`` engine resums the occupation-number
    distribution sector by sector at the cutoff that
    :func:`fock.recommend_cutoff` certifies for a tail below ``1e-12``.

    Returns:
        ``(probability, cutoff)``; the cutoff is None for the gaussian
        engine.
    """
    w = network.validate_weights(weights)
    phases = np.asarray(phases, dtype=float)
    if engine == "gaussian":
        unitary = network.embed_weights_unitary(w)
        state = apply_squeeze(vacuum_state(w.size), 0, squeeze)
        state = apply_network(state, unitary)
        state = apply_phases(state, phases)
        state = apply_network(state, unitary.conj().T)
        return vacuum_overlap_probability(state, squeeze), None
    if engine == "fock":
        cutoff = fock.recommend_cutoff(squeeze, tail_bound=1e-12)
        amps = fock.squeezed_vacuum_amplitudes(squeeze, cutoff)
        return fock.survival_probability_sectors(amps, w, phases), cutoff
    raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


@dataclass(frozen=True)
class ProtocolRun:
    """Outcome of a single simulated run, ready for one CSV row."""

    phi_bar_true: float
    p_exact: float
    p_hat: float
    phi_hat: float
    regime_ratio: float
    regime_ok: bool


def run_protocol(config: ExperimentConfig) -> ProtocolRun:
    """Evaluate, sample, and invert one experiment configuration."""
    moments = phase_moments(config.weights, config.true_phases)
    nbar = config.squeeze.mean_photon_number
    p_exact, _ = exact_survival_probability(config.weights, config.true_phases, config.squeeze)
    count = simulate_shots(p_exact, config.shots, [config.seed, 0, 0])
    p_hat = count / config.shots
    phi_hat = estimate_phase(count, config.shots, nbar) if nbar > 0 else 0.0
    regime = check_regime(config.true_phases, nbar)
    return ProtocolRun(
        phi_bar_true=moments.mean,
        p_exact=p_exact,
        p_hat=p_hat,
        phi_hat=phi_hat,
        regime_ratio=regime.ratio,
        regime_ok=regime.ok,
    )


@dataclass(frozen=True)
class EstimationResult:
    """Aggregate of repeated runs at one sweep point."""

    p_hat: float
    phi_hat: float
    delta_phi_sq: float
    heisenberg_bound: float


@dataclass(frozen=True)
class SweepResult:
    """Scaling-sweep table plus the fitted log-log slope."""

    nbars: tuple[float, ...]
    shots: int
    repetitions: int
    results: tuple[EstimationResult, ...] = field(repr=False)
    slope: float = math.nan


def sweep_point_probability(
    nbar: float, phi_bar: float, baseline: str = "squeezed"
) -> float:
    """Survival probability at one equal-phase operating point.

    ``squeezed`` uses the exact covariance engine.  ``coherent`` substitutes
    Poissonian photon-number statistics (variance equal to the mean) into
    the quadratic expansion, which is the shot-noise-limited reference.
    """
    if baseline == "squeezed":
        squeeze = SqueezeParameter(math.asinh(math.sqrt(nbar)))
        p, _ = exact_survival_probability([1.0], [phi_bar], squeeze)
        return p
    if baseline == "coherent":
        # quadratic expansion 1 - v, with the generator variance v of equal
        # phases under Poissonian statistics: phi_bar^2 * var_n = phi_bar^2 * nbar
        return 1.0 - phi_bar ** 2 * nbar
    raise ValueError(f"baseline must be 'squeezed' or 'coherent', got {baseline!r}")


def _sweep_inversion_scale(nbar: float, baseline: str) -> float:
    # leading-order model inverted by the sweep estimator: the squeezed probe
    # has generator variance 2 nbar^2 phi^2 at large nbar, the coherent
    # baseline nbar phi^2
    return 2.0 * nbar ** 2 if baseline == "squeezed" else nbar


def scaling_sweep(
    nbars,
    shots: int,
    repetitions: int,
    seed: int,
    bias_product: float = 0.05,
    baseline: str = "squeezed",
    force: bool = False,
) -> SweepResult:
    """Monte-Carlo scan of the estimation variance against the mean photon number.

    Every point operates at the same bias ``phi_bar * nbar = bias_product``
    with all phases equal, so the regime ratio is ``bias_product``
    everywhere.  Per repetition the shot fraction is inverted through the
    leading-order model (survival deficit ``2 nbar^2 phi^2`` for the
    squeezed probe, ``nbar phi^2`` for the coherent baseline); the reported
    ``delta_phi_sq`` is the sample variance of those estimates, which is
    directly comparable to the ``1 / (8 nbar^2 shots)`` reference.  The
    finite-``nbar`` inversion of :func:`estimate_phase` would rescale it by
    ``nbar / (nbar + 1)``.

    Args:
        nbars: mean photon numbers to scan, all finite and positive.
        shots: detections per repetition.
        repetitions: independent repetitions per point (>= 2).
        seed: master seed; point ``i`` draws all its repetitions from the
            stream keyed by ``(seed, i)``, so a point's result does not
            depend on the points after it.
        bias_product: operating bias ``phi_bar * nbar``, finite.
        baseline: ``squeezed`` or ``coherent``.
        force: allow operation outside the small-phase regime.

    Raises:
        RegimeError: if ``bias_product`` violates the small-phase regime and
            ``force`` is not set.
        ValueError: on bad arguments, or if a point's estimates have zero
            sample variance (every repetition saw the same count), which
            leaves nothing to fit.
    """
    nbars = [float(n) for n in nbars]
    if not nbars:
        raise ValueError("nbars must not be empty")
    for nbar in nbars:
        if not 0 < nbar < math.inf:
            raise ValueError(f"mean photon numbers must be finite and positive, got nbar = {nbar}")
    if not math.isfinite(bias_product):
        raise ValueError(f"bias_product must be finite, got {bias_product}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if repetitions < 2:
        raise ValueError(f"repetitions must be >= 2, got {repetitions}")
    if bias_product >= REGIME_THRESHOLD and not force:
        raise RegimeError(
            f"bias product {bias_product} is outside the small-phase regime "
            f"(threshold {REGIME_THRESHOLD}); pass force=True to override"
        )
    results = []
    for i, nbar in enumerate(nbars):
        phi_bar = bias_product / nbar
        p = sweep_point_probability(nbar, phi_bar, baseline)
        scale = _sweep_inversion_scale(nbar, baseline)
        counts = np.random.default_rng([seed, i]).binomial(shots, p, size=repetitions)
        estimates = np.sqrt(np.maximum(0.0, 1.0 - counts / shots) / scale)
        delta_phi_sq = float(estimates.var(ddof=1))
        if not delta_phi_sq > 0:
            raise ValueError(
                f"zero sample variance at nbar = {nbar} (bias_product {bias_product}, "
                f"shots {shots}): every repetition gave the same estimate"
            )
        results.append(
            EstimationResult(
                p_hat=int(counts.sum()) / (repetitions * shots),
                phi_hat=float(estimates.mean()),
                delta_phi_sq=delta_phi_sq,
                heisenberg_bound=heisenberg_sensitivity(nbar) / shots,
            )
        )
    slope = float(
        np.polyfit(np.log(nbars), np.log([r.delta_phi_sq for r in results]), 1)[0]
    ) if len(nbars) > 1 else math.nan
    return SweepResult(tuple(nbars), shots, repetitions, tuple(results), slope)
