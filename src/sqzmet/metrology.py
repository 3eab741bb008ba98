"""Analytic sensitivity formulas, shot-level simulation, and scaling sweeps.

The protocol estimates the weighted average of the unknown phases from the
probability that the probe survives the interferometer unchanged.  This
module holds the small-phase expansion of that probability, the binomial
shot simulator, the exact equal-phase estimator, and the Monte-Carlo sweep
that measures how the estimation variance scales with the probe's mean
photon number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import network
from .network import NBAR_MAX, NBAR_MIN, PHASE_MAX, validate_count, validate_real

REGIME_THRESHOLD = 0.3
ENGINES = ("gaussian", "fock")
# numpy's binomial sampler takes the number of trials as an int64
MAX_SHOTS = 2 ** 63 - 1
# exp(x) and expm1(x) are finite floats only up to this x
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# largest squeezing magnitude r: the probe's second photon-number moment
# grows as exp(4r)/16, a finite float only up to about this r
SQUEEZE_R_MAX = _LOG_FLOAT_MAX / 4
# probability the Fock oracle's truncation may leave out: a thousandth of the
# 1e-9 to which the tests hold the two engines to each other
ORACLE_TAIL_BOUND = 1e-12


@dataclass(frozen=True)
class SqueezeParameter:
    """Magnitude ``r`` in ``[0, SQUEEZE_R_MAX]`` and phase ``theta`` of a single-mode squeezer.

    The phase is normalised into ``[0, 2*pi)`` on construction.  The mean
    photon number of the squeezed vacuum it prepares is ``sinh(r)**2``.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        r = validate_real("squeezing magnitude r", self.r, 0, SQUEEZE_R_MAX, "[0, SQUEEZE_R_MAX]")
        theta = validate_real("squeezing phase", self.theta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta % (2.0 * math.pi))

    @property
    def mean_photon_number(self) -> float:
        return math.sinh(self.r) ** 2


def validate_squeeze(squeeze) -> SqueezeParameter:
    """``squeeze`` itself if it is a :class:`SqueezeParameter`; otherwise a ValueError naming it."""
    if not isinstance(squeeze, SqueezeParameter):
        raise ValueError(f"squeeze must be a SqueezeParameter, got {squeeze!r}")
    return squeeze


class PhotonMoments(NamedTuple):
    """Mean and variance of the total photon number."""

    mean_n: float
    var_n: float


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
    """Small-phase expansion validity: ratio ``max|phi| * nbar`` against ``REGIME_THRESHOLD``.

    Raises:
        ValueError: unless ``nbar`` lies in ``[0, NBAR_MAX]`` and ``phases``, of any length,
            passes :func:`network.validate_phases` (``phases must be a non-empty vector, ...``).
    """
    nbar = validate_real("nbar", nbar, 0, NBAR_MAX, "[0, NBAR_MAX]")
    phases = network._real_vector("phases", phases)
    phases = network.validate_phases(phases, phases.size)
    return _regime_check(float(np.max(np.abs(phases))) * nbar)


def _regime_check(ratio: float) -> RegimeCheck:
    # the one place the threshold is applied, to a ratio already validated
    return RegimeCheck(ratio, ratio < REGIME_THRESHOLD)


def _fit_slope(xs, ys) -> float:
    """Least-squares slope of ``ys`` against ``xs``; NaN if the xs have no spread.

    Closed form over Python floats, with centred sums that ``math.fsum``
    rounds once each, so the result does not depend on a BLAS or LAPACK
    build or on a summation order.
    """
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0:
        return math.nan
    return math.fsum(d * (y - y_mean) for d, y in zip(dx, ys)) / sxx


def heisenberg_sensitivity(nbar: float) -> float:
    """Reference squared phase error per shot, ``1 / (8 nbar^2)``.

    Raises:
        ValueError: unless ``nbar`` lies in ``[NBAR_MIN, NBAR_MAX]``.
    """
    nbar = validate_real("nbar", nbar, NBAR_MIN, NBAR_MAX, "[NBAR_MIN, NBAR_MAX]")
    return 1.0 / (8.0 * nbar ** 2)


def simulate_shots(p: float, shots: int, seed: int) -> int:
    """Count of unchanged-probe outcomes over ``shots`` on-off detections.

    Each shot is a Bernoulli trial with success probability ``p``, drawn
    from the stream keyed by ``seed``.
    """
    p = validate_real("probability p", p, 0, 1)
    shots = validate_count("shots", shots, 1, MAX_SHOTS)
    seed = validate_count("seed", seed, 0)
    return int(np.random.default_rng(seed).binomial(shots, p))


def estimate_phase(count: int, shots: int, nbar: float) -> float:
    """Invert the observed survival fraction into a phase-average magnitude.

    Solves the equal-phase survival probability
    ``P = (1 + 4 nbar (nbar + 1) sin^2 phi)^(-1/2)`` exactly at
    ``P = count / shots``:
    ``phi = asin(sqrt(min(1, (P^-2 - 1) / (4 nbar (nbar + 1)))))``, and
    ``pi/2`` at ``count = 0``.  With equal phases and exact ``P`` this
    returns the phase to rounding.  For unequal phases ``P`` also carries
    the weighted phase spread (the ``nbar`` term of
    :func:`generator_variance`), which one number cannot separate from the
    mean, so the estimate keeps a bias of that size: it is physics, not
    numerics.  The survival probability is even in the phase average, so
    only the magnitude is identifiable and the non-negative root is
    returned.

    Raises:
        ValueError: unless ``shots`` and ``count`` are integers with
            ``1 <= shots <= MAX_SHOTS`` and ``0 <= count <= shots``, and
            ``nbar`` lies in ``[NBAR_MIN, NBAR_MAX]``.
    """
    shots = validate_count("shots", shots, 1, MAX_SHOTS)
    count = validate_count("count", count, 0, shots)
    nbar = validate_real("nbar", nbar, NBAR_MIN, NBAR_MAX, "[NBAR_MIN, NBAR_MAX]")
    if count == 0:
        return math.pi / 2.0
    sin_sq = ((count / shots) ** -2 - 1.0) / (4.0 * nbar * (nbar + 1.0))
    return math.asin(math.sqrt(min(1.0, sin_sq)))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything needed to reproduce one protocol run.

    The one place a protocol run's inputs are checked: :func:`run_protocol`
    does not check them again.  The squeeze's mean photon number
    ``sinh(r)**2`` must be 0 or lie in ``[NBAR_MIN, NBAR_MAX]``, the range
    the estimator inverts over; a ValueError names ``r``, ``nbar`` and the
    bound it misses.
    Instances compare and hash by identity: an array field has no single truth value.
    """

    weights: np.ndarray
    true_phases: np.ndarray
    squeeze: SqueezeParameter
    shots: int
    seed: int

    def __post_init__(self):
        nbar = validate_squeeze(self.squeeze).mean_photon_number
        if nbar != 0 and not NBAR_MIN <= nbar <= NBAR_MAX:
            side = f"below NBAR_MIN = {NBAR_MIN}" if nbar < NBAR_MIN else f"above NBAR_MAX = {NBAR_MAX}"
            raise ValueError(
                f"squeeze r = {self.squeeze.r} gives nbar = sinh(r)^2 = {nbar:.3e}, {side}; "
                "nbar must be 0 or lie in [NBAR_MIN, NBAR_MAX]"
            )
        # copies, so freezing them leaves the caller's arrays writable
        w = network.validate_weights(self.weights).copy()
        phi = network.validate_phases(self.true_phases, w.size).copy()
        object.__setattr__(self, "shots", validate_count("shots", self.shots, 1, MAX_SHOTS))
        object.__setattr__(self, "seed", validate_count("seed", self.seed, 0))
        w.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "true_phases", phi)


def exact_survival_probability(
    weights, phases, squeeze: SqueezeParameter, engine: str = "gaussian"
) -> tuple[float, int | None]:
    """Exact unchanged-probe probability for the full interferometer.

    The ``gaussian`` engine sends the probe through the one passive network
    ``V = U^dag diag(exp(-i phi)) U`` (weight network, phases, inverse
    network) and takes the overlap with the probe.  The ``fock`` engine
    resums the occupation-number distribution sector by sector at the
    cutoff that :func:`fock.recommend_cutoff` certifies for a tail below
    ``ORACLE_TAIL_BOUND``.

    Each engine is a verifier, imported only when its branch runs; the
    weights and then the phases are checked before either does.

    Returns:
        ``(probability, cutoff)``; the cutoff is None for the gaussian
        engine.
    """
    w = network.validate_weights(weights)
    phases = network.validate_phases(phases, w.size)
    if engine == "gaussian":
        return _survival_probability(w, phases, squeeze), None
    if engine == "fock":
        from . import fock

        cutoff = fock.recommend_cutoff(squeeze, tail_bound=ORACLE_TAIL_BOUND)
        return fock.survival_probability_sectors(w, phases, squeeze, cutoff), cutoff
    raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


def _survival_probability(weights: np.ndarray, phases: np.ndarray, squeeze: SqueezeParameter) -> float:
    # the production route to P, on arrays its callers have already checked;
    # today it is the covariance engine of exact_survival_probability
    from .gaussian import apply_network, squeezed_probe, vacuum_overlap_probability

    # the probe first: above its mode ceiling it refuses before any (M, M) array exists
    probe = squeezed_probe(weights.size, squeeze)
    unitary = network.embed_weights_unitary(weights)
    # the weight network is real, so U^dag = U^T and U^T diag(exp(-i phi)) U
    # is A - iB with A = U^T (cos(phi) U), B = U^T (sin(phi) U): one real
    # product against exp(-i phi) U read as (cos, -sin) pairs, read back as complex
    scaled = (np.exp(-1j * phases)[:, None] * unitary).view(float)
    passive = (unitary.T @ scaled).view(complex)
    return vacuum_overlap_probability(apply_network(probe, passive), probe)


class ProtocolRun(NamedTuple):
    """Outcome of a single simulated run, ready for one CSV row."""

    phi_bar_true: float
    p_exact: float
    p_hat: float
    phi_hat: float
    regime_ratio: float
    regime_ok: bool


def run_protocol(config: ExperimentConfig) -> ProtocolRun:
    """Evaluate, sample, and invert one experiment configuration.

    ``ExperimentConfig`` has checked the weights and phases, so they are not
    checked again: ``phi_bar_true``, ``p_exact`` and the regime fields are
    the bits of :func:`phase_moments`, :func:`exact_survival_probability`
    and :func:`check_regime` on the same arrays.
    """
    weights, phases = config.weights, config.true_phases
    nbar = config.squeeze.mean_photon_number
    p_exact = _survival_probability(weights, phases, config.squeeze)
    count = simulate_shots(p_exact, config.shots, config.seed)
    p_hat = count / config.shots
    # ExperimentConfig has held nbar to 0 or [NBAR_MIN, NBAR_MAX], which
    # estimate_phase and check_regime both accept
    phi_hat = estimate_phase(count, config.shots, nbar) if nbar > 0 else 0.0
    regime = _regime_check(float(np.max(np.abs(phases))) * nbar)
    return ProtocolRun(
        phi_bar_true=float(weights @ phases),
        p_exact=p_exact,
        p_hat=p_hat,
        phi_hat=phi_hat,
        regime_ratio=regime.ratio,
        regime_ok=regime.ok,
    )


class EstimationResult(NamedTuple):
    """Aggregate of repeated runs at one sweep point."""

    p_hat: float
    phi_hat: float
    delta_phi_sq: float
    heisenberg_bound: float


class SweepResult(NamedTuple):
    """Scaling-sweep table plus the fitted log-log slope."""

    nbars: tuple[float, ...]
    shots: int
    repetitions: int
    results: tuple[EstimationResult, ...]
    slope: float = math.nan


def sweep_point_probability(
    nbar: float, phi_bar: float, baseline: str = "squeezed"
) -> float:
    """Survival probability at one equal-phase operating point.

    ``squeezed`` is the one-mode closed form of the squeezed probe,
    ``P = (1 + 4 nbar (nbar + 1) sin^2 phi_bar)^(-1/2)``, which the
    engines of :func:`exact_survival_probability` reproduce.
    ``coherent`` is the exact survival probability of a coherent probe
    ``|a>`` with ``|a|^2 = nbar`` sent through the same scheme,
    ``P = |<a|a e^(-i phi_bar)>|^2 = exp(-4 nbar sin^2(phi_bar / 2))``,
    the shot-noise-limited reference.  Both lie in ``[0, 1]``.

    Raises:
        ValueError: on an unknown baseline; unless ``nbar`` lies in
            ``[0, NBAR_MAX]`` and ``phi_bar`` in ``[-PHASE_MAX, PHASE_MAX]``.
    """
    if baseline not in ("squeezed", "coherent"):
        raise ValueError(f"baseline must be 'squeezed' or 'coherent', got {baseline!r}")
    nbar = validate_real("nbar", nbar, 0, NBAR_MAX, "[0, NBAR_MAX]")
    phi_bar = validate_real("phi_bar", phi_bar, -PHASE_MAX, PHASE_MAX, "[-PHASE_MAX, PHASE_MAX]")
    if baseline == "squeezed":
        return 1.0 / math.sqrt(1.0 + 4.0 * nbar * (nbar + 1.0) * math.sin(phi_bar) ** 2)
    return math.exp(-4.0 * nbar * math.sin(0.5 * phi_bar) ** 2)


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
) -> SweepResult:
    """Monte-Carlo scan of the estimation variance against the mean photon number.

    Every point operates at the same bias ``phi_bar * nbar = bias_product``
    with all phases equal, so :func:`check_regime`'s ratio
    ``max|phi| * nbar`` is ``|bias_product|`` everywhere.  A point's shots
    are drawn from the exact survival probability of its probe,
    :func:`sweep_point_probability`, which lies in ``[0, 1]`` at every
    finite bias.  Per repetition the shot fraction is inverted through the
    leading-order survival deficit (``2 nbar^2 phi^2`` for the squeezed
    probe, ``nbar phi^2`` for the coherent baseline); the reported
    ``delta_phi_sq`` is the sample variance of those estimates, which is
    directly comparable to the ``1 / (8 nbar^2 shots)`` reference.  For the
    squeezed probe, the exact inversion of :func:`estimate_phase` would
    rescale it by ``nbar / (nbar + 1)`` to leading order in the phase.

    The counts of all points form one ``(points, repetitions)`` array that
    is inverted at once and reduced along its rows, which gives the same
    bits as reducing each point on its own; at its peak the pass holds two
    such arrays of 8-byte numbers.  ``slope`` is the least-squares slope of
    ``log(delta_phi_sq)`` against ``log(nbar)``, NaN for a single point.

    Args:
        nbars: mean photon numbers to scan, a vector (:func:`network._real_vector`),
            each in ``[NBAR_MIN, NBAR_MAX]``; two or more must not all share
            one ``log(nbar)``.
        shots: detections per repetition.
        repetitions: independent repetitions per point (>= 2).
        seed: master seed, >= 0; point ``i`` draws all its repetitions
            from the stream keyed by ``(seed, i)``, so a point's result does
            not depend on the points after it.
        bias_product: operating bias ``phi_bar * nbar``, finite; its sign
            does not change the result.
        baseline: ``squeezed`` or ``coherent``.

    Raises:
        RegimeError: if ``|bias_product|`` violates the small-phase regime.
        ValueError: on bad arguments; before any draw, if the nbars leave
            no spread to fit; or if a point's estimates have zero sample
            variance (every repetition saw the same count), which leaves
            nothing to fit.
    """
    nbars = network._real_vector("nbars", nbars).tolist()
    nbars = [validate_real("nbar", nbar, NBAR_MIN, NBAR_MAX, "[NBAR_MIN, NBAR_MAX]") for nbar in nbars]
    references = [heisenberg_sensitivity(nbar) for nbar in nbars]
    # the refusal and the fit read the same logs
    log_nbars = [math.log(nbar) for nbar in nbars]
    if len(nbars) > 1 and min(log_nbars) == max(log_nbars):
        raise ValueError(f"nbars {nbars} have no spread in log(nbar): no slope can be fitted")
    bias_product = validate_real("bias_product", bias_product)
    shots = validate_count("shots", shots, 1, MAX_SHOTS)
    repetitions = validate_count("repetitions", repetitions, 2)
    seed = validate_count("seed", seed, 0)
    # every point's phases all equal bias_product / nbar, so check_regime's
    # ratio max|phi| * nbar is |bias_product|, which needs no rounding
    regime = _regime_check(abs(bias_product))
    if not regime.ok:
        raise RegimeError(
            f"bias product {bias_product} is outside the small-phase regime "
            f"(ratio {regime.ratio}, threshold {REGIME_THRESHOLD})"
        )
    probabilities = [
        sweep_point_probability(nbar, bias_product / nbar, baseline) for nbar in nbars
    ]
    # row i holds point i's repetitions; every reduction below runs along rows
    counts = np.empty((len(nbars), repetitions), dtype=np.int64)
    for i, p in enumerate(probabilities):
        counts[i] = np.random.default_rng([seed, i]).binomial(shots, p, size=repetitions)
    if repetitions * shots <= MAX_SHOTS:
        totals = counts.sum(axis=1).tolist()
    else:
        # Python ints, one row at a time: an int64 sum would wrap
        totals = [sum(row.tolist()) for row in counts]
    # the counts are dropped once their fractions are taken; every step
    # after that works in place on this one array
    estimates = np.divide(counts, shots)
    del counts
    # counts never exceed shots, so every deficit is at least +0.0
    np.subtract(1.0, estimates, out=estimates)
    scales = np.array([_sweep_inversion_scale(nbar, baseline) for nbar in nbars])
    np.divide(estimates, scales[:, None], out=estimates)
    np.sqrt(estimates, out=estimates)
    means = estimates.mean(axis=1)
    variances = estimates.var(axis=1, ddof=1).tolist()
    for nbar, delta_phi_sq in zip(nbars, variances):
        if not delta_phi_sq > 0:
            raise ValueError(
                f"zero sample variance at nbar = {nbar} (bias_product {bias_product}, "
                f"shots {shots}, repetitions {repetitions}): every repetition gave the "
                "same estimate"
            )
    results = tuple(
        EstimationResult(
            p_hat=total / (repetitions * shots),
            phi_hat=phi_hat,
            delta_phi_sq=delta_phi_sq,
            heisenberg_bound=reference / shots,
        )
        for total, phi_hat, delta_phi_sq, reference in zip(
            totals, means.tolist(), variances, references
        )
    )
    slope = _fit_slope(log_nbars, [math.log(v) for v in variances])
    return SweepResult(tuple(nbars), shots, repetitions, results, slope)
