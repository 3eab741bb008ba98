"""Self-validation suites behind the ``validate`` CLI command.

The quick suite cross-checks the two engines and the exact moment
identities on seeded random configurations; the full suite adds the
Mach-Zehnder factorisation residual and the convergence order of the
survival series.  Every check returns its worst observed defect so a
failure report names what broke and by how much.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import fock, metrology
from .gaussian import photon_moments, squeezed_probe
from .metrology import SqueezeParameter


# each check's pass bound, with its reason
# exact-to-rounding engine against an oracle whose tail is below ORACLE_TAIL_BOUND = 1e-12: loose by design
CROSS_ENGINE_TOL = 1e-6
# both routes resum the same ladder probabilities (tail below TABLE_ROUTE_TAIL), so they differ
# by rounding: loose by design
TABLE_ROUTE_TOL = 1e-6
# an odd term vanishes identically; what is left is rounding in sums of terms of order one
ODD_TERM_TOL = 1e-10
# the analytic side is exact; the oracle's moment carries a tail below VARIANCE_IDENTITY_TAIL and
# rounding at order nbar^2
VARIANCE_IDENTITY_TOL = 1e-9
# both sides are the same unitary at a 12-photon cutoff, so the residual is rounding at order one
MZ_FACTORIZATION_TOL = 1e-9
# odd terms vanish, so the remainder after order six is of order eight; 7 leaves one order for fit noise
SERIES_ORDER_MIN = 7.0

# each check's certified truncation tail (fock.recommend_cutoff's tail_bound), with its reason
# both routes resum the same truncated ladder, so the tail drops out of their gap; it only has to
# leave the table well inside fock.MAX_TABLE_TAIL = 1e-6
TABLE_ROUTE_TAIL = 1e-10
# the tail of every moment up to order eight, a thousandth of ODD_TERM_TOL
ODD_TERM_TAIL = 1e-13
# the tail of the second moment, five orders below VARIANCE_IDENTITY_TOL
VARIANCE_IDENTITY_TAIL = 1e-14
# the order-8 tail must sit far below the smallest residual the fit reads (1e-9 to 3e-8 at the
# smallest phase scale on seeds 0, 1, 7, 123), so that truncation does not bend the fitted exponent
SERIES_CONVERGENCE_TAIL = 1e-16


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _stream(seed: int, offset: int) -> np.random.Generator:
    """A check's own random stream, keyed ``[seed, offset]``; ``seed`` must be an integer >= 0.

    Check ``k`` at seed ``s`` shares no stream with check 0 at seed ``s + k``.
    Offset 0 is the stream of ``seed`` itself: numpy's seeding drops trailing
    zero words of a key.
    """
    return np.random.default_rng([metrology.validate_count("seed", seed, 0), offset])


def _random_cases(rng: np.random.Generator, count: int, max_modes: int = 5, max_r: float = 1.2):
    cases = []
    for _ in range(count):
        modes = int(rng.integers(1, max_modes + 1))
        weights = rng.dirichlet(np.ones(modes))
        weights = weights / weights.sum()
        phases = rng.uniform(-0.3, 0.3, size=modes)
        squeeze = SqueezeParameter(rng.uniform(0.05, max_r), rng.uniform(0.0, 2 * math.pi))
        cases.append((weights, phases, squeeze))
    return cases


def _verdict(name: str, quantity: str, defects, bound_name: str, bound: float) -> CheckResult:
    # a check passes only if its worst defect is a number within its bound; np.max keeps a NaN
    worst = float(np.max(defects, initial=0.0))
    detail = f"{quantity} = {worst:.3e}, bound {bound_name} = {bound}"
    return CheckResult(name, worst <= bound, detail)


def check_cross_engine(seed: int) -> CheckResult:
    """Covariance engine vs occupation-basis oracle on random configurations."""
    gaps = []
    for weights, phases, squeeze in _random_cases(_stream(seed, 0), 20):
        p_gauss, _ = metrology.exact_survival_probability(weights, phases, squeeze)
        p_fock, _ = metrology.exact_survival_probability(
            weights, phases, squeeze, engine="fock"
        )
        gaps.append(abs(p_gauss - p_fock))
    return _verdict(
        "cross-engine equality", "max |gaussian - fock|", gaps,
        "CROSS_ENGINE_TOL", CROSS_ENGINE_TOL,
    )


def check_table_route(seed: int) -> CheckResult:
    """Explicit occupation-probability table vs sector resummation at moderate cutoffs."""
    gaps = []
    for weights, phases, squeeze in _random_cases(_stream(seed, 1), 5, max_modes=3, max_r=0.8):
        cutoff = fock.recommend_cutoff(squeeze, tail_bound=TABLE_ROUTE_TAIL)
        p_table = fock.survival_probability(weights, phases, squeeze, cutoff)
        p_sector = fock.survival_probability_sectors(weights, phases, squeeze, cutoff)
        gaps.append(abs(p_table - p_sector))
    return _verdict("table vs sector route", "max route gap", gaps, "TABLE_ROUTE_TOL", TABLE_ROUTE_TOL)


def check_odd_terms(seed: int) -> CheckResult:
    """Odd survival-series terms must vanish identically."""
    odd_terms = []
    for weights, phases, squeeze in _random_cases(_stream(seed, 2), 20):
        cutoff = fock.recommend_cutoff(squeeze, tail_bound=ODD_TERM_TAIL, moment_power=8)
        series = fock.generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=8)
        odd_terms.append(np.abs(series.terms[1::2]))
    return _verdict("odd series terms vanish", "max odd term", odd_terms, "ODD_TERM_TOL", ODD_TERM_TOL)


def check_variance_identity(seed: int) -> CheckResult:
    """Analytic generator variance against the oracle's second moment."""
    defects = []
    for weights, phases, squeeze in _random_cases(_stream(seed, 3), 20):
        cutoff = fock.recommend_cutoff(squeeze, tail_bound=VARIANCE_IDENTITY_TAIL, moment_power=2)
        series = fock.generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=2)
        oracle = series.moments[2] - series.moments[1] ** 2
        probe = squeezed_probe(weights.size, squeeze)
        analytic = metrology.generator_variance(
            metrology.phase_moments(weights, phases), photon_moments(probe)
        )
        defects.append(abs(oracle - analytic))
    return _verdict(
        "generator variance identity", "max defect", defects,
        "VARIANCE_IDENTITY_TOL", VARIANCE_IDENTITY_TOL,
    )


def check_mz_factorization(seed: int) -> CheckResult:
    """Composed balanced interferometer vs its mixing/global-phase factorisation."""
    phases = _stream(seed, 4).uniform(-math.pi, math.pi, size=(20, 2))
    residual = fock.mach_zehnder_factorization_residual(phases[:, 0], phases[:, 1], cutoff=12)
    return _verdict(
        "mach-zehnder factorization", "max residual", [residual],
        "MZ_FACTORIZATION_TOL", MZ_FACTORIZATION_TOL,
    )


def check_series_convergence(seed: int) -> CheckResult:
    """Fitted order of the truncated survival series against the exact value.

    Scales one fixed configuration through a ladder of overall phase
    magnitudes and fits the log residual of the series through the
    sixth-order term; the remainder must fall off with exponent >=
    ``SERIES_ORDER_MIN``.
    """
    rng = _stream(seed, 5)
    weights = rng.dirichlet(np.ones(3))
    weights = weights / weights.sum()
    base = rng.uniform(0.5, 1.0, size=3) * np.sign(rng.uniform(-1, 1, size=3))
    squeeze = SqueezeParameter(math.asinh(1.0))
    cutoff = fock.recommend_cutoff(squeeze, tail_bound=SERIES_CONVERGENCE_TAIL, moment_power=8)
    scales = np.geomspace(0.05, 0.2, 8)
    residuals = []
    for scale in scales:
        phases = base * (scale / np.max(np.abs(base)))
        exact = fock.survival_probability_sectors(weights, phases, squeeze, cutoff)
        series = fock.generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=6)
        residuals.append(abs(fock.series_partial_sum(series.terms, 6) - exact))
    exponent = metrology._fit_slope(
        [math.log(scale) for scale in scales], [math.log(residual) for residual in residuals]
    )
    return CheckResult(
        "series convergence order",
        exponent >= SERIES_ORDER_MIN,
        f"fitted exponent = {exponent:.2f}, floor SERIES_ORDER_MIN = {SERIES_ORDER_MIN}",
    )


def quick_suite(seed: int = 0) -> list[CheckResult]:
    return [
        check_cross_engine(seed),
        check_table_route(seed),
        check_odd_terms(seed),
        check_variance_identity(seed),
    ]


def full_suite(seed: int = 0) -> list[CheckResult]:
    return quick_suite(seed) + [
        check_mz_factorization(seed),
        check_series_convergence(seed),
    ]
