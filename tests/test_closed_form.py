"""Both engines against the closed form P = 1 / |1 + nbar (1 - m^2)| across the envelope.

The reference is ``conftest.closed_form_survival``, itself held to a 60-digit
``mpmath`` evaluation; the Fock engine is also held to it at M = 10^4 and 10^5.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from sqzmet import SqueezeParameter, exact_survival_probability
from conftest import closed_form_survival


@st.composite
def configurations(draw):
    modes = draw(st.integers(1, 16))
    concentration = draw(st.floats(0.05, 5.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    weights = np.random.default_rng(seed).dirichlet(np.full(modes, concentration))
    weights = weights / weights.sum()
    phases = draw(
        st.lists(st.floats(-math.pi, math.pi), min_size=modes, max_size=modes)
    )
    squeeze = SqueezeParameter(draw(st.floats(0.0, 2.5)), draw(st.floats(0.0, 2 * math.pi)))
    return weights, np.array(phases), squeeze


@pytest.mark.parametrize("engine", ["gaussian", "fock"])
@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(case=configurations())
def test_engine_matches_closed_form(engine, case):
    weights, phases, squeeze = case
    closed = closed_form_survival(weights, phases, squeeze.mean_photon_number)
    p, _ = exact_survival_probability(weights, phases, squeeze, engine=engine)
    assert abs(p - closed) <= 1e-9


def _skewed(modes):
    # one dominant channel; every other weight at 1e-12
    weights = np.full(modes, 1e-12)
    weights[0] = 1.0 - (modes - 1) * 1e-12
    return weights


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0, 5.0])
@pytest.mark.parametrize("modes", [10 ** 4, 10 ** 5])
def test_fock_engine_matches_the_z_form_at_large_m(modes, r):
    rng = np.random.default_rng([modes, int(10 * r)])
    phases = rng.uniform(-0.05, 0.05, size=modes)
    squeeze = SqueezeParameter(r)
    for weights in (rng.dirichlet(np.ones(modes)), _skewed(modes)):
        weights = weights / weights.sum()
        closed = closed_form_survival(weights, phases, squeeze.mean_photon_number)
        p, _ = exact_survival_probability(weights, phases, squeeze, engine="fock")
        assert abs(p - closed) <= 1e-9



# the reference is the z-form in double precision; over 20000 cases drawn as
# below its worst relative error was 6.4e-15, at nbar near 1e8
REFERENCE_REL_TOL = 1e-12


def test_the_reference_matches_a_60_digit_z_form():
    # M in 1-16, nbar 10^U(-8, 8), phases +-10^U(-8, 0), from one seeded stream
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(60)
    for _ in range(500):
        modes = int(rng.integers(1, 17))
        weights = rng.dirichlet(np.ones(modes))
        weights = weights / weights.sum()
        phases = rng.choice([-1.0, 1.0], size=modes) * 10.0 ** rng.uniform(-8.0, 0.0, size=modes)
        nbar = 10.0 ** rng.uniform(-8.0, 8.0)
        with mpmath.workdps(60):
            z = mpmath.fsum(
                mpmath.mpf(w) * (2 * mpmath.sin(mpmath.mpf(phi) / 2) ** 2 + 1j * mpmath.sin(phi))
                for w, phi in zip(weights.tolist(), phases.tolist())
            )
            exact = 1 / abs(1 + mpmath.mpf(nbar) * z * (2 - z))
            gap = abs(closed_form_survival(weights, phases, nbar) - exact) / exact
        assert gap <= REFERENCE_REL_TOL, (weights, phases, nbar, gap)
