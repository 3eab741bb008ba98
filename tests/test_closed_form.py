"""Both engines against the closed form P = 1 / |1 + nbar (1 - m^2)| across the envelope.

The Fock engine is also held to the z-form of the same law at M = 10^4 and 10^5.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from sqzmet import SqueezeParameter, exact_survival_probability


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
    m = np.sum(weights * np.exp(-1j * phases))
    closed = 1.0 / abs(1.0 + squeeze.mean_photon_number * (1.0 - m * m))
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
    # z = 1 - m = sum w (2 sin^2(phi/2) + i sin phi) and 1 - m^2 = z (2 - z),
    # so the small-phase deficit is formed without cancelling against 1
    rng = np.random.default_rng([modes, int(10 * r)])
    phases = rng.uniform(-0.05, 0.05, size=modes)
    squeeze = SqueezeParameter(r)
    for weights in (rng.dirichlet(np.ones(modes)), _skewed(modes)):
        weights = weights / weights.sum()
        z = np.sum(weights * (2.0 * np.sin(phases / 2.0) ** 2 + 1j * np.sin(phases)))
        closed = 1.0 / abs(1.0 + squeeze.mean_photon_number * z * (2.0 - z))
        p, _ = exact_survival_probability(weights, phases, squeeze, engine="fock")
        assert abs(p - closed) <= 1e-9
