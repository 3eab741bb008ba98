"""Two independent engines, one survival probability.

A squeezed probe enters channel 1 of a three-channel network, picks up an
unknown phase in every channel, and is undone again.  The probability that
it comes back unchanged is computed twice: once by pushing a covariance
matrix through the optics, once by summing the occupation-number
distribution of the probe after the network.  The two numbers must agree
to more than ten digits even though they share no code path.
"""

import math

import numpy as np

from sqzmet import (
    SqueezeParameter,
    apply_network,
    embed_weights_unitary,
    exact_survival_probability,
    recommend_cutoff,
    squeezed_probe,
    survival_probability_sectors,
    vacuum_overlap_probability,
)

weights = np.array([0.5, 0.3, 0.2])
phases = np.array([0.08, -0.03, 0.05])
squeeze = SqueezeParameter(math.asinh(1.0))  # one photon on average

print("weights      :", weights)
print("phases       :", phases)
print(f"mean photons : {squeeze.mean_photon_number:.3f}")
print()

# Route 1: covariance matrices.  The phases are a diagonal passive network.
unitary = embed_weights_unitary(weights)
probe = squeezed_probe(3, squeeze)
state = apply_network(probe, unitary)
state = apply_network(state, np.diag(np.exp(-1j * phases)))
state = apply_network(state, unitary.conj().T)
p_gaussian = vacuum_overlap_probability(state, probe)

# Route 2: occupation-number sectors at a certified cutoff.
cutoff = recommend_cutoff(squeeze, tail_bound=1e-12)
p_fock = survival_probability_sectors(weights, phases, squeeze, cutoff)

print(f"covariance engine : {p_gaussian:.15f}")
print(f"fock oracle       : {p_fock:.15f}   (cutoff {cutoff})")
print(f"difference        : {abs(p_gaussian - p_fock):.3e}")
print()

# The survival deficit is the generator variance to second order:
# number fluctuations scaled by the squared phase average, plus the
# weighted phase spread scaled by the photon number.  The expansion holds
# while the regime ratio max|phi| * nbar stays below REGIME_THRESHOLD (0.3).
from sqzmet import check_regime, generator_variance, phase_moments, photon_moments

probe_stats = photon_moments(probe)
print("scale   1 - survival   generator variance   regime ratio")
for scale in (0.25, 0.5, 1.0, 2.0):
    p, _ = exact_survival_probability(weights, phases * scale, squeeze)
    variance = generator_variance(phase_moments(weights, phases * scale), probe_stats)
    regime = check_regime(phases * scale, squeeze.mean_photon_number)
    print(f"{scale:5.2f}   {1 - p:12.6e}   {variance:18.6e}   {regime.ratio:12.3f}")
