"""Anatomy of the survival probability's small-phase expansion.

The log of this script walks through the series structure: the zeroth
term is 1, every odd term vanishes identically, the second term is twice
the generator variance, and truncating after the sixth-order term leaves
a remainder falling off with the eighth power of the phase scale.
"""

import math

import numpy as np

from sqzmet import (
    SqueezeParameter,
    generator_moments_sectors,
    recommend_cutoff,
    series_partial_sum,
    survival_probability_sectors,
)

weights = np.array([0.25, 0.75])
phases = np.array([0.2, 0.0])
squeeze = SqueezeParameter(math.asinh(1.0))

cutoff = recommend_cutoff(squeeze, 1e-15, moment_power=8)
series = generator_moments_sectors(weights, phases, squeeze, cutoff, max_order=8)

print("generator moments <(n.phi)^k>:")
for k, g in enumerate(series.moments[:5]):
    print(f"  k={k}: {g: .10f}")
print()
print("series terms (odd ones vanish identically):")
for ell, term in enumerate(series.terms):
    print(f"  l={ell}: {term: .3e}")
print()
print(f"term 2 = twice the generator variance: {series.terms[2]:.6f} (expect 0.035)")
print()

exact = survival_probability_sectors(weights, phases, squeeze, cutoff)
print(f"exact survival probability : {exact:.12f}")
for order in (0, 2, 4, 6):
    partial = series_partial_sum(series.terms, order)
    print(f"  through term {order}: {partial:.12f}  (gap {abs(partial - exact):.2e})")
print()

# Remainder order: scale all phases down and watch the sixth-order
# truncation error drop with the eighth power.
print("scale     gap after term 6")
gaps = []
scales = np.geomspace(1.0, 0.25, 5)
for scale in scales:
    scaled = phases * scale
    exact = survival_probability_sectors(weights, scaled, squeeze, cutoff)
    terms = generator_moments_sectors(weights, scaled, squeeze, cutoff, max_order=6).terms
    gap = abs(series_partial_sum(terms, 6) - exact)
    gaps.append(gap)
    print(f"{scale:6.3f}    {gap:.3e}")
slope = np.polyfit(np.log(scales), np.log(gaps), 1)[0]
print(f"fitted power: {slope:.2f} (expect about 8)")
