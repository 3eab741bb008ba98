"""Watching the Heisenberg limit appear in shot noise.

Monte-Carlo estimation runs at a fixed operating bias while the probe's
mean photon number doubles point by point.  For the squeezed probe the
estimation variance drops with the square of the photon number; a
coherent probe of the same mean photon number, sent through the same
scheme, only buys the linear shot-noise improvement.
"""

from sqzmet import heisenberg_sensitivity, scaling_sweep

NBARS = [0.5, 1.0, 2.0, 4.0]
SHOTS = 10 ** 5
REPS = 200
SEED = 20260808

print(f"{SHOTS} shots per repetition, {REPS} repetitions per point")
print()

for baseline in ("squeezed", "coherent"):
    result = scaling_sweep(NBARS, SHOTS, REPS, SEED, baseline=baseline)
    print(f"{baseline} probe")
    print("  nbar    var(phi)*shots    1/(8 nbar^2)    ratio")
    for nbar, point in zip(result.nbars, result.results):
        measured = point.delta_phi_sq * SHOTS
        reference = heisenberg_sensitivity(nbar)
        print(
            f"  {nbar:4.1f}    {measured:12.6f}    {reference:12.6f}"
            f"    {measured / reference:8.3f}"
        )
    print(f"  fitted log-log slope: {result.slope:.3f}")
    print()

print("slope -2 is the Heisenberg signature; -1 is the shot-noise limit.")
