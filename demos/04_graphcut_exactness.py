"""The two-label minimum cut is exact: compare against full enumeration.

For volumes small enough to enumerate every labeling, the cut's energy must
equal the global minimum bit for bit. This re-runs that comparison on a few
random masked volumes and prints the energies.
"""

import numpy as np

from lgequant import (
    Labeling,
    MyocardiumVolume,
    RicianMixtureParams,
    classify,
    data_cost_infarct,
    data_cost_normal,
    energy,
    interaction_potential,
)
from lgequant.graphcut import interaction_sigma

rng = np.random.default_rng(99)
params = RicianMixtureParams(alpha_r=0.12, sigma_r=0.10, a=-0.15,
                             alpha_g=0.09, sigma_g=0.08, mu=0.75)
for trial in range(5):
    shape = (2, 3, 2)
    mask = rng.random(shape) < 0.9
    mask.flat[0] = True
    intensity = rng.uniform(0.0, 1.0, size=shape)
    volume = MyocardiumVolume(intensity, mask, spacing_mm=(1.25, 1.25, 10.0))

    labeling = classify(volume, params)
    cut_energy = energy(volume, labeling, params)

    # exhaustive enumeration over all 2^N labelings
    coords = [tuple(c) for c in np.argwhere(mask)]
    n = len(coords)
    best = np.inf
    for bits in range(2 ** n):
        lab = np.zeros(shape, dtype=np.uint8)
        for i, c in enumerate(coords):
            lab[c] = (bits >> i) & 1
        e = energy(volume, Labeling(lab, mask), params)
        best = min(best, e)

    status = "exact" if cut_energy == best else "MISMATCH"
    print(f"trial {trial}: {n:2d} voxels, cut energy {cut_energy:.6f}, "
          f"enumerated minimum {best:.6f} -> {status}")

sigma = interaction_sigma(params)
print(f"\ninteraction potential at equal intensities: "
      f"{interaction_potential(0.5, 0.5, sigma):.3f}")
print(f"interaction potential one sigma apart:      "
      f"{interaction_potential(0.5, 0.5 + sigma, sigma):.3f}")
print(f"free labels: bright voxel as infarct costs "
      f"{data_cost_infarct(params.mu + 0.1, params):.1f}, dark voxel as normal "
      f"{data_cost_normal(params.rayleigh_mode - 0.1, params):.1f}")
