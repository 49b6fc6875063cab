"""The LV intensity model: histogram, mixture fit, class threshold.

All voxels enclosed by the epicardial contours form the LV histogram. Its
dark mode (normal myocardium) is modeled by a shifted Rayleigh, the bright
mode (blood pool plus infarct) by a Gaussian; the components' intersection
separates dark from bright voxels and drives both the blood-pool extraction
during normalization and the classifier's data costs.
"""

import numpy as np

from lgequant import (
    build_relative_probability,
    contour_masks,
    default_wedge_config,
    find_threshold,
    fit_mixture,
    generate,
    lv_voxels,
    mixture,
)

dataset, truth = generate(default_wedge_config(seed=5, noise_sigma=0.08))
stack = np.stack([s.pixels for s in dataset.sa_slices])
samples = lv_voxels(stack, contour_masks(truth.contours, stack.shape))
print(f"LV voxels: {samples.size}, intensity range "
      f"[{samples.min():.0f}, {samples.max():.0f}] (scanner units)")

rp = build_relative_probability(samples, n_bins=64)
params = fit_mixture(rp)
threshold = find_threshold(params)

print("fitted mixture:")
print(f"  dark class : amplitude {params.alpha_r:.1f}, scale {params.sigma_r:.1f}, "
      f"offset {params.a:.1f}, mode {params.rayleigh_mode:.1f}")
print(f"  bright class: amplitude {params.alpha_g:.1f}, width {params.sigma_g:.1f}, "
      f"mean {params.mu:.1f}")
print(f"  class threshold: {threshold:.1f} "
      f"(between the modes {params.rayleigh_mode:.1f} and {params.mu:.1f})")
print(f"  fit residual: {params.fit_residual:.4f}")

# a coarse terminal rendering of the curve and its two components
xs = rp.bin_centers
fit = mixture(xs, params)
for i in range(0, len(xs), 4):
    bar = "#" * int(round(40 * rp.values[i]))
    dot = int(round(40 * fit[i]))
    line = list(f"{bar:<42}")
    if 0 <= dot < 42:
        line[dot] = "*"
    marker = " <- threshold" if abs(xs[i] - threshold) < (xs[1] - xs[0]) * 2 else ""
    print(f"{xs[i]:7.0f} |{''.join(line)}|{marker}")
print("(# histogram, * fitted curve)")
