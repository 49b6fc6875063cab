"""AHA 16-segment reporting and the bull's eye plot.

Builds the myocardium grid from the phantom contours, assigns every voxel a
segment (basal and mid rings of six 60-degree sectors, apical ring of four
90-degree sectors), quantifies the ground-truth infarct per segment, and
writes the color-coded bull's eye SVG.
"""

import tempfile
from pathlib import Path

import numpy as np

from lgequant import (
    AhaConfig,
    Labeling,
    assign_levels,
    assign_segments,
    contour_masks,
    default_wedge_config,
    generate,
    myocardium_volume,
    quantify,
)
from lgequant.plots import bullseye_svg

dataset, truth = generate(default_wedge_config(seed=3, noise_sigma=0.0))
stack = np.stack([s.pixels for s in dataset.sa_slices])
volume = myocardium_volume(dataset, contour_masks(truth.contours, stack.shape),
                           stack=stack / stack.max())

levels = assign_levels(len(dataset.sa_slices))
print("slice levels base->apex:", levels)

segments = assign_segments(volume, AhaConfig(reference_angle_deg=0.0))
labeling = Labeling((truth.infarct_mask & volume.mask).astype(np.uint8), volume.mask)
report = quantify(labeling, volume, segments)

print(f"volumetric I/M%: {report.volumetric_percent:.2f}")
print("segment        I/M%   infarct/myocardium voxels")
for s in range(16):
    print(f"  segment {s + 1:2d}: {report.segment_percent[s]:6.2f}   "
          f"{report.segment_infarct_voxels[s]:5d} / {report.segment_myocardium_voxels[s]:5d}")

out = Path(tempfile.mkdtemp(prefix="lgequant_demo_")) / "bullseye.svg"
bullseye_svg(report.segment_percent, out)
print(f"bull's eye written to {out}")
