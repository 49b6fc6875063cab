"""Quantification of late gadolinium enhanced cardiac MR stacks.

Pipeline stages: slice realignment, LV intensity normalization, 3D graph-cut
infarct classification, rule-based post-processing, and AHA 16-segment
reporting, validated against synthetic phantoms with known ground truth.
"""

from .aha import AhaConfig, assign_levels, assign_segments, quantify
from .graphcut import (
    Labeling,
    MyocardiumVolume,
    classify,
    data_cost_infarct,
    data_cost_normal,
    energy,
    interaction_potential,
)
from .normalize import lv_voxels
from .phantom import PhantomConfig, default_wedge_config, generate
from .pipeline import PipelineConfig, myocardium_volume, run_pipeline
from .raster import contour_masks
from .realign import AlignmentProblem, optimize, total_cost
from .rician import (
    RicianMixtureParams,
    build_relative_probability,
    find_threshold,
    fit_mixture,
    mixture,
)

__version__ = "0.1.0"

# The names the demos and the README import from the top-level package; every
# other name is imported from its module (``lgequant.geometry``, ...).
__all__ = [
    "AhaConfig", "assign_levels", "assign_segments", "quantify",
    "Labeling", "MyocardiumVolume", "classify", "data_cost_infarct", "data_cost_normal",
    "energy", "interaction_potential",
    "lv_voxels",
    "PhantomConfig", "default_wedge_config", "generate",
    "PipelineConfig", "myocardium_volume", "run_pipeline",
    "contour_masks",
    "AlignmentProblem", "optimize", "total_cost",
    "RicianMixtureParams", "build_relative_probability", "find_threshold", "fit_mixture",
    "mixture",
]
