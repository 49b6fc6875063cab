"""Quantification of late gadolinium enhanced cardiac MR stacks.

Pipeline stages: slice realignment, LV intensity normalization, 3D graph-cut
infarct classification, rule-based post-processing, and AHA 16-segment
reporting, validated against synthetic phantoms with known ground truth.
"""

from .aha import AhaConfig, QuantReport, SegmentModel, assign_levels, assign_segments, quantify
from .dataset import ContourSet, LgeDataset
from .geometry import (
    Line3,
    Roi,
    SampledRegion,
    SampledSegment,
    SliceImage,
    SlicePose,
    clip_line_to_roi,
    contiguous_regions,
    patient_to_pixel,
    pixel_to_patient,
    plane_intersection,
    sample_segment,
)
from .graphcut import (
    GraphCutConfig,
    Labeling,
    MyocardiumVolume,
    classify,
    data_cost_infarct,
    data_cost_normal,
    energy,
    interaction_potential,
)
from .metrics import BlandAltmanStats, bland_altman, dice
from .normalize import NormalizationResult, bp_pixels, iterate_normalization, lv_voxels
from .phantom import InfarctWedge, MvoPocket, PhantomConfig, PhantomTruth, default_wedge_config, generate
from .pipeline import PipelineConfig, PipelineStageError, myocardium_volume, run_pipeline
from .postprocess import (
    PostprocessConfig,
    include_mvo,
    recover_partial_volume,
    remove_boundary_false_positives,
    remove_small_components,
    run_postprocessing,
)
from .raster import contour_masks
from .realign import (
    AlignmentProblem,
    AlignmentResult,
    contiguous_cost,
    intersecting_cost,
    mean_squared_difference,
    optimize,
    total_cost,
    zscore_normalize,
)
from .rician import (
    RelativeProbability,
    RicianMixtureParams,
    build_relative_probability,
    find_threshold,
    fit_mixture,
    gaussian_term,
    mixture,
    rayleigh_shifted,
)

__version__ = "0.1.0"

__all__ = [
    "AhaConfig", "QuantReport", "SegmentModel", "assign_levels", "assign_segments",
    "quantify", "ContourSet", "LgeDataset", "Line3", "Roi", "SampledRegion",
    "SampledSegment", "SliceImage", "SlicePose", "clip_line_to_roi",
    "contiguous_regions", "patient_to_pixel", "pixel_to_patient",
    "plane_intersection", "sample_segment", "GraphCutConfig", "Labeling",
    "MyocardiumVolume", "classify", "data_cost_infarct", "data_cost_normal",
    "energy", "interaction_potential", "BlandAltmanStats", "bland_altman", "dice",
    "NormalizationResult", "bp_pixels", "iterate_normalization", "lv_voxels",
    "InfarctWedge", "MvoPocket", "PhantomConfig", "PhantomTruth",
    "default_wedge_config", "generate", "PipelineConfig", "PipelineStageError",
    "myocardium_volume", "run_pipeline", "PostprocessConfig", "include_mvo",
    "recover_partial_volume", "remove_boundary_false_positives",
    "remove_small_components", "run_postprocessing", "contour_masks", "AlignmentProblem",
    "AlignmentResult", "contiguous_cost", "intersecting_cost",
    "mean_squared_difference", "optimize", "total_cost", "zscore_normalize",
    "RelativeProbability", "RicianMixtureParams", "build_relative_probability",
    "find_threshold", "fit_mixture", "gaussian_term", "mixture", "rayleigh_shifted",
]
