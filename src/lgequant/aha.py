"""Standardized 16-segment partition of the SA myocardium and its report.

Slices split base-to-apex into basal, mid and apical levels; basal and mid
levels divide into six 60-degree sectors, the apical level into four
90-degree sectors, numbered consecutively 1-16 from the configured angular
reference. The true apex segment (17, long-axis views only) is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError, ParameterError, check_number
from .graphcut import Labeling, MyocardiumVolume

SEGMENTS_PER_LEVEL = {"basal": (1, 6), "mid": (7, 12), "apical": (13, 16)}
MAX_REFERENCE_ANGLE = 1e6     # degrees; its float spacing, ~1e-10 deg, leaves sectors true


@dataclass
class AhaConfig:
    # Angle 0 points toward decreasing row index ("image up"); angles grow
    # toward increasing column index.
    reference_angle_deg: float = 0.0

    def __post_init__(self):
        check_number("reference angle", self.reference_angle_deg,
                     what=f"finite and within {MAX_REFERENCE_ANGLE:g} degrees of 0",
                     ok=lambda v: abs(v) <= MAX_REFERENCE_ANGLE)


@dataclass
class SegmentModel:
    segment_ids: np.ndarray            # (n_slices, rows, cols), 0 outside mask
    levels: list
    reference_angle_deg: float


@dataclass
class QuantReport:
    volumetric_percent: float
    segment_percent: np.ndarray        # (16,)
    segment_infarct_voxels: np.ndarray
    segment_myocardium_voxels: np.ndarray
    total_infarct_voxels: int
    total_myocardium_voxels: int


def assign_levels(n_slices: int) -> list:
    """Base-to-apex split into basal / mid / apical contiguous groups."""
    if n_slices < 3:
        raise ParameterError("need at least 3 SA slices for the three levels")
    n_basal = int(np.ceil(n_slices / 3.0))
    n_mid = int(round(n_slices / 3.0))
    n_apical = n_slices - n_basal - n_mid
    return ["basal"] * n_basal + ["mid"] * n_mid + ["apical"] * n_apical


def assign_segments(volume: MyocardiumVolume, config: AhaConfig | None = None) -> SegmentModel:
    """Per-voxel segment ids from slice level and angle about the slice's centroid.

    Voxel coordinates are taken in the volume's box, so the ids do not depend
    on where the myocardium lies in the grid. All slices go in one pass; a
    centroid is an integer coordinate sum, exact in float64, over a count.
    """
    config = config or AhaConfig()
    n_slices = volume.mask.shape[0]
    levels = assign_levels(n_slices)
    ids = np.zeros(volume.mask.shape, dtype=np.int16)
    in_box = (slice(None), *volume.box[1:])
    mask = volume.mask[in_box]
    rows, cols = mask.shape[1:]
    at = np.flatnonzero(mask)           # C order, as argwhere lists each slice's voxels
    k_row = at // cols
    k = k_row // rows
    counts = np.bincount(k, minlength=n_slices)
    if not counts.all():
        raise EmptyMaskError(f"slice {int(np.argmin(counts))} has no myocardium")
    row, col = k_row - k * rows, at - k_row * cols
    d_row = row - (np.bincount(k, weights=row) / counts)[k]
    d_col = col - (np.bincount(k, weights=col) / counts)[k]
    # x % 360.0, branch-free: fmod (|angles| <= 180 is its own) moved into [0, 360).
    angles = np.degrees(np.arctan2(d_col, -d_row))
    angles += 360.0 * (angles < 0)
    rel = np.fmod(angles - config.reference_angle_deg, 360.0)
    rel += 360.0 * (rel < 0)
    first, last = np.array([SEGMENTS_PER_LEVEL[level] for level in levels], dtype=np.int16).T
    n_sectors = (last - first + 1)[k]
    sector = np.floor(rel / (360.0 / n_sectors)).astype(np.int16)
    ids[in_box][mask] = first[k] + np.minimum(sector, n_sectors - 1)
    return SegmentModel(segment_ids=ids, levels=levels,
                        reference_angle_deg=config.reference_angle_deg)


def quantify(labeling: Labeling, volume: MyocardiumVolume, segments: SegmentModel) -> QuantReport:
    """Volumetric and per-segment infarct percentages (I/M%)."""
    if labeling.mask.shape != volume.mask.shape:
        raise ParameterError("labeling and volume shapes differ")
    box = volume.box
    mask = volume.mask[box]
    # An infarct voxel off the volume's mask lies in no segment, so it is not counted;
    # the mask lies in the box.
    infarct = (labeling.labels[box] == 1) & mask
    # Ids outside 1..16 clip into the dropped bins 0 and 17.
    seg = np.clip(segments.segment_ids[box], 0, 17)
    myo_counts = np.bincount(seg[mask], minlength=18)[1:17]
    inf_counts = np.bincount(seg[infarct], minlength=18)[1:17]
    total_myo = int(np.count_nonzero(mask))
    total_inf = int(np.count_nonzero(infarct))
    with np.errstate(invalid="ignore", divide="ignore"):
        seg_pct = np.where(myo_counts > 0, 100.0 * inf_counts / np.maximum(myo_counts, 1), 0.0)
    vol_pct = 100.0 * total_inf / total_myo if total_myo else 0.0
    return QuantReport(
        volumetric_percent=float(vol_pct),
        segment_percent=seg_pct,
        segment_infarct_voxels=inf_counts,
        segment_myocardium_voxels=myo_counts,
        total_infarct_voxels=total_inf,
        total_myocardium_voxels=total_myo,
    )
