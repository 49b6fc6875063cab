"""Rule-based cleanup of the classifier's labeling.

Four ordered rules: thin bright rims hugging the contours (contour-tracing
flaws that admit epicardial fat or endocardial blood) are removed, tiny
isolated components are discarded as artifacts, intermediate-intensity voxels
adjoining infarcts are recovered (partial-volume false negatives), and dark
sub-endocardial pockets enclosed by infarct are re-included as
microvascular obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .graphcut import Labeling, MyocardiumVolume
from .raster import ContourMasks
from .raster import polygon_mask  # noqa: F401  (patched by benchmarks/tracing.py)
from .rician import RicianMixtureParams

SIX_CONNECTED = ndimage.generate_binary_structure(3, 1)


@dataclass
class PostprocessConfig:
    boundary_fraction: float = 0.95     # rim voxels within 1 voxel of a contour
    max_rim_thickness_vox: int = 1
    min_volume_mm3: float = 100.0
    mvo_enclosure_fraction: float = 0.8


def _voxel_volume_mm3(volume: MyocardiumVolume) -> float:
    d_row, d_col, d_thr = volume.spacing_mm
    return float(d_row * d_col * d_thr)


def _inplane_depth(mask: np.ndarray) -> np.ndarray:
    """Per-slice taxicab distance to the nearest out-of-mask pixel (1 = edge)."""
    depth = np.zeros(mask.shape, dtype=np.int32)
    for k in range(mask.shape[0]):
        depth[k] = ndimage.distance_transform_cdt(mask[k], metric="taxicab")
    return depth


def remove_boundary_false_positives(
    labeling: Labeling,
    volume: MyocardiumVolume,
    config: PostprocessConfig | None = None,
) -> Labeling:
    """Drop infarct components that are thin rims along the mask boundary."""
    config = config or PostprocessConfig()
    infarct = labeling.infarct_mask()
    if not infarct.any():
        return labeling
    depth = _inplane_depth(volume.mask)
    near_boundary = depth <= 2   # the edge layer itself plus one voxel inward
    comp, n_comp = ndimage.label(infarct, SIX_CONNECTED)
    out = infarct.copy()
    for ci in range(1, n_comp + 1):
        cmask = comp == ci
        frac = float(near_boundary[cmask].mean())
        if frac < config.boundary_fraction:
            continue
        inner = _inplane_depth(cmask)
        if int(inner.max()) <= config.max_rim_thickness_vox:
            out[cmask] = False
    return Labeling(labels=out.astype(np.uint8), mask=labeling.mask)


def remove_small_components(
    labeling: Labeling, min_volume_mm3: float, volume: MyocardiumVolume
) -> Labeling:
    """Relabel infarct components smaller than the physical volume threshold."""
    if min_volume_mm3 < 0:
        raise ValueError("min_volume_mm3 must be non-negative")
    infarct = labeling.infarct_mask()
    if not infarct.any() or min_volume_mm3 == 0:
        return labeling
    vox = _voxel_volume_mm3(volume)
    comp, n_comp = ndimage.label(infarct, SIX_CONNECTED)
    sizes = ndimage.sum_labels(np.ones_like(comp), comp, index=np.arange(1, n_comp + 1))
    out = infarct.copy()
    for ci, n_vox in enumerate(sizes, start=1):
        if n_vox * vox < min_volume_mm3:
            out[comp == ci] = False
    return Labeling(labels=out.astype(np.uint8), mask=labeling.mask)


def recover_partial_volume(
    labeling: Labeling, volume: MyocardiumVolume, params: RicianMixtureParams
) -> Labeling:
    """Grow infarcts into adjacent at-least-threshold voxels, to a fixed point."""
    if params.i_thrh is None:
        raise ValueError("params.i_thrh is not set; run find_threshold first")
    infarct = labeling.infarct_mask()
    eligible = volume.mask & (volume.intensity >= params.i_thrh)
    while True:
        frontier = (
            ndimage.binary_dilation(infarct, SIX_CONNECTED) & eligible & ~infarct
        )
        if not frontier.any():
            break
        infarct |= frontier
    return Labeling(labels=infarct.astype(np.uint8), mask=labeling.mask)


def include_mvo(
    labeling: Labeling,
    masks: ContourMasks,
    volume: MyocardiumVolume,
    config: PostprocessConfig | None = None,
) -> Labeling:
    """Relabel dark pockets enclosed by infarct except for their cavity face."""
    config = config or PostprocessConfig()
    infarct = labeling.infarct_mask()
    if not infarct.any():
        return labeling
    cavity = masks.endo
    normal = volume.mask & ~infarct
    comp, n_comp = ndimage.label(normal, SIX_CONNECTED)
    out = infarct.copy()
    for ci in range(1, n_comp + 1):
        cmask = comp == ci
        ring = ndimage.binary_dilation(cmask, SIX_CONNECTED) & ~cmask
        touches_endo = bool(np.any(ring & cavity))
        if not touches_endo:
            continue
        non_cavity_ring = ring & ~cavity
        total = int(non_cavity_ring.sum())
        if total == 0:
            continue
        n_inf = int((non_cavity_ring & infarct).sum())
        if n_inf >= config.mvo_enclosure_fraction * total:
            out[cmask] = True
    return Labeling(labels=out.astype(np.uint8), mask=labeling.mask)


def run_postprocessing(
    labeling: Labeling,
    volume: MyocardiumVolume,
    masks: ContourMasks,
    params: RicianMixtureParams,
    config: PostprocessConfig | None = None,
) -> tuple:
    """Apply the four rules in their fixed order; returns (labeling, audit)."""
    config = config or PostprocessConfig()
    audit = []
    vox_mm3 = _voxel_volume_mm3(volume)

    def component_sizes(mask: np.ndarray) -> list:
        comp, n = ndimage.label(mask, SIX_CONNECTED)
        sizes = ndimage.sum_labels(np.ones_like(comp), comp, np.arange(1, n + 1))
        return [
            {"voxels": int(s), "volume_mm3": float(s) * vox_mm3}
            for s in np.sort(np.asarray(sizes))[::-1]
        ]

    steps = (
        ("boundary_false_positives",
         lambda lab: remove_boundary_false_positives(lab, volume, config)),
        ("small_components",
         lambda lab: remove_small_components(lab, config.min_volume_mm3, volume)),
        ("partial_volume_recovery",
         lambda lab: recover_partial_volume(lab, volume, params)),
        ("mvo_inclusion",
         lambda lab: include_mvo(lab, masks, volume, config)),
    )
    current = labeling
    for name, step in steps:
        before_mask = current.infarct_mask()
        current = step(current)
        after_mask = current.infarct_mask()
        audit.append({
            "step": name,
            "voxels_before": int(before_mask.sum()),
            "voxels_after": int(after_mask.sum()),
            "removed_components": component_sizes(before_mask & ~after_mask),
            "added_components": component_sizes(after_mask & ~before_mask),
        })
    return current, audit
