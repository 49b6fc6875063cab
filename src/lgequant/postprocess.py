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

from .errors import COUNT, FINITE, ParameterError, check_number
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

    def __post_init__(self):
        for name in ("boundary_fraction", "mvo_enclosure_fraction"):
            check_number(name, getattr(self, name), what="in [0, 1]", ok=lambda v: 0 <= v <= 1)
        check_number("max_rim_thickness_vox", self.max_rim_thickness_vox, **COUNT)
        check_min_volume(self.min_volume_mm3)


def check_min_volume(min_volume_mm3) -> None:
    """Raise ParameterError unless the small-component threshold is a number >= 0."""
    check_number("min_volume_mm3", min_volume_mm3, what="non-negative", ok=lambda v: v >= 0)


def _voxel_volume_mm3(volume: MyocardiumVolume) -> float:
    d_row, d_col, d_thr = volume.spacing_mm
    return float(d_row * d_col * d_thr)


def _grown_boxes(comp: np.ndarray, labels) -> list:
    """``(label, box)`` per label: its ``find_objects`` box grown by one voxel, clipped.

    The box holds the component's 6-neighbourhood and the nearest voxel outside
    it along every axis, so a dilation or in-plane distance transform of the
    component computed in the box equals the full-volume one.
    """
    if len(labels) == 0:
        return []
    boxes = ndimage.find_objects(comp, max(labels))
    return [(ci, _grow(boxes[ci - 1], comp.shape)) for ci in labels]


def _grow(box: tuple, shape: tuple) -> tuple:
    """``box`` grown by one voxel along every axis and clipped to ``shape``."""
    return tuple(slice(max(sl.start - 1, 0), min(sl.stop + 1, n)) for sl, n in zip(box, shape))


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
    in_comp = comp[infarct]
    frac = np.bincount(in_comp, weights=near_boundary[infarct])[1:] / np.bincount(in_comp)[1:]
    out = infarct.copy()
    for ci, box in _grown_boxes(comp, np.flatnonzero(~(frac < config.boundary_fraction)) + 1):
        cmask = comp[box] == ci
        if int(_inplane_depth(cmask).max()) <= config.max_rim_thickness_vox:
            out[box][cmask] = False
    return Labeling(labels=out.astype(np.uint8), mask=labeling.mask)


def remove_small_components(
    labeling: Labeling, min_volume_mm3: float, volume: MyocardiumVolume
) -> Labeling:
    """Relabel infarct components smaller than the physical volume threshold."""
    check_min_volume(min_volume_mm3)
    infarct = labeling.infarct_mask()
    if not infarct.any() or min_volume_mm3 == 0:
        return labeling
    comp, _ = ndimage.label(infarct, SIX_CONNECTED)
    small = np.bincount(comp[infarct]) * _voxel_volume_mm3(volume) < min_volume_mm3
    small[0] = False
    return Labeling(labels=(infarct & ~small[comp]).astype(np.uint8), mask=labeling.mask)


def recover_partial_volume(
    labeling: Labeling, volume: MyocardiumVolume, params: RicianMixtureParams
) -> Labeling:
    """Grow infarcts into 6-connected at-least-threshold voxels, to a fixed point.

    Infarct voxels below the threshold stay infarct and seed the growth too.
    """
    if params.i_thrh is None:
        raise ParameterError("params.i_thrh is not set; run find_threshold first")
    check_number("params.i_thrh", params.i_thrh, **FINITE)
    eligible = volume.mask & (volume.intensity >= params.i_thrh)
    infarct = ndimage.binary_propagation(labeling.infarct_mask(), SIX_CONNECTED, mask=eligible)
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
    for ci, box in _grown_boxes(comp, range(1, n_comp + 1)):
        cmask = comp[box] == ci
        ring = ndimage.binary_dilation(cmask, SIX_CONNECTED) & ~cmask
        touches_endo = bool(np.any(ring & cavity[box]))
        if not touches_endo:
            continue
        non_cavity_ring = ring & ~cavity[box]
        total = int(non_cavity_ring.sum())
        if total == 0:
            continue
        n_inf = int((non_cavity_ring & infarct[box]).sum())
        if n_inf >= config.mvo_enclosure_fraction * total:
            out[box][cmask] = True
    return Labeling(labels=out.astype(np.uint8), mask=labeling.mask)


def _myocardium_box(labeling: Labeling, volume: MyocardiumVolume) -> tuple:
    """Bounding box of both masks, grown by one voxel and clipped to the array.

    Every rule reads only masked voxels and their 6-neighbours, so outside this
    box is background for all of them: a rule applied in the box, with the
    array edge where the box meets it, labels, measures and audits exactly as
    on the full arrays (the argument of :func:`_grown_boxes`).
    """
    both = volume.mask | labeling.mask
    in_plane = both.any(axis=0)
    spans = [np.flatnonzero(span) for span in
             (both.any(axis=(1, 2)), in_plane.any(axis=1), in_plane.any(axis=0))]
    if spans[0].size == 0:
        return (slice(None),) * 3
    return _grow(tuple(slice(idx[0], idx[-1] + 1) for idx in spans), both.shape)


def run_postprocessing(
    labeling: Labeling,
    volume: MyocardiumVolume,
    masks: ContourMasks,
    params: RicianMixtureParams,
    config: PostprocessConfig | None = None,
) -> tuple:
    """Apply the four rules in their fixed order; returns (labeling, audit).

    The rules run on the masks' bounding box (:func:`_myocardium_box`) and
    the result is pasted back into a full-size labeling.
    """
    config = config or PostprocessConfig()
    shape = volume.mask.shape
    for name, other in (("labeling", labeling.labels), ("endo mask", masks.endo),
                        ("epi mask", masks.epi)):
        if other.shape != shape:
            raise ParameterError(f"{name} shape {other.shape} differs from the volume's {shape}")
    box = _myocardium_box(labeling, volume)
    full_mask = labeling.mask
    labeling = Labeling(labels=labeling.labels[box], mask=full_mask[box])
    volume = MyocardiumVolume(volume.intensity[box], volume.mask[box], volume.spacing_mm)
    masks = ContourMasks(endo=masks.endo[box], epi=masks.epi[box])
    audit = []
    vox_mm3 = _voxel_volume_mm3(volume)

    def component_sizes(mask: np.ndarray) -> list:
        if not mask.any():
            return []
        comp, _ = ndimage.label(mask, SIX_CONNECTED)
        return [
            {"voxels": int(s), "volume_mm3": float(s) * vox_mm3}
            for s in np.sort(np.bincount(comp[mask])[1:])[::-1]
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
    labels = np.zeros(shape, dtype=np.uint8)
    labels[box] = current.labels
    return Labeling(labels=labels, mask=full_mask), audit
