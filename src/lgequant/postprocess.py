"""Rule-based cleanup of the classifier's labeling.

Four ordered rules: thin bright rims hugging the contours (contour-tracing
flaws that admit epicardial fat or endocardial blood) are removed, tiny
isolated components are discarded as artifacts, intermediate-intensity voxels
adjoining infarcts are recovered (partial-volume false negatives), and dark
sub-endocardial pockets enclosed by infarct are re-included as
microvascular obstruction.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .errors import FINITE, ParameterError, check_number
from .graphcut import Labeling, MyocardiumVolume
from .raster import ContourMasks, grow
from .raster import polygon_mask  # noqa: F401  (patched by benchmarks/tracing.py)
from .rician import RicianMixtureParams

SIX_CONNECTED = ndimage.generate_binary_structure(3, 1)
# A component is a rim candidate when this share of its voxels lies in the two
# in-plane layers along the mask edge: a contour drawn a voxel off admits a
# layer that hugs the edge almost entirely, while a true infarct reaches into
# the wall.
BOUNDARY_FRACTION = 0.95
# A rim candidate is removed when it is at most this many voxels deep in plane:
# such a tracing flaw is one voxel of fat or blood, and an infarct is thicker.
MAX_RIM_THICKNESS_VOX = 1
# A normal-tissue pocket on the cavity is MVO when infarct makes up this share
# of its ring away from the cavity: an obstructed core is surrounded by
# enhancement, while normal myocardium borders mostly normal myocardium.
MVO_ENCLOSURE_FRACTION = 0.8


def check_min_volume(min_volume_mm3) -> None:
    """Raise ParameterError unless the small-component threshold is a number >= 0."""
    check_number("min_volume_mm3", min_volume_mm3, what="non-negative", ok=lambda v: v >= 0)


def _voxel_volume_mm3(spacing_mm) -> float:
    d_row, d_col, d_thr = spacing_mm
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
    return [(ci, grow(boxes[ci - 1], comp.shape)) for ci in labels]


def _inplane_depth(mask: np.ndarray) -> np.ndarray:
    """Per-slice taxicab distance to the nearest out-of-mask pixel (1 = edge)."""
    depth = np.zeros(mask.shape, dtype=np.int32)
    for k in range(mask.shape[0]):
        depth[k] = ndimage.distance_transform_cdt(mask[k], metric="taxicab")
    return depth


def remove_boundary_false_positives(infarct: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Drop infarct components that are thin rims along the mask boundary."""
    if not infarct.any():
        return infarct
    near_boundary = _inplane_depth(mask) <= 2   # the edge layer itself plus one voxel inward
    comp, _ = ndimage.label(infarct, SIX_CONNECTED)
    in_comp = comp[infarct]
    frac = np.bincount(in_comp, weights=near_boundary[infarct])[1:] / np.bincount(in_comp)[1:]
    out = infarct.copy()
    for ci, box in _grown_boxes(comp, np.flatnonzero(~(frac < BOUNDARY_FRACTION)) + 1):
        cmask = comp[box] == ci
        if int(_inplane_depth(cmask).max()) <= MAX_RIM_THICKNESS_VOX:
            out[box][cmask] = False
    return out


def remove_small_components(infarct: np.ndarray, min_volume_mm3: float,
                            spacing_mm) -> np.ndarray:
    """Drop infarct components smaller than the physical volume threshold."""
    check_min_volume(min_volume_mm3)
    if not infarct.any() or min_volume_mm3 == 0:
        return infarct
    comp, _ = ndimage.label(infarct, SIX_CONNECTED)
    small = np.bincount(comp[infarct]) * _voxel_volume_mm3(spacing_mm) < min_volume_mm3
    small[0] = False
    return infarct & ~small[comp]


def recover_partial_volume(infarct: np.ndarray, mask: np.ndarray, intensity: np.ndarray,
                           i_thrh: float | None) -> np.ndarray:
    """Grow infarcts into 6-connected at-least-threshold voxels, to a fixed point.

    Infarct voxels below the threshold stay infarct and seed the growth too.
    """
    if i_thrh is None:
        raise ParameterError("i_thrh is not set; run find_threshold first")
    check_number("i_thrh", i_thrh, **FINITE)
    eligible = mask & (intensity >= i_thrh)
    return ndimage.binary_propagation(infarct, SIX_CONNECTED, mask=eligible)


def include_mvo(infarct: np.ndarray, mask: np.ndarray, cavity: np.ndarray) -> np.ndarray:
    """Add dark pockets enclosed by infarct except for their cavity face."""
    if not infarct.any():
        return infarct
    comp, n_comp = ndimage.label(mask & ~infarct, SIX_CONNECTED)
    out = infarct.copy()
    for ci, box in _grown_boxes(comp, range(1, n_comp + 1)):
        cmask = comp[box] == ci
        ring = ndimage.binary_dilation(cmask, SIX_CONNECTED) & ~cmask
        if not np.any(ring & cavity[box]):
            continue
        non_cavity_ring = ring & ~cavity[box]
        total = int(non_cavity_ring.sum())
        if total == 0:
            continue
        n_inf = int((non_cavity_ring & infarct[box]).sum())
        if n_inf >= MVO_ENCLOSURE_FRACTION * total:
            out[box][cmask] = True
    return out


def run_postprocessing(
    labeling: Labeling,
    volume: MyocardiumVolume,
    masks: ContourMasks,
    params: RicianMixtureParams,
    min_volume_mm3: float = 100.0,
) -> tuple:
    """Apply the four rules in their fixed order; returns (labeling, audit).

    The rules run in ``volume.reach(labeling)``, which holds every masked or
    infarct voxel and its 6-neighbours, and the result is pasted back into a
    full-size labeling: they label, measure and audit as on the full arrays.
    """
    shape = volume.mask.shape
    for name, other in (("labeling", labeling.labels), ("endo mask", masks.endo),
                        ("epi mask", masks.epi)):
        if other.shape != shape:
            raise ParameterError(f"{name} shape {other.shape} differs from the volume's {shape}")
    box = volume.reach(labeling)
    mask, intensity, cavity = volume.mask[box], volume.intensity[box], masks.endo[box]
    vox_mm3 = _voxel_volume_mm3(volume.spacing_mm)

    def component_sizes(changed: np.ndarray) -> list:
        if not changed.any():
            return []
        comp, _ = ndimage.label(changed, SIX_CONNECTED)
        return [
            {"voxels": int(s), "volume_mm3": float(s) * vox_mm3}
            for s in np.sort(np.bincount(comp[changed])[1:])[::-1]
        ]

    # Each rule is looked up when it runs, so a wrapper installed on this
    # module (benchmarks/tracing.py) sees every call.
    steps = (
        ("boundary_false_positives", lambda x: remove_boundary_false_positives(x, mask)),
        ("small_components",
         lambda x: remove_small_components(x, min_volume_mm3, volume.spacing_mm)),
        ("partial_volume_recovery",
         lambda x: recover_partial_volume(x, mask, intensity, params.i_thrh)),
        ("mvo_inclusion", lambda x: include_mvo(x, mask, cavity)),
    )
    audit = []
    infarct = labeling.infarct_mask()[box]
    for name, step in steps:
        after = step(infarct)
        audit.append({
            "step": name,
            "voxels_before": int(infarct.sum()),
            "voxels_after": int(after.sum()),
            "removed_components": component_sizes(infarct & ~after),
            "added_components": component_sizes(after & ~infarct),
        })
        infarct = after
    labels = np.zeros(shape, dtype=np.uint8)
    labels[box] = infarct
    return Labeling(labels=labels, mask=labeling.mask), audit
