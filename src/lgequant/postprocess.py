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

from .errors import FINITE, NON_NEGATIVE, ParameterError, check_number
from .graphcut import Labeling, MyocardiumVolume
from .raster import ContourMasks, canvas, grow
from .raster import polygon_mask  # noqa: F401  (patched by benchmarks/tracing.py)
from .rician import RicianMixtureParams

# A voxel and its six face neighbours: ndimage.generate_binary_structure(3, 1).
SIX_CONNECTED = np.array([[[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                          [[0, 1, 0], [1, 1, 1], [0, 1, 0]],
                          [[0, 0, 0], [0, 1, 0], [0, 0, 0]]], dtype=bool)
IN_PLANE = SIX_CONNECTED & np.array([False, True, False])[:, None, None]
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
    """Raise ParameterError unless the small-component threshold is finite and >= 0."""
    check_number("min_volume_mm3", min_volume_mm3, **NON_NEGATIVE)


def _voxel_volume_mm3(spacing_mm) -> float:
    d_row, d_col, d_thr = spacing_mm
    return float(d_row * d_col * d_thr)


def _inplane_depth(mask: np.ndarray) -> np.ndarray:
    """Per-slice taxicab distance to the nearest out-of-mask pixel (1 = edge, -1: none)."""
    from scipy import ndimage
    return ndimage.distance_transform_cdt(mask, metric=IN_PLANE)


def remove_boundary_false_positives(infarct: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Drop infarct components that are thin rims along the mask boundary."""
    from scipy import ndimage
    if not infarct.any():
        return infarct
    # The box holds each component's grown box and every pixel within 2 of the infarct.
    box = canvas(infarct, by=(1, 2, 2))
    inf, cut = infarct[box], mask[box]
    near_boundary = _inplane_depth(cut) <= 2   # the edge layer itself plus one voxel inward
    # A box slice reads -1 when it has no out-of-mask pixel; its whole slice may have one.
    filled = cut.all(axis=(1, 2))
    near_boundary[filled] = mask[box[0]][filled].all(axis=(1, 2))[:, None, None]
    comp, _ = ndimage.label(inf, SIX_CONNECTED)
    in_comp = comp[inf]
    frac = np.bincount(in_comp, weights=near_boundary[inf])[1:] / np.bincount(in_comp)[1:]
    out = infarct.copy()
    boxes = ndimage.find_objects(comp)
    for ci in np.flatnonzero(~(frac < BOUNDARY_FRACTION)) + 1:
        cbox = grow(boxes[ci - 1], comp.shape)   # holds the component's depth
        cmask = comp[cbox] == ci
        if int(_inplane_depth(cmask).max()) <= MAX_RIM_THICKNESS_VOX:
            out[box][cbox][cmask] = False
    return out


def remove_small_components(infarct: np.ndarray, min_volume_mm3: float,
                            spacing_mm) -> np.ndarray:
    """Drop infarct components smaller than the physical volume threshold."""
    from scipy import ndimage
    check_min_volume(min_volume_mm3)
    if not infarct.any() or min_volume_mm3 == 0:
        return infarct
    box = canvas(infarct, by=(0, 0, 0))
    comp, _ = ndimage.label(infarct[box], SIX_CONNECTED)
    small = np.bincount(comp.ravel()) * _voxel_volume_mm3(spacing_mm) < min_volume_mm3
    small[0] = False
    out = infarct.copy()
    out[box] &= ~small[comp]
    return out


def recover_partial_volume(infarct: np.ndarray, mask: np.ndarray, intensity: np.ndarray,
                           i_thrh: float | None) -> np.ndarray:
    """Grow infarcts into 6-connected at-least-threshold voxels, to a fixed point.

    Infarct voxels below the threshold stay infarct and seed the growth too.
    This reconstruction keeps the components of ``eligible | infarct`` that
    hold infarct (Vincent, IEEE TIP 1993), so one labeling finds it.
    """
    from scipy import ndimage
    if i_thrh is None:
        raise ParameterError("i_thrh is not set; run find_threshold first")
    check_number("i_thrh", i_thrh, **FINITE)
    comp, n_comp = ndimage.label(mask & (intensity >= i_thrh) | infarct, SIX_CONNECTED)
    seeded = np.zeros(n_comp + 1, dtype=bool)
    seeded[comp[infarct]] = True
    return seeded.take(comp)


def include_mvo(infarct: np.ndarray, mask: np.ndarray, cavity: np.ndarray) -> np.ndarray:
    """Add dark pockets enclosed by infarct except for their cavity face.

    A normal-tissue component's ring is every voxel off it with a face
    neighbour in it; one pass over the ring voxels counts every ring.
    """
    from scipy import ndimage
    if not infarct.any():
        return infarct
    comp, n_comp = ndimage.label(mask & ~infarct, SIX_CONNECTED)
    padded = np.pad(comp, 1)      # a neighbour off the array reads label 0
    normal = padded > 0
    ring = np.zeros_like(normal)
    for neighbour in (normal[:-2, 1:-1, 1:-1], normal[2:, 1:-1, 1:-1], normal[1:-1, :-2, 1:-1],
                      normal[1:-1, 2:, 1:-1], normal[1:-1, 1:-1, :-2], normal[1:-1, 1:-1, 2:]):
        ring[1:-1, 1:-1, 1:-1] |= neighbour
    at = np.flatnonzero(ring & ~normal)
    steps = np.array(padded.strides) // padded.itemsize
    near = padded.ravel()[at[:, None] + np.concatenate([steps, -steps])]
    near.sort(axis=1)
    first = near > 0
    first[:, 1:] &= near[:, 1:] != near[:, :-1]     # each component once per ring voxel
    hit = np.flatnonzero(first)
    # Each ring voxel's side: 0 on the cavity, 1 elsewhere, 2 on infarct off the cavity.
    side = np.pad(~cavity, 1).ravel()[at] * (1 + np.pad(infarct, 1).ravel()[at])
    tally = np.bincount(near.ravel()[hit] * 3 + side[hit // 6], minlength=3 * n_comp + 3)
    on_cavity, other, on_infarct = tally.reshape(-1, 3).T
    total = other + on_infarct
    enclosed = (on_cavity > 0) & (total > 0) & (on_infarct >= MVO_ENCLOSURE_FRACTION * total)
    return infarct | enclosed.take(comp)


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
        from scipy import ndimage
        if not changed.any():
            return []
        changed = changed[canvas(changed, by=(0, 0, 0))]
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
    infarct = (labeling.labels[box] == 1) & labeling.mask[box]
    for name, step in steps:
        after = step(infarct)
        audit.append({
            "step": name,
            "voxels_before": int(np.count_nonzero(infarct)),
            "voxels_after": int(np.count_nonzero(after)),
            "removed_components": component_sizes(infarct & ~after),
            "added_components": component_sizes(after & ~infarct),
        })
        infarct = after
    labels = np.zeros(shape, dtype=np.uint8)
    labels[box] = infarct
    return Labeling(labels=labels, mask=labeling.mask), audit
