from typing import NamedTuple

import numpy as np
import pytest
from scipy import ndimage

from lgequant.dataset import ContourSet
from lgequant.errors import ParameterError
from lgequant import postprocess
from lgequant.graphcut import Labeling, MyocardiumVolume
from lgequant.postprocess import (
    include_mvo,
    recover_partial_volume,
    remove_boundary_false_positives,
    remove_small_components,
    run_postprocessing,
)
from lgequant.raster import ContourMasks, circle_polygon, contour_masks, polygon_mask
from lgequant.rician import RicianMixtureParams

SPACING = (1.5, 1.5, 10.0)
SIX = ndimage.generate_binary_structure(3, 1)


def annulus_setup(n_slices=3, rows=40, cols=40, r_endo=6.0, r_epi=13.0):
    """Ring myocardium on every slice, with matching contours."""
    center = (rows - 1) / 2.0
    endo = [circle_polygon(center, center, r_endo, 128)] * n_slices
    epi = [circle_polygon(center, center, r_epi, 128)] * n_slices
    contours = ContourSet(endo=list(endo), epi=list(epi))
    endo_m = polygon_mask(endo[0], rows, cols)
    epi_m = polygon_mask(epi[0], rows, cols)
    myo = epi_m & ~endo_m
    mask = np.repeat(myo[None], n_slices, axis=0)
    intensity = np.full(mask.shape, 0.3)
    return mask, intensity, contours, endo_m, epi_m


def make_params():
    p = RicianMixtureParams(alpha_r=0.12, sigma_r=0.10, a=-0.15,
                            alpha_g=0.09, sigma_g=0.08, mu=0.75)
    p.i_thrh = 0.55
    return p


def wedge_mask(mask, endo_m, span=(0.0, 90.0)):
    """Angular wedge of the annulus (transmural) on every slice."""
    rows, cols = mask.shape[1:]
    center = (rows - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    theta = np.degrees(np.arctan2(cc - center, -(rr - center))) % 360.0
    in_angle = (theta >= span[0]) & (theta < span[1])
    return mask & in_angle[None]


class TestBoundaryFalsePositives:
    def test_one_voxel_epicardial_rim_removed(self):
        mask, intensity, contours, endo_m, epi_m = annulus_setup()
        outside = ~epi_m
        from scipy import ndimage
        rim2d = mask[0] & ndimage.binary_dilation(outside)
        infarct = np.zeros(mask.shape, dtype=bool)
        infarct[1] = rim2d
        vol = MyocardiumVolume(intensity, mask, SPACING)
        lab = Labeling(infarct.astype(np.uint8), mask)
        out = remove_boundary_false_positives(lab.infarct_mask(), vol.mask)
        assert not out.any()

    def test_thick_transmural_wedge_kept(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        infarct = wedge_mask(mask, endo_m)
        vol = MyocardiumVolume(intensity, mask, SPACING)
        lab = Labeling(infarct.astype(np.uint8), mask)
        out = remove_boundary_false_positives(lab.infarct_mask(), vol.mask)
        assert np.array_equal(out, infarct)

    def test_rim_removed_wedge_kept_together(self):
        mask, intensity, contours, endo_m, epi_m = annulus_setup()
        from scipy import ndimage
        # endocardial rim on slice 2 only, wedge on slices 0-1; disjoint
        rim2d = mask[0] & ndimage.binary_dilation(endo_m)
        wedge = wedge_mask(mask, endo_m)
        wedge[2] = False
        infarct = wedge.copy()
        infarct[2] |= rim2d & ~wedge_mask(mask, endo_m)[2]
        vol = MyocardiumVolume(intensity, mask, SPACING)
        lab = Labeling(infarct.astype(np.uint8), mask)
        got = remove_boundary_false_positives(lab.infarct_mask(), vol.mask)
        assert np.array_equal(got[0], wedge[0])
        assert np.array_equal(got[1], wedge[1])
        assert not got[2].any()


class TestSmallComponents:
    def test_isolated_voxel_removed(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        infarct = np.zeros(mask.shape, dtype=bool)
        rr, cc = np.argwhere(mask[1])[20]
        infarct[1, rr, cc] = True     # 1.5*1.5*10 = 22.5 mm3
        vol = MyocardiumVolume(intensity, mask, SPACING)
        out = remove_small_components(Labeling(infarct.astype(np.uint8), mask).infarct_mask(),
                                      100.0, vol.spacing_mm)
        assert not out.any()

    def test_ten_voxel_component_kept(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        infarct = np.zeros(mask.shape, dtype=bool)
        coords = np.argwhere(mask[1])
        row = coords[np.argsort(coords[:, 0])][:1][0]
        # carve a 10-voxel in-plane run inside the annulus: 225 mm3
        placed = 0
        for r, c in coords:
            if placed < 10 and mask[1, r, c]:
                infarct[1, r, c] = True
                placed += 1
        vol = MyocardiumVolume(intensity, mask, SPACING)
        out = remove_small_components(Labeling(infarct.astype(np.uint8), mask).infarct_mask(),
                                      100.0, vol.spacing_mm)
        # kept only if the 10 voxels form one connected component of >= 100 mm3
        from scipy import ndimage
        comp, n = ndimage.label(infarct, ndimage.generate_binary_structure(3, 1))
        sizes = ndimage.sum_labels(np.ones_like(comp), comp, np.arange(1, n + 1))
        expected = infarct.copy()
        for ci, s in enumerate(sizes, start=1):
            if s * 22.5 < 100.0:
                expected[comp == ci] = False
        assert np.array_equal(out, expected)

    def test_zero_threshold_noop(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        infarct = wedge_mask(mask, endo_m)
        vol = MyocardiumVolume(intensity, mask, SPACING)
        out = remove_small_components(Labeling(infarct.astype(np.uint8), mask).infarct_mask(),
                                      0.0, vol.spacing_mm)
        assert np.array_equal(out, infarct)


class TestPartialVolumeRecovery:
    def test_fixed_point_when_nothing_bright(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        infarct = wedge_mask(mask, endo_m)
        vol = MyocardiumVolume(intensity, mask, SPACING)   # all 0.3 < 0.55
        out = recover_partial_volume(Labeling(infarct.astype(np.uint8), mask).infarct_mask(),
                                     vol.mask, vol.intensity, make_params().i_thrh)
        assert np.array_equal(out, infarct)

    def test_bright_bridge_absorbed(self):
        mask = np.zeros((1, 3, 8), dtype=bool)
        mask[0, 1, :] = True
        intensity = np.full(mask.shape, 0.3)
        intensity[0, 1, 2:6] = 0.6    # bright chain adjacent to the seed
        infarct = np.zeros(mask.shape, dtype=bool)
        infarct[0, 1, 1] = True
        intensity[0, 1, 1] = 0.9
        vol = MyocardiumVolume(intensity, mask, SPACING)
        got = recover_partial_volume(Labeling(infarct.astype(np.uint8), mask).infarct_mask(),
                                     vol.mask, vol.intensity, make_params().i_thrh)
        assert got[0, 1, 1:6].all()
        assert not got[0, 1, 6:].any() and not got[0, 1, 0]

    def test_isolated_bright_region_untouched(self):
        mask = np.zeros((1, 3, 9), dtype=bool)
        mask[0, 1, :] = True
        intensity = np.full(mask.shape, 0.3)
        intensity[0, 1, 0] = 0.9      # seed
        intensity[0, 1, 6:8] = 0.7    # bright but separated by dark gap
        infarct = np.zeros(mask.shape, dtype=bool)
        infarct[0, 1, 0] = True
        vol = MyocardiumVolume(intensity, mask, SPACING)
        out = recover_partial_volume(Labeling(infarct.astype(np.uint8), mask).infarct_mask(),
                                     vol.mask, vol.intensity, make_params().i_thrh)
        assert not out[0, 1, 6:8].any()

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold_is_a_parameter_error(self, threshold):
        mask, intensity, _, endo_m, _ = annulus_setup()
        params = make_params()
        params.i_thrh = threshold
        with pytest.raises(ParameterError, match="i_thrh must be finite"):
            recover_partial_volume(
                Labeling(wedge_mask(mask, endo_m).astype(np.uint8), mask).infarct_mask(),
                mask, MyocardiumVolume(intensity, mask, SPACING).intensity, params.i_thrh)

    def test_unset_threshold_is_a_parameter_error(self):
        mask, intensity, _, endo_m, _ = annulus_setup()
        params = make_params()
        params.i_thrh = None
        with pytest.raises(ParameterError, match="i_thrh is not set"):
            recover_partial_volume(
                Labeling(wedge_mask(mask, endo_m).astype(np.uint8), mask).infarct_mask(),
                mask, MyocardiumVolume(intensity, mask, SPACING).intensity, params.i_thrh)


class TestMvoInclusion:
    def setup_wedge_with_pocket(self):
        mask, intensity, contours, endo_m, _ = annulus_setup(r_endo=6.0, r_epi=14.0)
        wedge = wedge_mask(mask, endo_m)
        intensity[wedge] = 0.8
        from scipy import ndimage
        # dark pocket: sub-endocardial blob strictly inside the wedge on
        # slice 1 (adjacent to the cavity, not to normal myocardium)
        inner_ring = mask[1] & ndimage.binary_dilation(endo_m)
        normal_2d = mask[1] & ~wedge[1]
        candidates = inner_ring & wedge[1] & ~ndimage.binary_dilation(normal_2d)
        pocket = np.zeros(mask.shape, dtype=bool)
        for r, c in np.argwhere(candidates)[:6]:
            pocket[1, r, c] = True
        assert pocket.any()
        intensity[pocket] = 0.3
        infarct = wedge & ~pocket
        vol = MyocardiumVolume(intensity, mask, SPACING)
        return Labeling(infarct.astype(np.uint8), mask), contours, vol, pocket, wedge

    def test_enclosed_pocket_recovered(self):
        lab, contours, vol, pocket, wedge = self.setup_wedge_with_pocket()
        got = include_mvo(lab.infarct_mask(), vol.mask,
                          contour_masks(contours, vol.mask.shape).endo)
        assert got[pocket].all()
        assert np.array_equal(got, wedge)

    def test_pocket_bordered_by_normal_untouched(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        wedge = wedge_mask(mask, endo_m, span=(0.0, 45.0))
        infarct = wedge.copy()
        vol = MyocardiumVolume(intensity, mask, SPACING)
        lab = Labeling(infarct.astype(np.uint8), mask)
        out = include_mvo(lab.infarct_mask(), vol.mask,
                          contour_masks(contours, vol.mask.shape).endo)
        # the big normal component borders mostly normal/background: unchanged
        assert np.array_equal(out, wedge)


class TestPipelineOrder:
    def test_chain_idempotent(self):
        lab, contours, vol, pocket, wedge = TestMvoInclusion().setup_wedge_with_pocket()
        params = make_params()
        once, audit = run_postprocessing(lab, vol, contour_masks(contours, vol.mask.shape), params)
        twice, _ = run_postprocessing(once, vol, contour_masks(contours, vol.mask.shape), params)
        assert np.array_equal(once.infarct_mask(), twice.infarct_mask())
        assert len(audit) == 4

    @pytest.mark.parametrize("field", ["endo", "epi"])
    def test_contour_masks_of_another_shape_are_a_parameter_error(self, field):
        lab, contours, vol, _, _ = TestMvoInclusion().setup_wedge_with_pocket()
        n, rows, cols = vol.mask.shape
        bigger = contour_masks(contours, (n, rows + 1, cols + 1))
        wrong = contour_masks(contours, vol.mask.shape)._replace(**{field: getattr(bigger, field)})
        with pytest.raises(ParameterError, match=f"{field} mask shape"):
            run_postprocessing(lab, vol, wrong, make_params())

    def test_labeling_of_another_shape_is_a_parameter_error(self):
        lab, contours, vol, _, _ = TestMvoInclusion().setup_wedge_with_pocket()
        wrong = Labeling(np.pad(lab.labels, 1), np.pad(lab.mask, 1))
        with pytest.raises(ParameterError, match="labeling shape"):
            run_postprocessing(wrong, vol, contour_masks(contours, vol.mask.shape), make_params())

    def test_mask_closure(self):
        lab, contours, vol, _, _ = TestMvoInclusion().setup_wedge_with_pocket()
        out, _ = run_postprocessing(lab, vol, contour_masks(contours, vol.mask.shape),
                                    make_params())
        assert not np.any(out.infarct_mask() & ~vol.mask)


# --- Per-component reference loops ------------------------------------------
# The direct reading of each rule, one full-volume scan per component. The
# rules label once and count with bincount inside find_objects boxes; both
# must agree exactly.

class Thresholds(NamedTuple):
    """The rules' thresholds; ``use`` sets the module constants to them."""

    boundary_fraction: float = postprocess.BOUNDARY_FRACTION
    max_rim_thickness_vox: int = postprocess.MAX_RIM_THICKNESS_VOX
    min_volume_mm3: float = 100.0
    mvo_enclosure_fraction: float = postprocess.MVO_ENCLOSURE_FRACTION


def use(monkeypatch, config: Thresholds) -> None:
    monkeypatch.setattr(postprocess, "BOUNDARY_FRACTION", config.boundary_fraction)
    monkeypatch.setattr(postprocess, "MAX_RIM_THICKNESS_VOX", config.max_rim_thickness_vox)
    monkeypatch.setattr(postprocess, "MVO_ENCLOSURE_FRACTION", config.mvo_enclosure_fraction)


def voxel_mm3(volume):
    d_row, d_col, d_thr = volume.spacing_mm
    return float(d_row * d_col * d_thr)


def ref_depth(mask):
    return np.stack([ndimage.distance_transform_cdt(m, metric="taxicab") for m in mask])


def ref_boundary(infarct, volume, config):
    if not infarct.any():
        return infarct
    near_boundary = ref_depth(volume.mask) <= 2
    comp, n_comp = ndimage.label(infarct, SIX)
    out = infarct.copy()
    for ci in range(1, n_comp + 1):
        cmask = comp == ci
        if float(near_boundary[cmask].mean()) < config.boundary_fraction:
            continue
        if int(ref_depth(cmask).max()) <= config.max_rim_thickness_vox:
            out[cmask] = False
    return out


def ref_small(infarct, min_volume_mm3, volume):
    if not infarct.any() or min_volume_mm3 == 0:
        return infarct
    vox = voxel_mm3(volume)
    comp, n_comp = ndimage.label(infarct, SIX)
    sizes = ndimage.sum_labels(np.ones_like(comp), comp, index=np.arange(1, n_comp + 1))
    out = infarct.copy()
    for ci, n_vox in enumerate(sizes, start=1):
        if n_vox * vox < min_volume_mm3:
            out[comp == ci] = False
    return out


def ref_recover(infarct, volume, params):
    """Dilate the infarct into eligible voxels until a dilation adds nothing."""
    infarct = infarct.copy()
    eligible = volume.mask & (volume.intensity >= params.i_thrh)
    while True:
        frontier = ndimage.binary_dilation(infarct, SIX) & eligible & ~infarct
        if not frontier.any():
            break
        infarct |= frontier
    return infarct


def ref_mvo(infarct, masks, volume, config):
    if not infarct.any():
        return infarct
    cavity = masks.endo
    comp, n_comp = ndimage.label(volume.mask & ~infarct, SIX)
    out = infarct.copy()
    for ci in range(1, n_comp + 1):
        cmask = comp == ci
        ring = ndimage.binary_dilation(cmask, SIX) & ~cmask
        if not np.any(ring & cavity):
            continue
        non_cavity_ring = ring & ~cavity
        total = int(non_cavity_ring.sum())
        if total and int((non_cavity_ring & infarct).sum()) >= config.mvo_enclosure_fraction * total:
            out[cmask] = True
    return out


def ref_component_sizes(mask, vox_mm3):
    comp, n = ndimage.label(mask, SIX)
    sizes = ndimage.sum_labels(np.ones_like(comp), comp, np.arange(1, n + 1))
    return [{"voxels": int(s), "volume_mm3": float(s) * vox_mm3}
            for s in np.sort(np.asarray(sizes))[::-1]]


def random_case(seed, shape=(4, 13, 11)):
    """Random myocardium, infarct and cavity; components reach all six faces."""
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < 0.85
    infarct = mask & (ndimage.uniform_filter(rng.random(shape), 2) < rng.uniform(0.35, 0.6))
    for face in (np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1], np.s_[:, :, 0], np.s_[:, :, -1]):
        assert infarct[face].any()
    cavity = ~mask & (rng.random(shape) < 0.5)
    volume = MyocardiumVolume(rng.random(shape), mask, (1.5, 1.25, 8.0))
    masks = ContourMasks(endo=cavity, epi=mask | cavity)
    return Labeling(infarct.astype(np.uint8), mask), volume, masks


class TestLabelOnceOracle:
    SEEDS = range(40)

    def test_boundary_rule_matches_per_component_loop(self, monkeypatch):
        removed = kept = 0
        for seed in self.SEEDS:
            lab, vol, _ = random_case(seed)
            for config in (Thresholds(boundary_fraction=0.6, max_rim_thickness_vox=1),
                           Thresholds(boundary_fraction=0.9, max_rim_thickness_vox=2)):
                use(monkeypatch, config)
                got = remove_boundary_false_positives(lab.infarct_mask(), vol.mask)
                want = ref_boundary(lab.infarct_mask(), vol, config)
                assert np.array_equal(got, want)
                removed += int((lab.infarct_mask() & ~got).any())
                kept += int(got.any())
        assert removed and kept

    def test_small_component_rule_matches_per_component_loop(self):
        for seed in self.SEEDS:
            lab, vol, _ = random_case(seed)
            for threshold in (0.0, 15.0, 100.0, 400.0):
                got = remove_small_components(lab.infarct_mask(), threshold, vol.spacing_mm)
                want = ref_small(lab.infarct_mask(), threshold, vol)
                assert np.array_equal(got, want)

    def test_partial_volume_rule_matches_the_dilation_loop(self):
        grown = seeds_below = 0
        params = make_params()
        for seed in self.SEEDS:
            lab, vol, _ = random_case(seed)
            for threshold in (0.3, 0.55, 0.8):
                params.i_thrh = threshold
                got = recover_partial_volume(lab.infarct_mask(), vol.mask, vol.intensity,
                                             params.i_thrh)
                want = ref_recover(lab.infarct_mask(), vol, params)
                assert np.array_equal(got, want)
                grown += int((got & ~lab.infarct_mask()).any())
                seeds_below += int((lab.infarct_mask() & (vol.intensity < threshold)).any())
        assert grown and seeds_below

    def test_mvo_rule_matches_per_component_loop(self, monkeypatch):
        added = 0
        for seed in self.SEEDS:
            lab, vol, masks = random_case(seed)
            for fraction in (0.3, 0.8):
                config = Thresholds(mvo_enclosure_fraction=fraction)
                use(monkeypatch, config)
                got = include_mvo(lab.infarct_mask(), vol.mask, masks.endo)
                want = ref_mvo(lab.infarct_mask(), masks, vol, config)
                assert np.array_equal(got, want)
                added += int((got & ~lab.infarct_mask()).any())
        assert added

    def test_audit_matches_per_component_loop(self, monkeypatch):
        params = make_params()
        config = Thresholds(boundary_fraction=0.6, min_volume_mm3=40.0,
                            mvo_enclosure_fraction=0.5)
        use(monkeypatch, config)
        listed = 0
        for seed in self.SEEDS:
            lab, vol, masks = random_case(seed)
            got, audit = run_postprocessing(lab, vol, masks, params, config.min_volume_mm3)
            vox = voxel_mm3(vol)
            steps = (lambda x: ref_boundary(x, vol, config),
                     lambda x: ref_small(x, config.min_volume_mm3, vol),
                     lambda x: recover_partial_volume(x, vol.mask, vol.intensity, params.i_thrh),
                     lambda x: ref_mvo(x, masks, vol, config))
            current = lab.infarct_mask()
            for entry, step in zip(audit, steps, strict=True):
                before = current
                current = step(current)
                after = current
                assert entry["removed_components"] == ref_component_sizes(before & ~after, vox)
                assert entry["added_components"] == ref_component_sizes(after & ~before, vox)
                listed += len(entry["removed_components"]) + len(entry["added_components"])
            assert np.array_equal(got.labels, current.astype(np.uint8))
        assert listed


# --- The bounding-box crop ---------------------------------------------------
# run_postprocessing runs the rules on the masks' bounding box grown by one
# voxel; the rules applied to the full arrays, in order, are its oracle.

def full_array_postprocessing(labeling, volume, masks, params, config):
    steps = (
        ("boundary_false_positives",
         lambda x: remove_boundary_false_positives(x, volume.mask)),
        ("small_components",
         lambda x: remove_small_components(x, config.min_volume_mm3, volume.spacing_mm)),
        ("partial_volume_recovery",
         lambda x: recover_partial_volume(x, volume.mask, volume.intensity, params.i_thrh)),
        ("mvo_inclusion", lambda x: include_mvo(x, volume.mask, masks.endo)),
    )
    audit = []
    current = labeling.infarct_mask()
    for name, step in steps:
        before = current
        current = step(current)
        after = current
        audit.append({
            "step": name,
            "voxels_before": int(before.sum()),
            "voxels_after": int(after.sum()),
            "removed_components": ref_component_sizes(before & ~after, voxel_mm3(volume)),
            "added_components": ref_component_sizes(after & ~before, voxel_mm3(volume)),
        })
    return Labeling(current.astype(np.uint8), labeling.mask), audit


def boxed_case(seed, shape, where, infarct_level=0.45):
    """Random myocardium filling ``shape[where]``, with infarct, cavity and a bright ring."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(shape, dtype=bool)
    mask[where] = rng.random(mask[where].shape) < 0.9
    smooth = ndimage.uniform_filter(rng.random(shape), 2)
    infarct = mask & (smooth < infarct_level)
    cavity = ~mask & (rng.random(shape) < 0.5)
    volume = MyocardiumVolume(rng.random(shape), mask, (1.5, 1.25, 8.0))
    return (Labeling(infarct.astype(np.uint8), mask), volume,
            ContourMasks(endo=cavity, epi=mask | cavity))


class TestBoundingBoxCrop:
    SHAPE = (5, 17, 15)
    CASES = {
        # The myocardium touches all six faces of the volume.
        "touches_edges": np.s_[:, :, :],
        # It touches the low row and col faces and the last slice only.
        "touches_corner": np.s_[2:, :9, :7],
        # Interior: the grown box leaves background on every side.
        "interior": np.s_[1:4, 3:12, 4:11],
        # One slice, filled edge to edge in plane.
        "fills_one_slice": np.s_[2:3, :, :],
    }
    CONFIG = Thresholds(boundary_fraction=0.6, min_volume_mm3=40.0,
                        mvo_enclosure_fraction=0.5)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("infarct_level", [0.45, 0.0])
    def test_cropped_rules_equal_the_full_array_rules(self, case, infarct_level, monkeypatch):
        use(monkeypatch, self.CONFIG)
        params = make_params()
        changed = 0
        for seed in range(12):
            lab, vol, masks = boxed_case(seed, self.SHAPE, self.CASES[case], infarct_level)
            if infarct_level == 0.0:
                assert not lab.infarct_mask().any()
            params.i_thrh = (0.3, 0.55, 0.8)[seed % 3]
            got, audit = run_postprocessing(lab, vol, masks, params, self.CONFIG.min_volume_mm3)
            want, want_audit = full_array_postprocessing(lab, vol, masks, params, self.CONFIG)
            assert got.labels.shape == self.SHAPE and got.mask is lab.mask
            assert np.array_equal(got.labels, want.labels)
            assert audit == want_audit
            changed += int(not np.array_equal(got.labels, lab.labels))
        assert changed or infarct_level == 0.0

    def test_a_labeling_mask_beyond_the_myocardium_widens_the_box(self, monkeypatch):
        use(monkeypatch, self.CONFIG)
        lab, vol, masks = boxed_case(0, self.SHAPE, self.CASES["interior"])
        labels, mask = lab.labels.copy(), lab.mask.copy()
        labels[0, 0, 0] = mask[0, 0, 0] = True     # infarct outside the myocardium
        wide = Labeling(labels, mask)
        got, audit = run_postprocessing(wide, vol, masks, make_params(),
                                        self.CONFIG.min_volume_mm3)
        want, want_audit = full_array_postprocessing(wide, vol, masks, make_params(), self.CONFIG)
        assert np.array_equal(got.labels, want.labels) and audit == want_audit

    def test_empty_masks_return_an_empty_labeling(self):
        shape = self.SHAPE
        empty = np.zeros(shape, dtype=bool)
        lab = Labeling(np.zeros(shape, dtype=np.uint8), empty)
        vol = MyocardiumVolume(np.zeros(shape), empty, SPACING)
        got, audit = run_postprocessing(lab, vol, ContourMasks(empty, empty), make_params())
        assert got.labels.shape == shape and not got.labels.any()
        assert [entry["voxels_after"] for entry in audit] == [0, 0, 0, 0]


class TestRulesOnArrays:
    """Each rule returns a boolean array and leaves the one it was given as it was;
    run_postprocessing builds only the labeling it returns."""

    RULES = {
        "boundary": lambda x, vol, masks, config: remove_boundary_false_positives(x, vol.mask),
        "small": lambda x, vol, masks, config: remove_small_components(
            x, config.min_volume_mm3, vol.spacing_mm),
        "partial_volume": lambda x, vol, masks, config: recover_partial_volume(
            x, vol.mask, vol.intensity, 0.55),
        "mvo": lambda x, vol, masks, config: include_mvo(x, vol.mask, masks.endo),
    }

    @pytest.mark.parametrize("rule", RULES)
    def test_rule_leaves_its_input_as_it_was(self, rule, monkeypatch):
        config = Thresholds(boundary_fraction=0.6, min_volume_mm3=40.0,
                            mvo_enclosure_fraction=0.5)
        use(monkeypatch, config)
        changed = 0
        for seed in range(10):
            lab, vol, masks = random_case(seed)
            infarct = lab.infarct_mask()
            out = self.RULES[rule](infarct, vol, masks, config)
            assert np.array_equal(infarct, lab.infarct_mask())
            assert out.dtype == bool and out.shape == infarct.shape
            changed += int(not np.array_equal(out, infarct))
        assert changed

    def test_one_labeling_and_no_other_wrapper_is_built(self, monkeypatch):
        lab, contours, vol, _, _ = TestMvoInclusion().setup_wedge_with_pocket()
        masks = contour_masks(contours, vol.mask.shape)
        built = []

        def counted(cls):
            def build(*args, **kwargs):
                built.append(cls.__name__)
                return cls(*args, **kwargs)
            return build

        for name in ("Labeling", "MyocardiumVolume", "ContourMasks"):
            monkeypatch.setattr(postprocess, name, counted(getattr(postprocess, name)))
        out, _ = run_postprocessing(lab, vol, masks, make_params())
        assert built == ["Labeling"] and out.infarct_mask().any()
