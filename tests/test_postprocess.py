import numpy as np
import pytest

from lgequant.dataset import ContourSet
from lgequant.graphcut import Labeling, MyocardiumVolume
from lgequant.postprocess import (
    PostprocessConfig,
    include_mvo,
    recover_partial_volume,
    remove_boundary_false_positives,
    remove_small_components,
    run_postprocessing,
)
from lgequant.raster import circle_polygon, contour_masks, polygon_mask
from lgequant.rician import RicianMixtureParams

SPACING = (1.5, 1.5, 10.0)


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
        out = remove_boundary_false_positives(lab, vol)
        assert not out.infarct_mask().any()

    def test_thick_transmural_wedge_kept(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        infarct = wedge_mask(mask, endo_m)
        vol = MyocardiumVolume(intensity, mask, SPACING)
        lab = Labeling(infarct.astype(np.uint8), mask)
        out = remove_boundary_false_positives(lab, vol)
        assert np.array_equal(out.infarct_mask(), infarct)

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
        out = remove_boundary_false_positives(lab, vol)
        got = out.infarct_mask()
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
        out = remove_small_components(Labeling(infarct.astype(np.uint8), mask), 100.0, vol)
        assert not out.infarct_mask().any()

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
        out = remove_small_components(Labeling(infarct.astype(np.uint8), mask), 100.0, vol)
        # kept only if the 10 voxels form one connected component of >= 100 mm3
        from scipy import ndimage
        comp, n = ndimage.label(infarct, ndimage.generate_binary_structure(3, 1))
        sizes = ndimage.sum_labels(np.ones_like(comp), comp, np.arange(1, n + 1))
        expected = infarct.copy()
        for ci, s in enumerate(sizes, start=1):
            if s * 22.5 < 100.0:
                expected[comp == ci] = False
        assert np.array_equal(out.infarct_mask(), expected)

    def test_zero_threshold_noop(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        infarct = wedge_mask(mask, endo_m)
        vol = MyocardiumVolume(intensity, mask, SPACING)
        out = remove_small_components(Labeling(infarct.astype(np.uint8), mask), 0.0, vol)
        assert np.array_equal(out.infarct_mask(), infarct)


class TestPartialVolumeRecovery:
    def test_fixed_point_when_nothing_bright(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        infarct = wedge_mask(mask, endo_m)
        vol = MyocardiumVolume(intensity, mask, SPACING)   # all 0.3 < 0.55
        out = recover_partial_volume(Labeling(infarct.astype(np.uint8), mask), vol, make_params())
        assert np.array_equal(out.infarct_mask(), infarct)

    def test_bright_bridge_absorbed(self):
        mask = np.zeros((1, 3, 8), dtype=bool)
        mask[0, 1, :] = True
        intensity = np.full(mask.shape, 0.3)
        intensity[0, 1, 2:6] = 0.6    # bright chain adjacent to the seed
        infarct = np.zeros(mask.shape, dtype=bool)
        infarct[0, 1, 1] = True
        intensity[0, 1, 1] = 0.9
        vol = MyocardiumVolume(intensity, mask, SPACING)
        out = recover_partial_volume(Labeling(infarct.astype(np.uint8), mask), vol, make_params())
        got = out.infarct_mask()
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
        out = recover_partial_volume(Labeling(infarct.astype(np.uint8), mask), vol, make_params())
        assert not out.infarct_mask()[0, 1, 6:8].any()


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
        out = include_mvo(lab, contour_masks(contours, vol.mask.shape), vol)
        got = out.infarct_mask()
        assert got[pocket].all()
        assert np.array_equal(got, wedge)

    def test_pocket_bordered_by_normal_untouched(self):
        mask, intensity, contours, endo_m, _ = annulus_setup()
        wedge = wedge_mask(mask, endo_m, span=(0.0, 45.0))
        infarct = wedge.copy()
        vol = MyocardiumVolume(intensity, mask, SPACING)
        lab = Labeling(infarct.astype(np.uint8), mask)
        out = include_mvo(lab, contour_masks(contours, vol.mask.shape), vol)
        # the big normal component borders mostly normal/background: unchanged
        assert np.array_equal(out.infarct_mask(), wedge)


class TestPipelineOrder:
    def test_chain_idempotent(self):
        lab, contours, vol, pocket, wedge = TestMvoInclusion().setup_wedge_with_pocket()
        params = make_params()
        once, audit = run_postprocessing(lab, vol, contour_masks(contours, vol.mask.shape), params)
        twice, _ = run_postprocessing(once, vol, contour_masks(contours, vol.mask.shape), params)
        assert np.array_equal(once.infarct_mask(), twice.infarct_mask())
        assert len(audit) == 4

    def test_mask_closure(self):
        lab, contours, vol, _, _ = TestMvoInclusion().setup_wedge_with_pocket()
        out, _ = run_postprocessing(lab, vol, contour_masks(contours, vol.mask.shape),
                                    make_params())
        assert not np.any(out.infarct_mask() & ~vol.mask)
