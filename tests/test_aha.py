import numpy as np
import pytest

from lgequant.aha import AhaConfig, SegmentModel, assign_levels, assign_segments, quantify
from lgequant.errors import EmptyMaskError
from lgequant.graphcut import Labeling, MyocardiumVolume
from lgequant.phantom import default_wedge_config, generate
from lgequant.pipeline import myocardium_volume
from lgequant.raster import circle_polygon, contour_masks, polygon_mask

SPACING = (1.25, 1.25, 10.0)


def ring_volume(n_slices=6, rows=48, cols=48, r_in=7.0, r_out=14.0):
    center = (rows - 1) / 2.0
    inner = polygon_mask(circle_polygon(center, center, r_in, 128), rows, cols)
    outer = polygon_mask(circle_polygon(center, center, r_out, 128), rows, cols)
    ring = outer & ~inner
    mask = np.repeat(ring[None], n_slices, axis=0)
    return MyocardiumVolume(np.full(mask.shape, 0.3), mask, SPACING)


def angles_about_center(rows, cols):
    center = (rows - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return np.degrees(np.arctan2(cc - center, -(rr - center))) % 360.0


class TestAssignLevels:
    def test_even_split(self):
        assert assign_levels(6) == ["basal"] * 2 + ["mid"] * 2 + ["apical"] * 2

    def test_seven_slices(self):
        assert assign_levels(7) == ["basal"] * 3 + ["mid"] * 2 + ["apical"] * 2

    def test_eight_slices(self):
        assert assign_levels(8) == ["basal"] * 3 + ["mid"] * 3 + ["apical"] * 2

    def test_too_few(self):
        with pytest.raises(ValueError):
            assign_levels(2)


class TestAssignSegments:
    def test_partition_of_mask(self):
        vol = ring_volume()
        model = assign_segments(vol)
        ids = model.segment_ids
        assert np.all(ids[vol.mask] >= 1) and np.all(ids[vol.mask] <= 16)
        assert np.all(ids[~vol.mask] == 0)
        basal_ids = np.unique(ids[0][vol.mask[0]])
        apical_ids = np.unique(ids[5][vol.mask[5]])
        assert set(basal_ids) <= set(range(1, 7))
        assert set(apical_ids) <= set(range(13, 17))

    def test_apical_sector_stability(self):
        vol = ring_volume(n_slices=3)
        model = assign_segments(vol)
        ids = model.segment_ids[2]
        ang = angles_about_center(48, 48)
        mask = vol.mask[2]
        sel = mask & (ang >= 1.0) & (ang <= 89.0)   # jitter range around 45 deg
        assert len(np.unique(ids[sel])) == 1

    def test_reference_rotation_permutes_basal_sectors(self):
        vol = ring_volume(n_slices=3)
        base = assign_segments(vol, AhaConfig(reference_angle_deg=0.0))
        rot = assign_segments(vol, AhaConfig(reference_angle_deg=60.0))
        m = vol.mask[0]
        b = base.segment_ids[0][m]
        r = rot.segment_ids[0][m]
        expected = (b - 1 - 1) % 6 + 1   # cyclic shift by one sector
        assert np.array_equal(r, expected)

    def test_translation_invariance(self):
        vol = ring_volume(n_slices=3)
        model = assign_segments(vol)
        shifted_mask = np.roll(vol.mask, shift=(3, -2), axis=(1, 2))
        vol2 = MyocardiumVolume(np.full(vol.mask.shape, 0.3), shifted_mask, SPACING)
        model2 = assign_segments(vol2)
        rolled = np.roll(model2.segment_ids, shift=(-3, 2), axis=(1, 2))
        assert np.array_equal(rolled[vol.mask], model.segment_ids[vol.mask])

    def test_empty_slice_rejected(self):
        vol = ring_volume(n_slices=3)
        bad_mask = vol.mask.copy()
        bad_mask[1] = False
        with pytest.raises(EmptyMaskError):
            assign_segments(MyocardiumVolume(vol.intensity, bad_mask, SPACING))


class TestQuantify:
    def test_zero_infarct(self):
        vol = ring_volume()
        model = assign_segments(vol)
        lab = Labeling(np.zeros(vol.mask.shape, dtype=np.uint8), vol.mask)
        report = quantify(lab, vol, model)
        assert report.volumetric_percent == 0.0
        assert np.all(report.segment_percent == 0.0)

    def test_everything_infarct(self):
        vol = ring_volume()
        model = assign_segments(vol)
        lab = Labeling(vol.mask.astype(np.uint8), vol.mask)
        report = quantify(lab, vol, model)
        assert report.volumetric_percent == 100.0
        present = report.segment_myocardium_voxels > 0
        assert np.all(report.segment_percent[present] == 100.0)

    def test_simple_ratio(self):
        vol = ring_volume(n_slices=3)
        model = assign_segments(vol)
        seg1 = (model.segment_ids == 1) & vol.mask
        coords = np.argwhere(seg1)
        labels = np.zeros(vol.mask.shape, dtype=np.uint8)
        quarter = len(coords) // 4
        for z, r, c in coords[:quarter]:
            labels[z, r, c] = 1
        report = quantify(Labeling(labels, vol.mask), vol, model)
        expected = 100.0 * quarter / len(coords)
        assert np.isclose(report.segment_percent[0], expected, rtol=1e-12)

    def test_conservation(self):
        vol = ring_volume()
        model = assign_segments(vol)
        rng = np.random.default_rng(3)
        labels = np.zeros(vol.mask.shape, dtype=np.uint8)
        pick = rng.random(vol.mask.shape) < 0.3
        labels[vol.mask & pick] = 1
        report = quantify(Labeling(labels, vol.mask), vol, model)
        assert report.segment_infarct_voxels.sum() == report.total_infarct_voxels
        assert report.segment_myocardium_voxels.sum() == report.total_myocardium_voxels
        weighted = (
            report.segment_percent * report.segment_myocardium_voxels
        ).sum() / report.total_myocardium_voxels
        assert np.isclose(weighted, report.volumetric_percent, rtol=1e-12)

    def test_wedge_fills_one_apical_segment(self):
        vol = ring_volume(n_slices=3)
        model = assign_segments(vol)
        ang = angles_about_center(48, 48)
        labels = np.zeros(vol.mask.shape, dtype=np.uint8)
        wedge = vol.mask[2] & (ang >= 0.0) & (ang < 90.0)
        labels[2][wedge] = 1
        report = quantify(Labeling(labels, vol.mask), vol, model)
        seg13 = report.segment_percent[12]
        others = np.delete(report.segment_percent, 12)
        assert seg13 > 95.0
        assert np.all(others < 5.0)

    def test_infarct_off_the_myocardium_is_not_counted(self):
        """A labeling whose mask covers the cavity too counts only the segments' voxels."""
        dataset, truth = generate(default_wedge_config(seed=3, noise_sigma=0.0))
        stack = np.stack([s.pixels for s in dataset.sa_slices])
        masks = contour_masks(truth.contours, stack.shape)
        vol = myocardium_volume(dataset, masks, stack=stack / stack.max())
        cavity = masks.endo & ~masks.myocardium
        labels = truth.infarct_mask.copy()
        labels[0] |= cavity[0]          # the basal slice's cavity is labelled infarct
        assert cavity[0].any()
        lab = Labeling(labels.astype(np.uint8), masks.myocardium | cavity)
        report = quantify(lab, vol, assign_segments(vol))
        assert report.total_infarct_voxels == report.segment_infarct_voxels.sum()
        assert report.volumetric_percent == (100.0 * report.segment_infarct_voxels.sum()
                                             / report.segment_myocardium_voxels.sum())

    def test_counts_match_per_segment_loop(self):
        """Two bincounts equal the per-segment full-volume scans, stray ids included."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            shape = (3, 9, 10)
            vol = MyocardiumVolume(np.zeros(shape), rng.random(shape) < 0.7, SPACING)
            lab_mask = rng.random(shape) < 0.8
            lab = Labeling((lab_mask & (rng.random(shape) < 0.4)).astype(np.uint8), lab_mask)
            ids = rng.integers(-2, 19, size=shape).astype(np.int16)
            report = quantify(lab, vol, SegmentModel(ids, assign_levels(3), 0.0))
            infarct = lab.infarct_mask()
            myo = np.array([np.sum((ids == s) & vol.mask) for s in range(1, 17)])
            inf = np.array([np.sum((ids == s) & infarct) for s in range(1, 17)])
            with np.errstate(invalid="ignore", divide="ignore"):
                pct = np.where(myo > 0, 100.0 * inf / np.maximum(myo, 1), 0.0)
            assert np.array_equal(report.segment_myocardium_voxels, myo)
            assert np.array_equal(report.segment_infarct_voxels, inf)
            assert np.array_equal(report.segment_percent, pct)
