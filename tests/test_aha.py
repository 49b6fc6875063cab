import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgequant.aha import (
    MAX_REFERENCE_ANGLE, SEGMENTS_PER_LEVEL, AhaConfig, SegmentModel, assign_levels,
    assign_segments, quantify,
)
from lgequant.errors import EmptyMaskError, ParameterError
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


class TestReferenceAngleBound:
    """Past 1e6 degrees the float spacing of an angle skews the sectors, so it is refused."""

    @pytest.mark.parametrize("angle", [MAX_REFERENCE_ANGLE, -MAX_REFERENCE_ANGLE])
    def test_the_bound_is_accepted(self, angle):
        assert AhaConfig(angle).reference_angle_deg == angle

    @pytest.mark.parametrize("angle", [1e300, -1e300, 360.0 * 2 ** 50 + 30, 1e6 + 0.5])
    def test_a_larger_angle_is_a_parameter_error(self, angle):
        message = r"^reference angle must be finite and within 1e\+06 degrees of 0, got "
        with pytest.raises(ParameterError, match=message):
            AhaConfig(angle)


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
            inf = np.array([np.sum((ids == s) & infarct & vol.mask) for s in range(1, 17)])
            with np.errstate(invalid="ignore", divide="ignore"):
                pct = np.where(myo > 0, 100.0 * inf / np.maximum(myo, 1), 0.0)
            assert np.array_equal(report.segment_myocardium_voxels, myo)
            assert np.array_equal(report.segment_infarct_voxels, inf)
            assert np.array_equal(report.segment_percent, pct)
            inside = SegmentModel(np.clip(ids, 1, 16), assign_levels(3), 0.0)
            report = quantify(lab, vol, inside)
            assert report.segment_infarct_voxels.sum() == report.total_infarct_voxels


# --- The per-slice loop as the oracle ----------------------------------------
# assign_segments assigns every slice in one array pass; this is the loop it
# replaced: one argwhere, centroid and angle computation per slice.

def loop_segments(volume, config):
    n_slices = volume.mask.shape[0]
    levels = assign_levels(n_slices)
    ids = np.zeros(volume.mask.shape, dtype=np.int16)
    rows, cols = volume.box[1:]
    for k in range(n_slices):
        coords = np.argwhere(volume.mask[k, rows, cols])
        if coords.size == 0:
            raise EmptyMaskError(f"slice {k} has no myocardium")
        d = coords - coords.mean(axis=0)
        angles = np.degrees(np.arctan2(d[:, 1], -d[:, 0])) % 360.0
        rel = (angles - config.reference_angle_deg) % 360.0
        first, last = SEGMENTS_PER_LEVEL[levels[k]]
        n_sectors = last - first + 1
        sector = np.floor(rel / (360.0 / n_sectors)).astype(np.int16)
        sector = np.minimum(sector, n_sectors - 1)
        ids[k, rows, cols][coords[:, 0], coords[:, 1]] = first + sector
    return ids


reference_angles = st.one_of(
    st.sampled_from([0.0, -0.0, 30.0, 45.0, 60.0, 90.0, -90.0, 359.99999999999994, 720.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(3, 8), st.integers(1, 24), st.integers(1, 24)),
       density=st.sampled_from([0.05, 0.3, 0.9]), seed=st.integers(0, 2**32 - 1),
       reference=reference_angles, empty=st.booleans())
def test_assign_segments_equals_the_per_slice_loop(shape, density, seed, reference, empty):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    mask[:, rng.integers(shape[1]), rng.integers(shape[2])] = True
    if empty:
        mask[rng.integers(shape[0])] = False
    vol = MyocardiumVolume(np.zeros(shape), mask, SPACING)
    config = AhaConfig(reference_angle_deg=reference)
    try:
        want = loop_segments(vol, config)
    except EmptyMaskError as exc:
        with pytest.raises(EmptyMaskError, match=f"^{exc}$"):
            assign_segments(vol, config)
        return
    assert assign_segments(vol, config).segment_ids.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
@example(x=[0.0, -0.0, 360.0, -360.0, 180.0, -180.0, -1e-320, 5e-324, -5e-324, 1e300])
def test_fmod_moved_into_range_is_numpys_remainder_bit_for_bit(x):
    """The identity assign_segments computes x % 360.0 by."""
    x = np.array(x)
    rel = np.fmod(x, 360.0)
    rel += 360.0 * (rel < 0)
    assert rel.tobytes() == (x % 360.0).tobytes()
