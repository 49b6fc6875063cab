import inspect
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgequant import io as lio
from lgequant import pipeline
from lgequant.errors import LgeQuantError, ParameterError, check_number
from lgequant.phantom import PhantomConfig, InfarctWedge, MvoPocket, default_wedge_config, generate
from lgequant.dataset import ContourSet, LgeDataset
from lgequant.geometry import Roi, SliceImage, pixel_to_patient
from lgequant.pipeline import (
    PipelineConfig,
    PipelineStageError,
    classify_stage,
    myocardium_volume,
    normalize_stage,
    postprocess_stage,
    quantify_stage,
    realign_stage,
    run_pipeline,
)
from lgequant.aha import AhaConfig
from lgequant.graphcut import GraphCutConfig
from lgequant.normalize import DEFAULT_EPSILON, DEFAULT_MAX_ITER, MAX_ITER_CAP
from lgequant.postprocess import run_postprocessing
from lgequant.realign import DEFAULT_GAMMA, MAX_SWEEPS, MAX_SWEEPS_CAP
from lgequant.rician import DEFAULT_BINS, MAX_BINS, MIN_MIXTURE_BINS


class TestNoiselessExactness:
    def test_wedge_labeling_equals_truth_exactly(self, tmp_path):
        cfg = default_wedge_config(seed=0, noise_sigma=0.0)
        ds, truth = generate(cfg)
        report = run_pipeline(
            ds, truth.contours, PipelineConfig(skip_realign=True),
            out_dir=tmp_path, truth={"infarct_mask": truth.infarct_mask},
        )
        labels, mask, _ = lio.load_labeling(tmp_path / "labeling.json")
        assert np.array_equal(labels == 1, truth.infarct_mask)
        assert report["reference"]["dice"] == 1.0


class TestReportContents:
    def test_in_memory_report_has_all_stages(self):
        cfg = PhantomConfig(seed=1, noise_sigma=0.05)
        ds, truth = generate(cfg)
        report = run_pipeline(ds, truth.contours, PipelineConfig(skip_realign=True))
        for stage in ("realign", "normalize", "classify", "postprocess", "quantify"):
            assert stage in report["stages"]
        curve = report["stages"]["normalize"]["relative_probability"]
        assert curve is not None and len(curve["bin_centers"]) == 64
        assert max(curve["values"]) == 1.0
        audit = report["stages"]["postprocess"]["audit"]
        assert [a["step"] for a in audit] == [
            "boundary_false_positives", "small_components",
            "partial_volume_recovery", "mvo_inclusion",
        ]

    def test_mvo_audit_reports_added_component(self):
        cfg = default_wedge_config(seed=2, noise_sigma=0.06)
        ds, truth = generate(cfg)
        report = run_pipeline(ds, truth.contours, PipelineConfig(skip_realign=True))
        mvo = report["stages"]["postprocess"]["audit"][-1]
        assert mvo["step"] == "mvo_inclusion"
        assert mvo["voxels_after"] > mvo["voxels_before"]
        assert len(mvo["added_components"]) >= 1
        assert mvo["added_components"][0]["volume_mm3"] > 0


class TestRealignStageErrors:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_bad_gamma_is_a_realign_stage_error(self, gamma):
        ds, truth = generate(PhantomConfig(seed=1, noise_sigma=0.05))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(ds, truth.contours, PipelineConfig(gamma=gamma))
        assert info.value.stage == "realign"
        assert isinstance(info.value.cause, ParameterError)


@pytest.fixture(scope="module")
def small_study():
    return generate(PhantomConfig(seed=1, noise_sigma=0.05))


class TestConfigStageErrors:
    @pytest.mark.parametrize("field, value, stage", [
        ("max_iter", -3, "normalize"),
        ("max_iter", 2.5, "normalize"),
        ("max_iter", True, "normalize"),
        ("max_iter", 0, "normalize"),
        ("n_bins", 2.5, "normalize"),
        ("n_bins", True, "normalize"),
        ("n_bins", 1, "normalize"),
        ("n_bins", -5, "normalize"),
        ("epsilon", 0.0, "normalize"),
        ("epsilon", float("nan"), "normalize"),
        ("lambda_", 0.0, "classify"),
        ("lambda_", float("nan"), "classify"),
        ("lambda_", float("inf"), "classify"),
        ("reference_angle_deg", float("nan"), "quantify"),
        ("reference_angle_deg", float("inf"), "quantify"),
        ("min_volume_mm3", -1.0, "postprocess"),
        ("min_volume_mm3", float("nan"), "postprocess"),
    ])
    def test_out_of_range_value_is_a_stage_error(self, small_study, field, value, stage):
        ds, truth = small_study
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(ds, truth.contours, PipelineConfig(skip_realign=True, **{field: value}))
        assert info.value.stage == stage
        assert isinstance(info.value.cause, ParameterError)

    def test_negative_max_sweeps_is_a_realign_stage_error(self, small_study):
        ds, truth = small_study
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(ds, truth.contours, PipelineConfig(realign_max_sweeps=-1))
        assert info.value.stage == "realign"
        assert isinstance(info.value.cause, ParameterError)


class TestConfigChecksAtConstruction:
    """Every field is checked when the config is built, by its stage's own check."""

    @pytest.mark.parametrize("field, value, stage", [
        ("lambda_", float("nan"), "classify"),
        ("reference_angle_deg", float("inf"), "quantify"),
        ("epsilon", -1.0, "normalize"),
        ("max_iter", 0, "normalize"),
        ("n_bins", 1, "normalize"),
        ("n_bins", 5, "normalize"),
        ("n_bins", 11, "normalize"),
        ("min_volume_mm3", float("nan"), "postprocess"),
        ("skip_realign", "yes", "realign"),
        ("lambda_", "1", "classify"),
        ("epsilon", "x", "normalize"),
        ("min_volume_mm3", [1], "postprocess"),
        ("reference_angle_deg", None, "quantify"),
    ])
    def test_bad_value_fails_at_construction(self, field, value, stage):
        with pytest.raises(PipelineStageError) as info:
            PipelineConfig(**{field: value})
        assert info.value.stage == stage
        assert isinstance(info.value.cause, ParameterError)

    def test_too_few_bins_for_the_mixture_fit(self):
        # fit_mixture needs 12 bins; a config with fewer could never run.
        with pytest.raises(PipelineStageError) as info:
            PipelineConfig(n_bins=MIN_MIXTURE_BINS - 1)
        assert str(info.value) == "[normalize] n_bins must be at least 12, got 11"
        assert PipelineConfig(n_bins=MIN_MIXTURE_BINS).n_bins == 12


# Any JSON value: null, bools, ints of any size and sign, floats (with NaN and
# the infinities Python's json reads), strings, and lists and objects of them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 600, 10 ** 600)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


class TestConfigFromAnyJson:
    """A config file that sets one field to any JSON value builds or fails as a package error."""

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(sorted(PipelineConfig.__dataclass_fields__)),
           value=JSON_VALUES)
    @example(field="lambda_", value=10 ** 400)
    @example(field="reference_angle_deg", value=-10 ** 400)
    @example(field="gamma", value=10 ** 400)
    @example(field="n_bins", value=10 ** 30)
    @example(field="max_iter", value=10 ** 30)
    @example(field="realign_max_sweeps", value=10 ** 30)
    def test_builds_or_raises_a_package_error(self, tmp_path_factory, field, value):
        path = tmp_path_factory.getbasetemp() / "any_value_config.json"
        path.write_text(json.dumps({field: value}))
        try:
            config = PipelineConfig.from_json(path)
        except LgeQuantError:
            return
        assert getattr(config, field) == value or value != value

    # A typo, the three post-processing thresholds that are constants now, and
    # the graph-cut sigma, which is always the fitted one.
    @pytest.mark.parametrize("key", ["lamda", "boundary_fraction", "max_rim_thickness_vox",
                                     "mvo_enclosure_fraction", "graph_sigma"])
    def test_unknown_key_is_a_package_error(self, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"lambda_": 2.0, key: 0.5}))
        with pytest.raises(LgeQuantError, match=r"^unknown config keys: \['" + key + r"'\]$"):
            PipelineConfig.from_json(path)

    @pytest.mark.parametrize("field", ["lambda_", "epsilon", "min_volume_mm3",
                                       "reference_angle_deg", "gamma"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_past_float_range_fails_at_construction(self, field, sign):
        with pytest.raises(PipelineStageError) as info:
            PipelineConfig(**{field: sign * 10 ** 400})
        assert isinstance(info.value.cause, ParameterError)


class TestConfigDefaults:
    def test_each_default_is_the_library_default_it_feeds(self):
        config = PipelineConfig()
        min_volume = inspect.signature(run_postprocessing).parameters["min_volume_mm3"]
        assert (config.gamma, config.realign_max_sweeps) == (DEFAULT_GAMMA, MAX_SWEEPS)
        assert (config.epsilon, config.max_iter) == (DEFAULT_EPSILON, DEFAULT_MAX_ITER)
        assert config.n_bins == DEFAULT_BINS
        assert config.lambda_ == GraphCutConfig().lambda_
        assert config.reference_angle_deg == AhaConfig().reference_angle_deg
        assert config.min_volume_mm3 == min_volume.default


class TestIntegerFieldBounds:
    """Each integer field has an upper bound, and a value past it fails when the config is built."""

    @pytest.mark.parametrize("field, cap, stage", [
        ("n_bins", MAX_BINS, "normalize"),
        ("max_iter", MAX_ITER_CAP, "normalize"),
        ("realign_max_sweeps", MAX_SWEEPS_CAP, "realign"),
    ])
    def test_value_past_the_cap_is_a_parameter_error_naming_it(self, field, cap, stage):
        assert getattr(PipelineConfig(**{field: cap}), field) == cap
        for value in (cap + 1, 10 ** 30):
            with pytest.raises(PipelineStageError) as info:
                PipelineConfig(**{field: value})
            assert info.value.stage == stage
            assert isinstance(info.value.cause, ParameterError)
            assert f"must be at most {cap}, got {value}" in str(info.value)


class TestCheckNumber:
    def test_real_number_must_fit_in_a_float(self):
        with pytest.raises(ParameterError, match=r"^x must be a number, got 1000"):
            check_number("x", 10 ** 400)
        check_number("x", 10 ** 300)
        check_number("n", 10 ** 400, integral=True)

    def test_message_names_the_range(self):
        with pytest.raises(ParameterError, match=r"^x must be finite, got -1000"):
            check_number("x", -10 ** 400, what="finite", ok=lambda v: True)


class TestStageFunctions:
    """Each stage function tags its own errors and, given ``out``, writes its artifact."""

    def test_stage_called_alone_tags_its_error(self, small_study):
        ds, truth = small_study
        short = ContourSet(endo=truth.contours.endo[:3], epi=truth.contours.epi[:3])
        with pytest.raises(PipelineStageError) as info:
            normalize_stage(ds, short, PipelineConfig(skip_realign=True))
        assert info.value.stage == "normalize"
        assert str(info.value) == "[normalize] contours cover 3 slices but the stack has 6"

    def test_stages_write_what_run_pipeline_writes(self, small_study, tmp_path):
        ds, truth = small_study
        config = PipelineConfig(skip_realign=True)
        run_pipeline(ds, truth.contours, config, out_dir=tmp_path / "run")
        out = tmp_path / "stages"
        realigned, _ = realign_stage(ds, config, out)
        (norm, masks), _ = normalize_stage(realigned, truth.contours, config, out)
        volume = myocardium_volume(realigned, masks, norm.stack, norm.box)
        raw, _ = classify_stage(volume, norm.params, config)
        labeling, _ = postprocess_stage(raw, volume, masks, norm.params, config, out)
        quantify_stage(labeling, volume, config, out)
        # run_pipeline writes the same files, the realigned set one level down.
        run = tmp_path / "run"
        expected = {path.relative_to(run).as_posix().removeprefix("realigned/"): path
                    for path in run.rglob("*") if path.is_file() and path.name != "report.json"}
        assert {"realigned.json", "normalized.raw", "labeling.json", "bullseye.svg"} \
            <= set(expected)
        assert sorted(path.name for path in out.iterdir()) == sorted(expected)
        for name, path in expected.items():
            assert (out / name).read_bytes() == path.read_bytes(), name

    def test_without_out_nothing_is_written(self, small_study, tmp_path, monkeypatch):
        ds, truth = small_study
        monkeypatch.chdir(tmp_path)
        run_pipeline(ds, truth.contours, PipelineConfig(skip_realign=True))
        assert list(tmp_path.iterdir()) == []


class TestPostprocessInterface:
    """run_pipeline hands run_postprocessing full-grid arrays; the benchmark reads them there."""

    def test_labeling_and_volume_in_and_out_are_full_grid(self, small_study, monkeypatch):
        ds, truth = small_study
        original = pipeline.run_postprocessing
        seen = []

        def keep(labeling, volume, *args, **kwargs):
            result = original(labeling, volume, *args, **kwargs)
            seen.append((labeling, volume, result[0]))
            return result

        monkeypatch.setattr(pipeline, "run_postprocessing", keep)
        run_pipeline(ds, truth.contours, PipelineConfig(skip_realign=True))
        pose = ds.sa_slices[0].pose
        shape = (len(ds.sa_slices), pose.rows, pose.cols)
        [(labeling, volume, result)] = seen
        for array in (labeling.labels, labeling.mask, volume.intensity, volume.mask,
                      result.labels, result.mask):
            assert array.shape == shape
        # The stages work in a box smaller than the grid.
        assert all(sl.stop - sl.start < n for sl, n in zip(volume.box[1:], shape[1:]))


def registered_study(seed: int, size: int = 96, n_sa: int = 6):
    """A registered wedge-plus-MVO phantom, the benchmark's registered kind at a small size."""
    n_basal = -(-n_sa // 3)
    return generate(PhantomConfig(
        n_sa=n_sa, rows=size, cols=size, ps_mm=120.0 / size,
        wedges=(InfarctWedge(slice_lo=0, slice_hi=n_basal - 1,
                             angle_lo_deg=0.0, angle_hi_deg=60.0),),
        mvo_pockets=(MvoPocket(wedge=0, center_angle_deg=30.0, center_slice=0.0,
                               radius_mm=4.5),),
        gains=tuple(float(g) for g in np.linspace(0.85, 1.15, n_sa)),
        noise_sigma=0.08, seed=seed,
    ))


def padded(dataset: LgeDataset, contours: ContourSet, pad: int) -> tuple:
    """The study with every SA slice edge-padded by ``pad`` pixels, poses and contours to match.

    Edge replication keeps each slice's extremes, and the pose keeps every
    original pixel where it was.
    """
    sa = [SliceImage(replace(s.pose, ipp=pixel_to_patient(s.pose, -pad, -pad),
                             rows=s.pose.rows + 2 * pad, cols=s.pose.cols + 2 * pad),
                     np.pad(s.pixels, pad, mode="edge"))
          for s in dataset.sa_slices]
    rois = [None if r is None else
            Roi(r.row_min + pad, r.row_max + pad, r.col_min + pad, r.col_max + pad)
            for r in dataset.sa_rois]
    return (LgeDataset(sa, dataset.la_slices, rois, dataset.la_roles,
                       dataset.slice_thickness_mm, dataset.gap_mm),
            ContourSet(endo=[p + pad for p in contours.endo],
                       epi=[p + pad for p in contours.epi]))


class TestPaddingInvariance:
    """Padding the SA slices moves the myocardium's canvas and changes nothing else."""

    @pytest.mark.parametrize("seed, pad", [(1, 3), (2, 7), (3, 16)])
    def test_padded_study_labels_and_reports_the_same(self, seed, pad, monkeypatch):
        ds, truth = registered_study(seed)
        original = pipeline.run_postprocessing
        labelings = []

        def keep(*args, **kwargs):
            result = original(*args, **kwargs)
            labelings.append(result[0])
            return result

        monkeypatch.setattr(pipeline, "run_postprocessing", keep)
        config = PipelineConfig(skip_realign=True)
        report = run_pipeline(ds, truth.contours, config)
        report_padded = run_pipeline(*padded(ds, truth.contours, pad), config)
        base, grown = labelings
        assert base.labels.any()
        in_plane = ((0, 0), (pad, pad), (pad, pad))
        assert np.array_equal(grown.labels, np.pad(base.labels, in_plane))
        assert np.array_equal(grown.mask, np.pad(base.mask, in_plane))
        for stage in ("normalize", "classify", "postprocess", "quantify"):
            assert (json.dumps(report_padded["stages"][stage])
                    == json.dumps(report["stages"][stage])), stage
