import numpy as np
import pytest

from lgequant import io as lio
from lgequant.errors import ParameterError
from lgequant.phantom import PhantomConfig, InfarctWedge, MvoPocket, default_wedge_config, generate
from lgequant.dataset import ContourSet
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
from lgequant.rician import MIN_MIXTURE_BINS


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
        ("graph_sigma", 0.0, "classify"),
        ("graph_sigma", float("inf"), "classify"),
        ("reference_angle_deg", float("nan"), "quantify"),
        ("reference_angle_deg", float("inf"), "quantify"),
        ("min_volume_mm3", -1.0, "postprocess"),
        ("min_volume_mm3", float("nan"), "postprocess"),
        ("boundary_fraction", 1.5, "postprocess"),
        ("boundary_fraction", float("nan"), "postprocess"),
        ("mvo_enclosure_fraction", -0.1, "postprocess"),
        ("mvo_enclosure_fraction", float("nan"), "postprocess"),
        ("max_rim_thickness_vox", -1, "postprocess"),
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
        ("graph_sigma", -1.0, "classify"),
        ("reference_angle_deg", float("inf"), "quantify"),
        ("epsilon", -1.0, "normalize"),
        ("max_iter", 0, "normalize"),
        ("n_bins", 1, "normalize"),
        ("n_bins", 5, "normalize"),
        ("n_bins", 11, "normalize"),
        ("boundary_fraction", 2.0, "postprocess"),
        ("max_rim_thickness_vox", -1, "postprocess"),
        ("min_volume_mm3", float("nan"), "postprocess"),
        ("mvo_enclosure_fraction", -0.5, "postprocess"),
        ("skip_realign", "yes", "realign"),
        ("lambda_", "1", "classify"),
        ("epsilon", "x", "normalize"),
        ("boundary_fraction", "0.2", "postprocess"),
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
        volume = myocardium_volume(realigned, masks, norm.stack)
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
