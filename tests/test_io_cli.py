import contextlib
import io
import json
import re
import shutil
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgequant import io as lio
from lgequant.cli import main
from lgequant.errors import ContourError, DatasetFormatError, OrientationError, PixelFileError
from lgequant.geometry import SliceImage
from lgequant.phantom import PhantomConfig, default_wedge_config, generate
from lgequant.pipeline import PipelineConfig, run_pipeline
from lgequant.raster import contour_masks


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom")
    cfg = PhantomConfig(seed=3, noise_sigma=0.05)
    dataset, truth = generate(cfg)
    lio.save_dataset(dataset, out, name="dataset")
    lio.save_contours(truth.contours, out / "contours.json")
    lio.save_truth(truth, out, name="truth")
    return out


class TestDatasetIo:
    def test_round_trip_byte_identical(self, phantom_dir, tmp_path):
        manifest = phantom_dir / "dataset.json"
        dataset = lio.load_dataset(manifest)
        again = tmp_path / "again"
        lio.save_dataset(dataset, again, name="dataset")
        assert (again / "dataset.json").read_bytes() == manifest.read_bytes()
        for raw in sorted(phantom_dir.glob("dataset_*.raw")):
            assert (again / raw.name).read_bytes() == raw.read_bytes()

    def test_load_reports_same_values(self, phantom_dir):
        dataset = lio.load_dataset(phantom_dir / "dataset.json")
        cfg = PhantomConfig(seed=3, noise_sigma=0.05)
        original, _ = generate(cfg)
        for a, b in zip(dataset.sa_slices, original.sa_slices):
            assert np.array_equal(a.pixels, b.pixels)
            assert np.allclose(a.pose.ipp, b.pose.ipp)

    def test_non_orthonormal_iop_rejected(self, phantom_dir, tmp_path):
        manifest = json.loads((phantom_dir / "dataset.json").read_text())
        bad_col = [0.1, float(np.sqrt(1 - 0.01)), 0.0]
        manifest["slices"][0]["iop_col"] = bad_col
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        for raw in phantom_dir.glob("*.raw"):
            (bad_dir / raw.name).write_bytes(raw.read_bytes())
        (bad_dir / "dataset.json").write_text(json.dumps(manifest))
        with pytest.raises(OrientationError):
            lio.load_dataset(bad_dir / "dataset.json")

    def test_iop_off_unit_by_3e7_rejected_as_orientation(self, phantom_dir, tmp_path):
        # The loader and SlicePose share one tolerance: a row vector this far
        # from unit length is an orientation error of the file, not a pose error.
        base = _phantom_copy(phantom_dir, tmp_path)
        manifest = json.loads((base / "dataset.json").read_text())
        manifest["slices"][0]["iop_row"] = [1.0000003, 0.0, 0.0]
        (base / "dataset.json").write_text(json.dumps(manifest))
        with pytest.raises(OrientationError, match="not orthonormal"):
            lio.load_dataset(base / "dataset.json")

    def test_missing_pixel_file(self, phantom_dir, tmp_path):
        manifest_path = tmp_path / "dataset.json"
        manifest_path.write_text((phantom_dir / "dataset.json").read_text())
        with pytest.raises(PixelFileError):
            lio.load_dataset(manifest_path)

    def test_dimension_mismatch(self, phantom_dir, tmp_path):
        bad_dir = tmp_path / "trunc"
        bad_dir.mkdir()
        (bad_dir / "dataset.json").write_text((phantom_dir / "dataset.json").read_text())
        for raw in phantom_dir.glob("*.raw"):
            data = raw.read_bytes()
            (bad_dir / raw.name).write_bytes(data[: len(data) // 2])
        with pytest.raises(PixelFileError):
            lio.load_dataset(bad_dir / "dataset.json")

    def test_one_trailing_byte_is_a_size_mismatch(self, phantom_dir, tmp_path):
        """numpy drops a partial uint16 at the end of a file; the loader must not."""
        base = _phantom_copy(phantom_dir, tmp_path)
        raw = base / "dataset_sa_000.raw"
        raw.write_bytes(raw.read_bytes() + b"\0")
        with pytest.raises(PixelFileError, match="size does not match"):
            lio.load_dataset(base / "dataset.json")

    def test_malformed_polygon_rejected(self, phantom_dir, tmp_path):
        payload = json.loads((phantom_dir / "contours.json").read_text())
        payload["slices"][0]["endo"] = [[1.0, 2.0]]
        bad = tmp_path / "contours.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ContourError):
            lio.load_contours(bad)

    def test_non_integer_pixels_rejected(self, tmp_path):
        with pytest.raises(PixelFileError):
            lio._u16_pixels(np.array([[0.5, 1.0]]))

    def test_bad_pixel_in_a_later_slice_writes_no_file(self, tmp_path):
        dataset, _ = generate(PhantomConfig())
        pixels = dataset.sa_slices[3].pixels.copy()
        pixels[0, 0] = 0.5
        dataset.sa_slices[3] = SliceImage(pose=dataset.sa_slices[3].pose, pixels=pixels)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(PixelFileError, match="must be integers"):
            lio.save_dataset(dataset, out)
        assert list(out.iterdir()) == []


class TestVolumeAndLabelingIo:
    def test_volume_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = rng.uniform(0, 1, size=(3, 8, 9)).astype(np.float32).astype(float)
        header = lio.save_volume_f32(vol, (1.25, 1.25, 10.0), tmp_path / "vol")
        loaded, spacing = lio.load_volume_f32(header)
        assert np.array_equal(loaded, vol)
        assert spacing == (1.25, 1.25, 10.0)

    def test_labeling_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.random((2, 6, 6)) < 0.5
        labels = (mask & (rng.random((2, 6, 6)) < 0.5)).astype(np.uint8)
        header = lio.save_labeling(labels, mask, (1.0, 1.0, 5.0), tmp_path / "lab")
        lab2, mask2, spacing = lio.load_labeling(header)
        assert np.array_equal(lab2, labels)
        assert np.array_equal(mask2, mask)
        assert spacing == (1.0, 1.0, 5.0)


class TestTypedLoaderErrors:
    def test_load_truth_without_its_raw_file(self, phantom_dir, tmp_path):
        (tmp_path / "truth.json").write_text((phantom_dir / "truth.json").read_text())
        with pytest.raises(PixelFileError):
            lio.load_truth(tmp_path / "truth.json")

    def test_metrics_with_truth_sidecar_as_reference(self, phantom_dir, tmp_path, capsys):
        mask = lio.load_truth(phantom_dir / "truth.json")
        auto = lio.save_labeling(mask.astype(np.uint8), np.ones_like(mask),
                                 (1.0, 1.0, 10.0), tmp_path / "auto")
        code = main([
            "metrics", "--auto", str(auto), "--ref", str(phantom_dir / "truth.json"),
            "--out", str(tmp_path / "met"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["ipp", "iop_row", "ps", "rows", "pixel_file", "role", "index"])
    def test_realign_with_a_slice_key_missing(self, phantom_dir, tmp_path, capsys, key):
        manifest = json.loads((phantom_dir / "dataset.json").read_text())
        del manifest["slices"][0][key]
        for entry in manifest["slices"]:
            if "pixel_file" in entry:
                entry["pixel_file"] = str(phantom_dir / entry["pixel_file"])
        (tmp_path / "dataset.json").write_text(json.dumps(manifest))
        code = main(["realign", "--data", str(tmp_path / "dataset.json"),
                     "--out", str(tmp_path / "re")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and repr(key) in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value, fragment", [
        ("ipp", [0.0, 1.0], "'ipp' must be three finite numbers, got [0.0, 1.0]"),
        ("ps", "1.25", "'ps' must be two finite numbers, got '1.25'"),
        ("rows", "many", "'rows' must be an integer, got 'many'"),
        ("roi", [1, 2], "'roi' must be four integers, got [1, 2]"),
    ])
    def test_load_dataset_with_a_malformed_slice_value(self, phantom_dir, tmp_path, key, value,
                                                       fragment):
        manifest = json.loads((phantom_dir / "dataset.json").read_text())
        manifest["slices"][0][key] = value
        (tmp_path / "dataset.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match=re.escape(fragment)):
            lio.load_dataset(tmp_path / "dataset.json")


def _edit_contours(payload):
    del payload["slices"][0]["index"]


def _edit_thickness(manifest):
    del manifest["slice_thickness_mm"]


def _edit_gap(manifest):
    manifest["gap_mm"] = "abc"


class TestLoaderProbes:
    """Malformed contours and manifests end in an ``error:`` line, not a traceback."""

    @pytest.mark.parametrize("edit, fragment", [
        (_edit_contours, "'index'"),
        (lambda payload: [1, 2], "must be a JSON object"),
        (lambda payload: payload["slices"][0].update(index="0"), "'index' must be an integer"),
        (lambda payload: payload["slices"][0]["endo"].__setitem__(0, "x"),
         "contour vertices must be numbers"),
    ], ids=["slice_without_index", "not_an_object", "string_index", "string_vertex"])
    def test_normalize_with_bad_contours(self, phantom_dir, tmp_path, capsys, edit, fragment):
        payload = json.loads((phantom_dir / "contours.json").read_text())
        payload = edit(payload) or payload
        (tmp_path / "contours.json").write_text(json.dumps(payload))
        assert_cli_error(capsys, [
            "normalize", "--data", phantom_dir / "dataset.json",
            "--contours", tmp_path / "contours.json", "--out", tmp_path / "norm",
        ], fragment)

    @pytest.mark.parametrize("edit, fragment", [
        (_edit_thickness, "'slice_thickness_mm'"),
        (_edit_gap, "'gap_mm' must be a finite number, got 'abc'"),
        (lambda manifest: [1], "must be a JSON object"),
        (lambda manifest: manifest.update(slices=5), "'slices' must be a list"),
        (lambda manifest: manifest["slices"][0].update(index="0"), "'index' must be an integer"),
    ], ids=["no_slice_thickness", "non_numeric_gap", "not_an_object", "slices_not_a_list",
            "string_index"])
    def test_normalize_with_bad_manifest(self, phantom_dir, tmp_path, capsys, edit, fragment):
        manifest = json.loads((phantom_dir / "dataset.json").read_text())
        for entry in manifest["slices"]:
            entry["pixel_file"] = str(phantom_dir / entry["pixel_file"])
        manifest = edit(manifest) or manifest
        (tmp_path / "dataset.json").write_text(json.dumps(manifest))
        assert_cli_error(capsys, [
            "normalize", "--data", tmp_path / "dataset.json",
            "--contours", phantom_dir / "contours.json", "--out", tmp_path / "norm",
        ], fragment)


class TestCliStages:
    def test_stage_isolation_chain(self, tmp_path):
        base = tmp_path / "case"
        assert main([
            "phantom", "--out", str(base / "data"), "--seed", "5",
            "--preset", "wedge", "--noise-sigma", "0.06",
        ]) == 0
        data = base / "data" / "dataset.json"
        contours = base / "data" / "contours.json"

        assert main([
            "normalize", "--data", str(data), "--contours", str(contours),
            "--out", str(base / "norm"),
        ]) == 0
        assert main([
            "classify",
            "--normalized", str(base / "norm" / "normalized.json"),
            "--params", str(base / "norm" / "normalize_report.json"),
            "--contours", str(contours),
            "--out", str(base / "cls"),
        ]) == 0
        assert main([
            "quantify", "--labeling", str(base / "cls" / "labeling.json"),
            "--out", str(base / "quant"),
        ]) == 0
        report = json.loads((base / "quant" / "quant_report.json").read_text())
        assert report["volumetric_percent"] > 3.0
        assert (base / "quant" / "bullseye.svg").exists()

        assert main([
            "metrics", "--auto", str(base / "cls" / "labeling.json"),
            "--ref", str(base / "cls" / "labeling.json"),
            "--out", str(base / "met"),
        ]) == 0
        metrics = json.loads((base / "met" / "metrics.json").read_text())
        assert metrics["dice"] == 1.0

    def test_realign_subcommand(self, tmp_path):
        base = tmp_path
        assert main([
            "phantom", "--out", str(base / "data"), "--seed", "2",
            "--preset", "clean", "--noise-sigma", "0.0",
        ]) == 0
        assert main([
            "realign", "--data", str(base / "data" / "dataset.json"),
            "--out", str(base / "re"),
        ]) == 0
        report = json.loads((base / "re" / "realign_report.json").read_text())
        assert report["final_cost"] <= report["initial_cost"]
        assert (base / "re" / "realigned.json").exists()

    def test_pipeline_zero_infarct_reports_zero(self, tmp_path):
        base = tmp_path
        assert main([
            "phantom", "--out", str(base / "data"), "--seed", "4",
            "--preset", "clean", "--noise-sigma", "0.05",
        ]) == 0
        assert main([
            "pipeline", "--data", str(base / "data" / "dataset.json"),
            "--contours", str(base / "data" / "contours.json"),
            "--truth", str(base / "data" / "truth.json"),
            "--out", str(base / "run"), "--skip-realign",
        ]) == 0
        report = json.loads((base / "run" / "report.json").read_text())
        assert report["stages"]["quantify"]["volumetric_percent"] == 0.0
        assert report["reference"]["dice"] == 1.0   # empty vs empty
        assert (base / "run" / "labeling.json").exists()

    def test_pipeline_missing_contours_aborts_with_stage(self, tmp_path, capsys):
        base = tmp_path
        assert main([
            "phantom", "--out", str(base / "data"), "--seed", "6",
            "--preset", "clean", "--noise-sigma", "0.05",
        ]) == 0
        # contours covering fewer slices than the stack
        payload = json.loads((base / "data" / "contours.json").read_text())
        payload["slices"] = payload["slices"][:3]
        (base / "data" / "short.json").write_text(json.dumps(payload))
        code = main([
            "pipeline", "--data", str(base / "data" / "dataset.json"),
            "--contours", str(base / "data" / "short.json"),
            "--out", str(base / "run"), "--skip-realign",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "normalize" in err
        # the completed realign stage's outputs are preserved
        assert (base / "run" / "realigned" / "realigned.json").exists()

    def test_classify_with_short_contours_is_an_error(self, phantom_dir, tmp_path, capsys):
        assert main([
            "normalize", "--data", str(phantom_dir / "dataset.json"),
            "--contours", str(phantom_dir / "contours.json"), "--out", str(tmp_path / "norm"),
        ]) == 0
        payload = json.loads((phantom_dir / "contours.json").read_text())
        payload["slices"] = payload["slices"][:3]
        (tmp_path / "short.json").write_text(json.dumps(payload))
        capsys.readouterr()
        code = main([
            "classify", "--normalized", str(tmp_path / "norm" / "normalized.json"),
            "--params", str(tmp_path / "norm" / "normalize_report.json"),
            "--contours", str(tmp_path / "short.json"), "--out", str(tmp_path / "cls"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_classify_with_zero_lambda_is_an_error(self, phantom_dir, tmp_path, capsys):
        assert main([
            "normalize", "--data", str(phantom_dir / "dataset.json"),
            "--contours", str(phantom_dir / "contours.json"), "--out", str(tmp_path / "norm"),
        ]) == 0
        capsys.readouterr()
        code = main([
            "classify", "--normalized", str(tmp_path / "norm" / "normalized.json"),
            "--params", str(tmp_path / "norm" / "normalize_report.json"),
            "--contours", str(phantom_dir / "contours.json"), "--out", str(tmp_path / "cls"),
            "--lambda", "0",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: [classify] lambda must be positive" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def wedge_dir(tmp_path_factory):
    """A wedge phantom on disk: unlike ``phantom_dir``, it has an infarct to label."""
    out = tmp_path_factory.mktemp("wedge")
    dataset, truth = generate(default_wedge_config(seed=1, noise_sigma=0.08))
    lio.save_dataset(dataset, out, name="dataset")
    lio.save_contours(truth.contours, out / "contours.json")
    return out


class TestStageAgreement:
    @pytest.mark.parametrize("study", ["phantom_dir", "wedge_dir"])
    def test_cli_stages_report_and_write_what_run_pipeline_does(self, request, tmp_path,
                                                                study):
        data = request.getfixturevalue(study)
        dataset = lio.load_dataset(data / "dataset.json")
        contours = lio.load_contours(data / "contours.json")
        run_pipeline(dataset, contours, PipelineConfig(skip_realign=True),
                     out_dir=tmp_path / "run")
        assert main(["normalize", "--data", str(data / "dataset.json"),
                     "--contours", str(data / "contours.json"),
                     "--out", str(tmp_path / "norm")]) == 0
        assert main(["classify", "--normalized", str(tmp_path / "norm" / "normalized.json"),
                     "--params", str(tmp_path / "norm" / "normalize_report.json"),
                     "--contours", str(data / "contours.json"),
                     "--out", str(tmp_path / "cls")]) == 0
        assert main(["quantify", "--labeling", str(tmp_path / "cls" / "labeling.json"),
                     "--out", str(tmp_path / "quant")]) == 0

        def read(path):
            return json.loads((tmp_path / path).read_text())

        stages = read("run/report.json")["stages"]
        classified = read("cls/classify_report.json")
        assert read("norm/normalize_report.json") == stages["normalize"]
        assert classified == {**stages["classify"], **stages["postprocess"],
                              "infarct_voxels": stages["quantify"]["total_infarct_voxels"]}
        assert read("quant/quant_report.json") == stages["quantify"]
        for cli, name in [("norm", "normalized.json"), ("norm", "normalized.raw"),
                          ("cls", "labeling.json"), ("cls", "labeling_labels.raw"),
                          ("cls", "labeling_mask.raw"), ("quant", "bullseye.svg")]:
            assert (tmp_path / cli / name).read_bytes() == \
                (tmp_path / "run" / name).read_bytes(), name
        if study == "wedge_dir":
            assert classified["infarct_voxels"] > 100


class TestStageErrorTags:
    """A stage subcommand tags its errors with the stage's name, as run_pipeline does."""

    def test_normalize_with_short_contours(self, phantom_dir, tmp_path, capsys):
        payload = json.loads((phantom_dir / "contours.json").read_text())
        payload["slices"] = payload["slices"][:3]
        (tmp_path / "short.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["normalize", "--data", str(phantom_dir / "dataset.json"),
                     "--contours", str(tmp_path / "short.json"),
                     "--out", str(tmp_path / "norm")]) == 1
        err = capsys.readouterr().err
        assert err == "error: [normalize] contours cover 3 slices but the stack has 6\n"

    def test_classify_with_short_contours(self, phantom_dir, normalized_dir, tmp_path, capsys):
        payload = json.loads((phantom_dir / "contours.json").read_text())
        payload["slices"] = payload["slices"][:3]
        (tmp_path / "short.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["classify", "--normalized", str(normalized_dir / "normalized.json"),
                     "--params", str(normalized_dir / "normalize_report.json"),
                     "--contours", str(tmp_path / "short.json"),
                     "--out", str(tmp_path / "cls")]) == 1
        err = capsys.readouterr().err
        assert err == "error: [classify] contours cover 3 slices but the stack has 6\n"
        assert not (tmp_path / "cls").exists()


def assert_cli_error(capsys, argv, fragment):
    """The command exits 1 with one ``error:`` line naming ``fragment``."""
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def _edit_spacing(header_path, spacing):
    """Rewrite the ``spacing_mm`` entry of a saved volume or labeling header."""
    header = json.loads(Path(header_path).read_text())
    header["spacing_mm"] = spacing
    Path(header_path).write_text(json.dumps(header))


@pytest.fixture(scope="module")
def normalized_dir(phantom_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("norm")
    assert main(["normalize", "--data", str(phantom_dir / "dataset.json"),
                 "--contours", str(phantom_dir / "contours.json"), "--out", str(out)]) == 0
    return out


class TestCliInputErrors:
    @pytest.mark.parametrize("edit, fragment", [
        (lambda mix: mix.pop("mu"), "'mu'"),
        (lambda mix: mix.update(sigma_r=-0.1), "scale parameters must be positive"),
        (lambda mix: mix.update(mu=mix["sigma_r"] - mix["a"] - 0.1), "do not straddle"),
        (lambda mix: mix.update(mu=float("nan")), "mixture parameters must be finite"),
        (lambda mix: mix.pop("i_thrh"), "'i_thrh'"),
        (lambda mix: mix.update(i_thrh="abc"), "mixture i_thrh must be a number"),
        (lambda mix: mix.update(i_thrh=float("nan")), "mixture i_thrh must be finite"),
        (lambda mix: mix.update(i_thrh=float("inf")), "mixture i_thrh must be finite"),
        (lambda mix: mix.update(i_thrh=[1]), "mixture i_thrh must be a number"),
    ], ids=["no_mu", "negative_sigma_r", "mu_below_rayleigh_mode", "nan_mu", "no_i_thrh",
            "string_i_thrh", "nan_i_thrh", "infinite_i_thrh", "list_i_thrh"])
    def test_classify_with_bad_params(self, phantom_dir, normalized_dir, tmp_path, capsys,
                                      edit, fragment):
        report = json.loads((normalized_dir / "normalize_report.json").read_text())
        edit(report["mixture"])
        (tmp_path / "params.json").write_text(json.dumps(report))
        assert_cli_error(capsys, [
            "classify", "--normalized", normalized_dir / "normalized.json",
            "--params", tmp_path / "params.json",
            "--contours", phantom_dir / "contours.json", "--out", tmp_path / "cls",
        ], fragment)

    @pytest.mark.parametrize("text, fragment", [(None, "file not found"),
                                                ("{not json", "malformed JSON"),
                                                ("[1, 2]", "must be a JSON object"),
                                                ('{"lambda_": "1"}',
                                                 "[classify] lambda must be positive and finite, "
                                                 "got '1'"),
                                                ('{"skip_realign": "no"}',
                                                 "[realign] skip_realign must be a bool, got 'no'")],
                             ids=["missing", "malformed", "not_an_object", "string_lambda",
                                  "string_skip_realign"])
    def test_pipeline_with_bad_config_file(self, phantom_dir, tmp_path, capsys, text, fragment):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        assert_cli_error(capsys, [
            "pipeline", "--data", phantom_dir / "dataset.json",
            "--contours", phantom_dir / "contours.json", "--config", config,
            "--out", tmp_path / "run",
        ], fragment)

    # A typo, the post-processing thresholds and normalization settings that are
    # constants now, and the graph-cut sigma, which is always the fitted one.
    @pytest.mark.parametrize("key", ["lamda", "boundary_fraction", "max_rim_thickness_vox",
                                     "mvo_enclosure_fraction", "graph_sigma", "epsilon",
                                     "max_iter", "n_bins"])
    def test_classify_with_an_unknown_config_key(self, phantom_dir, normalized_dir, tmp_path,
                                                 capsys, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 0.5}))
        assert_cli_error(capsys, [
            "classify", "--normalized", normalized_dir / "normalized.json",
            "--params", normalized_dir / "normalize_report.json",
            "--contours", phantom_dir / "contours.json", "--config", config,
            "--out", tmp_path / "cls",
        ], f"unknown config keys: ['{key}']")
        assert not (tmp_path / "cls").exists()

    @pytest.mark.parametrize("text, fragment", [
        ('{"gamma": -3.0}', "[realign] gamma must be a finite non-negative number"),
        ('{"gamma": 1e400}', "[realign] gamma must be a finite non-negative number"),
        ('{"realign_max_sweeps": -1}', "[realign] max_sweeps must be a non-negative integer"),
    ], ids=["negative_gamma", "infinite_gamma", "negative_sweeps"])
    def test_skipped_realign_with_bad_realign_config(self, phantom_dir, tmp_path, capsys,
                                                      text, fragment):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert_cli_error(capsys, [
            "pipeline", "--data", phantom_dir / "dataset.json",
            "--contours", phantom_dir / "contours.json", "--config", config,
            "--out", tmp_path / "run", "--skip-realign",
        ], fragment)

    @pytest.mark.parametrize("field, stage", [
        ("lambda_", "classify"), ("min_volume_mm3", "postprocess"),
        ("reference_angle_deg", "quantify"),
        ("gamma", "realign"),
    ])
    def test_pipeline_with_an_integer_past_float_range(self, phantom_dir, tmp_path, capsys,
                                                       field, stage):
        config = tmp_path / "config.json"
        config.write_text('{"%s": 1%s}' % (field, "0" * 400))
        assert_cli_error(capsys, [
            "pipeline", "--data", phantom_dir / "dataset.json",
            "--contours", phantom_dir / "contours.json", "--config", config,
            "--out", tmp_path / "run", "--skip-realign",
        ], f"error: [{stage}] ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("data", [b'{"lambda_": 1' + b"0" * 5000 + b"}",
                                      b'{"lambda_": "\xff"}'],
                             ids=["past_the_digit_limit", "not_utf8"])
    def test_pipeline_with_an_unreadable_config(self, phantom_dir, tmp_path, capsys, data):
        config = tmp_path / "config.json"
        config.write_bytes(data)
        assert_cli_error(capsys, [
            "pipeline", "--data", phantom_dir / "dataset.json",
            "--contours", phantom_dir / "contours.json", "--config", config,
            "--out", tmp_path / "run", "--skip-realign",
        ], "malformed JSON")

    def test_pipeline_with_a_directory_as_config(self, phantom_dir, tmp_path, capsys):
        assert_cli_error(capsys, [
            "pipeline", "--data", phantom_dir / "dataset.json",
            "--contours", phantom_dir / "contours.json", "--config", tmp_path,
            "--out", tmp_path / "run", "--skip-realign",
        ], "cannot read")

    def test_metrics_with_missing_inputs_writes_nothing(self, tmp_path, capsys):
        assert_cli_error(capsys, ["metrics", "--auto", tmp_path / "nope.json",
                                  "--ref", tmp_path / "nope.json", "--out", tmp_path / "m"],
                         "file not found")
        assert not (tmp_path / "m").exists()

    def test_metrics_with_labelings_of_different_shapes(self, tmp_path, capsys):
        a = lio.save_labeling(np.zeros((2, 4, 4), np.uint8), np.ones((2, 4, 4), bool),
                              (1.0, 1.0, 5.0), tmp_path / "a")
        b = lio.save_labeling(np.zeros((2, 4, 5), np.uint8), np.ones((2, 4, 5), bool),
                              (1.0, 1.0, 5.0), tmp_path / "b")
        assert_cli_error(capsys, ["metrics", "--auto", a, "--ref", b, "--out", tmp_path / "m"],
                         "shape mismatch")

    @pytest.mark.parametrize("case, fragment", [
        (("mixture", "alpha_r", "x"), "mixture alpha_r must be a number, got 'x'"),
        (("mixture", "sigma_r", None), "mixture sigma_r must be a number, got None"),
        (("mixture", "mu", [1]), "mixture mu must be a number, got [1]"),
        (("mixture", "alpha_g", True), "mixture alpha_g must be a number, got True"),
        (("mixture", "a", {}), "mixture a must be a number, got {}"),
        (("slice", "rows", float("inf")), "'rows' must be an integer, got inf"),
        (("slice", "cols", float("-inf")), "'cols' must be an integer, got -inf"),
        (("labeling", "dims", [2, float("inf"), 4]),
         "'dims' must be three integers, got [2, inf, 4]"),
        (("quantify", "dims", [2, 4, float("inf")]),
         "'dims' must be three integers, got [2, 4, inf]"),
    ], ids=["string_alpha_r", "null_sigma_r", "list_mu", "true_alpha_g", "object_a",
            "infinite_rows", "infinite_cols", "infinite_dims", "infinite_dims_quantify"])
    def test_a_value_that_is_no_number_ends_in_one_error_line(
            self, phantom_dir, normalized_dir, tmp_path, capsys, case, fragment):
        """Values that once raised TypeError, ValueError or OverflowError out of the CLI.
        json writes an infinite float as Infinity, which json reads back."""
        where, key, value = case
        if where == "mixture":
            report = json.loads((normalized_dir / "normalize_report.json").read_text())
            report["mixture"][key] = value
            (tmp_path / "params.json").write_text(json.dumps(report))
            argv = ["classify", "--normalized", normalized_dir / "normalized.json",
                    "--params", tmp_path / "params.json",
                    "--contours", phantom_dir / "contours.json", "--out", tmp_path / "cls"]
        elif where == "slice":
            manifest = json.loads((phantom_dir / "dataset.json").read_text())
            manifest["slices"][0][key] = value
            for raw in phantom_dir.glob("*.raw"):
                (tmp_path / raw.name).write_bytes(raw.read_bytes())
            (tmp_path / "dataset.json").write_text(json.dumps(manifest))
            argv = ["normalize", "--data", tmp_path / "dataset.json",
                    "--contours", phantom_dir / "contours.json", "--out", tmp_path / "norm"]
        else:
            auto = lio.save_labeling(np.zeros((2, 4, 4), np.uint8), np.ones((2, 4, 4), bool),
                                     (1.0, 1.0, 5.0), tmp_path / "auto")
            header = json.loads(auto.read_text())
            header[key] = value
            auto.write_text(json.dumps(header))
            argv = (["metrics", "--auto", auto, "--ref", auto, "--out", tmp_path / "m"]
                    if where == "labeling" else
                    ["quantify", "--labeling", auto, "--out", tmp_path / "q"])
        assert "Infinity" in json.dumps(value) or where == "mixture"
        assert_cli_error(capsys, argv, fragment)

    @pytest.mark.parametrize("text, fragment", [
        ("auto,manual\n1.0,2.0\n3.0\n", "unreadable pairs CSV"),
        ("auto,manual\n1.0,2.0,3.0\n4.0,5.0,6.0\n", "(automatic, manual)"),
        ("auto,manual\n1.0,2.0\n", "at least 2 pairs"),
        ("auto,manual\n1.0,2.0\nnan,3.0\n", "pairs must be finite"),
        ("auto,manual\n1.0,inf\n2.0,3.0\n", "pairs must be finite"),
    ], ids=["ragged", "three_columns", "single_pair", "nan_pair", "infinite_pair"])
    def test_metrics_with_bad_pairs(self, tmp_path, capsys, text, fragment):
        (tmp_path / "pairs.csv").write_text(text)
        assert_cli_error(capsys, ["metrics", "--pairs", tmp_path / "pairs.csv",
                                  "--out", tmp_path / "m"], fragment)

    @pytest.mark.parametrize("value, fragment", [
        ("0", "error: [classify] lambda must be positive"),
        ("inf", "error: [classify] lambda must be positive and finite"),
    ])
    def test_pipeline_with_bad_lambda(self, phantom_dir, tmp_path, capsys, value, fragment):
        assert_cli_error(capsys, [
            "pipeline", "--data", phantom_dir / "dataset.json",
            "--contours", phantom_dir / "contours.json", "--out", tmp_path / "run",
            "--skip-realign", "--lambda", value,
        ], fragment)

    @pytest.mark.parametrize("flags, text", [(["--min-volume-mm3", "inf"], None),
                                             ([], '{"min_volume_mm3": Infinity}')],
                             ids=["flag", "config"])
    def test_classify_with_an_infinite_min_volume(self, phantom_dir, normalized_dir, tmp_path,
                                                  capsys, flags, text):
        # An infinite threshold would remove every infarct.
        if text is not None:
            (tmp_path / "config.json").write_text(text)
            flags = ["--config", tmp_path / "config.json"]
        assert_cli_error(capsys, [
            "classify", "--normalized", normalized_dir / "normalized.json",
            "--params", normalized_dir / "normalize_report.json",
            "--contours", phantom_dir / "contours.json", "--out", tmp_path / "cls", *flags,
        ], "error: [postprocess] min_volume_mm3 must be a finite non-negative number, got inf")
        assert not (tmp_path / "cls").exists()

    @pytest.mark.parametrize("edit, fragment", [
        ("nan_voxel", "masked intensities must be finite"),
        ("zero_spacing", "spacing_mm must be three positive lengths"),
    ])
    def test_classify_with_bad_normalized_volume(self, phantom_dir, normalized_dir, tmp_path,
                                                 capsys, edit, fragment):
        intensity, spacing = lio.load_volume_f32(normalized_dir / "normalized.json")
        if edit == "nan_voxel":
            contours = lio.load_contours(phantom_dir / "contours.json")
            myocardium = contour_masks(contours, intensity.shape).myocardium
            intensity[tuple(np.argwhere(myocardium)[0])] = np.nan
        else:
            spacing = (1.25, 1.25, 0.0)
        lio.save_volume_f32(intensity, spacing, tmp_path / "normalized")
        assert_cli_error(capsys, [
            "classify", "--normalized", tmp_path / "normalized.json",
            "--params", normalized_dir / "normalize_report.json",
            "--contours", phantom_dir / "contours.json", "--out", tmp_path / "cls",
        ], fragment)

    @pytest.mark.parametrize("spacing", [["a", 1.25, 10.0], 5, [1.25, 1.25], [1.25, 1.25, None],
                                         [1.25, True, 10.0]],
                             ids=["string", "scalar", "two_values", "null", "bool"])
    def test_classify_with_malformed_spacing(self, phantom_dir, normalized_dir, tmp_path, capsys,
                                             spacing):
        intensity, _ = lio.load_volume_f32(normalized_dir / "normalized.json")
        header = lio.save_volume_f32(intensity, (1.25, 1.25, 10.0), tmp_path / "normalized")
        _edit_spacing(header, spacing)
        assert_cli_error(capsys, [
            "classify", "--normalized", header,
            "--params", normalized_dir / "normalize_report.json",
            "--contours", phantom_dir / "contours.json", "--out", tmp_path / "cls",
        ], "'spacing_mm' must be three finite numbers")

    @pytest.mark.parametrize("spacing", [["a", 1.25, 10.0], 5, [1.0, 1.0, 5.0, 1.0]],
                             ids=["string", "scalar", "four_values"])
    def test_quantify_with_malformed_spacing(self, tmp_path, capsys, spacing):
        labeling = lio.save_labeling(np.zeros((3, 6, 6), np.uint8), np.ones((3, 6, 6), bool),
                                     (1.0, 1.0, 5.0), tmp_path / "lab")
        _edit_spacing(labeling, spacing)
        assert_cli_error(capsys, ["quantify", "--labeling", labeling, "--out", tmp_path / "q"],
                         "'spacing_mm' must be three finite numbers")

    def test_quantify_with_two_slices(self, tmp_path, capsys):
        labeling = lio.save_labeling(np.zeros((2, 6, 6), np.uint8), np.ones((2, 6, 6), bool),
                                     (1.0, 1.0, 5.0), tmp_path / "lab")
        assert_cli_error(capsys, ["quantify", "--labeling", labeling, "--out", tmp_path / "q"],
                         "need at least 3 SA slices")

    def test_quantify_with_nan_reference_angle(self, tmp_path, capsys):
        labeling = lio.save_labeling(np.zeros((3, 6, 6), np.uint8), np.ones((3, 6, 6), bool),
                                     (1.0, 1.0, 5.0), tmp_path / "lab")
        assert_cli_error(capsys, ["quantify", "--labeling", labeling, "--out", tmp_path / "q",
                                  "--reference-angle", "nan"], "reference angle must be finite")

    def test_quantify_with_huge_reference_angle(self, tmp_path, capsys):
        labeling = lio.save_labeling(np.zeros((3, 6, 6), np.uint8), np.ones((3, 6, 6), bool),
                                     (1.0, 1.0, 5.0), tmp_path / "lab")
        assert_cli_error(capsys, ["quantify", "--labeling", labeling, "--out", tmp_path / "q",
                                  "--reference-angle", "1e300"],
                         "[quantify] reference angle must be finite and within 1e+06 degrees")
        assert not (tmp_path / "q").exists()


class TestPhantomInputErrors:
    @pytest.mark.parametrize("flags, fragment", [
        (["--seed", "-1"], "seed must be a non-negative integer"),
        (["--seed", "-1", "--max-shift-mm", "2"], "seed must be a non-negative integer"),
        (["--noise-sigma", "-1"], "noise sigma must be a finite non-negative number"),
        (["--noise-sigma", "nan"], "noise sigma must be a finite non-negative number"),
        (["--max-shift-mm", "inf"], "--max-shift-mm must be a finite non-negative number"),
        (["--max-shift-mm", "-2"], "--max-shift-mm must be a finite non-negative number"),
        (["--max-shift-mm", "nan"], "--max-shift-mm must be a finite non-negative number"),
        (["--max-shift-mm", "1e308"], "--max-shift-mm must be at most 8.98847e+307"),
        (["--noise-sigma", "1e308"], "noise sigma must be a finite non-negative number at most"),
    ], ids=["negative_seed", "negative_seed_shifted", "negative_noise", "nan_noise",
            "inf_shift", "negative_shift", "nan_shift", "shift_range_overflows",
            "huge_noise"])
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, flags, fragment):
        assert main(["phantom", "--out", str(tmp_path / "p"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "p").exists()

    def test_max_shift_message(self, tmp_path, capsys):
        assert main(["phantom", "--out", str(tmp_path / "p"), "--max-shift-mm", "-2"]) == 1
        assert capsys.readouterr().err == \
            "error: --max-shift-mm must be a finite non-negative number, got -2.0\n"


class TestRealignInputErrors:
    @pytest.mark.parametrize("key, value", [
        ("ipp", [float("nan"), 0.0, 0.0]),
        ("ipp", [0.0, float("inf"), 0.0]),
        ("ps", [float("nan"), 1.25]),
        ("ps", [float("inf"), 1.25]),
    ], ids=["nan_ipp", "inf_ipp", "nan_ps", "inf_ps"])
    def test_non_finite_pose_exits_1_with_one_error_line(self, phantom_dir, tmp_path, capsys,
                                                         key, value):
        manifest = json.loads((phantom_dir / "dataset.json").read_text())
        for entry in manifest["slices"]:
            entry["pixel_file"] = str(phantom_dir / entry["pixel_file"])
        manifest["slices"][1][key] = value
        (tmp_path / "dataset.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["realign", "--data", str(tmp_path / "dataset.json"),
                     "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be" in err and "finite" in err
        assert len(err.splitlines()) == 1

    def test_gamma_above_its_bound_exits_1_with_one_error_line(self, phantom_dir, tmp_path,
                                                               capsys):
        assert_cli_error(capsys, [
            "realign", "--data", phantom_dir / "dataset.json", "--gamma", "1e7",
            "--out", tmp_path / "r",
        ], "[realign] gamma must be at most 1e+06")
        assert not (tmp_path / "r").exists()

    def test_slices_metres_apart_exit_1_with_one_error_line(self, tmp_path, capsys):
        # Adjacent SA origins ~1e300 mm apart would size the paired-region grid
        # beyond any allocation.
        assert main(["phantom", "--preset", "clean", "--max-shift-mm", "1e300",
                     "--out", str(tmp_path / "p")]) == 0
        capsys.readouterr()
        assert main(["realign", "--data", str(tmp_path / "p" / "dataset.json"),
                     "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too far apart" in err
        assert len(err.splitlines()) == 1


def _phantom_copy(phantom_dir, tmp_path) -> Path:
    """A copy of the phantom directory, to edit one file of it."""
    return Path(shutil.copytree(phantom_dir, tmp_path / "copy"))


class TestSaSlicesOfDifferentShapes:
    """SA slice 1 is one row shorter than the others, its raw file to match."""

    @pytest.fixture
    def short_slice_dir(self, phantom_dir, tmp_path):
        base = _phantom_copy(phantom_dir, tmp_path)
        manifest = json.loads((base / "dataset.json").read_text())
        entry = next(e for e in manifest["slices"] if e["role"] == "SA" and e["index"] == 1)
        entry["rows"] -= 1
        raw = base / entry["pixel_file"]
        raw.write_bytes(raw.read_bytes()[: 2 * entry["rows"] * entry["cols"]])
        (base / "dataset.json").write_text(json.dumps(manifest))
        return base

    def test_realign_exits_1_with_one_error_line(self, short_slice_dir, tmp_path, capsys):
        assert_cli_error(capsys, [
            "realign", "--data", short_slice_dir / "dataset.json", "--out", tmp_path / "r",
        ], "SA slices must share rows, cols and pixel spacing")

    def test_normalize_exits_1_with_one_error_line(self, short_slice_dir, tmp_path, capsys):
        assert_cli_error(capsys, [
            "normalize", "--data", short_slice_dir / "dataset.json",
            "--contours", short_slice_dir / "contours.json", "--out", tmp_path / "n",
        ], "SA slices must share rows, cols and pixel spacing")


def _volume_header(base):
    return lio.save_volume_f32(np.zeros((3, 4, 5)), (1.0, 1.0, 5.0), base / "normalized")


def _labeling_header(base):
    return lio.save_labeling(np.zeros((3, 4, 5), np.uint8), np.ones((3, 4, 5), bool),
                             (1.0, 1.0, 5.0), base / "labeling")


class TestLabelsOtherThanZeroAndOne:
    """A labeling file holds only 0 and 1 in its labels and its mask."""

    @pytest.fixture
    def labelings(self, tmp_path):
        """(all-7 labels, mask byte 2, truth-style) labelings over one 3x6x6 grid."""
        shape, spacing = (3, 6, 6), (1.0, 1.0, 5.0)
        sevens = lio.save_labeling(np.full(shape, 7, np.uint8), np.ones(shape, bool), spacing,
                                   tmp_path / "sevens")
        twos = lio.save_labeling(np.zeros(shape, np.uint8), np.full(shape, 2, np.uint8),
                                 spacing, tmp_path / "twos")
        infarct = np.zeros(shape, bool)
        infarct[:, 2:4, 1:5] = True
        truth = lio.save_labeling(infarct.astype(np.uint8), np.ones_like(infarct), spacing,
                                  tmp_path / "truth")
        return sevens, twos, truth

    def test_loader_rejects_other_bytes(self, labelings):
        sevens, twos, _ = labelings
        with pytest.raises(DatasetFormatError, match="labels must hold only 0 and 1, got 7"):
            lio.load_labeling(sevens)
        with pytest.raises(DatasetFormatError, match="mask must hold only 0 and 1, got 2"):
            lio.load_labeling(twos)

    @pytest.mark.parametrize("which", [0, 1], ids=["labels_7", "mask_2"])
    def test_quantify_and_metrics_exit_1(self, labelings, tmp_path, capsys, which):
        bad, truth = labelings[which], labelings[2]
        fragment = "must hold only 0 and 1"
        assert_cli_error(capsys, ["quantify", "--labeling", bad, "--out", tmp_path / "q"],
                         fragment)
        assert_cli_error(capsys, ["metrics", "--auto", bad, "--ref", truth,
                                  "--out", tmp_path / "m"], fragment)

    def test_truth_labeling_with_an_all_ones_mask_loads(self, labelings, tmp_path):
        truth = labelings[2]
        labels, mask, _ = lio.load_labeling(truth)
        assert labels.sum() == 24 and mask.all()
        assert main(["metrics", "--auto", str(truth), "--ref", str(truth),
                     "--out", str(tmp_path / "m")]) == 0
        assert json.loads((tmp_path / "m" / "metrics.json").read_text())["dice"] == 1.0


class TestFormatVersion:
    """Every loader reads only headers that carry the current format version."""

    @pytest.mark.parametrize("version", [None, 2, True, 1.0],
                             ids=["no_version", "version_2", "version_true", "version_1.0"])
    @pytest.mark.parametrize("loader, header", [
        (lio.load_dataset, lambda base: base / "dataset.json"),
        (lio.load_contours, lambda base: base / "contours.json"),
        (lio.load_volume_f32, _volume_header),
        (lio.load_labeling, _labeling_header),
        (lio.load_truth, lambda base: base / "truth.json"),
    ], ids=["dataset", "contours", "volume", "labeling", "truth"])
    def test_loader_rejects_a_wrong_or_missing_version(self, phantom_dir, tmp_path, loader,
                                                       header, version):
        path = header(_phantom_copy(phantom_dir, tmp_path))
        loader(path)
        payload = json.loads(path.read_text())
        assert payload.pop("version") == lio.MANIFEST_VERSION
        if version is not None:
            payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError, match=f"unsupported format version {version}"):
            loader(path)

    def test_quantify_with_a_version_2_labeling(self, tmp_path, capsys):
        path = _labeling_header(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": 2}))
        assert_cli_error(capsys, ["quantify", "--labeling", path, "--out", tmp_path / "q"],
                               "unsupported format version 2")


class TestCliFlags:
    """A subcommand with settings takes ``--config`` and only the overrides its stages read."""

    @pytest.mark.parametrize("argv", [
        ["phantom", "--config", "x.json"],
        ["phantom", "--lambda", "1"],
        ["metrics", "--epsilon", "1"],
        ["quantify", "--labeling", "lab.json", "--lambda", "5"],
        ["realign", "--data", "d.json", "--bins", "8"],
        ["normalize", "--data", "d.json", "--contours", "c.json", "--bins", "64"],
        ["normalize", "--data", "d.json", "--contours", "c.json", "--config", "x.json"],
        ["normalize", "--data", "d.json", "--contours", "c.json", "--gamma", "1"],
        ["normalize", "--data", "d.json", "--contours", "c.json", "--epsilon", "0.01"],
        ["normalize", "--data", "d.json", "--contours", "c.json", "--max-iter", "20"],
        ["pipeline", "--data", "d.json", "--contours", "c.json", "--epsilon", "0.01"],
        ["pipeline", "--data", "d.json", "--contours", "c.json", "--max-iter", "20"],
        ["pipeline", "--data", "d.json", "--contours", "c.json", "--bins", "64"],
        ["classify", "--normalized", "n.json", "--params", "p.json", "--contours", "c.json",
         "--reference-angle", "10"],
        ["quantify", "--labeling", "lab.json", "--seed", "3"],
    ], ids=lambda argv: "_".join(a.lstrip("-") for a in (argv[0], argv[-2])))
    def test_flag_a_subcommand_does_not_read_is_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


# --- Any one value of any stage input -----------------------------------------
# Each example sets or drops one value, at any depth, of one file a stage
# subcommand reads (or resizes one raw file, or cuts one file's JSON text
# short) and runs, in process, a subcommand that reads that file. Whatever the
# edit, the subcommand exits 0, or exits 1 with exactly one ``error:`` line;
# pytest turns a numpy warning into an exception, so a warning fails too. An
# edit that leaves no valid reading of the study (``must_fail``) exits 1.

DROP = object()
# A value of each JSON kind, and the numbers at the edges of each header kind.
# The 300-character string is a file name the OS refuses; 5e-324 squares to 0.
EDIT_VALUES = ("x", "x" * 300, True, False, None, [], [1.0, 2.0, 3.0], {}, {"a": 1},
               0, -1, 2.5, 5e-324, 1e308, float("inf"), float("-inf"), float("nan"), 10 ** 400)
# Each stage input, and the subcommands that read it.
READERS = {
    "dataset.json": ("realign", "normalize", "pipeline"),
    "contours.json": ("normalize", "classify", "pipeline"),
    "normalized.json": ("classify",),
    "normalize_report.json": ("classify",),
    "labeling.json": ("quantify", "metrics"),
    "truth.json": ("pipeline",),
    "config.json": ("realign", "classify", "quantify", "pipeline"),
}


def stage_argv(command: str, study: Path, out: Path) -> list:
    """The command line of ``command`` on the stage inputs in ``study``."""
    config = ["--config", study / "config.json"]
    return [str(arg) for arg in {
        "realign": ["realign", "--data", study / "dataset.json", *config],
        "normalize": ["normalize", "--data", study / "dataset.json",
                      "--contours", study / "contours.json"],
        "classify": ["classify", "--normalized", study / "normalized.json",
                     "--params", study / "normalize_report.json",
                     "--contours", study / "contours.json", *config],
        "quantify": ["quantify", "--labeling", study / "labeling.json", *config],
        "metrics": ["metrics", "--auto", study / "labeling.json",
                    "--ref", study / "labeling.json"],
        "pipeline": ["pipeline", "--data", study / "dataset.json",
                     "--contours", study / "contours.json", "--truth", study / "truth.json",
                     *config],
    }[command] + ["--out", out]]


@pytest.fixture(scope="module")
def stage_study(tmp_path_factory):
    """Every stage input of a 48x48x4 wedge study, in one directory.

    The config runs no realignment sweep, so realign computes one cost.
    """
    study = tmp_path_factory.mktemp("stages")
    cfg = replace(default_wedge_config(seed=1, noise_sigma=0.05),
                  n_sa=4, rows=48, cols=48, ps_mm=2.5)
    dataset, truth = generate(cfg)
    lio.save_dataset(dataset, study, name="dataset")
    lio.save_contours(truth.contours, study / "contours.json")
    lio.save_truth(truth, study, name="truth")
    config = {**asdict(PipelineConfig()), "realign_max_sweeps": 0}
    (study / "config.json").write_text(json.dumps(config))
    for command in ("normalize", "classify"):
        assert main(stage_argv(command, study, study)) == 0
    return study


@st.composite
def stage_edits(draw, study: Path):
    """``(file, path, value)`` and a subcommand that reads the file.

    ``path`` is the keys from the file's root down to the edited value, which
    becomes ``value`` or goes (``DROP``); a raw file's path is ``None`` and its
    value the bytes added (or cut, if negative), and a cut text's path is
    ``"text"`` and its value the fraction kept.
    """
    kind = draw(st.sampled_from(["value", "value", "value", "raw", "text"]))
    if kind == "raw":
        raw = draw(st.sampled_from(sorted(p.name for p in study.glob("*.raw"))))
        header = raw.removesuffix(".raw").split("_")[0] + ".json"
        edit = raw, None, draw(st.integers(-64, 64).filter(bool) | st.just(DROP))
    elif kind == "text":
        header = draw(st.sampled_from(sorted(READERS)))
        edit = header, "text", draw(st.floats(0.0, 1.0, exclude_max=True))
    else:
        header = draw(st.sampled_from(sorted(READERS)))
        node, path = json.loads((study / header).read_text()), ()
        for _ in range(draw(st.integers(1, 4))):
            if not (isinstance(node, (dict, list)) and node):
                break
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            node, path = node[key], path + (key,)
        edit = header, path, draw(st.sampled_from((DROP, *EDIT_VALUES)))
    return edit, draw(st.sampled_from(READERS[header]))


# The manifest, slice and contours keys every reading of a study needs ("*" is
# any slice).
MANIFEST_KEYS = ("slice_thickness_mm", "gap_mm", "slices")
SLICE_KEYS = ("role", "index", "ipp", "iop_row", "iop_col", "ps", "rows", "cols", "pixel_file")
CONTOUR_KEYS = ("index", "endo", "epi")
REQUIRED = {
    "dataset.json": {*((key,) for key in MANIFEST_KEYS),
                     *(("slices", "*", key) for key in SLICE_KEYS)},
    "contours.json": {("slices", "*", key) for key in CONTOUR_KEYS},
}


def must_fail(edit) -> bool:
    """Whether ``edit`` leaves no valid reading of the study.

    That is a raw file resized or removed; JSON text cut short; any edit of a
    header's format version; and a required key dropped, made null or an
    object, or, for an index, made anything but an integer. (An SA slice
    renamed may leave a valid dataset: ``test_an_sa_slice_renamed``.)
    """
    name, path, value = edit
    if path is None or path == "text" or path == ("version",):
        return True
    if tuple("*" if isinstance(key, int) else key for key in path) not in REQUIRED.get(name, ()):
        return False
    if value is DROP or value is None or isinstance(value, dict):
        return True
    return path[-1] == "index" and type(value) is not int


def apply_stage_edit(study: Path, edit) -> None:
    name, path, value = edit
    target = study / name
    if path is None:
        data = target.read_bytes()
        if value is DROP:
            target.unlink()
        else:
            target.write_bytes(data[:value] if value < 0 else data + bytes(value))
    elif path == "text":                      # cut before the closing brace
        text = target.read_text()
        target.write_text(text[:int(value * text.rindex("}"))])
    else:
        payload = json.loads(target.read_text())
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        target.write_text(json.dumps(payload))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_stage_input_edit_exits_0_or_with_one_error_line(stage_study, data):
    edit, command = data.draw(stage_edits(stage_study))
    with tempfile.TemporaryDirectory() as tmp:
        study = Path(shutil.copytree(stage_study, Path(tmp) / "study"))
        apply_stage_edit(study, edit)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(stage_argv(command, study, Path(tmp) / "out"))
    err = err.getvalue()
    one_error = code == 1 and err.startswith("error: ") and len(err.splitlines()) == 1
    assert one_error or code == 0 and err == "" and not must_fail(edit), \
        (command, edit, code, err)


class TestStageInputEdits:
    """Single edits that once ended in a traceback, a numpy warning or an OSError."""

    @pytest.mark.parametrize("edit, command, fragment", [
        (("contours.json", ("slices", 0, "endo", 0, 0), 10 ** 400), "normalize",
         "contour vertices must be numbers"),
        (("normalize_report.json", ("mixture", "a"), 1e308), "classify",
         "[classify] sigma 1e+308 squares outside float range"),
        (("normalize_report.json", ("mixture", "mu"), 1e308), "classify",
         "[classify] sigma 1e+308 squares outside float range"),
        (("normalize_report.json", ("mixture", "sigma_g"), 5e-324), "classify",
         "scale parameters must have a finite nonzero square"),
        (("normalize_report.json", ("mixture", "alpha_g"), 1e308), "classify",
         "[classify] the mixture's densities at the masked intensities overflow"),
        (("config.json", ("lambda_",), 1e308), "classify",
         "[classify] lambda must be at most 1e+06, got 1e+308"),
        (("dataset.json", ("slices", 0, "iop_col", 0), 1e308), "normalize",
         "slice SA/0: orientation vectors are not orthonormal"),
        (("dataset.json", ("slices", 0, "pixel_file"), "x" * 300), "normalize",
         "File name too long"),
        (("dataset.json", ("slices", 0, "rows"), 48.0), "normalize",
         "'rows' must be an integer, got 48.0"),
        (("dataset.json", ("slices", 0, "pixel_file"), 7), "normalize",
         "'pixel_file' must be a string, got 7"),
        (("dataset.json", ("slices", 0, "roi"), [1.0, 2, 3, 4]), "realign",
         "'roi' must be four integers, got [1.0, 2, 3, 4]"),
        (("dataset.json", ("slices", 5, "role"), "x" * 300), "realign",
         "'role' must be 1 to 32 letters and digits"),
        (("labeling.json", ("dims", 0), 10 ** 400), "quantify", "size does not match dims"),
        (("normalized.json", ("spacing_mm", 1), 5e-324), "classify",
         "[classify] spacing_mm must be three positive lengths, none more than 1e+06 times"),
    ], ids=["huge_vertex", "far_offset", "far_gaussian_mode", "huge_gaussian_amplitude",
            "tiny_gaussian_scale", "huge_lambda", "huge_iop", "long_pixel_file", "float_rows",
            "numeric_pixel_file", "float_roi", "long_role", "huge_dims",
            "tiny_col_spacing"])
    def test_exits_1_with_one_error_line(self, stage_study, tmp_path, capsys, edit, command,
                                         fragment):
        study = Path(shutil.copytree(stage_study, tmp_path / "study"))
        apply_stage_edit(study, edit)
        assert_cli_error(capsys, stage_argv(command, study, tmp_path / "out"), fragment)

    def test_modes_5e_324_apart(self, stage_study, tmp_path, capsys):
        # With a = sigma_r the Rayleigh mode is 0, so sigma is mu, whose square is 0.
        study = Path(shutil.copytree(stage_study, tmp_path / "study"))
        sigma_r = json.loads((study / "normalize_report.json").read_text())["mixture"]["sigma_r"]
        for key, value in (("a", sigma_r), ("mu", 5e-324)):
            apply_stage_edit(study, ("normalize_report.json", ("mixture", key), value))
        assert_cli_error(capsys, stage_argv("classify", study, tmp_path / "out"),
                         "[classify] sigma 5e-324 squares outside float range")

    @pytest.mark.parametrize("value", [DROP, None, {"a": 1}], ids=["dropped", "null", "object"])
    @pytest.mark.parametrize("name, path", [
        *(("dataset.json", (key,)) for key in MANIFEST_KEYS),
        *(("dataset.json", ("slices", k, key)) for key in SLICE_KEYS for k in (0, -1)),
        *(("contours.json", ("slices", k, key)) for key in CONTOUR_KEYS for k in (0, -1)),
    ])
    def test_a_required_key_that_is_gone_null_or_an_object(self, stage_study, tmp_path, capsys,
                                                             name, path, value):
        """Slice 0 is an SA slice and slice -1 an LA slice (in the manifest).

        A manifest message names the key; ``ContourSet`` reports bad vertices without it.
        """
        assert must_fail((name, path, value))
        study = Path(shutil.copytree(stage_study, tmp_path / "study"))
        apply_stage_edit(study, (name, path, value))
        assert_cli_error(capsys, stage_argv("normalize", study, tmp_path / "out"),
                         path[-1] if name == "dataset.json" else "")

    @pytest.mark.parametrize("k, command, fragment", [
        (0, "realign", "SA indices must be contiguous from 0"),
        (3, "realign", None),
        (3, "normalize", "[normalize] contours cover 4 slices but the stack has 3"),
    ])
    def test_an_sa_slice_renamed(self, stage_study, tmp_path, capsys, k, command, fragment):
        """The last SA slice renamed leaves a valid dataset of one SA slice fewer."""
        study = Path(shutil.copytree(stage_study, tmp_path / "study"))
        apply_stage_edit(study, ("dataset.json", ("slices", k, "role"), "x"))
        argv = stage_argv(command, study, tmp_path / "out")
        if fragment is None:
            assert main(argv) == 0
        else:
            assert_cli_error(capsys, argv, fragment)

    def test_contours_out_of_order_fit_without_a_warning(self, stage_study, tmp_path, capsys):
        # Slice 0's contours move to the apex; the mixture solve then tries a step whose
        # scale squares to 0, which it must reject without a numpy warning.
        study = Path(shutil.copytree(stage_study, tmp_path / "study"))
        apply_stage_edit(study, ("contours.json", ("slices", 0, "index"), 10 ** 400))
        assert main(stage_argv("normalize", study, tmp_path / "out")) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("key", ["true_ipps", "gains"])
    def test_truth_sidecar_is_read_for_its_mask_only(self, stage_study, tmp_path, key):
        study = Path(shutil.copytree(stage_study, tmp_path / "study"))
        apply_stage_edit(study, ("truth.json", (key,), "x"))
        assert lio.load_truth(study / "truth.json").dtype == bool
        assert main(stage_argv("pipeline", study, tmp_path / "out")) == 0
