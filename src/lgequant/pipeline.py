"""End-to-end quantification driver: realign, normalize, classify, report.

Each stage is one function ``(inputs, config[, out]) -> (artifact, report_section)``
that checks its inputs, computes, reports a package error raised inside it as a
``PipelineStageError`` naming the stage and, given an output directory ``out``,
writes its artifact there. ``run_pipeline`` chains them and the CLI
subcommands call them one at a time, so a stage computes, reports and writes
the same thing whichever way it runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import io as lio
from .aha import AhaConfig, assign_segments, quantify
from .dataset import ContourSet, LgeDataset
from .errors import FINITE, LgeQuantError, ParameterError, check_number
from .graphcut import GraphCutConfig, Labeling, MyocardiumVolume, classify
from .metrics import dice
from .normalize import check_normalization, iterate_normalization
from .plots import bullseye_svg
from .postprocess import check_min_volume, run_postprocessing
from .raster import ContourMasks, canvas, contour_masks
from .raster import polygon_mask  # noqa: F401  (patched by benchmarks/tracing.py)
from .realign import AlignmentProblem, check_gamma, check_max_sweeps, optimize
from .rician import RicianMixtureParams


@dataclass
class PipelineConfig:
    """Every tunable of the pipeline, with its default."""

    gamma: float = 0.01                  # contiguous-cost weight
    lambda_: float = 1.0                 # graph-cut data-term weight
    epsilon: float = 0.01                # normalization convergence on |ratio-1|
    max_iter: int = 20                   # normalization iteration cap
    n_bins: int = 64                     # relative-probability histogram bins
    min_volume_mm3: float = 100.0        # smallest infarct component kept
    reference_angle_deg: float = 0.0
    realign_max_sweeps: int = 50
    skip_realign: bool = False

    def __post_init__(self):
        # Each stage checks its fields again when it runs; checking them here
        # too means a config carries no bad value, whichever stages run.
        with _stage("realign"):
            check_gamma(self.gamma)
            check_max_sweeps(self.realign_max_sweeps)
            if not isinstance(self.skip_realign, bool):
                raise ParameterError(f"skip_realign must be a bool, got {self.skip_realign!r}")
        with _stage("normalize"):
            check_normalization(self.epsilon, self.max_iter, self.n_bins)
        with _stage("classify"):
            self.graphcut()
        with _stage("postprocess"):
            check_min_volume(self.min_volume_mm3)
        with _stage("quantify"):
            self.aha()

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        """Config from a JSON object of field values; an unknown key is an error.

        Each value goes through its stage's check, as any other config's does.
        """
        payload = lio._read_json(path)
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise LgeQuantError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    def graphcut(self) -> GraphCutConfig:
        return GraphCutConfig(lambda_=self.lambda_)

    def aha(self) -> AhaConfig:
        return AhaConfig(self.reference_angle_deg)


class PipelineStageError(LgeQuantError):
    """Failure inside one named pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    """Report a package error raised in the block (or decorated stage) as a failure of ``name``."""
    try:
        yield
    except PipelineStageError:
        raise
    except LgeQuantError as exc:
        raise PipelineStageError(name, exc) from exc


def myocardium_volume(dataset: LgeDataset, masks: ContourMasks, stack,
                      box=None) -> MyocardiumVolume:
    """Masked myocardium grid from the contour masks and the (normalized) stack.

    ``stack`` covers ``box`` of the grid (all of it by default), which must
    hold the myocardium; no stage reads the zeros the volume has elsewhere.
    """
    intensity = np.asarray(stack, dtype=float)
    if box is not None:
        intensity = np.zeros(masks.epi.shape)
        intensity[box] = stack
    return MyocardiumVolume(intensity, masks.myocardium, dataset.voxel_spacing_mm)


@_stage("realign")
def realign_stage(dataset: LgeDataset, config: PipelineConfig, out=None) -> tuple:
    """Correct slice misalignment; returns (realigned dataset, report section).

    Given ``out``, writes the realigned dataset there as ``realigned.json``.
    """
    if config.skip_realign:
        realigned, section = dataset, {"skipped": True}
    else:
        problem = AlignmentProblem(dataset.sa_slices, dataset.la_slices, dataset.sa_rois,
                                   gamma=config.gamma)
        result = optimize(problem, max_sweeps=config.realign_max_sweeps)
        realigned, section = dataset.with_ipps(result.corrected_ipps), {
            "initial_cost": result.initial_cost,
            "final_cost": result.final_cost,
            "sweeps": result.iterations,
            "converged": result.converged,
            "translations_mm": [
                [float(v) for v in row] for row in result.diagnostics["translations_mm"]
            ],
            "degenerate_pairs": result.diagnostics["degenerate_pairs"],
        }
    if out is not None:
        lio.save_dataset(realigned, out, name="realigned")
    return realigned, section


# The mixture fields a normalize report carries, and params_from_report reads back.
_MIXTURE_KEYS = ("alpha_r", "sigma_r", "a", "alpha_g", "sigma_g", "mu", "i_thrh")


@_stage("normalize")
def normalize_stage(dataset: LgeDataset, contours: ContourSet, config: PipelineConfig,
                    out=None) -> tuple:
    """Rasterize the contours and normalize the SA stack on their canvas.

    Returns ((NormalizationResult, ContourMasks), report section). The masks
    are the run's only rasterization of the contours; later stages reuse them.
    ``norm.stack`` covers the epicardial masks' canvas ``norm.box`` only.
    Given ``out``, maps the whole stack and writes it there as ``normalized.json``.
    """
    stack = [s.pixels for s in dataset.sa_slices]
    masks = contour_masks(contours, (len(stack), *stack[0].shape))
    norm = iterate_normalization(
        stack, masks, epsilon=config.epsilon,
        max_iter=config.max_iter, n_bins=config.n_bins, box=canvas(masks.epi),
    )
    if out is not None:
        lio.save_volume_f32(norm.apply(stack), dataset.voxel_spacing_mm,
                            Path(out) / "normalized")
    return (norm, masks), {
        "iterations": norm.iterations,
        "converged": norm.converged,
        "reference_slice": norm.reference_index,
        "factors_per_iteration": [
            [float(f) for f in fs] for fs in norm.factors_per_iteration
        ],
        "rescale": [norm.rescale_lo, norm.rescale_hi],
        "mixture": {key: getattr(norm.params, key) for key in _MIXTURE_KEYS},
        "relative_probability": {
            "bin_centers": [float(x) for x in norm.curve[0]],
            "values": [float(v) for v in norm.curve[1]],
        },
    }


def params_from_report(path) -> RicianMixtureParams:
    """The fitted mixture that a normalize report file carries."""
    mix = lio._field(lio.read_report(path), "mixture", path)
    if not mix:
        raise LgeQuantError(f"{path} carries no mixture parameters")
    values = {key: lio._field(mix, key, path) for key in _MIXTURE_KEYS}
    for key, value in values.items():
        check_number(f"mixture {key}", value)
    check_number("mixture i_thrh", values["i_thrh"], **FINITE)
    return RicianMixtureParams(**values)


@_stage("classify")
def classify_stage(volume: MyocardiumVolume, params: RicianMixtureParams,
                   config: PipelineConfig) -> tuple:
    """Graph-cut classification; returns (raw labeling, report section)."""
    gc_config = config.graphcut()
    labeling = classify(volume, params, gc_config)
    return labeling, {
        "sigma": gc_config.resolved_sigma(params),
        "lambda": config.lambda_,
        "raw_infarct_voxels": int(labeling.infarct_mask().sum()),
    }


@_stage("postprocess")
def postprocess_stage(labeling: Labeling, volume: MyocardiumVolume, masks: ContourMasks,
                      params: RicianMixtureParams, config: PipelineConfig, out=None) -> tuple:
    """The four cleanup rules; returns (final labeling, report section).

    Given ``out``, writes the final labeling there as ``labeling.json``.
    """
    labeling, audit = run_postprocessing(labeling, volume, masks, params, config.min_volume_mm3)
    if out is not None:
        lio.save_labeling(labeling.labels, labeling.mask, volume.spacing_mm,
                          Path(out) / "labeling")
    return labeling, {"audit": audit}


@_stage("quantify")
def quantify_stage(labeling: Labeling, volume: MyocardiumVolume,
                   config: PipelineConfig, out=None) -> tuple:
    """AHA 16-segment quantification; returns (QuantReport, report section).

    Given ``out``, draws the segment percentages there as ``bullseye.svg``.
    """
    segments = assign_segments(volume, config.aha())
    quant = quantify(labeling, volume, segments)
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
        bullseye_svg(quant.segment_percent, Path(out) / "bullseye.svg",
                     reference_angle_deg=config.reference_angle_deg)
    return quant, {
        "volumetric_percent": quant.volumetric_percent,
        "segment_percent": [float(v) for v in quant.segment_percent],
        "segment_infarct_voxels": [int(v) for v in quant.segment_infarct_voxels],
        "segment_myocardium_voxels": [int(v) for v in quant.segment_myocardium_voxels],
        "total_infarct_voxels": quant.total_infarct_voxels,
        "total_myocardium_voxels": quant.total_myocardium_voxels,
    }


def run_pipeline(
    dataset: LgeDataset,
    contours: ContourSet,
    config: PipelineConfig | None = None,
    out_dir=None,
    truth: dict | None = None,
) -> dict:
    """Execute realign -> normalize -> classify -> postprocess -> quantify.

    Returns the report dict; when ``out_dir`` is given, each stage also writes
    its artifact there (the realigned dataset under ``realigned/``, the
    normalized volume, the labeling and the bull's eye plot), and the report
    JSON follows. Stage failures raise PipelineStageError; outputs of
    completed stages are preserved.
    """
    config = config or PipelineConfig()
    out = Path(out_dir) if out_dir is not None else None
    report: dict = {"config": asdict(config), "stages": {}}
    stages = report["stages"]

    realigned, stages["realign"] = realign_stage(
        dataset, config, None if out is None else out / "realigned")
    (norm, masks), stages["normalize"] = normalize_stage(realigned, contours, config, out)
    with _stage("classify"):
        volume = myocardium_volume(realigned, masks, norm.stack, norm.box)
    raw_labeling, stages["classify"] = classify_stage(volume, norm.params, config)
    labeling, stages["postprocess"] = postprocess_stage(
        raw_labeling, volume, masks, norm.params, config, out)
    quant, stages["quantify"] = quantify_stage(labeling, volume, config, out)

    # --- reference comparison ---------------------------------------------
    if truth is not None and "infarct_mask" in truth:
        auto = labeling.infarct_mask()
        ref = np.asarray(truth["infarct_mask"], dtype=bool)
        ref_pct = 100.0 * (ref & volume.mask).sum() / max(int(volume.mask.sum()), 1)
        report["reference"] = {
            "dice": dice(auto, ref),
            "auto_percent": quant.volumetric_percent,
            "reference_percent": float(ref_pct),
        }

    if out is not None:
        lio.write_report(report, out / "report.json")
    return report
