"""Command-line driver: stage subcommands plus the full pipeline.

Each stage subcommand loads its inputs from files and calls the same stage
function as ``run_pipeline``, which tags its errors with the stage's name and
writes its artifact into ``--out``; the subcommand adds its report section
there as ``<stage>_report.json``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as lio
from .aha import assign_segments, quantify  # noqa: F401  (patched by benchmarks/tracing.py)
from .errors import NON_NEGATIVE, DatasetFormatError, LgeQuantError, check_number
from .graphcut import Labeling, MyocardiumVolume
from .graphcut import classify  # noqa: F401  (patched by benchmarks/tracing.py)
from .metrics import bland_altman, dice
from .normalize import iterate_normalization  # noqa: F401  (patched by benchmarks/tracing.py)
from .phantom import LA_VIEWS, PhantomConfig, _validate, default_wedge_config, generate
from .pipeline import (
    PipelineConfig,
    _stage,
    classify_stage,
    normalize_stage,
    params_from_report,
    postprocess_stage,
    quantify_stage,
    realign_stage,
    run_pipeline,
)
from .plots import bland_altman_csv, bland_altman_svg
from .raster import contour_masks


# PipelineConfig field -> (flag, type) of its command-line override.
_OVERRIDES = {
    "gamma": ("--gamma", float),
    "skip_realign": ("--skip-realign", bool),
    "epsilon": ("--epsilon", float),
    "max_iter": ("--max-iter", int),
    "n_bins": ("--bins", int),
    "lambda_": ("--lambda", float),
    "min_volume_mm3": ("--min-volume-mm3", float),
    "reference_angle_deg": ("--reference-angle", float),
}


def _pipeline_config(args) -> PipelineConfig:
    config = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    return replace(config, **{
        name: getattr(args, name) for name in _OVERRIDES if getattr(args, name, None) is not None
    })


def cmd_phantom(args) -> int:
    if args.preset == "wedge":
        cfg = default_wedge_config(seed=args.seed, noise_sigma=args.noise_sigma)
    else:
        cfg = PhantomConfig(seed=args.seed, noise_sigma=args.noise_sigma)
    check_number("--max-shift-mm", args.max_shift_mm, **NON_NEGATIVE)
    if args.max_shift_mm > 0:
        _validate(cfg)          # the shifts are drawn from the config's seed
        rng = np.random.default_rng(args.seed)
        n = cfg.n_sa + len(LA_VIEWS)
        trans = np.zeros((n, 3))
        trans[:, :2] = rng.uniform(-args.max_shift_mm, args.max_shift_mm, size=(n, 2))
        cfg = replace(cfg, translations_mm=tuple(map(tuple, trans)))
    dataset, truth = generate(cfg)
    out = Path(args.out)
    manifest = lio.save_dataset(dataset, out, name="dataset")
    lio.save_contours(truth.contours, out / "contours.json")
    lio.save_truth(truth, out, name="truth")
    print(f"phantom written: {manifest}")
    return 0


def cmd_realign(args) -> int:
    config = _pipeline_config(args)
    _, section = realign_stage(lio.load_dataset(args.data), config, args.out)
    lio.write_report(section, Path(args.out) / "realign_report.json")
    if config.skip_realign:
        print("realign: skipped")
    else:
        print(f"realign: cost {section['initial_cost']:.6g} -> {section['final_cost']:.6g}")
    return 0


def cmd_normalize(args) -> int:
    config = _pipeline_config(args)
    dataset = lio.load_dataset(args.data)
    contours = lio.load_contours(args.contours)
    (norm, _), section = normalize_stage(dataset, contours, config, args.out)
    lio.write_report(section, Path(args.out) / "normalize_report.json")
    print(f"normalize: {norm.iterations} iterations, converged={norm.converged}")
    return 0


def cmd_classify(args) -> int:
    """Graph-cut classification followed by post-processing."""
    config = _pipeline_config(args)
    intensity, spacing = lio.load_volume_f32(args.normalized)
    contours = lio.load_contours(args.contours)
    params = params_from_report(args.params)
    with _stage("classify"):
        masks = contour_masks(contours, intensity.shape)
        volume = MyocardiumVolume(intensity, masks.myocardium, spacing)
    raw_labeling, classified = classify_stage(volume, params, config)
    labeling, cleaned = postprocess_stage(raw_labeling, volume, masks, params, config, args.out)
    infarct_voxels = int(labeling.infarct_mask().sum())
    lio.write_report({**classified, **cleaned, "infarct_voxels": infarct_voxels},
                     Path(args.out) / "classify_report.json")
    print(f"classify: {infarct_voxels} infarct voxels")
    return 0


def cmd_quantify(args) -> int:
    config = _pipeline_config(args)
    labels, mask, spacing = lio.load_labeling(args.labeling)
    volume = MyocardiumVolume(np.zeros(mask.shape), mask, spacing)
    quant, section = quantify_stage(Labeling(labels=labels, mask=mask), volume, config,
                                    args.out)
    lio.write_report(section, Path(args.out) / "quant_report.json")
    print(f"quantify: volumetric I/M% = {quant.volumetric_percent:.2f}")
    return 0


def cmd_metrics(args) -> int:
    out = Path(args.out)
    payload = {}
    if args.auto and args.ref:
        auto_labels, auto_mask, _ = lio.load_labeling(args.auto)
        ref_labels, ref_mask, _ = lio.load_labeling(args.ref)
        payload["dice"] = dice(auto_labels == 1, ref_labels == 1)
    if args.pairs:
        try:
            pairs = np.loadtxt(args.pairs, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise DatasetFormatError(f"{args.pairs}: unreadable pairs CSV: {exc}") from None
        stats = bland_altman(pairs)
        payload["bland_altman"] = {
            "mean_diff": stats.mean_diff, "sd_diff": stats.sd_diff,
            "loa_low": stats.loa_low, "loa_high": stats.loa_high,
        }
        out.mkdir(parents=True, exist_ok=True)
        bland_altman_csv(pairs, out / "ba.csv")
        bland_altman_svg(pairs, stats, out / "ba.svg")
    if not payload:
        print("metrics: nothing to do (need --auto/--ref or --pairs)", file=sys.stderr)
        return 1
    lio.write_report(payload, out / "metrics.json")
    print("metrics:", ", ".join(f"{k}" for k in sorted(payload)))
    return 0


def cmd_pipeline(args) -> int:
    config = _pipeline_config(args)
    dataset = lio.load_dataset(args.data)
    contours = lio.load_contours(args.contours)
    truth = lio.load_truth(args.truth) if args.truth else None
    report = run_pipeline(dataset, contours, config, out_dir=args.out, truth=truth)
    vol_pct = report["stages"]["quantify"]["volumetric_percent"]
    line = f"pipeline: volumetric I/M% = {vol_pct:.2f}"
    if "reference" in report:
        line += f", Dice vs reference = {report['reference']['dice']:.4f}"
    print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgequant",
        description="Automatic quantification of LGE cardiac MR stacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *fields):
        """A subcommand with ``--out``; with ``fields``, also ``--config`` and their overrides."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True, help="output directory")
        if fields:
            p.add_argument("--config", help="pipeline config JSON")
        for field in fields:
            flag, kind = _OVERRIDES[field]
            if kind is bool:
                p.add_argument(flag, dest=field, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=field, type=kind, default=None)
        p.set_defaults(func=func)
        return p

    p = command("phantom", cmd_phantom, "generate a synthetic dataset with ground truth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=("clean", "wedge"), default="wedge")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.08)
    p.add_argument("--max-shift-mm", dest="max_shift_mm", type=float, default=0.0)

    p = command("realign", cmd_realign, "correct slice misalignment", "gamma", "skip_realign")
    p.add_argument("--data", required=True, help="dataset manifest JSON")

    p = command("normalize", cmd_normalize, "normalize SA intensities",
                "epsilon", "max_iter", "n_bins")
    p.add_argument("--data", required=True)
    p.add_argument("--contours", required=True)

    p = command("classify", cmd_classify, "graph-cut infarct classification and post-processing",
                "lambda_", "min_volume_mm3")
    p.add_argument("--normalized", required=True, help="normalized volume header JSON")
    p.add_argument("--params", required=True, help="normalize_report.json with the mixture")
    p.add_argument("--contours", required=True)

    p = command("quantify", cmd_quantify, "AHA 16-segment report", "reference_angle_deg")
    p.add_argument("--labeling", required=True, help="labeling header JSON")

    p = command("metrics", cmd_metrics, "Dice / Bland-Altman agreement")
    p.add_argument("--auto", help="automatic labeling header JSON")
    p.add_argument("--ref", help="reference labeling header JSON")
    p.add_argument("--pairs", help="CSV of automatic,manual value pairs")

    p = command("pipeline", cmd_pipeline, "full quantification pipeline", *_OVERRIDES)
    p.add_argument("--data", required=True)
    p.add_argument("--contours", required=True)
    p.add_argument("--truth", help="phantom truth sidecar JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LgeQuantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
