"""Command-line driver: stage subcommands plus the full pipeline.

Each stage subcommand loads its inputs from files, calls the same stage
function as ``run_pipeline`` and saves what that function returns.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as lio
from .aha import assign_segments, quantify  # noqa: F401  (patched by benchmarks/tracing.py)
from .errors import DatasetFormatError, LgeQuantError
from .graphcut import Labeling, MyocardiumVolume
from .graphcut import classify  # noqa: F401  (patched by benchmarks/tracing.py)
from .metrics import bland_altman, dice
from .normalize import iterate_normalization  # noqa: F401  (patched by benchmarks/tracing.py)
from .phantom import PhantomConfig, default_wedge_config, generate
from .pipeline import (
    PipelineConfig,
    classify_stage,
    normalize_stage,
    postprocess_stage,
    quantify_stage,
    realign_stage,
    run_pipeline,
)
from .plots import bland_altman_csv, bland_altman_svg, bullseye_svg
from .raster import contour_masks
from .rician import RicianMixtureParams


def _pipeline_config(args) -> PipelineConfig:
    config = (
        PipelineConfig.from_json(args.config)
        if getattr(args, "config", None)
        else PipelineConfig()
    )
    overrides = {
        "gamma": "gamma",
        "lambda_": "lambda_",
        "epsilon": "epsilon",
        "max_iter": "max_iter",
        "n_bins": "bins",
        "min_volume_mm3": "min_volume_mm3",
        "reference_angle_deg": "reference_angle",
        "skip_realign": "skip_realign",
    }
    for field_name, arg_name in overrides.items():
        value = getattr(args, arg_name, None)
        if value is not None and value is not False:
            setattr(config, field_name, value)
    return config


def _add_common(parser):
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--lambda", dest="lambda_", type=float, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    parser.add_argument("--bins", type=int, default=None)
    parser.add_argument("--min-volume-mm3", dest="min_volume_mm3", type=float, default=None)
    parser.add_argument("--reference-angle", dest="reference_angle", type=float, default=None)
    parser.add_argument("--skip-realign", dest="skip_realign", action="store_true", default=False)


def cmd_phantom(args) -> int:
    if args.preset == "wedge":
        cfg = default_wedge_config(seed=args.seed, noise_sigma=args.noise_sigma)
    else:
        cfg = PhantomConfig(seed=args.seed, noise_sigma=args.noise_sigma)
    if args.max_shift_mm > 0:
        rng = np.random.default_rng(args.seed)
        n = cfg.n_sa + len(cfg.la_views)
        trans = np.zeros((n, 3))
        trans[:, :2] = rng.uniform(-args.max_shift_mm, args.max_shift_mm, size=(n, 2))
        cfg = PhantomConfig(**{**cfg.__dict__, "translations_mm": tuple(map(tuple, trans))})
    dataset, truth = generate(cfg)
    out = Path(args.out)
    manifest = lio.save_dataset(dataset, out, name="dataset")
    lio.save_contours(truth.contours, out / "contours.json")
    lio.save_truth(truth, out, name="truth")
    print(f"phantom written: {manifest}")
    return 0


def cmd_realign(args) -> int:
    config = _pipeline_config(args)
    realigned, section = realign_stage(lio.load_dataset(args.data), config)
    out = Path(args.out)
    lio.save_dataset(realigned, out, name="realigned")
    lio.write_report(section, out / "realign_report.json")
    if config.skip_realign:
        print("realign: skipped")
    else:
        print(f"realign: cost {section['initial_cost']:.6g} -> {section['final_cost']:.6g}")
    return 0


def cmd_normalize(args) -> int:
    config = _pipeline_config(args)
    dataset = lio.load_dataset(args.data)
    contours = lio.load_contours(args.contours)
    (norm, _), section = normalize_stage(dataset, contours, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lio.save_volume_f32(norm.stack, dataset.voxel_spacing_mm, out / "normalized")
    lio.write_report(section, out / "normalize_report.json")
    print(f"normalize: {norm.iterations} iterations, converged={norm.converged}")
    return 0


def _params_from_report(path) -> RicianMixtureParams:
    mix = lio._field(lio.read_report(path), "mixture", path)
    if not mix:
        raise LgeQuantError(f"{path} carries no mixture parameters")
    params = RicianMixtureParams(**{
        key: lio._field(mix, key, path)
        for key in ("alpha_r", "sigma_r", "a", "alpha_g", "sigma_g", "mu")
    })
    params.i_thrh = mix.get("i_thrh")
    return params


def cmd_classify(args) -> int:
    """Graph-cut classification followed by post-processing."""
    config = _pipeline_config(args)
    intensity, spacing = lio.load_volume_f32(args.normalized)
    contours = lio.load_contours(args.contours)
    params = _params_from_report(args.params)
    masks = contour_masks(contours, intensity.shape)
    volume = MyocardiumVolume(intensity, masks.myocardium, spacing)
    raw_labeling, _ = classify_stage(volume, params, config)
    labeling, section = postprocess_stage(raw_labeling, volume, masks, params, config)
    infarct_voxels = int(labeling.infarct_mask().sum())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lio.save_labeling(labeling.labels, labeling.mask, spacing, out / "labeling")
    lio.write_report({**section, "infarct_voxels": infarct_voxels},
                     out / "classify_report.json")
    print(f"classify: {infarct_voxels} infarct voxels")
    return 0


def cmd_quantify(args) -> int:
    config = _pipeline_config(args)
    labels, mask, spacing = lio.load_labeling(args.labeling)
    volume = MyocardiumVolume(np.zeros(mask.shape), mask, spacing)
    quant, section = quantify_stage(Labeling(labels=labels, mask=mask), volume, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lio.write_report(section, out / "quant_report.json")
    bullseye_svg(quant.segment_percent, out / "bullseye.svg",
                 reference_angle_deg=config.reference_angle_deg)
    print(f"quantify: volumetric I/M% = {quant.volumetric_percent:.2f}")
    return 0


def cmd_metrics(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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

    p = sub.add_parser("phantom", help="generate a synthetic dataset with ground truth")
    _add_common(p)
    p.add_argument("--preset", choices=("clean", "wedge"), default="wedge")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.08)
    p.add_argument("--max-shift-mm", dest="max_shift_mm", type=float, default=0.0)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("realign", help="correct slice misalignment")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.set_defaults(func=cmd_realign)

    p = sub.add_parser("normalize", help="normalize SA intensities")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--contours", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("classify", help="graph-cut infarct classification and post-processing")
    _add_common(p)
    p.add_argument("--normalized", required=True, help="normalized volume header JSON")
    p.add_argument("--params", required=True, help="normalize_report.json with the mixture")
    p.add_argument("--contours", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("quantify", help="AHA 16-segment report")
    _add_common(p)
    p.add_argument("--labeling", required=True, help="labeling header JSON")
    p.set_defaults(func=cmd_quantify)

    p = sub.add_parser("metrics", help="Dice / Bland-Altman agreement")
    _add_common(p)
    p.add_argument("--auto", help="automatic labeling header JSON")
    p.add_argument("--ref", help="reference labeling header JSON")
    p.add_argument("--pairs", help="CSV of automatic,manual value pairs")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("pipeline", help="full quantification pipeline")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--contours", required=True)
    p.add_argument("--truth", help="phantom truth sidecar JSON")
    p.set_defaults(func=cmd_pipeline)
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
