"""Closed-loop study benchmark for lgequant.

One process runs one workload: a stream of phantom studies, one after the
other, each processed by the program and checked against the phantom's exact
ground truth. Set-up generates the studies of seeds ``s``, ``s + 1`` and
``s + 2`` for a run with seed ``s``, and the run cycles through them, so no
phantom is generated while studies are timed. The program receives only the
generated dataset and contours.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import lgequant.pipeline as lpipe
from lgequant import cli as lcli
from lgequant import io as lio
from lgequant import phantom as lphantom
from lgequant import realign as lrealign
from lgequant.aha import AhaConfig, assign_segments, quantify
from lgequant.graphcut import Labeling, MyocardiumVolume
from lgequant.metrics import dice
from lgequant.phantom import InfarctWedge, MvoPocket, PhantomConfig

from tracing import Tracer

MIN_DICE = 0.85          # acceptance criterion 6a

END_TO_END = (
    ("study_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dice", "ratio"),
)

# Per-study counts and times from the traced run, in report order.
PER_LAYER = (
    ("realign.optimize.s", "s"),
    ("realign.sweeps", "count"),
    ("realign.accepted_moves", "count"),
    ("realign.total_cost.s", "s"),
    ("geometry.plane_intersection.calls", "count"),
    ("geometry.plane_intersection.s", "s"),
    ("geometry.contiguous_regions.calls", "count"),
    ("geometry.contiguous_regions.s", "s"),
    ("geometry.sample_line_values.calls", "count"),
    ("geometry.sample_line_values.s", "s"),
    ("raster.polygon_mask.calls", "count"),
    ("raster.polygon_mask.s", "s"),
    ("normalize.iterate_normalization.s", "s"),
    ("normalize.iterations", "count"),
    ("rician.fit_mixture.calls", "count"),
    ("rician.fit_mixture.s", "s"),
    ("aha.assign_segments.s", "s"),
    ("aha.quantify.s", "s"),
    ("pipeline.myocardium_volume.s", "s"),
    ("postprocess.run_postprocessing.s", "s"),
    ("postprocess.remove_boundary_false_positives.s", "s"),
    ("postprocess.remove_small_components.s", "s"),
    ("postprocess.recover_partial_volume.s", "s"),
    ("postprocess.include_mvo.s", "s"),
    ("graphcut.classify.s", "s"),
    ("graphcut.build.s", "s"),
    ("maxflow.solve.s", "s"),
    ("maxflow.nodes", "count"),
    ("maxflow.arcs", "count"),
    ("maxflow.flow", "energy"),
    ("io.save.s", "s"),
    ("io.load.s", "s"),
    ("io.bytes_written", "B"),
    ("io.bytes_read", "B"),
    ("cli.normalize.s", "s"),
    ("cli.classify.s", "s"),
    ("cli.quantify.s", "s"),
    ("cli.metrics.s", "s"),
    ("phantom.generate.s", "s"),
    *((f"self.{layer}.s", "s") for layer in (
        "pipeline", "cli", "realign", "geometry", "raster", "normalize", "rician",
        "graphcut", "maxflow", "postprocess", "aha", "io")),
    ("trace.study_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class StudyFailed(Exception):
    """A study whose stages ran but whose output is not acceptable."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build a study and how to run it."""

    name: str
    phantom: Callable[[int], PhantomConfig]     # study seed -> phantom config
    config: lpipe.PipelineConfig
    staged: bool = False                        # CLI over files instead of run_pipeline
    # Studies prepared in set-up and then cycled; each runs at least once, and
    # setup_s takes the median of their preparation times.
    prepared: int = 3


@dataclass
class Study:
    seed: int
    dataset: object
    truth: object
    contours: object
    input_dir: Path | None = None
    generate_s: float = 0.0      # phantom.generate alone
    prepare_s: float = 0.0       # generate plus writing the inputs


@dataclass
class Outcome:
    seed: int
    seconds: float
    ok: bool = False
    error: str = ""
    digest: str = ""
    dice: float | None = None
    segment_pct_err: float | None = None
    realign_rms_mm: float | None = None


# --- workloads -------------------------------------------------------------

def _shifts(seed: int, n_slices: int, max_mm: float) -> tuple:
    """Uniform in-plane origin shifts, as in acceptance check 3a."""
    rng = np.random.default_rng(seed)
    trans = np.zeros((n_slices, 3))
    trans[:, :2] = rng.uniform(-max_mm, max_mm, size=(n_slices, 2))
    return tuple(map(tuple, trans))


def _phantom(size: int, n_sa: int, ps_mm: float):
    """Registered wedge-plus-MVO phantom factory; the wedge spans the basal third."""
    n_basal = -(-n_sa // 3)

    def make(seed: int) -> PhantomConfig:
        return PhantomConfig(
            n_sa=n_sa, rows=size, cols=size, ps_mm=ps_mm,
            wedges=(InfarctWedge(slice_lo=0, slice_hi=n_basal - 1,
                                 angle_lo_deg=0.0, angle_hi_deg=60.0),),
            mvo_pockets=(MvoPocket(wedge=0, center_angle_deg=30.0, center_slice=0.0,
                                   radius_mm=4.5),),
            gains=tuple(float(g) for g in np.linspace(0.85, 1.15, n_sa)),
            noise_sigma=0.08, seed=seed,
        )

    return make


def _wedge96(seed: int, size: int = 96, n_sa: int = 6) -> PhantomConfig:
    base = lphantom.default_wedge_config(seed=seed, noise_sigma=0.08)
    return replace(
        base, rows=size, cols=size, n_sa=n_sa, ps_mm=1.25 * 96 / size,
        gains=tuple(float(g) for g in np.linspace(0.85, 1.15, n_sa)),
        translations_mm=_shifts(seed, n_sa + 2, 5.0),
    )


def workloads(smoke: bool = False) -> dict:
    """The benchmark's workloads; ``smoke`` shrinks each to a seconds-long study."""
    fov = 120.0   # every phantom images the same 120 mm field of view
    if smoke:
        return {w.name: w for w in (
            Workload("wedge96_misaligned", lambda seed: _wedge96(seed, size=48, n_sa=3),
                     lpipe.PipelineConfig(realign_max_sweeps=0)),
            Workload("clinical256_registered", _phantom(48, 4, fov / 48),
                     lpipe.PipelineConfig(skip_realign=True)),
            Workload("cli_staged192", _phantom(48, 4, fov / 48),
                     lpipe.PipelineConfig(skip_realign=True), staged=True),
        )}
    return {w.name: w for w in (
        # One sweep after the initialization pass fixes the realign work per
        # study. Per-study times vary by about 20% on a shared machine, and
        # these studies are long enough to afford a fourth sample; see README.
        Workload("wedge96_misaligned", _wedge96,
                 lpipe.PipelineConfig(realign_max_sweeps=1), prepared=4),
        Workload("clinical256_registered", _phantom(256, 14, fov / 256),
                 lpipe.PipelineConfig(skip_realign=True)),
        Workload("cli_staged192", _phantom(192, 12, fov / 192),
                 lpipe.PipelineConfig(skip_realign=True), staged=True),
    )}


# --- inputs ----------------------------------------------------------------

def prepare(workload: Workload, seed: int, work_dir: Path) -> Study:
    """Generate one study's phantom and, for the staged workload, write it out."""
    t0 = perf_counter()
    dataset, truth = lphantom.generate(workload.phantom(seed))
    study = Study(seed, dataset, truth, truth.contours)
    study.generate_s = perf_counter() - t0
    if workload.staged:
        study.input_dir = write_inputs(study, work_dir / f"input-{seed}")
    study.prepare_s = perf_counter() - t0
    return study


def write_inputs(study: Study, out: Path) -> Path:
    """Dataset, contours and the truth labeling, as the CLI reads them."""
    lio.save_dataset(study.dataset, out, name="dataset")
    lio.save_contours(study.contours, out / "contours.json")
    mask = study.truth.infarct_mask
    first = study.dataset.sa_slices[0].pose
    lio.save_labeling(mask.astype(np.uint8), np.ones_like(mask),
                      (first.ps_row, first.ps_col, study.dataset.slice_spacing_mm),
                      out / "truth_labeling")
    return out


# --- running one study -----------------------------------------------------

@contextlib.contextmanager
def capture_postprocessing():
    """Keep the final labeling and volume that run_pipeline does not return."""
    original = lpipe.run_postprocessing
    seen: dict = {}

    def keep(labeling, volume, *args, **kwargs):
        result = original(labeling, volume, *args, **kwargs)
        seen["labeling"], seen["volume"] = result[0], volume
        return result

    lpipe.run_postprocessing = keep
    try:
        yield seen
    finally:
        lpipe.run_postprocessing = original


def run_staged(study: Study, out: Path):
    """normalize -> classify -> quantify -> metrics through the CLI entry point."""
    inp = study.input_dir
    commands = [
        ["normalize", "--data", inp / "dataset.json", "--contours", inp / "contours.json",
         "--out", out / "normalize"],
        ["classify", "--normalized", out / "normalize" / "normalized.json",
         "--params", out / "normalize" / "normalize_report.json",
         "--contours", inp / "contours.json", "--out", out / "classify"],
        ["quantify", "--labeling", out / "classify" / "labeling.json",
         "--out", out / "quantify"],
        ["metrics", "--auto", out / "classify" / "labeling.json",
         "--ref", inp / "truth_labeling.json", "--out", out / "metrics"],
    ]
    log = stdio.StringIO()
    for argv in commands:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = lcli.main([str(a) for a in argv])
        if code != 0:
            raise StudyFailed(f"lgequant {argv[0]} exited {code}: {log.getvalue().strip()}")


def _staged_outputs(out: Path):
    blobs = [p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()]
    labels, mask, spacing = lio.load_labeling(out / "classify" / "labeling.json")
    volume = MyocardiumVolume(np.zeros(mask.shape), mask, spacing)
    return blobs, Labeling(labels, mask), volume


def check(workload: Workload, study: Study, outcome: Outcome, blobs, labeling,
          volume, translations):
    """Digest the outputs and compare them with the phantom's ground truth."""
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    digest.update(np.ascontiguousarray(labeling.labels, dtype=np.uint8).tobytes())
    digest.update(np.ascontiguousarray(labeling.mask, dtype=np.uint8).tobytes())
    outcome.digest = digest.hexdigest()

    truth_mask = np.asarray(study.truth.infarct_mask, dtype=bool)
    outcome.dice = dice(labeling.infarct_mask(), truth_mask)
    segments = assign_segments(volume, AhaConfig(workload.config.reference_angle_deg))
    auto = quantify(labeling, volume, segments)
    ref = quantify(Labeling((truth_mask & volume.mask).astype(np.uint8), volume.mask),
                   volume, segments)
    outcome.segment_pct_err = float(np.max(np.abs(auto.segment_percent
                                                  - ref.segment_percent)))
    if translations is not None:
        ipps = np.array([s.pose.ipp for s in study.dataset.all_slices])
        err = ipps + np.asarray(translations) - study.truth.true_ipps
        err = err - err.mean(axis=0)       # gauge: a common shift is not an error
        outcome.realign_rms_mm = float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))
    if outcome.dice < MIN_DICE:
        raise StudyFailed(f"dice {outcome.dice:.4f} below {MIN_DICE}")


@contextlib.contextmanager
def _traced(tracer: Tracer | None, study_id):
    """Install the tracer around the timed part of one study only."""
    if tracer is None:
        yield
        return
    tracer.study = study_id
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        tracer.study = None


def run_study(workload: Workload, study: Study, work_dir: Path, seen: dict,
              tracer: Tracer | None = None, study_id=None, tag: str = "") -> Outcome:
    """Time one study; any exception or failed check marks it failed."""
    out = work_dir / f"study-{study.seed}{tag}"
    outcome = Outcome(study.seed, 0.0)
    seen.clear()
    try:
        with _traced(tracer, study_id):
            t0 = perf_counter()
            try:
                if workload.staged:
                    run_staged(study, out)
                else:
                    report = lpipe.run_pipeline(
                        study.dataset, study.contours, workload.config,
                        truth={"infarct_mask": study.truth.infarct_mask})
            finally:
                outcome.seconds = perf_counter() - t0
        if workload.staged:
            blobs, labeling, volume = _staged_outputs(out)
            translations = None
        else:
            blobs = [(json.dumps(report, sort_keys=True, indent=2) + "\n").encode()]
            labeling, volume = seen["labeling"], seen["volume"]
            translations = report["stages"]["realign"].get("translations_mm")
        check(workload, study, outcome, blobs, labeling, volume, translations)
        outcome.ok = True
    except Exception as exc:       # a failed study is counted, never fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return outcome


def total_cost_s(workload: Workload, study: Study, repeats: int = 5) -> float:
    """Median time of one alignment-cost evaluation at the study's initial pose."""
    ds = study.dataset
    problem = lrealign.AlignmentProblem(ds.sa_slices, ds.la_slices, ds.sa_rois,
                                        gamma=workload.config.gamma)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        lrealign.total_cost(problem)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# --- the run ---------------------------------------------------------------

@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    prepared: int
    outcomes: list = field(default_factory=list)
    traced_outcomes: list = field(default_factory=list)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    layer: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def study_s(self, outcomes=None) -> float:
        outcomes = self.outcomes if outcomes is None else outcomes
        good = [o.seconds for o in outcomes if o.ok]
        return statistics.median(good or [o.seconds for o in outcomes])

    def digest(self) -> str | None:
        lead = self.outcomes[:self.prepared]
        if len(lead) < self.prepared or not all(o.ok for o in lead):
            return None
        return hashlib.sha256("".join(o.digest for o in lead).encode()).hexdigest()

    def end_to_end(self) -> dict:
        dices = [o.dice for o in self.outcomes if o.dice is not None]
        return {
            "study_s": self.study_s(),
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "dice": float(np.mean(dices)) if dices else 0.0,
        }

    def quality(self) -> dict:
        """Checked quality figures that can be exactly 0, printed for reading."""
        def worst(key):
            vals = [getattr(o, key) for o in self.outcomes if getattr(o, key) is not None]
            return max(vals) if vals else None
        return {
            "failed_frac": self.failed / max(self.attempted, 1),
            "segment_pct_err": worst("segment_pct_err"),
            "realign_rms_mm": worst("realign_rms_mm"),
        }


def run(workload: Workload, seed: int, seconds: float, traced: bool, work_dir: Path,
        import_s: float = 0.0, prepare_fn=prepare, trace_path: Path | None = None) -> RunResult:
    """Set up, then run studies until ``seconds`` have passed (at least the minimum).

    Set-up prepares ``workload.prepared`` studies; ``setup_s`` is the import
    time plus the median time to prepare one study. Study ``i`` processes
    prepared study ``i % workload.prepared``. In a traced run every study runs
    twice, untraced then traced, and the two digests must agree.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    result = RunResult(workload.name, seed, traced, workload.prepared)
    pool = [prepare_fn(workload, seed + i, work_dir) for i in range(workload.prepared)]
    result.setup_s = import_s + statistics.median(s.prepare_s for s in pool)
    tracer = Tracer()
    per_study: list = []
    with capture_postprocessing() as seen:
        t_start = perf_counter()
        i = 0
        while i < len(pool) or perf_counter() - t_start < seconds:
            study = pool[i % len(pool)]
            outcome = run_study(workload, study, work_dir, seen)
            result.outcomes.append(outcome)
            if traced:
                again = run_study(workload, study, work_dir, seen, tracer, i, "-traced")
                result.traced_outcomes.append(again)
                if again.digest != outcome.digest and outcome.ok:
                    outcome.ok = False
                    outcome.error = "traced repeat produced different outputs"
                metrics = tracer.study_metrics(i)
                if not workload.config.skip_realign:
                    metrics["realign.total_cost.s"] = total_cost_s(workload, study)
                metrics["phantom.generate.s"] = study.generate_s
                per_study.append(metrics)
            i += 1
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        # Counts repeat exactly only over a fixed set of studies: the prepared ones.
        first = per_study[:len(pool)]
        result.layer = {name: statistics.median(m.get(name, 0.0) for m in first)
                        for name, _ in PER_LAYER}
        result.layer["trace.study_s"] = result.study_s(result.traced_outcomes)
        result.layer["trace.overhead_frac"] = (result.layer["trace.study_s"]
                                               / result.study_s() - 1.0)
        if trace_path is not None:
            tracer.dump(trace_path, {"workload": workload.name, "seed": seed})
    return result


def render(result: RunResult, out=sys.stdout):
    """Human-readable lines, then the one-line JSON result last."""
    mode = "traced" if result.traced else "untraced"
    print(f"workload {result.workload} seed {result.seed} ({mode}, closed loop, "
          f"1 client, {result.attempted} studies)", file=out)
    for o in result.outcomes:
        fields = [f"study seed {o.seed}", f"{o.seconds:.3f} s",
                  "ok" if o.ok else f"FAILED ({o.error})"]
        if o.dice is not None:
            fields.append(f"dice {o.dice:.4f}")
        if o.segment_pct_err is not None:
            fields.append(f"segment_pct_err {o.segment_pct_err:.3f} pp")
        if o.realign_rms_mm is not None:
            fields.append(f"realign_rms_mm {o.realign_rms_mm:.3f} mm")
        fields.append(f"sha256 {o.digest or '-'}")
        print("  " + ", ".join(fields), file=out)
    e2e = result.end_to_end()
    units = dict(END_TO_END)
    print(f"study_s {e2e['study_s']:.4f} s (median of "
          f"{sum(o.ok for o in result.outcomes)} studies)", file=out)
    for name in ("setup_s", "peak_rss_mb", "dice"):
        print(f"{name} {e2e[name]:.4f} {units[name]}", file=out)
    q = result.quality()
    print(f"failed_frac {q['failed_frac']:.4f} ratio ({result.failed}/{result.attempted})",
          file=out)
    if q["segment_pct_err"] is not None:
        print(f"segment_pct_err {q['segment_pct_err']:.4f} pp (worst study)", file=out)
    if q["realign_rms_mm"] is not None:
        print(f"realign_rms_mm {q['realign_rms_mm']:.4f} mm (worst study)", file=out)
    digest = result.digest()
    if digest:
        print(f"digest {digest} (first {result.prepared} studies)", file=out)
    if result.traced:
        print(f"per-layer, per study, median over the first {result.prepared} studies:",
              file=out)
        for name, unit in PER_LAYER:
            print(f"  {name} {result.layer[name]:.6g} {unit}", file=out)
        metrics = {name: {"value": result.layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}), file=out)
