"""Tests of the benchmark harness itself, on seconds-long smoke studies.

Run with ``python -m pytest benchmarks`` from the repository root.
"""

import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from lgequant.dataset import ContourSet  # noqa: E402

SMOKE = harness.workloads(smoke=True)
COUNTS = [name for name, unit in harness.PER_LAYER if unit in ("count", "B")]


def last_json(result) -> dict:
    out = io.StringIO()
    harness.render(result, out=out)
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload_runs_clean_and_prints_every_end_to_end_metric(name, tmp_path):
    result = harness.run(SMOKE[name], seed=5, seconds=0, traced=False, work_dir=tmp_path)
    line = last_json(result)
    assert line["correct"] is True
    assert (line["attempted"], line["failed"]) == (SMOKE[name].prepared, 0)
    assert set(line["metrics"]) == {n for n, _ in harness.END_TO_END}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert result.digest() is not None


def test_digest_repeats_across_runs(tmp_path):
    wl = SMOKE["clinical256_registered"]
    first = harness.run(wl, seed=9, seconds=0, traced=False, work_dir=tmp_path / "a")
    second = harness.run(wl, seed=9, seconds=0, traced=False, work_dir=tmp_path / "b")
    other = harness.run(wl, seed=10, seconds=0, traced=False, work_dir=tmp_path / "c")
    assert first.digest() == second.digest()
    assert first.digest() != other.digest()


def test_traced_run_reports_every_layer_metric_and_counts_repeat(tmp_path):
    wl = SMOKE["cli_staged192"]
    runs = [harness.run(wl, seed=2, seconds=0, traced=True, work_dir=tmp_path / str(k),
                        trace_path=tmp_path / f"trace{k}.json")
            for k in range(2)]
    lines = [last_json(r) for r in runs]
    assert all(line["correct"] for line in lines)
    assert set(lines[0]["metrics"]) == {n for n, _ in harness.PER_LAYER}
    assert [lines[0]["metrics"][n] for n in COUNTS] == [lines[1]["metrics"][n] for n in COUNTS]
    layer = runs[0].layer
    for name in ("raster.polygon_mask.calls", "maxflow.arcs", "io.bytes_written",
                 "io.bytes_read", "cli.classify.s", "normalize.iterations"):
        assert layer[name] > 0, name
    assert layer["realign.optimize.s"] == 0        # the staged study never realigns
    spans = json.loads((tmp_path / "trace0.json").read_text())["spans"]
    assert {s[0] for s in spans} >= {"cli.normalize", "io.load_dataset", "maxflow.solve"}


def test_traced_in_memory_run_counts_realign_and_geometry(tmp_path):
    result = harness.run(SMOKE["wedge96_misaligned"], seed=1, seconds=0, traced=True,
                         work_dir=tmp_path)
    assert result.failed == 0
    for name in ("realign.optimize.s", "realign.total_cost.s",
                 "geometry.plane_intersection.calls", "geometry.contiguous_regions.calls",
                 "geometry.sample_line_values.calls", "pipeline.myocardium_volume.s"):
        assert result.layer[name] > 0, name
    assert result.layer["io.bytes_read"] == 0      # in-memory studies do no file I/O


def _drop_last_slice_contours(bad_seed):
    def prepare(workload, seed, work_dir):
        if seed != bad_seed:
            return harness.prepare(workload, seed, work_dir)
        study = harness.prepare(replace(workload, staged=False), seed, work_dir)
        c = study.contours
        study.contours = ContourSet(endo=c.endo[:-1], epi=c.epi[:-1])
        if workload.staged:
            study.input_dir = harness.write_inputs(study, work_dir / f"input-{seed}")
        return study
    return prepare


@pytest.mark.parametrize("name", ["clinical256_registered", "cli_staged192"])
def test_broken_study_is_counted_as_failed_not_fatal(name, tmp_path):
    result = harness.run(SMOKE[name], seed=3, seconds=0, traced=False, work_dir=tmp_path,
                         prepare_fn=_drop_last_slice_contours(bad_seed=4))
    line = last_json(result)
    assert (line["attempted"], line["failed"], line["correct"]) == (3, 1, False)
    assert result.quality()["failed_frac"] == 1 / 3
    assert [o.ok for o in result.outcomes] == [True, False, True]
    assert result.digest() is None


def test_run_refuses_without_the_program_sources(tmp_path):
    copy = tmp_path / "benchmarks"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "cli_staged192",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
