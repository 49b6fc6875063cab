"""The demos run as shipped: each is a script run in a fresh interpreter.

Each test checks one printed line against a bound stated here, so a demo that
still runs but reports a broken result fails too.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Acceptance 6: the end-to-end wedge study reaches this Dice.
MIN_DICE = 0.85
# Acceptance 3a: realignment recovers the slice origins within one pixel (mm).
PIXEL_MM = 1.25


def run_demo(name: str, tmp_path) -> str:
    """Run demo ``name`` with its temporary files under ``tmp_path``; returns its output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def printed(pattern: str, stdout: str) -> tuple:
    match = re.search(pattern, stdout, re.MULTILINE)
    assert match, stdout
    return match.groups()


def test_phantom_and_pipeline_demo_reaches_the_end_to_end_dice(tmp_path):
    stdout = run_demo("01_phantom_and_pipeline.py", tmp_path)
    (d,) = printed(r"^Dice vs ground truth: ([0-9.]+)$", stdout)
    assert float(d) >= MIN_DICE, stdout
    (out,) = printed(r"^outputs \(labeling, report, bull's eye\): (.+)$", stdout)
    assert Path(out).parent == tmp_path


def test_misalignment_demo_recovers_within_one_pixel(tmp_path):
    stdout = run_demo("02_misalignment_correction.py", tmp_path)
    rms, pixel = printed(r"^relative translation error, RMS over slices: ([0-9.]+) mm "
                         r"\(pixel size ([0-9.]+) mm\)$", stdout)
    assert float(pixel) == PIXEL_MM
    assert float(rms) < PIXEL_MM, stdout


def test_mixture_demo_threshold_lies_between_the_modes(tmp_path):
    stdout = run_demo("03_intensity_mixture.py", tmp_path)
    threshold, lo, hi = printed(r"^  class threshold: ([0-9.]+) "
                                r"\(between the modes ([0-9.]+) and ([0-9.]+)\)$", stdout)
    assert float(lo) < float(threshold) < float(hi), stdout


def test_graphcut_exactness_demo_matches_enumeration(tmp_path):
    stdout = run_demo("04_graphcut_exactness.py", tmp_path)
    assert stdout.count("-> exact") == 5, stdout


def test_segment_report_demo_fills_segment_one(tmp_path):
    stdout = run_demo("05_segment_report.py", tmp_path)
    (pct,) = printed(r"^  segment  1: +([0-9.]+) ", stdout)
    assert pct == "100.00", stdout
    (out,) = printed(r"^bull's eye written to (.+)$", stdout)
    assert Path(out).parent.parent == tmp_path
