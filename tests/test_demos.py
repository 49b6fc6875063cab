"""The demos run as shipped: each is a script run in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_graphcut_exactness_demo_matches_enumeration():
    result = run_demo("04_graphcut_exactness.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("-> exact") == 5, result.stdout
