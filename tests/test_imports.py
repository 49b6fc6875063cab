"""What the package imports, and when.

No module of the package, test or demo imports a name it never uses. The only
exception is an import in the package marked ``# noqa: F401`` whose name the
benchmark tracer patches on that module: the tracer wraps the function where
its caller looks it up, so the import is there for the tracer alone.

No module imports scipy when it is itself imported, so each CLI stage loads
only the scipy it runs.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "lgequant").glob("*.py"))
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def _tracer_targets() -> set:
    spec = importlib.util.spec_from_file_location("lgequant_bench_tracing",
                                                  ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(owner, attr) for owner, attr, _ in tracing.TARGETS}


def unused_imports(source: str) -> list:
    """(line, name) of each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Names re-exported through ``__all__`` count as used.
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom json import dumps, loads\n"
                          "print(sys.argv, loads)\n") == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    module = f"lgequant.{path.stem}"
    targets = _tracer_targets()
    unused = [(line, name) for line, name in unused_imports(source)
              if not ("# noqa: F401" in lines[line - 1] and (module, name) in targets)]
    assert unused == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_test_or_demo_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


# --- scipy is imported where it is called ------------------------------------
# Each CLI stage is its own process, and importing scipy.optimize and
# scipy.ndimage takes most of a stage's start-up (ROADMAP item 10).

def import_time_scipy_imports(source: str) -> list:
    """Lines of the scipy imports in ``source`` that run when the module is imported."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_check_finds_an_import_time_scipy_import():
    source = ("import scipy.ndimage\nfrom .scipy import x\n"
              "try:\n    from scipy import optimize\nexcept ImportError:\n    pass\n"
              "class A:\n    from scipy.optimize import brentq\n"
              "def f():\n    from scipy.optimize import leastsq\n")
    assert import_time_scipy_imports(source) == [1, 4, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_scipy_only_inside_functions(path):
    lines = import_time_scipy_imports(path.read_text())
    assert lines == [], (
        f"{path.relative_to(ROOT)}:{lines[0]} imports scipy at module level; import it "
        "in the function that calls it, so that a CLI stage that never calls it does "
        "not pay for loading it at start-up (ROADMAP item 10)")


# Imports the package and its CLI, runs ``lgequant.cli.main`` on argv when one is
# given, then prints its exit code and the scipy modules loaded.
_PROBE = """
import json, sys
import lgequant, lgequant.cli
code = lgequant.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _scipy_loaded(*argv) -> set:
    """The scipy modules a fresh process has loaded after the CLI ran ``argv``."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _PROBE, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(loaded)


def test_importing_the_package_and_cli_loads_no_scipy():
    assert _scipy_loaded() == set()


@pytest.fixture(scope="module")
def stage_loads(tmp_path_factory):
    """The scipy modules each CLI stage loads, each stage run in a fresh process
    on the output of the one before it."""
    base = tmp_path_factory.mktemp("stages")
    data, norm, cls = base / "data", base / "norm", base / "cls"
    pairs = base / "pairs.csv"
    pairs.write_text("auto,manual\n1.0,2.0\n3.0,3.5\n5.0,4.0\n")
    return {
        "phantom": _scipy_loaded("phantom", "--seed", 5, "--max-shift-mm", 5, "--out", data),
        "realign": _scipy_loaded("realign", "--data", data / "dataset.json",
                                 "--out", base / "realigned"),
        "pipeline": _scipy_loaded("pipeline", "--data", data / "dataset.json",
                                  "--contours", data / "contours.json",
                                  "--out", base / "pipeline"),
        "normalize": _scipy_loaded("normalize", "--data", data / "dataset.json",
                                   "--contours", data / "contours.json", "--out", norm),
        "classify": _scipy_loaded("classify", "--normalized", norm / "normalized.json",
                                  "--params", norm / "normalize_report.json",
                                  "--contours", data / "contours.json", "--out", cls),
        "quantify": _scipy_loaded("quantify", "--labeling", cls / "labeling.json",
                                  "--out", base / "quant"),
        "metrics": _scipy_loaded("metrics", "--auto", cls / "labeling.json",
                                 "--ref", cls / "labeling.json", "--pairs", pairs,
                                 "--out", base / "met"),
    }


@pytest.mark.parametrize("stage", ["phantom", "quantify", "metrics"])
def test_a_stage_that_fits_nothing_loads_no_scipy(stage_loads, stage):
    assert stage_loads[stage] == set()


def test_normalize_loads_no_scipy(stage_loads):
    # The mixture fit and its threshold are the package's own Levenberg-Marquardt
    # and regula falsi.
    assert stage_loads["normalize"] == set()


def test_realign_loads_no_scipy(stage_loads):
    # Its simplex searches are the package's own Nelder-Mead.
    assert stage_loads["realign"] == set()


def test_classify_loads_ndimage_and_not_optimize(stage_loads):
    assert "scipy.ndimage" in stage_loads["classify"]
    assert "scipy.optimize" not in stage_loads["classify"]


def test_pipeline_loads_ndimage_and_not_optimize(stage_loads):
    assert "scipy.ndimage" in stage_loads["pipeline"]
    assert "scipy.optimize" not in stage_loads["pipeline"]


def scipy_optimize_imports(source: str) -> list:
    """Lines of ``source`` that import scipy.optimize or a name from it, wherever they are."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        if any(name.split(".")[:2] == ["scipy", "optimize"] for name in names):
            found.append(node.lineno)
    return found


def test_the_check_finds_a_scipy_optimize_import():
    source = ("import scipy.optimize\nimport scipy.ndimage\nfrom scipy import optimize\n"
              "from scipy import ndimage\ndef f():\n    from scipy.optimize import minimize\n"
              "from .optimize import x\n")
    assert scipy_optimize_imports(source) == [1, 3, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_never_imports_scipy_optimize(path):
    # Its searches and fits are the package's own (README, Design decisions).
    assert scipy_optimize_imports(path.read_text()) == []
