"""No module of the package imports a name it never uses.

The only exception is an import marked ``# noqa: F401`` whose name the
benchmark tracer patches on that module: the tracer wraps the function where
its caller looks it up, so the import is there for the tracer alone.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "lgequant").glob("*.py"))


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
