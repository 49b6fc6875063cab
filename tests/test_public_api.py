import ast
import re
from pathlib import Path

import lgequant

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in lgequant.__all__ if not hasattr(lgequant, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(set(lgequant.__all__)) == len(lgequant.__all__)


def top_level_imports(source: str) -> set:
    """The names ``source`` imports with ``from lgequant import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "lgequant" and not node.level
            for alias in node.names}


def test_exports_are_the_names_the_demos_and_readme_import():
    # The export rule of lgequant/__init__.py, both ways: __all__ holds every
    # name a demo or the README's Python code imports from the package, and no other.
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    imported = set().union(*map(top_level_imports, sources))
    assert sorted(imported - set(lgequant.__all__)) == []
    assert sorted(set(lgequant.__all__) - imported) == []
