"""No module of the package raises a bare ``ValueError`` or ``TypeError``.

Bad input ends in a typed ``LgeQuantError``; ``ParameterError`` subclasses
``ValueError``, so a caller that catches ``ValueError`` still catches it. A
``RuntimeError`` marks a broken internal invariant and is allowed.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "lgequant").glob("*.py"))


def bare_raises(source: str) -> list:
    """(line, name) of each ``raise ValueError`` or ``raise TypeError`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                found.append((node.lineno, exc.id))
    return found


def test_the_check_finds_a_bare_raise():
    source = ("raise ValueError('x')\nraise TypeError\nraise ParameterError('y')\n"
              "raise RuntimeError('z')\ntry:\n    pass\nexcept KeyError:\n    raise\n")
    assert bare_raises(source) == [(1, "ValueError"), (2, "TypeError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_raises_only_typed_errors(path):
    assert bare_raises(path.read_text()) == []
