"""No module of the package raises a bare ``ValueError`` or ``TypeError``.

Bad input ends in a typed ``LgeQuantError``; ``ParameterError`` subclasses
``ValueError``, so a caller that catches ``ValueError`` still catches it. A
``RuntimeError`` marks a broken internal invariant and is allowed.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from lgequant.errors import GeometryError, ParameterError
from lgequant.geometry import Roi, SliceImage, SlicePose
from lgequant.graphcut import MyocardiumVolume

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


_POSE = {"ipp": [0.0, 0.0, 0.0], "iop_row": [1.0, 0.0, 0.0], "iop_col": [0.0, 1.0, 0.0],
         "ps_row": 1.0, "ps_col": 1.0, "rows": 4, "cols": 4}


@pytest.mark.parametrize("build, error, message", [
    (lambda: SlicePose(**{**_POSE, "ps_row": "1"}), GeometryError, "ps_row must be a number"),
    (lambda: SlicePose(**{**_POSE, "ipp": ["a", 0, 0]}), GeometryError,
     "ipp must be three numbers"),
    (lambda: SlicePose(**{**_POSE, "rows": 4.5}), GeometryError, "rows must be an integer"),
    (lambda: SlicePose(**{**_POSE, "cols": True}), GeometryError, "cols must be an integer"),
    (lambda: SliceImage(SlicePose(**_POSE), [["a"] * 4] * 4), GeometryError,
     "pixel values must be numbers"),
    (lambda: Roi("a", 2, 0, 2), GeometryError, "row_min must be an integer"),
    (lambda: Roi(0.5, 2, 0, 2), GeometryError, "row_min must be an integer"),
    (lambda: Roi(0, 2, False, 2), GeometryError, "col_min must be an integer"),
    (lambda: MyocardiumVolume(np.zeros((1, 1, 1)), np.ones((1, 1, 1), dtype=bool), ("a", 1, 1)),
     ParameterError, "spacing_mm must be a number"),
    (lambda: MyocardiumVolume(np.zeros((1, 1, 1)), np.ones((1, 1, 1), dtype=bool), 1.0),
     ParameterError, "spacing_mm must be three lengths"),
], ids=["string_spacing", "string_ipp", "float_rows", "bool_cols", "string_pixels",
        "string_roi", "float_roi", "bool_roi", "string_volume_spacing", "scalar_volume_spacing"])
def test_constructors_refuse_values_that_are_not_numbers(build, error, message):
    with pytest.raises(error, match=message):
        build()
