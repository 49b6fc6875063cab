"""Exception types shared across the package."""

import math
import numbers


class LgeQuantError(Exception):
    """Base class for all package errors."""


class ParameterError(LgeQuantError, ValueError):
    """A parameter is out of its valid range (NaN, infinite, negative, ...)."""


def check_number(name: str, value, integral: bool = False, what: str = "", ok=None) -> None:
    """Raise ParameterError unless ``value`` is a number (an integer if ``integral``), not a bool.

    A number that need not be integral must also fit in a float, so an
    integer beyond float range fails here rather than as an OverflowError
    later. ``ok``, when given, is a further test the number must pass;
    ``what`` then says in the message what the value must be.
    """
    kind = numbers.Integral if integral else numbers.Real
    valid = not isinstance(value, bool) and isinstance(value, kind)
    if valid and not integral:
        try:
            float(value)
        except OverflowError:
            valid = False
    if not valid or (ok is not None and not ok(value)):
        what = what or ("an integer" if integral else "a number")
        raise ParameterError(f"{name} must be {what}, got {value!r}")


# ``check_number`` keywords for the commonest ranges.
FINITE = {"what": "finite", "ok": math.isfinite}
POSITIVE = {"what": "positive and finite", "ok": lambda v: 0 < v < math.inf}
NON_NEGATIVE = {"what": "a finite non-negative number", "ok": lambda v: 0 <= v < math.inf}
COUNT = {"integral": True, "what": "a non-negative integer", "ok": lambda v: v >= 0}


class GeometryError(LgeQuantError):
    """Invalid geometric input (line not in plane, slices not near-parallel, ...)."""


class DegenerateInputError(LgeQuantError):
    """Input carries no usable information (constant array, empty objective, ...)."""


class FitError(LgeQuantError):
    """Mixture fitting failed or the input is not bimodal."""


class ThresholdError(LgeQuantError):
    """No component intersection exists between the two mixture modes."""


class ContourError(LgeQuantError):
    """Missing, malformed, or degenerate contour polygon."""


class NormalizationError(LgeQuantError):
    """Blood-pool extraction or iterative normalization failed."""


class EmptyMaskError(LgeQuantError):
    """An operation that needs masked voxels received an empty mask."""


class DatasetFormatError(LgeQuantError):
    """Malformed dataset manifest or pixel file."""


class PixelFileError(DatasetFormatError):
    """Referenced pixel file is missing or its size does not match the manifest."""


class OrientationError(DatasetFormatError):
    """Slice orientation vectors are not orthonormal."""
