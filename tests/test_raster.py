import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgequant.errors import ContourError
from lgequant.raster import point_in_polygon, polygon_mask


def reference_inside(poly, r, c):
    """Even-odd crossing test over every edge, one point at a time."""
    inside = False
    n = len(poly)
    for i in range(n):
        r1, c1 = poly[i]
        r2, c2 = poly[(i + 1) % n]
        if (r1 > r) != (r2 > r) and c < c1 + (r - r1) * (c2 - c1) / (r2 - r1):
            inside = not inside
    return inside


# Integer coordinates put vertices on pixel centres and give horizontal edges
# through centre rows; halves and arbitrary floats cover the rest.
coordinate = st.one_of(
    st.integers(-2, 12).map(float),
    st.integers(-4, 24).map(lambda v: v / 2.0),
    st.floats(-2.0, 12.0, allow_nan=False),
)
polygons = st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=9).map(
    lambda vertices: np.array(vertices, dtype=float)
)


@settings(max_examples=300, deadline=None)
@given(poly=polygons, rows=st.integers(1, 11), cols=st.integers(1, 11))
def test_polygon_mask_is_the_per_pixel_even_odd_rule(poly, rows, cols):
    n_edges = int(np.sum(np.any(poly != np.roll(poly, -1, axis=0), axis=1)))
    if n_edges < 3:
        with pytest.raises(ContourError):
            polygon_mask(poly, rows, cols)
        return
    mask = polygon_mask(poly, rows, cols)
    expected = [[reference_inside(poly, float(r), float(c)) for c in range(cols)]
                for r in range(rows)]
    assert np.array_equal(mask, np.array(expected, dtype=bool))
    points = [[point_in_polygon(poly, r, c) for c in range(cols)] for r in range(rows)]
    assert np.array_equal(np.array(points, dtype=bool), mask)
