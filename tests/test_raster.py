import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgequant.dataset import ContourSet
from lgequant.errors import ContourError, LgeQuantError
from lgequant.phantom import generate
from lgequant.raster import (
    _edges,
    circle_polygon,
    contour_masks,
    point_in_polygon,
    points_in_polygon,
    polygon_mask,
)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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


# --- The per-row loop as the oracle -----------------------------------------
# polygon_mask fills all rows in one array pass; this is the loop it replaced:
# one sorted crossing list and one searchsorted per row, bit for bit the same
# crossing floats.

def _inside_on_row(edges, r, cols):
    r1, c1, r2, c2 = edges
    s = (r1 > r) != (r2 > r)
    crossings = np.sort(c1[s] + (r - r1[s]) * (c2[s] - c1[s]) / (r2[s] - r1[s]))
    return (crossings.size - np.searchsorted(crossings, cols, side="right")) % 2 == 1


def row_loop_mask(polygon, rows, cols):
    edges = _edges(polygon)
    cc = np.arange(cols, dtype=float)
    mask = np.zeros((rows, cols), dtype=bool)
    first = max(int(np.ceil(edges[0].min())), 0)
    stop = min(int(np.ceil(edges[0].max())), rows)
    for r in range(first, stop):
        mask[r] = _inside_on_row(edges, float(r), cc)
    return mask


def benchmark_phantom_configs():
    sys.path[:0] = [str(BENCHMARKS)]
    try:
        import harness
    finally:
        sys.path.remove(str(BENCHMARKS))
    for workload in harness.workloads().values():
        for seed in (1, 2, 3):
            yield pytest.param(workload.phantom(seed), id=f"{workload.name}-{seed}")


@pytest.mark.parametrize("cfg", benchmark_phantom_configs())
def test_polygon_mask_matches_the_row_loop_on_benchmark_contours(cfg):
    _, truth = generate(cfg)
    for poly in truth.contours.endo + truth.contours.epi:
        assert np.array_equal(polygon_mask(poly, cfg.rows, cfg.cols),
                              row_loop_mask(poly, cfg.rows, cfg.cols))


# Vertices up to 8 pixels beyond a grid of up to 64 x 64, so edges cross the
# image border on every side.
wide_coordinate = st.one_of(
    st.integers(-8, 72).map(float),
    st.integers(-16, 144).map(lambda v: v / 2.0),
    st.floats(-8.0, 72.0, allow_nan=False),
)
wide_polygons = st.lists(st.tuples(wide_coordinate, wide_coordinate), min_size=3,
                         max_size=24).map(lambda vertices: np.array(vertices, dtype=float))


# Vertices far off the grid, too, where a crossing's column rounds by more
# than a pixel: polygon_mask reads only the columns its crossings span.
far_coordinate = st.one_of(wide_coordinate, st.floats(-1e17, 1e17, allow_nan=False))
far_polygons = st.lists(st.tuples(far_coordinate, far_coordinate), min_size=3,
                        max_size=12).map(lambda vertices: np.array(vertices, dtype=float))


@settings(max_examples=400, deadline=None)
@given(poly=st.one_of(wide_polygons, far_polygons), rows=st.integers(0, 64),
       cols=st.integers(0, 64))
def test_polygon_mask_matches_the_row_loop_across_the_border(poly, rows, cols):
    try:
        want = row_loop_mask(poly, rows, cols)
    except ContourError:
        with pytest.raises(ContourError):
            polygon_mask(poly, rows, cols)
        return
    assert np.array_equal(polygon_mask(poly, rows, cols), want)


@settings(max_examples=200, deadline=None)
@given(poly=wide_polygons, points=st.lists(st.tuples(wide_coordinate, wide_coordinate),
                                           min_size=1, max_size=12))
def test_points_in_polygon_is_point_in_polygon_per_point(poly, points):
    try:
        got = points_in_polygon(poly, points)
    except ContourError:
        with pytest.raises(ContourError):
            point_in_polygon(poly, *points[0])
        return
    assert got.tolist() == [point_in_polygon(poly, r, c) for r, c in points]


@settings(max_examples=200, deadline=None)
@given(endo=polygons, epi=polygons)
def test_contour_set_accepts_exactly_when_every_spot_checked_vertex_is_inside(endo, epi):
    """ContourSet tests every eighth endo vertex in one call; the per-vertex loop decides alike."""
    try:
        inside = [point_in_polygon(epi, r, c) for r, c in endo[:: max(1, len(endo) // 8)]]
    except ContourError:
        inside = [False]
    if all(inside):
        ContourSet(endo=[endo], epi=[epi])
    else:
        with pytest.raises(ContourError):
            ContourSet(endo=[endo], epi=[epi])


def test_contour_masks_rejects_an_endo_mask_outside_its_epi_mask():
    """Seven endo vertices between two spot-checked ones lie outside the epicardium."""
    endo = circle_polygon(20.0, 20.0, 5.0, 64)
    endo[1:8] = circle_polygon(20.0, 20.0, 14.0, 64)[1:8]
    contours = ContourSet(endo=[endo], epi=[circle_polygon(20.0, 20.0, 10.0, 64)])
    with pytest.raises(ContourError, match="slice 0: endocardial mask extends outside"):
        contour_masks(contours, (1, 40, 40))


@pytest.mark.parametrize("rows, cols", [(-1, 5), (5, -1), (2.5, 5), (5, "5"), (True, 5)])
def test_polygon_mask_rejects_a_bad_grid_size(rows, cols):
    with pytest.raises(LgeQuantError):
        polygon_mask(circle_polygon(2.0, 2.0, 1.5, 8), rows, cols)


@pytest.mark.parametrize("shape", [(8, 8), (1, 8, 8, 8), 8, (1, -8, 8), (1.0, 8, 8)])
def test_contour_masks_rejects_a_bad_stack_shape(shape):
    ring = circle_polygon(3.5, 3.5, 1.5, 16)
    contours = ContourSet(endo=[ring], epi=[circle_polygon(3.5, 3.5, 3.0, 16)])
    with pytest.raises(LgeQuantError):
        contour_masks(contours, shape)
