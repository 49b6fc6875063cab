"""Polygon rasterization on pixel-center grids (even-odd rule)."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import COUNT, ContourError, ParameterError, check_number


def _edges(polygon):
    """Validated (r1, c1, r2, c2) edge arrays of a closed polygon, zero-length edges dropped."""
    poly = np.asarray(polygon, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
        raise ContourError("polygon must be a (V, 2) array with V >= 3")
    if not np.all(np.isfinite(poly)):
        raise ContourError("polygon has non-finite vertices")
    r1, c1 = poly.T
    r2, c2 = np.concatenate((poly[1:], poly[:1])).T
    keep = (r1 != r2) | (c1 != c2)
    if np.count_nonzero(keep) < 3:
        raise ContourError("polygon is degenerate")
    return r1[keep], c1[keep], r2[keep], c2[keep]


def _crossings(edges, r) -> tuple:
    """Every crossing of the horizontal lines at rows ``r`` (1-D) by the edges.

    Returns ``(i, col)``: for each crossing, the index into ``r`` of its row
    and the column where the edge meets it. An edge crosses row ``r`` when
    exactly one endpoint lies below it, ``min(r1, r2) <= r < max(r1, r2)``,
    so a vertex on the row counts once and a horizontal edge never; bisection
    in the sorted rows finds each edge's rows. Both :func:`polygon_mask` and
    :func:`points_in_polygon` apply the even-odd rule to these crossings: a
    point is inside when an odd number of its row's crossings lie strictly
    right of it (ray along +col).
    """
    r1, c1, r2, c2 = edges
    order = np.argsort(r, kind="stable")
    start = np.searchsorted(r[order], np.minimum(r1, r2))
    n = np.searchsorted(r[order], np.maximum(r1, r2)) - start
    e = np.repeat(np.arange(n.size), n)
    i = order[np.arange(e.size) + np.repeat(start - np.cumsum(n) + n, n)]
    r, r1, c1, r2, c2 = r[i], r1[e], c1[e], r2[e], c2[e]
    return i, c1 + (r - r1) * (c2 - c1) / (r2 - r1)


def polygon_mask(polygon, rows: int, cols: int) -> np.ndarray:
    """Boolean mask of pixel centers strictly inside a closed polygon.

    ``polygon`` is a (V, 2) array of (row, col) vertices; the closing edge
    from the last vertex back to the first is implied. All rows are filled in
    one pass by the even-odd rule of :func:`_crossings`, which classifies
    edge-touching centers deterministically.
    """
    check_number("rows", rows, **COUNT)
    check_number("cols", cols, **COUNT)
    edges = _edges(polygon)
    mask = np.zeros((rows, cols), dtype=bool)
    # Only rows in [min vertex row, max vertex row) can have crossings.
    first = max(int(np.ceil(edges[0].min())), 0)
    stop = min(int(np.ceil(edges[0].max())), rows)
    if stop <= first:
        return mask
    i, col = _crossings(edges, np.arange(first, stop, dtype=float))
    # Column c lies strictly left of a crossing at col when c < k = #{c' < col};
    # searchsorted orders a NaN crossing right of every column.
    k = np.searchsorted(np.arange(cols, dtype=float), col)
    odd = np.bincount(i * (cols + 1) + k, minlength=(stop - first) * (cols + 1)) & 1
    # Parity of the crossings with k <= c; those strictly right of column c
    # (k > c) have the row's total parity XOR that.
    below = np.logical_xor.accumulate(odd.reshape(stop - first, cols + 1).astype(bool), axis=1)
    mask[first:stop] = below[:, -1:] ^ below[:, :cols]
    return mask


def grow(box: tuple, shape: tuple) -> tuple:
    """``box`` grown by one voxel along every axis and clipped to ``shape``."""
    return tuple(slice(max(sl.start - 1, 0), min(sl.stop + 1, n)) for sl, n in zip(box, shape))


def canvas(mask: np.ndarray) -> tuple:
    """A 3-D mask's bounding box grown by one voxel and clipped; the array when empty.

    Every 6-neighbour of a masked voxel lies in the canvas, so a rule that
    reads only masked voxels and their neighbours gives the same result in
    the canvas, with the array edge where they meet, as on the whole array.
    """
    in_plane = mask.any(axis=0)
    spans = [np.flatnonzero(span) for span in
             (mask.any(axis=(1, 2)), in_plane.any(axis=1), in_plane.any(axis=0))]
    if spans[0].size == 0:
        return (slice(None),) * 3
    return grow(tuple(slice(idx[0], idx[-1] + 1) for idx in spans), mask.shape)


class ContourMasks(NamedTuple):
    """A contour set rasterized once: (n_slices, rows, cols) boolean regions."""

    endo: np.ndarray
    epi: np.ndarray

    @property
    def myocardium(self) -> np.ndarray:
        return self.epi & ~self.endo


def contour_masks(contours, shape) -> ContourMasks:
    """Rasterize every slice's endo and epi polygon of a ContourSet.

    ``shape`` is the (n_slices, rows, cols) of the stack the contours were
    drawn on; the contours must cover exactly its slices, no polygon may
    enclose zero pixel centers, and no endocardial pixel may lie outside its
    slice's epicardial mask.
    """
    try:
        n_slices, rows, cols = shape
    except (TypeError, ValueError):
        raise ParameterError(f"shape must be (n_slices, rows, cols), got {shape!r}") from None
    for name, size in zip(("n_slices", "rows", "cols"), shape):
        check_number(name, size, **COUNT)
    if len(contours) != n_slices:
        raise ContourError(
            f"contours cover {len(contours)} slices but the stack has {n_slices}"
        )
    endo = np.zeros(shape, dtype=bool)
    epi = np.zeros(shape, dtype=bool)
    for k in range(n_slices):
        epi[k] = polygon_mask(contours.epi[k], rows, cols)
        endo[k] = polygon_mask(contours.endo[k], rows, cols)
        if not epi[k].any():
            raise ContourError(f"slice {k}: epicardial polygon encloses no pixels")
        if not endo[k].any():
            raise ContourError(f"slice {k}: endocardial polygon encloses no pixels")
        if (endo[k] & ~epi[k]).any():
            raise ContourError(f"slice {k}: endocardial mask extends outside the epicardial mask")
    return ContourMasks(endo=endo, epi=epi)


def points_in_polygon(polygon, points) -> np.ndarray:
    """Even-odd test for (N, 2) (row, col) points; same rule as :func:`polygon_mask`."""
    points = np.asarray(points, dtype=float)
    i, col = _crossings(_edges(polygon), points[:, 0])
    # ``~(<=)`` counts a NaN crossing as right of the point, as polygon_mask does.
    right = ~(col <= points[i, 1])
    return np.bincount(i[right], minlength=len(points)) % 2 == 1


def point_in_polygon(polygon, r: float, c: float) -> bool:
    """Even-odd test for a single point; same rule as :func:`polygon_mask`."""
    return bool(points_in_polygon(polygon, [(r, c)])[0])


def circle_polygon(center_row: float, center_col: float, radius_px: float, n_vertices: int = 256) -> np.ndarray:
    """Closed polygon approximating a circle, in (row, col) pixel coordinates."""
    ang = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    return np.column_stack(
        [center_row + radius_px * np.cos(ang), center_col + radius_px * np.sin(ang)]
    )
