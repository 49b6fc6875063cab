"""Polygon rasterization on pixel-center grids (even-odd rule)."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContourError


def _edges(polygon):
    """Validated (r1, c1, r2, c2) edge arrays of a closed polygon, zero-length edges dropped."""
    poly = np.asarray(polygon, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
        raise ContourError("polygon must be a (V, 2) array with V >= 3")
    if not np.all(np.isfinite(poly)):
        raise ContourError("polygon has non-finite vertices")
    r1 = poly[:, 0]
    c1 = poly[:, 1]
    r2 = np.roll(r1, -1)
    c2 = np.roll(c1, -1)
    keep = (r1 != r2) | (c1 != c2)
    if np.count_nonzero(keep) < 3:
        raise ContourError("polygon is degenerate")
    return r1[keep], c1[keep], r2[keep], c2[keep]


def _inside_on_row(edges, r: float, cols) -> np.ndarray:
    """Even-odd rule along row ``r``: which of the columns ``cols`` lie inside.

    The columns where the edges cross the row are computed once and sorted.
    An edge crosses when exactly one endpoint lies below ``r`` (row index
    greater than ``r``), so a vertex on the row counts once and a horizontal
    edge never. A column is inside when an odd number of crossings lie
    strictly right of it (ray along +col).
    """
    r1, c1, r2, c2 = edges
    s = (r1 > r) != (r2 > r)
    crossings = np.sort(c1[s] + (r - r1[s]) * (c2[s] - c1[s]) / (r2[s] - r1[s]))
    return (crossings.size - np.searchsorted(crossings, cols, side="right")) % 2 == 1


def polygon_mask(polygon, rows: int, cols: int) -> np.ndarray:
    """Boolean mask of pixel centers strictly inside a closed polygon.

    ``polygon`` is a (V, 2) array of (row, col) vertices; the closing edge
    from the last vertex back to the first is implied. Each row is filled by
    the even-odd rule of :func:`_inside_on_row`, which classifies
    edge-touching centers deterministically.
    """
    edges = _edges(polygon)
    cc = np.arange(cols, dtype=float)
    mask = np.zeros((rows, cols), dtype=bool)
    # Only rows in [min vertex row, max vertex row) can have crossings.
    first = max(int(np.ceil(edges[0].min())), 0)
    stop = min(int(np.ceil(edges[0].max())), rows)
    for r in range(first, stop):
        mask[r] = _inside_on_row(edges, float(r), cc)
    return mask


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
    drawn on; the contours must cover exactly its slices and no polygon may
    enclose zero pixel centers.
    """
    n_slices, rows, cols = shape
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
    return ContourMasks(endo=endo, epi=epi)


def point_in_polygon(polygon, r: float, c: float) -> bool:
    """Even-odd test for a single point; same rule as :func:`polygon_mask`."""
    return bool(_inside_on_row(_edges(polygon), float(r), float(c)))


def circle_polygon(center_row: float, center_col: float, radius_px: float, n_vertices: int = 256) -> np.ndarray:
    """Closed polygon approximating a circle, in (row, col) pixel coordinates."""
    ang = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    return np.column_stack(
        [center_row + radius_px * np.cos(ang), center_col + radius_px * np.sin(ang)]
    )
