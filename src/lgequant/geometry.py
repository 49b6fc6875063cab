"""Slice pose algebra in the patient coordinate system.

A 2D slice is placed in 3D by its origin (``ipp``), the direction cosines of
its pixel rows and columns (``iop_row``, ``iop_col``) and the physical pixel
spacing. This module provides the pixel<->patient transforms, plane
intersection, sampling along intersection lines with bilinear interpolation,
and the paired-region construction used by the contiguous cost between
adjacent short-axis slices.

All coordinates are in millimetres. Pixel indices are (row, col) and may be
fractional; pixel (r, c) sits at ``ipp + r*ps_row*iop_row + c*ps_col*iop_col``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GeometryError

PARALLEL_TOL = 1e-6        # |n_a x n_b| below this -> planes treated as parallel
IN_PLANE_TOL = 1e-6        # mm, max distance of a line point to the slice plane
NEAR_PARALLEL_DEG = 1.0    # max angle between normals of a contiguous SA pair
# Pixels per grid step may differ from the lattice's (1, 0) and (0, 1) by this
# much: across 1,000 grid steps the drift stays under 1e-10 px, a tenth of
# bilinear_sample's edge tolerance.
LATTICE_TOL = 1e-13
_EDGE_EPS = 1e-9           # px, how far past the pixel-centre hull a sample stays valid


@dataclass(frozen=True)
class SlicePose:
    """Position, orientation and spacing of one slice in patient coordinates."""

    ipp: np.ndarray        # (3,) slice origin, mm
    iop_row: np.ndarray    # (3,) unit direction of increasing row index
    iop_col: np.ndarray    # (3,) unit direction of increasing column index
    ps_row: float          # mm per row step
    ps_col: float          # mm per column step
    rows: int
    cols: int
    normal: np.ndarray = field(init=False, repr=False, compare=False)  # iop_row x iop_col, read-only

    def __post_init__(self):
        object.__setattr__(self, "ipp", np.asarray(self.ipp, dtype=float).reshape(3))
        object.__setattr__(self, "iop_row", np.asarray(self.iop_row, dtype=float).reshape(3))
        object.__setattr__(self, "iop_col", np.asarray(self.iop_col, dtype=float).reshape(3))
        if abs(np.linalg.norm(self.iop_row) - 1.0) > 1e-9 or abs(np.linalg.norm(self.iop_col) - 1.0) > 1e-9:
            raise GeometryError("orientation vectors must be unit length")
        if abs(float(np.dot(self.iop_row, self.iop_col))) > 1e-9:
            raise GeometryError("orientation vectors must be orthogonal")
        if self.ps_row <= 0 or self.ps_col <= 0:
            raise GeometryError("pixel spacing must be positive")
        if self.rows < 1 or self.cols < 1:
            raise GeometryError("slice dimensions must be positive")
        normal = np.cross(self.iop_row, self.iop_col)
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)

    def translated(self, delta) -> "SlicePose":
        """Pose with the origin shifted by ``delta`` (mm)."""
        return replace(self, ipp=self.ipp + np.asarray(delta, dtype=float).reshape(3))


@dataclass(frozen=True)
class SliceImage:
    """A slice pose together with its pixel values (rows x cols)."""

    pose: SlicePose
    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=float))
        if self.pixels.shape != (self.pose.rows, self.pose.cols):
            raise GeometryError(
                f"pixel array shape {self.pixels.shape} does not match pose "
                f"({self.pose.rows}, {self.pose.cols})"
            )

    def translated(self, delta) -> "SliceImage":
        return SliceImage(pose=self.pose.translated(delta), pixels=self.pixels)


@dataclass(frozen=True)
class Roi:
    """Inclusive pixel-index bounding box."""

    row_min: int
    row_max: int
    col_min: int
    col_max: int

    def __post_init__(self):
        if not (0 <= self.row_min <= self.row_max and 0 <= self.col_min <= self.col_max):
            raise GeometryError("ROI bounds must satisfy 0 <= min <= max")


@dataclass(frozen=True)
class Line3:
    """Infinite 3D line, parameterised as point + t * direction."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float).reshape(3))
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float).reshape(3))
        if abs(np.linalg.norm(self.direction) - 1.0) > 1e-9:
            raise GeometryError("line direction must be unit length")

    def at(self, t) -> np.ndarray:
        """Point(s) at parameter t; t may be a scalar or 1D array."""
        t = np.asarray(t, dtype=float)
        return self.point + np.multiply.outer(t, self.direction)


@dataclass(frozen=True)
class SampledRegion:
    """Intensities sampled on a rectangular in-plane grid.

    Samples outside the source image are NaN; paired regions share grid
    dimensions, and cost functions drop NaN positions from both members.
    """

    values: np.ndarray
    extent_mm: tuple


def pixel_to_patient(pose: SlicePose, r, c) -> np.ndarray:
    """Map fractional pixel indices to patient coordinates (mm).

    Scalars give a (3,) point; equal-shaped arrays give (..., 3).
    """
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    return (
        pose.ipp
        + np.multiply.outer(r * pose.ps_row, pose.iop_row)
        + np.multiply.outer(c * pose.ps_col, pose.iop_col)
    )


def patient_to_pixel(pose: SlicePose, point) -> tuple:
    """Inverse of :func:`pixel_to_patient` for in-plane points.

    The out-of-plane component of ``point`` is ignored (orthogonal projection).
    """
    d = (np.asarray(point, dtype=float) - pose.ipp).T
    return _dot3(d, pose.iop_row) / pose.ps_row, _dot3(d, pose.iop_col) / pose.ps_col


def _dot3(p, q):
    """p[0]*q[0] + p[1]*q[1] + p[2]*q[2], summed left to right like a Python float sum."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def plane_intersection(a: SlicePose, b: SlicePose) -> Line3 | None:
    """Intersection line of two slice planes, or None when near-parallel."""
    n_a, n_b = a.normal, b.normal
    d = np.cross(n_a, n_b)
    norm_d = np.linalg.norm(d)
    if norm_d < PARALLEL_TOL:
        return None
    h_a = _dot3(n_a, a.ipp)
    h_b = _dot3(n_b, b.ipp)
    point = (h_a * np.cross(n_b, d) + h_b * np.cross(d, n_a)) / (norm_d * norm_d)
    return Line3(point=point, direction=d / norm_d)


def _line_in_pixel_coords(pose: SlicePose, line: Line3):
    """Line parameterisation in pixel coordinates: (r0, dr, c0, dc) per mm of t."""
    r0, c0 = patient_to_pixel(pose, line.point)
    dr = float(line.direction @ pose.iop_row) / pose.ps_row
    dc = float(line.direction @ pose.iop_col) / pose.ps_col
    return float(r0), dr, float(c0), dc


def _check_in_plane(pose: SlicePose, line: Line3):
    n = pose.normal
    dist = abs(float(n @ (line.point - pose.ipp)))
    if dist > IN_PLANE_TOL:
        raise GeometryError(f"line point is {dist:.3g} mm off the slice plane")
    if abs(float(n @ line.direction)) > 1e-9:
        raise GeometryError("line direction is not parallel to the slice plane")


def clip_line_to_roi(slice_img: SliceImage, roi: Roi, line: Line3):
    """Parameter interval of ``line`` inside the ROI rectangle, or None.

    The ROI is treated as the continuous rectangle spanned by the bounding
    pixel centres. Raises GeometryError if the line does not lie in the slice
    plane.
    """
    pose = slice_img.pose
    _check_in_plane(pose, line)
    if roi.row_max >= pose.rows or roi.col_max >= pose.cols:
        raise GeometryError("ROI exceeds image bounds")
    return clip_pixel_line(*_line_in_pixel_coords(pose, line), roi)


def clip_pixel_line(r0: float, dr: float, c0: float, dc: float, roi: Roi):
    """Interval of t with pixel (r0 + t*dr, c0 + t*dc) inside the ROI, or None."""
    t_lo, t_hi = -math.inf, math.inf
    for x0, dx, lo, hi in ((r0, dr, roi.row_min, roi.row_max), (c0, dc, roi.col_min, roi.col_max)):
        if abs(dx) < 1e-15:
            if not lo - 1e-12 <= x0 <= hi + 1e-12:
                return None
            continue
        ta, tb = sorted(((lo - x0) / dx, (hi - x0) / dx))
        t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
        if t_lo > t_hi:
            return None
    return (t_lo, t_hi) if math.isfinite(t_lo) and math.isfinite(t_hi) else None


def full_image_roi(pose: SlicePose) -> Roi:
    return Roi(0, pose.rows - 1, 0, pose.cols - 1)


def bilinear_sample(pixels: np.ndarray, r, c):
    """Bilinear interpolation at fractional (r, c); returns (values, valid).

    Positions outside the pixel-centre hull [0, rows-1] x [0, cols-1] are
    invalid and return 0 in ``values``.
    """
    pixels = np.asarray(pixels, dtype=float)
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, cols = pixels.shape
    eps = _EDGE_EPS
    valid = (r >= -eps) & (r <= rows - 1 + eps) & (c >= -eps) & (c <= cols - 1 + eps)
    rc = np.minimum(np.maximum(r, 0.0), rows - 1.0)
    cc = np.minimum(np.maximum(c, 0.0), cols - 1.0)
    # rc, cc >= 0, so truncation is floor; (r1, c1) is the top-left neighbour.
    r1 = np.minimum(rc.astype(np.intp), max(rows - 2, 0))
    c1 = np.minimum(cc.astype(np.intp), max(cols - 2, 0))
    fr = rc - r1
    fc = cc - c1
    gr = 1 - fr
    gc = 1 - fc
    flat = pixels.ravel()
    top = r1 * cols + c1
    bottom = top + cols if rows > 1 else top
    right = 1 if cols > 1 else 0
    vals = (
        flat.take(top) * gr * gc
        + flat.take(bottom) * fr * gc
        + flat.take(top + right) * gr * fc
        + flat.take(bottom + right) * fr * fc
    )
    return np.where(valid, vals, 0.0), valid


def sample_line_values(slice_img: SliceImage, line: Line3, ts: np.ndarray):
    """Bilinear samples of the slice at line parameters ``ts``; (values, valid)."""
    r0, dr, c0, dc = _line_in_pixel_coords(slice_img.pose, line)
    ts = np.asarray(ts, dtype=float)
    return bilinear_sample(slice_img.pixels, r0 + ts * dr, c0 + ts * dc)


def sample_positions(interval, step_mm: float) -> np.ndarray:
    """Sample parameters t_min, t_min+step, ... within the interval."""
    t_lo, t_hi = interval
    if step_mm <= 0:
        raise GeometryError("sampling step must be positive")
    if t_hi < t_lo:
        raise GeometryError("empty sampling interval")
    n = int(np.floor((t_hi - t_lo) / step_mm + 1e-9)) + 1
    return t_lo + step_mm * np.arange(n)


def _valid_span(x0: float, n: int, hi: int) -> tuple:
    """[i0, i1): the i < n with -eps <= x0 + i <= hi + eps, in bilinear_sample's test.

    ``ceil``/``floor`` of a rounded bound can be one off, so each end is
    settled by evaluating the test itself next to it. At the low end only
    one short is possible: there x0 + i is near 0 and exact (Sterbenz).
    """
    lo_edge, hi_edge = -_EDGE_EPS, hi + _EDGE_EPS
    i0 = max(math.ceil(lo_edge - x0), 0)
    if x0 + i0 < lo_edge:
        i0 += 1
    i1 = math.floor(hi_edge - x0) + 1           # one past the last valid index
    if x0 + (i1 - 1) > hi_edge:
        i1 -= 1
    elif x0 + i1 <= hi_edge:
        i1 += 1
    return min(i0, n), max(min(i0, n), min(i1, n))


def lattice_sample(padded: np.ndarray, r0: float, c0: float, nu: int, nv: int) -> np.ndarray:
    """Bilinear samples at pixel (r0 + i, c0 + j), i < nu, j < nv; NaN outside.

    All samples share one fractional offset, so the grid is four shifted
    slices of ``padded`` (the image with its edges repeated once,
    ``np.pad(pixels, 1, mode="edge")``, so the hull reads like
    ``bilinear_sample``'s clamp) times four constant weights. A sample is
    valid exactly where ``bilinear_sample``'s test holds.
    """
    out = np.full((nu, nv), np.nan)
    i0, i1 = _valid_span(r0, nu, padded.shape[0] - 3)
    j0, j1 = _valid_span(c0, nv, padded.shape[1] - 3)
    if i0 == i1 or j0 == j1:
        return out
    kr, kc = math.floor(r0), math.floor(c0)
    fr, fc = r0 - kr, c0 - kc
    gr, gc = 1.0 - fr, 1.0 - fc
    top = padded[kr + i0 + 1:kr + i1 + 1]
    bottom = padded[kr + i0 + 2:kr + i1 + 2]
    left, right = slice(kc + j0 + 1, kc + j1 + 1), slice(kc + j0 + 2, kc + j1 + 2)
    out[i0:i1, j0:j1] = (top[:, left] * (gr * gc) + bottom[:, left] * (fr * gc)
                         + top[:, right] * (gr * fc) + bottom[:, right] * (fr * fc))
    return out


class _RegionSide:
    """One slice of a contiguous pair, with everything translation leaves fixed.

    Mid-plane point ``u*u_axis + v*v_axis + h*n`` projects along ``n`` to
    pixel row ``u*ru + v*rv - ipp . w_row`` of the slice at origin ``ipp``
    (columns likewise); ``w_row`` and ``w_col`` are orthogonal to ``n``, so
    the map holds at every ``h``. The side is on the lattice when a grid step
    moves (1, 0) pixels along u and (0, 1) along v, within LATTICE_TOL.
    """

    def __init__(self, img: SliceImage, roi: Roi, n, u_axis, v_axis, step: float):
        pose = img.pose
        n_s = pose.normal             # either sign: w_row and w_col do not depend on it
        w_row, w_col = (e - n_s * (float(n @ e) / float(n_s @ n))
                        for e in (pose.iop_row / pose.ps_row, pose.iop_col / pose.ps_col))
        self.w_row, self.w_col = w_row.tolist(), w_col.tolist()
        self.ru, self.rv, self.cu, self.cv = (
            float(w @ axis) for w in (w_row, w_col) for axis in (u_axis, v_axis))
        self.step, self.pixels = step, img.pixels
        self.lattice = max(abs(step * self.ru - 1.0), abs(step * self.rv), abs(step * self.cu),
                           abs(step * self.cv - 1.0)) <= LATTICE_TOL
        if self.lattice:
            self.padded = np.pad(img.pixels, 1, mode="edge")
        # The ROI corners' reach from the origin along u and v.
        rr = np.array([roi.row_min, roi.row_min, roi.row_max, roi.row_max], dtype=float)
        cc = np.array([roi.col_min, roi.col_max, roi.col_min, roi.col_max], dtype=float)
        offsets = (np.multiply.outer(rr * pose.ps_row, pose.iop_row)
                   + np.multiply.outer(cc * pose.ps_col, pose.iop_col))
        self.reach = [(float(x.min()), float(x.max()))
                      for x in (offsets @ u_axis, offsets @ v_axis)]

    def sample(self, u_lo: float, v_lo: float, ipp: list, nu: int, nv: int,
               lattice: bool) -> np.ndarray:
        """Values on the (nu, nv) grid whose first point is (u_lo, v_lo); NaN outside."""
        r0 = u_lo * self.ru + v_lo * self.rv - _dot3(ipp, self.w_row)
        c0 = u_lo * self.cu + v_lo * self.cv - _dot3(ipp, self.w_col)
        if lattice:
            return lattice_sample(self.padded, r0, c0, nu, nv)
        i = self.step * np.arange(nu)[:, None]
        j = self.step * np.arange(nv)
        vals, valid = bilinear_sample(self.pixels, r0 + i * self.ru + j * self.rv,
                                      c0 + i * self.cu + j * self.cv)
        return np.where(valid, vals, np.nan)


class RegionPair:
    """Paired-region sampling of two adjacent near-parallel slices, compiled for translation.

    Both ROIs are projected along the shared normal onto the plane midway
    between the slices; the smallest rectangle containing both projections
    is projected back onto each slice and sampled on an identical grid at
    the finer pixel spacing of the pair. ``sample`` takes the two origins.
    Each side maps the grid to its pixels by one affine map; on the lattice
    (parallel slices, square pixels of the grid step) each side is one
    ``lattice_sample``, otherwise one ``bilinear_sample`` of the mapped grid.
    """

    def __init__(self, a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi):
        n_a, n_b = a.pose.normal, b.pose.normal
        cosang = abs(float(n_a @ n_b)) / (np.linalg.norm(n_a) * np.linalg.norm(n_b))
        angle = float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        if angle > NEAR_PARALLEL_DEG:
            raise GeometryError(f"slices are {angle:.2f} deg from parallel; not an adjacent SA pair")
        n = n_a + (n_b if float(n_a @ n_b) >= 0 else -n_b)
        n = n / np.linalg.norm(n)
        # In-plane basis for the middle plane, taken from slice a.
        u_axis = a.pose.iop_row - float(a.pose.iop_row @ n) * n
        u_axis = u_axis / np.linalg.norm(u_axis)
        v_axis = np.cross(n, u_axis)
        self.step = min(a.pose.ps_row, a.pose.ps_col, b.pose.ps_row, b.pose.ps_col)
        self.sides = [_RegionSide(s, roi, n, u_axis, v_axis, self.step)
                      for s, roi in ((a, roi_a), (b, roi_b))]
        self.lattice = all(side.lattice for side in self.sides)
        self.uv = (u_axis.tolist(), v_axis.tolist())

    def sample(self, ipp_a: np.ndarray, ipp_b: np.ndarray):
        """(values on a, values on b, grid extent in mm) with the slices at these origins."""
        (a, b), step = self.sides, self.step
        pa, pb = ipp_a.tolist(), ipp_b.tolist()
        u, v = ([_dot3(p, axis) + reach for p, side in ((pa, a), (pb, b))
                 for reach in side.reach[k]] for k, axis in enumerate(self.uv))
        u_lo, u_hi, v_lo, v_hi = (f(x) for x in (u, v) for f in (min, max))
        nu = int(np.floor((u_hi - u_lo) / step + 1e-9)) + 1
        nv = int(np.floor((v_hi - v_lo) / step + 1e-9)) + 1
        return (a.sample(u_lo, v_lo, pa, nu, nv, self.lattice),
                b.sample(u_lo, v_lo, pb, nu, nv, self.lattice), (u_hi - u_lo, v_hi - v_lo))


def contiguous_regions(
    a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi
) -> tuple[SampledRegion, SampledRegion]:
    """Paired same-size regions from two adjacent near-parallel slices (see RegionPair)."""
    *values, extent = RegionPair(a, roi_a, b, roi_b).sample(a.pose.ipp, b.pose.ipp)
    return tuple(SampledRegion(values=v, extent_mm=extent) for v in values)
