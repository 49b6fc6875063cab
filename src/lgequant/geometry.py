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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GeometryError

PARALLEL_TOL = 1e-6        # |n_a x n_b| below this -> planes treated as parallel
IN_PLANE_TOL = 1e-6        # mm, max distance of a line point to the slice plane
NEAR_PARALLEL_DEG = 1.0    # max angle between normals of a contiguous SA pair


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
    d = np.asarray(point, dtype=float) - pose.ipp
    r = d @ pose.iop_row / pose.ps_row
    c = d @ pose.iop_col / pose.ps_col
    return r, c


def plane_intersection(a: SlicePose, b: SlicePose) -> Line3 | None:
    """Intersection line of two slice planes, or None when near-parallel."""
    n_a, n_b = a.normal, b.normal
    d = np.cross(n_a, n_b)
    norm_d = np.linalg.norm(d)
    if norm_d < PARALLEL_TOL:
        return None
    h_a = float(n_a @ a.ipp)
    h_b = float(n_b @ b.ipp)
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


def _clip_axis(x0: float, dx: float, lo: float, hi: float, interval):
    """Intersect {t : lo <= x0 + t*dx <= hi} with interval; None if empty."""
    t_lo, t_hi = interval
    if abs(dx) < 1e-15:
        if lo - 1e-12 <= x0 <= hi + 1e-12:
            return t_lo, t_hi
        return None
    ta = (lo - x0) / dx
    tb = (hi - x0) / dx
    if ta > tb:
        ta, tb = tb, ta
    t_lo = max(t_lo, ta)
    t_hi = min(t_hi, tb)
    if t_lo > t_hi:
        return None
    return t_lo, t_hi


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
    interval = _clip_axis(r0, dr, roi.row_min, roi.row_max, (-np.inf, np.inf))
    if interval is None:
        return None
    interval = _clip_axis(c0, dc, roi.col_min, roi.col_max, interval)
    if interval is None or not np.isfinite(interval[0]) or not np.isfinite(interval[1]):
        return None
    return interval


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
    eps = 1e-9
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


def _angle_between_deg(u: np.ndarray, v: np.ndarray) -> float:
    cosang = np.clip(abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0)
    return float(np.degrees(np.arccos(cosang)))


def _roi_corners_patient(slice_img: SliceImage, roi: Roi) -> np.ndarray:
    rr = [roi.row_min, roi.row_min, roi.row_max, roi.row_max]
    cc = [roi.col_min, roi.col_max, roi.col_min, roi.col_max]
    return pixel_to_patient(slice_img.pose, np.array(rr, dtype=float), np.array(cc, dtype=float))


def contiguous_regions(
    a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi
) -> tuple[SampledRegion, SampledRegion]:
    """Paired same-size regions from two adjacent near-parallel slices.

    Both ROIs are projected along the shared normal onto the plane midway
    between the slices; the smallest rectangle containing both projections is
    projected back onto each slice and sampled on an identical grid at the
    finer pixel spacing of the pair.
    """
    angle = _angle_between_deg(a.pose.normal, b.pose.normal)
    if angle > NEAR_PARALLEL_DEG:
        raise GeometryError(f"slices are {angle:.2f} deg from parallel; not an adjacent SA pair")
    n_a, n_b = a.pose.normal, b.pose.normal
    n = n_a + (n_b if float(n_a @ n_b) >= 0 else -n_b)
    n = n / np.linalg.norm(n)

    # In-plane basis for the middle plane, taken from slice a.
    u_axis = a.pose.iop_row - float(a.pose.iop_row @ n) * n
    u_axis = u_axis / np.linalg.norm(u_axis)
    v_axis = np.cross(n, u_axis)

    corners = np.vstack([_roi_corners_patient(a, roi_a), _roi_corners_patient(b, roi_b)])
    u = corners @ u_axis
    v = corners @ v_axis
    u_lo, u_hi = float(u.min()), float(u.max())
    v_lo, v_hi = float(v.min()), float(v.max())

    h_mid = 0.5 * float(n @ a.pose.ipp + n @ b.pose.ipp)
    step = min(a.pose.ps_row, a.pose.ps_col, b.pose.ps_row, b.pose.ps_col)
    nu = int(np.floor((u_hi - u_lo) / step + 1e-9)) + 1
    nv = int(np.floor((v_hi - v_lo) / step + 1e-9)) + 1
    uu = u_lo + step * np.arange(nu)
    vv = v_lo + step * np.arange(nv)
    ug, vg = np.meshgrid(uu, vv, indexing="ij")
    grid_mid = (
        np.multiply.outer(ug, u_axis)
        + np.multiply.outer(vg, v_axis)
        + h_mid * n
    )

    regions = []
    for s in (a, b):
        n_s = s.pose.normal
        if float(n_s @ n) < 0:
            n_s = -n_s
        h_s = float(n_s @ s.pose.ipp)
        # Project the mid-plane grid onto the slice plane along n.
        t = (h_s - grid_mid @ n_s) / float(n_s @ n)
        pts = grid_mid + np.multiply.outer(t, n)
        d = pts - s.pose.ipp
        r = d @ s.pose.iop_row / s.pose.ps_row
        c = d @ s.pose.iop_col / s.pose.ps_col
        vals, valid = bilinear_sample(s.pixels, r, c)
        vals = np.where(valid, vals, np.nan)
        regions.append(
            SampledRegion(values=vals, extent_mm=(float(u_hi - u_lo), float(v_hi - v_lo)))
        )
    return regions[0], regions[1]
