"""Slice pose algebra in the patient coordinate system.

A 2D slice is placed in 3D by its origin (``ipp``), the direction cosines of
its pixel rows and columns (``iop_row``, ``iop_col``) and the physical pixel
spacing. This module provides the pixel-to-patient transform, plane
intersection, sampling along intersection lines with bilinear interpolation,
and the paired-region construction used by the contiguous cost between
adjacent short-axis slices. Every sampler marks a position outside its image
with NaN, which is why a slice's pixels must be finite.

All coordinates are in millimetres. Pixel indices are (row, col) and may be
fractional; pixel (r, c) sits at ``ipp + r*ps_row*iop_row + c*ps_col*iop_col``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GeometryError, ParameterError, check_number

PARALLEL_TOL = 1e-6        # |n_a x n_b| below this -> planes treated as parallel
IN_PLANE_TOL = 1e-6        # mm, max distance of a line point to the slice plane
ORTHONORMAL_TOL = 1e-9     # max |norm - 1| of iop_row and iop_col, and |iop_row . iop_col|
NEAR_PARALLEL_DEG = 1.0    # max angle between normals of a contiguous SA pair
# Pixels per grid step may differ from the lattice's (1, 0) and (0, 1) by this
# much: across 1,000 grid steps the drift stays under 1e-10 px, a tenth of
# bilinear_sample's edge tolerance.
LATTICE_TOL = 1e-13
_EDGE_EPS = 1e-9           # px, how far past the pixel-centre hull a sample stays valid
MAX_REGION_SAMPLES = 1 << 22  # a larger paired-region grid means the slices lie far apart


def _check_number(name: str, value, integral: bool = False) -> None:
    """``errors.check_number``, raising GeometryError."""
    try:
        check_number(name, value, integral=integral)
    except ParameterError as exc:
        raise GeometryError(str(exc)) from None


def orthonormal(iop_row: np.ndarray, iop_col: np.ndarray) -> bool:
    """Whether both orientation vectors are unit length and orthogonal, to ORTHONORMAL_TOL."""
    with np.errstate(over="ignore", invalid="ignore"):    # huge entries are simply not unit
        deviations = (np.linalg.norm(iop_row) - 1.0, np.linalg.norm(iop_col) - 1.0,
                      iop_row @ iop_col)
    return all(abs(d) <= ORTHONORMAL_TOL for d in deviations)


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
        for name in ("ipp", "iop_row", "iop_col"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, np.asarray(value, dtype=float).reshape(3))
            except (TypeError, ValueError):
                raise GeometryError(f"{name} must be three numbers, got {value!r}") from None
        for name in ("ps_row", "ps_col", "rows", "cols"):
            _check_number(name, getattr(self, name), integral=name in ("rows", "cols"))
        if not all(np.isfinite(v).all() for v in (self.ipp, self.iop_row, self.iop_col)):
            raise GeometryError("slice origin and orientation must be finite")
        if not (0 < self.ps_row < np.inf and 0 < self.ps_col < np.inf):
            raise GeometryError("pixel spacing must be positive and finite")
        if not orthonormal(self.iop_row, self.iop_col):
            raise GeometryError("orientation vectors must be orthonormal")
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
        if not isinstance(self.pose, SlicePose):
            raise GeometryError(f"pose must be a SlicePose, got {type(self.pose).__name__}")
        try:
            object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=float))
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"pixel values must be numbers: {exc}") from None
        if self.pixels.shape != (self.pose.rows, self.pose.cols):
            raise GeometryError(
                f"pixel array shape {self.pixels.shape} does not match pose "
                f"({self.pose.rows}, {self.pose.cols})"
            )
        # Samplers mark "no sample" with NaN, so a pixel must never be one.
        if not np.isfinite(self.pixels).all():
            raise GeometryError("pixel values must be finite")

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
        for name in ("row_min", "row_max", "col_min", "col_max"):
            _check_number(name, getattr(self, name), integral=True)
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


def _dot3(p, q):
    """p[0]*q[0] + p[1]*q[1] + p[2]*q[2], summed left to right like a Python float sum."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


class PlanePair:
    """Intersection line of two slice planes, compiled for translation.

    The direction, the cross products and |d|^2 depend on the normals only;
    ``point`` takes the two origins, on Python floats. ``plane_intersection``
    and the compiled intersecting term both call it.
    """

    def __init__(self, a: SlicePose, b: SlicePose):
        n_a, n_b = a.normal, b.normal
        d = np.cross(n_a, n_b)
        norm_d = np.linalg.norm(d)
        self.parallel = bool(norm_d < PARALLEL_TOL)
        if self.parallel:
            return
        self.n_a, self.n_b = n_a.tolist(), n_b.tolist()
        self.cross_b, self.cross_a = np.cross(n_b, d).tolist(), np.cross(d, n_a).tolist()
        self.norm_d2 = float(norm_d * norm_d)
        self.direction = d / norm_d

    def point(self, ipp_a: list, ipp_b: list) -> list:
        """The line's point nearest the patient origin, with the slices at these origins."""
        h_a, h_b = _dot3(self.n_a, ipp_a), _dot3(self.n_b, ipp_b)
        return [(h_a * cb + h_b * ca) / self.norm_d2 for cb, ca in zip(self.cross_b, self.cross_a)]


def plane_intersection(a: SlicePose, b: SlicePose) -> Line3 | None:
    """Intersection line of two slice planes, or None when near-parallel."""
    pair = PlanePair(a, b)
    if pair.parallel:
        return None
    return Line3(point=pair.point(a.ipp.tolist(), b.ipp.tolist()), direction=pair.direction)


class LineSide:
    """One slice's view of lines of one direction: its frame as floats, ROI and pixel slopes.

    Raises GeometryError when the direction is not parallel to the slice
    plane or the ROI exceeds the image. ``clip_line_to_roi``,
    ``sample_line_values`` and the compiled intersecting term all call it.
    """

    def __init__(self, img: SliceImage, roi: Roi, direction: np.ndarray):
        pose = img.pose
        if abs(float(pose.normal @ direction)) > 1e-9:
            raise GeometryError("line direction is not parallel to the slice plane")
        if roi.row_max >= pose.rows or roi.col_max >= pose.cols:
            raise GeometryError("ROI exceeds image bounds")
        self.roi = roi
        self.normal, self.iop_row, self.iop_col = (
            v.tolist() for v in (pose.normal, pose.iop_row, pose.iop_col))
        self.ps_row, self.ps_col = pose.ps_row, pose.ps_col
        self.dr = float(direction @ pose.iop_row) / pose.ps_row
        self.dc = float(direction @ pose.iop_col) / pose.ps_col

    def clip(self, point: list, ipp: list):
        """(r0, c0, t interval inside the ROI or None) of the line through ``point``.

        Pixel (r0 + t*dr, c0 + t*dc) is the line at parameter t on the slice
        at origin ``ipp``; a point off that plane raises GeometryError.
        """
        d = [point[0] - ipp[0], point[1] - ipp[1], point[2] - ipp[2]]
        dist = abs(_dot3(self.normal, d))
        if dist > IN_PLANE_TOL:
            raise GeometryError(f"line point is {dist:.3g} mm off the slice plane")
        r0 = _dot3(d, self.iop_row) / self.ps_row
        c0 = _dot3(d, self.iop_col) / self.ps_col
        return r0, c0, clip_pixel_line(r0, self.dr, c0, self.dc, self.roi)


def clip_line_to_roi(slice_img: SliceImage, roi: Roi, line: Line3):
    """Parameter interval of ``line`` inside the ROI rectangle, or None.

    The ROI is treated as the continuous rectangle spanned by the bounding
    pixel centres. Raises GeometryError if the line does not lie in the slice
    plane.
    """
    side = LineSide(slice_img, roi, line.direction)
    return side.clip(line.point.tolist(), slice_img.pose.ipp.tolist())[2]


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


class PixelAtlas:
    """Several images' pixels in one flat array, image ``s`` row-major from ``base[s]``."""

    def __init__(self, images):
        flats = [np.asarray(p, dtype=float).ravel() for p in images]
        self.flat = flats[0] if len(flats) == 1 else np.concatenate(flats)    # one image: no copy
        rows, cols = np.array([np.shape(p) for p in images]).T
        base = np.cumsum(rows * cols) - rows * cols
        # Per-image constants of ``sample``, one column per image, gathered by
        # slice index: the hull's far edges with and without ``_EDGE_EPS``; the
        # last row and column a top-left neighbour can be in; the image's base
        # offset and row stride; and the offsets from a top-left neighbour to
        # the one below it and the one right of it (0 on a one-row or
        # one-column image).
        self.edges = np.stack([rows - 1 + _EDGE_EPS, cols - 1 + _EDGE_EPS,
                               rows - 1.0, cols - 1.0])
        self.strides = np.stack([np.maximum(rows - 2, 0), np.maximum(cols - 2, 0), base,
                                 cols, cols * (rows > 1), cols > 1])

    def sample(self, s, r, c) -> np.ndarray:
        """Bilinear interpolation of image ``s`` at fractional (r, c), all three
        broadcast together; NaN outside the image's pixel-centre hull
        [0, rows-1] x [0, cols-1], give or take ``_EDGE_EPS``."""
        r, c = np.asarray(r, dtype=float), np.asarray(c, dtype=float)
        r_hi, c_hi, r_last, c_last = self.edges.take(s, axis=1)
        r_top, c_top, base, cols, down, right = self.strides.take(s, axis=1)
        eps = _EDGE_EPS
        valid = (r >= -eps) & (r <= r_hi) & (c >= -eps) & (c <= c_hi)
        rc = np.minimum(np.maximum(r, 0.0), r_last)
        cc = np.minimum(np.maximum(c, 0.0), c_last)
        # rc, cc >= 0, so truncation is floor; (r1, c1) is the top-left neighbour.
        r1 = np.minimum(rc.astype(np.intp), r_top)
        c1 = np.minimum(cc.astype(np.intp), c_top)
        fr, fc = rc - r1, cc - c1
        gr, gc = 1 - fr, 1 - fc
        top = base + r1 * cols + c1
        bottom = top + down
        take = self.flat.take
        vals = (take(top) * gr * gc + take(bottom) * fr * gc
                + take(top + right) * gr * fc + take(bottom + right) * fr * fc)
        return np.where(valid, vals, np.nan)


def bilinear_sample(pixels: np.ndarray, r, c) -> np.ndarray:
    """Bilinear interpolation of one image at fractional (r, c); NaN outside it."""
    return PixelAtlas([pixels]).sample(0, r, c)


def sample_line_values(slice_img: SliceImage, line: Line3, ts: np.ndarray) -> np.ndarray:
    """Bilinear samples of the slice at line parameters ``ts``; NaN outside the image."""
    side = LineSide(slice_img, full_image_roi(slice_img.pose), line.direction)
    r0, c0, _ = side.clip(line.point.tolist(), slice_img.pose.ipp.tolist())
    ts = np.asarray(ts, dtype=float)
    return bilinear_sample(slice_img.pixels, r0 + ts * side.dr, c0 + ts * side.dc)


def sample_positions(interval, step_mm: float) -> np.ndarray:
    """Sample parameters t_min, t_min+step, ... within the interval."""
    t_lo, t_hi = interval
    if step_mm <= 0:
        raise GeometryError("sampling step must be positive")
    if t_hi < t_lo:
        raise GeometryError("empty sampling interval")
    n = math.floor((t_hi - t_lo) / step_mm + 1e-9) + 1
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


def lattice_values(padded: np.ndarray, r0: float, c0: float, i0, i1, j0, j1) -> np.ndarray:
    """Bilinear samples at pixel (r0 + i, c0 + j), i0 <= i < i1, j0 <= j < j1, all valid.

    All samples share one fractional offset, so the grid is four shifted
    slices of ``padded`` (the image with its edges repeated once,
    ``np.pad(pixels, 1, mode="edge")``, so the hull reads like
    ``bilinear_sample``'s clamp) times four constant weights.
    """
    kr, kc = math.floor(r0), math.floor(c0)
    fr, fc = r0 - kr, c0 - kc
    gr, gc = 1.0 - fr, 1.0 - fc
    top = padded[kr + i0 + 1:kr + i1 + 1]
    bottom = padded[kr + i0 + 2:kr + i1 + 2]
    left, right = slice(kc + j0 + 1, kc + j1 + 1), slice(kc + j0 + 2, kc + j1 + 2)
    return (top[:, left] * (gr * gc) + bottom[:, left] * (fr * gc)
            + top[:, right] * (gr * fc) + bottom[:, right] * (fr * fc))


def lattice_sample(padded: np.ndarray, r0: float, c0: float, nu: int, nv: int) -> np.ndarray:
    """``lattice_values`` at pixel (r0 + i, c0 + j), i < nu, j < nv; NaN where invalid."""
    out = np.full((nu, nv), np.nan)
    i0, i1 = _valid_span(r0, nu, padded.shape[0] - 3)
    j0, j1 = _valid_span(c0, nv, padded.shape[1] - 3)
    out[i0:i1, j0:j1] = lattice_values(padded, r0, c0, i0, i1, j0, j1)
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
        self.step, self.atlas = step, PixelAtlas([img.pixels])
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

    def sample(self, r0: float, c0: float, nu: int, nv: int, lattice: bool) -> np.ndarray:
        """Values on the (nu, nv) grid whose first point is pixel (r0, c0); NaN outside."""
        if lattice:
            return lattice_sample(self.padded, r0, c0, nu, nv)
        i = self.step * np.arange(nu)[:, None]
        j = self.step * np.arange(nv)
        return self.atlas.sample(0, r0 + i * self.ru + j * self.rv, c0 + i * self.cu + j * self.cv)


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

    def grid(self, ipp_a: np.ndarray, ipp_b: np.ndarray) -> tuple:
        """(first pixel on a, first pixel on b, nu, nv, extent in mm) of the grid
        with the slices at these origins; GeometryError past MAX_REGION_SAMPLES."""
        pa, pb = ipp_a.tolist(), ipp_b.tolist()
        u, v = ([_dot3(p, axis) + reach for p, side in zip((pa, pb), self.sides)
                 for reach in side.reach[k]] for k, axis in enumerate(self.uv))
        u_lo, u_hi, v_lo, v_hi = (f(x) for x in (u, v) for f in (min, max))
        su, sv = (u_hi - u_lo) / self.step, (v_hi - v_lo) / self.step
        if not (su + 1.0) * (sv + 1.0) <= MAX_REGION_SAMPLES:
            raise GeometryError(f"region grid exceeds {MAX_REGION_SAMPLES} samples: too far apart")
        first = [(u_lo * s.ru + v_lo * s.rv - _dot3(p, s.w_row),
                  u_lo * s.cu + v_lo * s.cv - _dot3(p, s.w_col))
                 for s, p in zip(self.sides, (pa, pb))]
        nu, nv = math.floor(su + 1e-9) + 1, math.floor(sv + 1e-9) + 1
        return (*first, nu, nv, (u_hi - u_lo, v_hi - v_lo))

    def sample(self, ipp_a: np.ndarray, ipp_b: np.ndarray):
        """(values on a, values on b, grid extent in mm) with the slices at these origins."""
        *corners, nu, nv, extent = self.grid(ipp_a, ipp_b)
        return (*(side.sample(*x0, nu, nv, self.lattice)
                  for side, x0 in zip(self.sides, corners)), extent)

    def common(self, ipp_a: np.ndarray, ipp_b: np.ndarray) -> list:
        """Both sides' raveled values on the grid rectangle where both have samples,
        with the slices at these origins; lattice pairs only."""
        *corners, nu, nv, _ = self.grid(ipp_a, ipp_b)
        spans = [[_valid_span(x, n, hi - 3) for x, n, hi in zip(x0, (nu, nv), side.padded.shape)]
                 for side, x0 in zip(self.sides, corners)]
        lo = [max(sa[0], sb[0]) for sa, sb in zip(*spans)]
        hi = [max(x, min(sa[1], sb[1])) for x, sa, sb in zip(lo, *spans)]
        return [lattice_values(side.padded, *x0, lo[0], hi[0], lo[1], hi[1]).ravel()
                for side, x0 in zip(self.sides, corners)]


def contiguous_regions(a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi) -> tuple:
    """Paired same-size regions of two adjacent near-parallel slices, NaN where a
    slice has no sample: (values on a, values on b, grid extent in mm); see RegionPair."""
    return RegionPair(a, roi_a, b, roi_b).sample(a.pose.ipp, b.pose.ipp)
