"""Dataset, contour, volume, labeling and report file formats.

Metadata lives in human-readable JSON headers that carry a format version,
checked by every loader; pixel data in headerless raw binary (little-endian
uint16 for acquired images, little-endian float32 for derived volumes, uint8
for masks) next to the header that names it. All JSON is written with sorted
keys so identical content produces identical bytes, and every writer creates
its output directory.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .dataset import ContourSet, LgeDataset
from .errors import DatasetFormatError, OrientationError, PixelFileError
from .geometry import Roi, SliceImage, SlicePose, orthonormal

MANIFEST_VERSION = 1


def _write_json(payload: dict, path) -> Path:
    """Write ``payload`` at ``path``, creating its directory; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _read_json(path: Path) -> dict:
    """The JSON object stored at ``path``; anything else is a format error."""
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DatasetFormatError(f"file not found: {path}") from exc
    except OSError as exc:      # a directory, or a file this process may not read
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # bad JSON, bad UTF-8, or an integer past Python's digit limit
        raise DatasetFormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DatasetFormatError(f"{path}: must be a JSON object")
    return payload


def _write_header(header: dict, path) -> Path:
    """Write a versioned header at ``path``; returns the path."""
    return _write_json({**header, "version": MANIFEST_VERSION}, path)


def _read_header(path) -> dict:
    """The header stored at ``path``; a missing or other version is a format error."""
    header = _read_json(path)
    version = header.get("version")
    if type(version) is not int or version != MANIFEST_VERSION:
        raise DatasetFormatError(f"{path}: unsupported format version {version!r}")
    return header


# Header value kinds: what a value must be, alone and in a list, and the test it passes.
_KINDS = {
    str: ("a string", "strings", lambda v: isinstance(v, str)),
    int: ("an integer", "integers", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    # The comparison is False for NaN and infinities and exact for an integer past float range.
    float: ("a finite number", "finite numbers", lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    list: ("a list", "lists", lambda v: isinstance(v, list)),
}
_COUNTS = {2: "two", 3: "three", 4: "four"}


def _field(header: dict, key: str, path, kind=None, n: int | None = None):
    """One required header entry; a missing key is a format error.

    With ``kind`` (``str``, ``int``, ``float`` or ``list``) the value must be
    one of that kind, or with ``n`` a list of ``n`` of them (returned as a
    tuple); a ``float`` is returned as a float. Anything else is a format error.
    """
    try:
        value = header[key]
    except (KeyError, TypeError):
        raise DatasetFormatError(f"{path}: header has no {key!r} entry") from None
    if kind is None:
        return value
    one, many, test = _KINDS[kind]
    items = [value] if n is None else value
    if not (isinstance(items, list) and len(items) == (n or 1) and all(map(test, items))):
        what = one if n is None else f"{_COUNTS[n]} {many}"
        raise DatasetFormatError(f"{path}: {key!r} must be {what}, got {value!r}")
    if kind is float:
        items = [float(v) for v in items]
    return items[0] if n is None else tuple(items)


def _in_index_order(entries: list, what: str, path) -> list:
    """``(index, ...)`` tuples sorted by index; the indices must be 0..n-1, each once."""
    entries = sorted(entries, key=lambda entry: entry[0])
    if [entry[0] for entry in entries] != list(range(len(entries))):
        raise DatasetFormatError(f"{path}: {what} indices must be contiguous from 0, "
                                 f"each 'index' once")
    return entries


def _write_raws(header: dict, path, **raws) -> Path:
    """Write the header at ``path``, then each ``key=(file name, array)`` beside it.

    The header names each raw file under its ``key``; returns the header path.
    """
    names = {key: name for key, (name, _) in raws.items()}
    path = _write_header({**header, **names}, path)
    for name, array in raws.values():
        array.tofile(path.parent / name)
    return path


def _read_raw(header: dict, key: str, path, dims: tuple, dtype) -> np.ndarray:
    """The raw file that ``header``'s ``key`` names beside ``path``, shaped to ``dims``."""
    raw = Path(path).parent / _field(header, key, path, str)
    try:
        if not raw.is_file():
            raise PixelFileError(f"raw file missing: {raw}")
        # Compare bytes, not items: fromfile drops a trailing partial item. math.prod is
        # exact for any integers, and two negative dims could multiply to the right size.
        if min(dims) < 0 or raw.stat().st_size != math.prod(dims) * np.dtype(dtype).itemsize:
            raise PixelFileError(f"{raw}: size does not match dims {dims}")
        return np.fromfile(raw, dtype=dtype).reshape(dims)
    except OSError as exc:      # a name the OS refuses, or a file this process may not read
        raise PixelFileError(f"cannot read {raw}: {exc}") from None


def _u16_pixels(pixels: np.ndarray) -> np.ndarray:
    """Acquired intensities as little-endian uint16; anything else is a pixel file error."""
    arr = np.asarray(pixels)
    if not np.all(np.isfinite(arr)):
        raise PixelFileError("pixel values must be finite")
    rounded = np.round(arr)
    if not np.allclose(arr, rounded, atol=1e-9):
        raise PixelFileError("acquired intensities must be integers")
    if rounded.min() < 0 or rounded.max() > 65535:
        raise PixelFileError("pixel values out of uint16 range")
    return rounded.astype("<u2")


def save_dataset(dataset: LgeDataset, out_dir, name: str = "dataset") -> Path:
    """Write manifest + per-slice raw pixel files; returns the manifest path.

    A bad pixel in any slice raises before the first file is written.
    """
    out_dir = Path(out_dir)
    entries = [("SA", i, s) for i, s in enumerate(dataset.sa_slices)]
    entries += [
        (dataset.la_roles[j], j, s) for j, s in enumerate(dataset.la_slices)
    ]
    pixels = [_u16_pixels(s.pixels) for _, _, s in entries]
    slices = []
    for role, index, s in entries:
        roi = dataset.sa_rois[index] if role == "SA" else None
        slices.append({
            "role": role,
            "index": index,
            "ipp": [float(v) for v in s.pose.ipp],
            "iop_row": [float(v) for v in s.pose.iop_row],
            "iop_col": [float(v) for v in s.pose.iop_col],
            "ps": [float(s.pose.ps_row), float(s.pose.ps_col)],
            "rows": int(s.pose.rows),
            "cols": int(s.pose.cols),
            "pixel_file": f"{name}_{role.lower()}_{index:03d}.raw",
            "roi": None if roi is None
            else [roi.row_min, roi.row_max, roi.col_min, roi.col_max],
        })
    out_dir.mkdir(parents=True, exist_ok=True)
    for entry, u16 in zip(slices, pixels):
        u16.tofile(out_dir / entry["pixel_file"])
    manifest = {
        "slice_thickness_mm": float(dataset.slice_thickness_mm),
        "gap_mm": float(dataset.gap_mm),
        "slices": slices,
    }
    return _write_header(manifest, out_dir / f"{name}.json")


def load_dataset(manifest_path) -> LgeDataset:
    """Read a dataset manifest; validates orientation and pixel dimensions."""
    manifest = _read_header(manifest_path)
    thickness_mm = _field(manifest, "slice_thickness_mm", manifest_path, float)
    gap_mm = _field(manifest, "gap_mm", manifest_path, float)
    sa, la = [], []
    for entry in _field(manifest, "slices", manifest_path, list):
        def get(key, kind, n=None):
            return _field(entry, key, manifest_path, kind, n)

        role, index = get("role", str), get("index", int)
        if not (role.isalnum() and len(role) <= 32):      # a saved slice's file name holds it
            raise DatasetFormatError(f"{manifest_path}: 'role' must be 1 to 32 letters and "
                                     f"digits, got {role!r}")
        iop_row, iop_col = np.array(get("iop_row", float, 3)), np.array(get("iop_col", float, 3))
        if not orthonormal(iop_row, iop_col):
            raise OrientationError(
                f"slice {role}/{index}: orientation vectors are not orthonormal")
        ps_row, ps_col = get("ps", float, 2)
        rows, cols = get("rows", int), get("cols", int)
        roi = None if entry.get("roi") is None else Roi(*get("roi", int, 4))
        pose = SlicePose(ipp=np.array(get("ipp", float, 3)), iop_row=iop_row, iop_col=iop_col,
                         ps_row=ps_row, ps_col=ps_col, rows=rows, cols=cols)
        pixels = _read_raw(entry, "pixel_file", manifest_path, (rows, cols), "<u2")
        image = SliceImage(pose=pose, pixels=pixels.astype(float))
        if role == "SA":
            sa.append((index, image, roi))
        else:
            la.append((index, image, role))
    if not sa:
        raise DatasetFormatError("manifest lists no SA slices")
    sa = _in_index_order(sa, "SA", manifest_path)
    la.sort(key=lambda t: t[0])
    return LgeDataset(sa_slices=[img for _, img, _ in sa], la_slices=[img for _, img, _ in la],
                      sa_rois=[roi for _, _, roi in sa], la_roles=[role for _, _, role in la],
                      slice_thickness_mm=thickness_mm, gap_mm=gap_mm)


def save_contours(contours: ContourSet, path) -> Path:
    return _write_header({
        "slices": [
            {
                "index": k,
                "endo": [[float(r), float(c)] for r, c in contours.endo[k]],
                "epi": [[float(r), float(c)] for r, c in contours.epi[k]],
            }
            for k in range(len(contours))
        ],
    }, path)


def load_contours(path) -> ContourSet:
    """Read a contours file; ``ContourSet`` checks each polygon's shape."""
    slices = _in_index_order([(_field(entry, "index", path, int), entry)
                              for entry in _field(_read_header(path), "slices", path, list)],
                             "contour", path)
    return ContourSet(endo=[_field(entry, "endo", path) for _, entry in slices],
                      epi=[_field(entry, "epi", path) for _, entry in slices])


def save_volume_f32(volume: np.ndarray, spacing_mm, path_base) -> Path:
    """Float32 raw volume plus JSON header; returns the header path."""
    path_base = Path(path_base)
    arr = np.asarray(volume, dtype="<f4")
    header = {
        "dims": [int(d) for d in arr.shape],
        "spacing_mm": [float(s) for s in spacing_mm],
        "dtype": "float32-le",
    }
    return _write_raws(header, path_base.with_suffix(".json"),
                       raw_file=(path_base.with_suffix(".raw").name, arr))


def load_volume_f32(header_path) -> tuple:
    header = _read_header(header_path)
    data = _read_raw(header, "raw_file", header_path,
                     _field(header, "dims", header_path, int, 3), "<f4")
    return data.astype(float), _field(header, "spacing_mm", header_path, float, 3)


def save_labeling(labels: np.ndarray, mask: np.ndarray, spacing_mm, path_base) -> Path:
    path_base = Path(path_base)
    labels = np.asarray(labels, dtype=np.uint8)
    header = {
        "dims": [int(d) for d in labels.shape],
        "spacing_mm": [float(s) for s in spacing_mm],
    }
    return _write_raws(header, path_base.with_suffix(".json"),
                       labels_file=(path_base.name + "_labels.raw", labels),
                       mask_file=(path_base.name + "_mask.raw",
                                  np.asarray(mask, dtype=np.uint8)))


def load_labeling(header_path) -> tuple:
    header = _read_header(header_path)
    dims = _field(header, "dims", header_path, int, 3)
    labels = _read_raw(header, "labels_file", header_path, dims, np.uint8)
    mask = _read_raw(header, "mask_file", header_path, dims, np.uint8)
    for name, raw in (("labels", labels), ("mask", mask)):
        if raw.max(initial=0) > 1:
            raise DatasetFormatError(f"{header_path}: {name} must hold only 0 and 1, "
                                     f"got {raw.max()}")
    return labels, mask.astype(bool), _field(header, "spacing_mm", header_path, float, 3)


def save_truth(truth, out_dir, name: str = "truth") -> Path:
    """Phantom ground-truth sidecar: true origins, gains, infarct mask."""
    mask = np.asarray(truth.infarct_mask, dtype=np.uint8)
    payload = {
        "true_ipps": [[float(v) for v in row] for row in truth.true_ipps],
        "gains": [float(g) for g in truth.gains],
        "infarct_dims": [int(d) for d in mask.shape],
    }
    return _write_raws(payload, Path(out_dir) / f"{name}.json",
                       infarct_file=(f"{name}_infarct.raw", mask))


def load_truth(path) -> np.ndarray:
    """The truth sidecar's infarct mask, the one entry a pipeline run compares with."""
    payload = _read_header(path)
    return _read_raw(payload, "infarct_file", path,
                     _field(payload, "infarct_dims", path, int, 3), np.uint8).astype(bool)


def write_report(report: dict, path) -> Path:
    return _write_json(report, path)


def read_report(path) -> dict:
    return _read_json(path)
