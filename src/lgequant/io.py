"""Dataset, contour, volume, labeling and report file formats.

Metadata lives in human-readable JSON with an explicit version field; pixel
data in headerless raw binary (little-endian uint16 for acquired images,
little-endian float32 for derived volumes, uint8 for masks). All JSON is
written with sorted keys so identical content produces identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dataset import ContourSet, LgeDataset
from .errors import DatasetFormatError, OrientationError, PixelFileError
from .geometry import Roi, SliceImage, SlicePose

MANIFEST_VERSION = 1


def _write_json(payload: dict, path: Path):
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _read_json(path: Path) -> dict:
    """The JSON object stored at ``path``; anything else is a format error."""
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DatasetFormatError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DatasetFormatError(f"{path}: must be a JSON object")
    return payload


def _field(header: dict, key: str, path):
    """One required header entry; a missing key is a format error."""
    try:
        return header[key]
    except (KeyError, TypeError):
        raise DatasetFormatError(f"{path}: header has no {key!r} entry") from None


def _entries(header: dict, path) -> list:
    """The ``slices`` list of a manifest or contours file."""
    entries = _field(header, "slices", path)
    if not isinstance(entries, list):
        raise DatasetFormatError(f"{path}: 'slices' must be a list, got {entries!r}")
    return entries


def _index(entry: dict, path) -> int:
    """The integer ``index`` of one slice entry."""
    index = _field(entry, "index", path)
    if isinstance(index, bool) or not isinstance(index, int):
        raise DatasetFormatError(f"{path}: slice 'index' must be an integer, got {index!r}")
    return index


def _read_raw(header_path, header: dict, file_key: str, dims_key: str, dtype) -> np.ndarray:
    """The raw file a header names under ``file_key``, shaped to its ``dims_key``."""
    try:
        dims = tuple(int(d) for d in _field(header, dims_key, header_path))
    except (TypeError, ValueError):
        raise DatasetFormatError(f"{header_path}: malformed {dims_key!r}") from None
    raw = Path(header_path).parent / str(_field(header, file_key, header_path))
    if not raw.is_file():
        raise PixelFileError(f"raw file missing: {raw}")
    data = np.fromfile(raw, dtype=dtype)
    if data.size != int(np.prod(dims)):
        raise PixelFileError(f"{raw}: size does not match dims {dims}")
    return data.reshape(dims)


def write_pixels_u16(pixels: np.ndarray, path: Path):
    """Raw little-endian uint16, row-major, no header."""
    arr = np.asarray(pixels)
    if not np.all(np.isfinite(arr)):
        raise PixelFileError("pixel values must be finite")
    rounded = np.round(arr)
    if not np.allclose(arr, rounded, atol=1e-9):
        raise PixelFileError("acquired intensities must be integers")
    if rounded.min() < 0 or rounded.max() > 65535:
        raise PixelFileError("pixel values out of uint16 range")
    rounded.astype("<u2").tofile(path)


def read_pixels_u16(path: Path, rows: int, cols: int) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise PixelFileError(f"pixel file missing: {path}")
    data = np.fromfile(path, dtype="<u2")
    if data.size != rows * cols:
        raise PixelFileError(
            f"{path}: has {data.size} values, expected {rows}x{cols}"
        )
    return data.reshape(rows, cols).astype(float)


def save_dataset(dataset: LgeDataset, out_dir, name: str = "dataset") -> Path:
    """Write manifest + per-slice raw pixel files; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    slices = []
    entries = [("SA", i, s) for i, s in enumerate(dataset.sa_slices)]
    entries += [
        (dataset.la_roles[j], j, s) for j, s in enumerate(dataset.la_slices)
    ]
    for role, index, s in entries:
        fname = f"{name}_{role.lower()}_{index:03d}.raw"
        write_pixels_u16(s.pixels, out_dir / fname)
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
            "pixel_file": fname,
            "roi": None if roi is None
            else [roi.row_min, roi.row_max, roi.col_min, roi.col_max],
        })
    manifest = {
        "version": MANIFEST_VERSION,
        "slice_thickness_mm": float(dataset.slice_thickness_mm),
        "gap_mm": float(dataset.gap_mm),
        "slices": slices,
    }
    path = out_dir / f"{name}.json"
    _write_json(manifest, path)
    return path


def load_dataset(manifest_path) -> LgeDataset:
    """Read a dataset manifest; validates orientation and pixel dimensions."""
    manifest_path = Path(manifest_path)
    manifest = _read_json(manifest_path)
    version = _field(manifest, "version", manifest_path)
    if version != MANIFEST_VERSION:
        raise DatasetFormatError(f"unsupported manifest version {version!r}")
    try:
        thickness_mm = float(_field(manifest, "slice_thickness_mm", manifest_path))
        gap_mm = float(_field(manifest, "gap_mm", manifest_path))
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{manifest_path}: malformed slice spacing: {exc}") from None
    base = manifest_path.parent
    sa, la, rois = [], [], []
    for entry in _entries(manifest, manifest_path):
        def get(key):
            return _field(entry, key, manifest_path)

        try:
            iop_row = np.asarray(get("iop_row"), dtype=float).reshape(3)
            iop_col = np.asarray(get("iop_col"), dtype=float).reshape(3)
            ipp = np.asarray(get("ipp"), dtype=float).reshape(3)
            ps_row, ps_col = float(get("ps")[0]), float(get("ps")[1])
            rows, cols = int(get("rows")), int(get("cols"))
            roi = entry.get("roi")
            roi = None if roi is None else Roi(*roi)
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise DatasetFormatError(
                f"{manifest_path}: malformed slice entry: {exc!r}") from None
        if (
            abs(np.linalg.norm(iop_row) - 1) > 1e-6
            or abs(np.linalg.norm(iop_col) - 1) > 1e-6
            or abs(float(iop_row @ iop_col)) > 1e-6
        ):
            raise OrientationError(
                f"slice {entry.get('role')}/{entry.get('index')}: "
                "orientation vectors are not orthonormal"
            )
        pose = SlicePose(ipp=ipp, iop_row=iop_row, iop_col=iop_col,
                         ps_row=ps_row, ps_col=ps_col, rows=rows, cols=cols)
        pixels = read_pixels_u16(base / str(get("pixel_file")), pose.rows, pose.cols)
        image = SliceImage(pose=pose, pixels=pixels)
        role, index = get("role"), _index(entry, manifest_path)
        if role == "SA":
            sa.append((index, image))
            rois.append((index, roi))
        else:
            la.append((index, image, role))
    if not sa:
        raise DatasetFormatError("manifest lists no SA slices")
    sa.sort(key=lambda t: t[0])
    rois.sort(key=lambda t: t[0])
    indices = [i for i, _ in sa]
    if indices != list(range(len(sa))):
        raise DatasetFormatError("SA indices must be contiguous from 0")
    la.sort(key=lambda t: t[0])
    return LgeDataset(
        sa_slices=[img for _, img in sa],
        la_slices=[img for _, img, _ in la],
        sa_rois=[r for _, r in rois],
        la_roles=[role for _, _, role in la],
        slice_thickness_mm=thickness_mm,
        gap_mm=gap_mm,
    )


def save_contours(contours: ContourSet, path) -> Path:
    payload = {
        "version": MANIFEST_VERSION,
        "slices": [
            {
                "index": k,
                "endo": [[float(r), float(c)] for r, c in contours.endo[k]],
                "epi": [[float(r), float(c)] for r, c in contours.epi[k]],
            }
            for k in range(len(contours))
        ],
    }
    path = Path(path)
    _write_json(payload, path)
    return path


def load_contours(path) -> ContourSet:
    """Read a contours file; ``ContourSet`` checks each polygon's shape."""
    slices = sorted(_entries(_read_json(path), path), key=lambda entry: _index(entry, path))
    return ContourSet(endo=[_field(entry, "endo", path) for entry in slices],
                      epi=[_field(entry, "epi", path) for entry in slices])


def save_volume_f32(volume: np.ndarray, spacing_mm, path_base) -> Path:
    """Float32 raw volume plus JSON header; returns the header path."""
    path_base = Path(path_base)
    raw = path_base.with_suffix(".raw")
    arr = np.asarray(volume, dtype="<f4")
    arr.tofile(raw)
    header = {
        "version": MANIFEST_VERSION,
        "dims": list(int(d) for d in volume.shape),
        "spacing_mm": [float(s) for s in spacing_mm],
        "dtype": "float32-le",
        "raw_file": raw.name,
    }
    path = path_base.with_suffix(".json")
    _write_json(header, path)
    return path


def load_volume_f32(header_path) -> tuple:
    header = _read_json(header_path)
    data = _read_raw(header_path, header, "raw_file", "dims", "<f4")
    return data.astype(float), tuple(_field(header, "spacing_mm", header_path))


def save_labeling(labels: np.ndarray, mask: np.ndarray, spacing_mm, path_base) -> Path:
    path_base = Path(path_base)
    labels_raw = path_base.parent / (path_base.name + "_labels.raw")
    mask_raw = path_base.parent / (path_base.name + "_mask.raw")
    np.asarray(labels, dtype=np.uint8).tofile(labels_raw)
    np.asarray(mask, dtype=np.uint8).tofile(mask_raw)
    header = {
        "version": MANIFEST_VERSION,
        "dims": [int(d) for d in labels.shape],
        "spacing_mm": [float(s) for s in spacing_mm],
        "labels_file": labels_raw.name,
        "mask_file": mask_raw.name,
    }
    path = path_base.with_suffix(".json")
    _write_json(header, path)
    return path


def load_labeling(header_path) -> tuple:
    header = _read_json(header_path)
    labels = _read_raw(header_path, header, "labels_file", "dims", np.uint8)
    mask = _read_raw(header_path, header, "mask_file", "dims", np.uint8)
    return labels, mask.astype(bool), tuple(_field(header, "spacing_mm", header_path))


def save_truth(truth, out_dir, name: str = "truth") -> Path:
    """Phantom ground-truth sidecar: true origins, gains, infarct mask."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mask_raw = out_dir / f"{name}_infarct.raw"
    np.asarray(truth.infarct_mask, dtype=np.uint8).tofile(mask_raw)
    payload = {
        "version": MANIFEST_VERSION,
        "true_ipps": [[float(v) for v in row] for row in truth.true_ipps],
        "gains": [float(g) for g in truth.gains],
        "infarct_dims": [int(d) for d in truth.infarct_mask.shape],
        "infarct_file": mask_raw.name,
    }
    path = out_dir / f"{name}.json"
    _write_json(payload, path)
    return path


def load_truth(path) -> dict:
    payload = _read_json(path)
    mask = _read_raw(path, payload, "infarct_file", "infarct_dims", np.uint8)
    return {
        "true_ipps": np.asarray(_field(payload, "true_ipps", path), dtype=float),
        "gains": np.asarray(_field(payload, "gains", path), dtype=float),
        "infarct_mask": mask.astype(bool),
    }


def write_report(report: dict, path) -> Path:
    path = Path(path)
    _write_json(report, path)
    return path


def read_report(path) -> dict:
    return _read_json(path)
