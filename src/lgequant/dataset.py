"""In-memory dataset containers shared by the pipeline stages."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContourError
from .geometry import Roi, SliceImage
from .raster import point_in_polygon


@dataclass
class ContourSet:
    """Per-SA-slice endocardial and epicardial closed polygons (pixel coords).

    ``endo[k]`` and ``epi[k]`` are (V, 2) arrays of (row, col) vertices for
    SA slice k.
    """

    endo: list
    epi: list

    def __post_init__(self):
        if len(self.endo) != len(self.epi):
            raise ContourError("endo and epi contour lists must have equal length")
        try:
            self.endo = [np.asarray(p, dtype=float) for p in self.endo]
            self.epi = [np.asarray(p, dtype=float) for p in self.epi]
        except (TypeError, ValueError) as exc:
            raise ContourError(f"contour vertices must be numbers: {exc}") from None
        for k, (en, ep) in enumerate(zip(self.endo, self.epi)):
            for name, poly in (("endo", en), ("epi", ep)):
                if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
                    raise ContourError(f"slice {k}: {name} polygon must be (V>=3, 2)")
                if not np.all(np.isfinite(poly)):
                    raise ContourError(f"slice {k}: {name} polygon has non-finite vertices")
            # Spot-check containment: endo vertices must fall inside epi.
            for r, c in en[:: max(1, len(en) // 8)]:
                if not point_in_polygon(ep, float(r), float(c)):
                    raise ContourError(f"slice {k}: endo contour is not inside epi contour")

    def __len__(self):
        return len(self.endo)


@dataclass
class LgeDataset:
    """One LGE study: ordered SA stack, LA views, ROIs, spacing."""

    sa_slices: list                     # SliceImage, base -> apex
    la_slices: list                     # SliceImage
    sa_rois: list                       # Roi or None per SA slice
    la_roles: list = field(default_factory=list)   # "LA4C"/"LA2C" per LA slice
    slice_thickness_mm: float = 7.0
    gap_mm: float = 3.0

    def __post_init__(self):
        if len(self.sa_slices) < 1:
            raise ValueError("dataset needs at least one SA slice")
        if len(self.sa_rois) != len(self.sa_slices):
            raise ValueError("one ROI entry per SA slice required")
        if not self.la_roles:
            self.la_roles = ["LA"] * len(self.la_slices)
        for s in self.sa_slices + self.la_slices:
            if not isinstance(s, SliceImage):
                raise TypeError("slices must be SliceImage instances")
        for roi in self.sa_rois:
            if roi is not None and not isinstance(roi, Roi):
                raise TypeError("sa_rois entries must be Roi or None")

    @property
    def slice_spacing_mm(self) -> float:
        """Through-plane center-to-center spacing of the SA stack."""
        return self.slice_thickness_mm + self.gap_mm

    @property
    def voxel_spacing_mm(self) -> tuple:
        """(row, col, through-plane) spacing of the SA stack as a volume."""
        first = self.sa_slices[0].pose
        return (first.ps_row, first.ps_col, self.slice_spacing_mm)

    @property
    def all_slices(self) -> list:
        return list(self.sa_slices) + list(self.la_slices)

    def with_ipps(self, ipp_all: np.ndarray) -> "LgeDataset":
        """Copy of the dataset with per-slice origins replaced (SA block first)."""
        ipp_all = np.asarray(ipp_all, dtype=float)
        n_sa = len(self.sa_slices)
        if ipp_all.shape != (n_sa + len(self.la_slices), 3):
            raise ValueError("ipp_all must provide one 3-vector per slice")
        sa = [s.translated(ipp_all[i] - s.pose.ipp) for i, s in enumerate(self.sa_slices)]
        la = [
            s.translated(ipp_all[n_sa + i] - s.pose.ipp)
            for i, s in enumerate(self.la_slices)
        ]
        return LgeDataset(
            sa_slices=sa, la_slices=la, sa_rois=list(self.sa_rois),
            la_roles=list(self.la_roles),
            slice_thickness_mm=self.slice_thickness_mm, gap_mm=self.gap_mm,
        )
