"""Synthetic LGE dataset generator with exact ground truth.

Builds a tapered annular left ventricle along the +z axis of the patient
system: bright blood pool, dark myocardium, optional hyper-enhanced wedge
infarcts with dark microvascular-obstruction pockets, papillary muscles
inside the cavity, a rounded apex cap, and a textured background. Short-axis
slices are painted from the rasterized truth contours (so truth masks are
voxel-exact); long-axis views sample the same analytic anatomy.

Misalignment is simulated by displacing the recorded slice origins while the
pixel content stays at the true anatomy; intensity inconsistency by per-slice
gains; noise by the magnitude of a complex signal with Gaussian components.
All randomness is seeded, so identical configs regenerate identical bytes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import ContourSet, LgeDataset
from .errors import ParameterError
from .geometry import Roi, SliceImage, SlicePose, pixel_to_patient
from .raster import circle_polygon, polygon_mask


@dataclass(frozen=True)
class InfarctWedge:
    """Angular sector of the myocardium, spanning whole SA slices."""

    slice_lo: int
    slice_hi: int
    angle_lo_deg: float
    angle_hi_deg: float
    depth_frac: float = 1.0   # transmural extent from the endo border outward


@dataclass(frozen=True)
class MvoPocket:
    """Dark no-reflow sphere hugging the endocardial border inside a wedge."""

    wedge: int
    center_angle_deg: float
    center_slice: float
    radius_mm: float = 4.0


@dataclass(frozen=True)
class PhantomConfig:
    n_sa: int = 6
    la_views: tuple = ("LA4C", "LA2C")
    rows: int = 96
    cols: int = 96
    ps_mm: float = 1.25
    slice_thickness_mm: float = 7.0
    gap_mm: float = 3.0
    endo_radius_base_mm: float = 17.0
    endo_radius_apex_mm: float = 7.0
    epi_radius_base_mm: float = 25.0
    epi_radius_apex_mm: float = 13.0
    wedges: tuple = ()
    mvo_pockets: tuple = ()
    intensity_background: float = 0.12
    intensity_myocardium: float = 0.30
    intensity_blood_pool: float = 0.80
    intensity_infarct: float = 0.75
    gains: tuple | None = None             # per SA slice; None -> all 1.0
    translations_mm: tuple | None = None   # per slice, SA block then LA; None -> zeros
    noise_sigma: float = 0.0               # on the [0, 1] intensity scale
    seed: int = 0
    texture_seed: int = 1234
    intensity_scale: float = 2000.0        # [0, 1] -> stored integer units
    roi_margin_px: int = 7
    edge_softness_mm: float = 1.5          # one-sided blend width at tissue borders

    @property
    def slice_spacing_mm(self) -> float:
        return self.slice_thickness_mm + self.gap_mm

    @property
    def apex_z_mm(self) -> float:
        return (self.n_sa - 1) * self.slice_spacing_mm


@dataclass
class PhantomTruth:
    true_ipps: np.ndarray          # (n_slices, 3), SA block first
    contours: ContourSet
    infarct_mask: np.ndarray       # (n_sa, rows, cols) bool
    gains: np.ndarray              # (n_sa,)
    config: PhantomConfig


def _validate(cfg: PhantomConfig):
    if isinstance(cfg.seed, bool) or not isinstance(cfg.seed, numbers.Integral) or cfg.seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if isinstance(cfg.noise_sigma, bool) or not isinstance(cfg.noise_sigma, numbers.Real) \
            or not math.isfinite(cfg.noise_sigma) or cfg.noise_sigma < 0:
        raise ParameterError(
            f"noise sigma must be a finite non-negative number, got {cfg.noise_sigma!r}")
    if cfg.n_sa < 1:
        raise ParameterError("n_sa must be >= 1")
    if cfg.endo_radius_base_mm >= cfg.epi_radius_base_mm:
        raise ParameterError("endo radius must be smaller than epi radius at the base")
    if cfg.endo_radius_apex_mm >= cfg.epi_radius_apex_mm:
        raise ParameterError("endo radius must be smaller than epi radius at the apex")
    if not (cfg.intensity_myocardium < cfg.intensity_infarct <= cfg.intensity_blood_pool):
        raise ParameterError("intensity ordering must be myocardium < infarct <= blood pool")
    if cfg.gains is not None and len(cfg.gains) != cfg.n_sa:
        raise ParameterError("gains must list one factor per SA slice")
    n_slices = cfg.n_sa + len(cfg.la_views)
    if cfg.translations_mm is not None and len(cfg.translations_mm) != n_slices:
        raise ParameterError("translations_mm must list one 3-vector per slice (SA then LA)")
    for w in cfg.wedges:
        if not (0 <= w.slice_lo <= w.slice_hi < cfg.n_sa):
            raise ParameterError("wedge slice range outside the SA stack")
        if not (0.0 < w.depth_frac <= 1.0):
            raise ParameterError("wedge depth fraction must be in (0, 1]")
    for m in cfg.mvo_pockets:
        if not (0 <= m.wedge < len(cfg.wedges)):
            raise ParameterError("MVO pocket references an unknown wedge")


def angle_about_axis_deg(x, y):
    """Angle of (x, y) about the LV axis, 0 at the -x (image up) direction.

    Matches the AHA module's default angular reference so a wedge placed at
    [0, 60) deg fills exactly one basal/mid sector.
    """
    return np.degrees(np.arctan2(y, -np.asarray(x))) % 360.0


def _radii(cfg: PhantomConfig, z):
    """Endo/epi radius profiles along the LV axis.

    Linear taper from base to apex, a rounded cap beyond the apex, and a
    valve-plane flare above the base (the cavity widens toward the atrium),
    so the anatomy changes everywhere along z.
    """
    z = np.asarray(z, dtype=float)
    z_apex = max(cfg.apex_z_mm, 1e-6)
    t = np.clip(z / z_apex, 0.0, 1.0)
    re = cfg.endo_radius_base_mm + t * (cfg.endo_radius_apex_mm - cfg.endo_radius_base_mm)
    rp = cfg.epi_radius_base_mm + t * (cfg.epi_radius_apex_mm - cfg.epi_radius_base_mm)
    above = z < 0
    if np.any(above):
        re = np.where(above, cfg.endo_radius_base_mm - 0.35 * z, re)
        rp = np.where(above, cfg.epi_radius_base_mm - 0.30 * z, rp)
    cap_len = cfg.epi_radius_apex_mm
    past = z > z_apex
    if np.any(past):
        s = np.clip((z - z_apex) / cap_len, 0.0, 1.0)
        f = np.sqrt(np.clip(1.0 - s * s, 0.0, 1.0))
        re = np.where(past, cfg.endo_radius_apex_mm * f, re)
        rp = np.where(past, cfg.epi_radius_apex_mm * f, rp)
    return re, rp


def _background(cfg: PhantomConfig, pts):
    """Smooth textured background so intersection profiles carry information."""
    rng = np.random.default_rng(cfg.texture_seed)
    n_blobs = 60
    fov = max(cfg.rows, cfg.cols) * cfg.ps_mm / 2.0
    centers = np.column_stack([
        rng.uniform(-fov, fov, n_blobs),
        rng.uniform(-fov, fov, n_blobs),
        rng.uniform(-20.0, cfg.apex_z_mm + 30.0, n_blobs),
    ])
    widths = rng.uniform(4.0, 10.0, n_blobs)
    amps = rng.uniform(-0.12, 0.12, n_blobs)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    out = np.full(pts.shape[:-1], cfg.intensity_background)
    for c, w, a in zip(centers, widths, amps):
        d2 = (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2
        out = out + a * np.exp(-d2 / (2.0 * w * w))
    # Bright oblique tubes (vessel-like): sharp landmarks that slide through
    # the imaging planes, anchoring the through-plane direction.
    for _ in range(4):
        p0 = np.array([
            rng.uniform(-0.8 * fov, 0.8 * fov),
            rng.uniform(-0.8 * fov, 0.8 * fov),
            rng.uniform(0.0, cfg.apex_z_mm),
        ])
        u = rng.normal(size=3)
        u[2] = abs(u[2]) + 0.8
        u = u / np.linalg.norm(u)
        rel = np.stack([x - p0[0], y - p0[1], z - p0[2]], axis=-1)
        along = rel @ u
        d = np.linalg.norm(rel - np.multiply.outer(along, u), axis=-1)
        out = out + 0.22 * _smoothstep((4.0 - d) / 1.5)
    # Two coronary-like helices hugging the epicardium: a bright dot next to
    # the wall whose position rotates with z, pinning the through-plane
    # direction inside every SA region of interest.
    _, rp = _radii(cfg, z)
    for phi0, pitch in ((20.0, 0.07), (200.0, -0.07)):
        phi = np.radians(phi0) + pitch * z
        helix_r = rp + 3.0
        cx = -helix_r * np.cos(phi)
        cy = helix_r * np.sin(phi)
        d = np.hypot(x - cx, y - cy)
        out = out + 0.25 * _smoothstep((3.5 - d) / 1.0)
    return np.clip(out, 0.01, None)


def _tissue_mod(pts, phase: float, amp: float, z_amp: float = 0.6):
    """Gentle deterministic within-tissue variation (keeps histograms smooth)."""
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    return (
        1.0
        + amp * np.sin(0.23 * x + phase) * np.cos(0.19 * y + 0.7 * phase)
        + z_amp * amp * np.sin(0.11 * z + 1.3 * phase)
    )


def _papillary_weight(cfg: PhantomConfig, pts):
    """Smooth indicator of the two papillary muscle blobs in the cavity."""
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    re, _ = _radii(cfg, z)
    r = np.hypot(x, y)
    z_apex = cfg.apex_z_mm
    z_mid = 0.5 * z_apex
    z_half = 0.3 * z_apex
    w_z = _smoothstep((z_half + 3.0 - np.abs(z - z_mid)) / 3.0)
    frac = 0.35 + 0.35 * np.clip((z - (z_mid - z_half)) / (2 * z_half + 1e-9), 0.0, 1.0)
    weight = np.zeros(pts.shape[:-1])
    # Diagonal placement keeps the blobs clear of both LA view planes, whose
    # intersection profiles would otherwise graze them tangentially. The
    # radial position drifts with z (papillaries run obliquely), so the
    # cavity content is not invariant along the axis.
    for phi in (135.0, 315.0):
        rad = np.radians(phi)
        cx = -frac * re * np.cos(rad)
        cy = frac * re * np.sin(rad)
        d = np.hypot(x - cx, y - cy)
        weight = np.maximum(weight, _smoothstep((3.6 - d) / 1.0))
    return weight * w_z * (r < re)


def _wedge_mask(cfg: PhantomConfig, w: InfarctWedge, pts):
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    dz = cfg.slice_spacing_mm
    z_lo = w.slice_lo * dz - 0.5 * dz
    z_hi = w.slice_hi * dz + 0.5 * dz
    re, rp = _radii(cfg, z)
    r = np.hypot(x, y)
    theta = angle_about_axis_deg(x, y)
    lo = w.angle_lo_deg % 360.0
    hi = w.angle_hi_deg % 360.0
    if lo <= hi:
        in_angle = (theta >= lo) & (theta < hi)
    else:
        in_angle = (theta >= lo) | (theta < hi)
    in_depth = r <= re + w.depth_frac * (rp - re)
    return (z >= z_lo) & (z <= z_hi) & in_angle & in_depth


def _mvo_mask(cfg: PhantomConfig, m: MvoPocket, pts):
    w = cfg.wedges[m.wedge]
    zc = m.center_slice * cfg.slice_spacing_mm
    re_c, _ = _radii(cfg, zc)
    rad = np.radians(m.center_angle_deg)
    center = np.array([-float(re_c + 0.6 * m.radius_mm) * np.cos(rad),
                       float(re_c + 0.6 * m.radius_mm) * np.sin(rad),
                       zc])
    d2 = np.sum((pts - center) ** 2, axis=-1)
    return (d2 <= m.radius_mm ** 2) & _wedge_mask(cfg, w, pts)


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _paint(cfg: PhantomConfig, pts, bp_mask, myo_mask):
    """Noise-free intensity at patient points given region masks.

    Pixels inside the myocardium mask carry pure tissue values (so truth
    masks match the painted classes voxel-exactly); the blend to blood pool
    and background happens one-sidedly on the cavity and background sides,
    keeping the intensity profile continuous across the borders.
    """
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    r = np.hypot(x, y)
    re, rp = _radii(cfg, z)
    e = max(cfg.edge_softness_mm, 1e-6)

    # Blood pool carries no axial trend: slice-consistent BP intensity is the
    # premise of the normalization stage.
    bp = cfg.intensity_blood_pool * _tissue_mod(pts, 0.9, 0.02, z_amp=0.0)
    myo = cfg.intensity_myocardium * _tissue_mod(pts, 0.4, 0.05)
    inf = cfg.intensity_infarct * _tissue_mod(pts, 1.7, 0.03)
    bg = _background(cfg, pts)

    # Cavity: rises from myocardium level at the wall to blood pool inward.
    w_bp = _smoothstep((re - r) / e)
    cavity = myo + w_bp * (bp - myo)
    pap_w = _papillary_weight(cfg, pts)
    cavity = cavity + pap_w * (myo - cavity)
    # Background: relaxes from myocardium level at the epi wall outward.
    w_bg = _smoothstep((r - rp) / e)
    outside = myo + w_bg * (bg - myo)

    values = np.where(bp_mask, cavity, outside)
    values = np.where(myo_mask, myo, values)
    wedge_any = np.zeros(pts.shape[:-1], dtype=bool)
    for w in cfg.wedges:
        wedge_any |= _wedge_mask(cfg, w, pts)
    values = np.where(wedge_any & myo_mask, inf, values)
    for m in cfg.mvo_pockets:
        values = np.where(_mvo_mask(cfg, m, pts) & myo_mask, myo, values)
    return values


def _analytic_regions(cfg: PhantomConfig, pts):
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    re, rp = _radii(cfg, z)
    r = np.hypot(x, y)
    bp = r < re
    myo = (r >= re) & (r < rp)
    return bp, myo


def _sa_pose(cfg: PhantomConfig, k: int) -> SlicePose:
    half_r = (cfg.rows - 1) / 2.0 * cfg.ps_mm
    half_c = (cfg.cols - 1) / 2.0 * cfg.ps_mm
    return SlicePose(
        ipp=np.array([-half_r, -half_c, k * cfg.slice_spacing_mm]),
        iop_row=np.array([1.0, 0.0, 0.0]),
        iop_col=np.array([0.0, 1.0, 0.0]),
        ps_row=cfg.ps_mm, ps_col=cfg.ps_mm, rows=cfg.rows, cols=cfg.cols,
    )


def _la_pose(cfg: PhantomConfig, view: str) -> SlicePose:
    z_lo = -15.0
    z_hi = cfg.apex_z_mm + cfg.epi_radius_apex_mm + 15.0
    rows = int(np.ceil((z_hi - z_lo) / cfg.ps_mm)) + 1
    cols = cfg.cols
    half_c = (cols - 1) / 2.0 * cfg.ps_mm
    if view == "LA4C":   # plane y = 0, rows along +z, cols along +x
        return SlicePose(
            ipp=np.array([-half_c, 0.0, z_lo]),
            iop_row=np.array([0.0, 0.0, 1.0]),
            iop_col=np.array([1.0, 0.0, 0.0]),
            ps_row=cfg.ps_mm, ps_col=cfg.ps_mm, rows=rows, cols=cols,
        )
    if view == "LA2C":   # plane x = 0, rows along +z, cols along +y
        return SlicePose(
            ipp=np.array([0.0, -half_c, z_lo]),
            iop_row=np.array([0.0, 0.0, 1.0]),
            iop_col=np.array([0.0, 1.0, 0.0]),
            ps_row=cfg.ps_mm, ps_col=cfg.ps_mm, rows=rows, cols=cols,
        )
    raise ValueError(f"unknown LA view {view!r}")


def _pixel_points(pose: SlicePose) -> np.ndarray:
    rr, cc = np.meshgrid(
        np.arange(pose.rows, dtype=float), np.arange(pose.cols, dtype=float), indexing="ij"
    )
    return pixel_to_patient(pose, rr, cc)


def _apply_noise(values: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    if sigma <= 0:
        return values
    g1 = rng.normal(0.0, sigma, size=values.shape)
    g2 = rng.normal(0.0, sigma, size=values.shape)
    return np.sqrt((values + g1) ** 2 + g2 ** 2)


def generate(cfg: PhantomConfig) -> tuple[LgeDataset, PhantomTruth]:
    """Build the dataset and its ground truth for one phantom configuration."""
    _validate(cfg)
    rng = np.random.default_rng(cfg.seed)
    gains = np.ones(cfg.n_sa) if cfg.gains is None else np.asarray(cfg.gains, dtype=float)
    n_slices = cfg.n_sa + len(cfg.la_views)
    if cfg.translations_mm is None:
        trans = np.zeros((n_slices, 3))
    else:
        trans = np.asarray(cfg.translations_mm, dtype=float).reshape(n_slices, 3)

    center_r = (cfg.rows - 1) / 2.0
    center_c = (cfg.cols - 1) / 2.0
    endo_polys, epi_polys, rois = [], [], []
    sa_true_poses, sa_pixels, infarct_masks = [], [], []
    for k in range(cfg.n_sa):
        pose = _sa_pose(cfg, k)
        z_k = k * cfg.slice_spacing_mm
        re_k, rp_k = _radii(cfg, z_k)
        endo = circle_polygon(center_r, center_c, float(re_k) / cfg.ps_mm)
        epi = circle_polygon(center_r, center_c, float(rp_k) / cfg.ps_mm)
        endo_polys.append(endo)
        epi_polys.append(epi)

        bp_mask = polygon_mask(endo, cfg.rows, cfg.cols)
        epi_mask = polygon_mask(epi, cfg.rows, cfg.cols)
        myo_mask = epi_mask & ~bp_mask

        pts = _pixel_points(pose)
        values = _paint(cfg, pts, bp_mask, myo_mask)
        wedge_any = np.zeros(values.shape, dtype=bool)
        for w in cfg.wedges:
            wedge_any |= _wedge_mask(cfg, w, pts)
        infarct_masks.append(wedge_any & myo_mask)

        half_px = int(np.ceil(float(rp_k) / cfg.ps_mm)) + cfg.roi_margin_px
        rois.append(Roi(
            max(0, int(np.floor(center_r)) - half_px),
            min(cfg.rows - 1, int(np.ceil(center_r)) + half_px),
            max(0, int(np.floor(center_c)) - half_px),
            min(cfg.cols - 1, int(np.ceil(center_c)) + half_px),
        ))
        sa_true_poses.append(pose)
        sa_pixels.append(values * gains[k])

    la_true_poses, la_pixels = [], []
    for view in cfg.la_views:
        pose = _la_pose(cfg, view)
        pts = _pixel_points(pose)
        bp_mask, myo_mask = _analytic_regions(cfg, pts)
        la_true_poses.append(pose)
        la_pixels.append(_paint(cfg, pts, bp_mask, myo_mask))

    sa_slices, la_slices = [], []
    for k in range(cfg.n_sa):
        noisy = _apply_noise(sa_pixels[k], cfg.noise_sigma, rng)
        stored = np.round(np.clip(noisy * cfg.intensity_scale, 0.0, 65535.0))
        pose = sa_true_poses[k].translated(trans[k])
        sa_slices.append(SliceImage(pose=pose, pixels=stored))
    for j, view in enumerate(cfg.la_views):
        noisy = _apply_noise(la_pixels[j], cfg.noise_sigma, rng)
        stored = np.round(np.clip(noisy * cfg.intensity_scale, 0.0, 65535.0))
        pose = la_true_poses[j].translated(trans[cfg.n_sa + j])
        la_slices.append(SliceImage(pose=pose, pixels=stored))

    contours = ContourSet(endo=endo_polys, epi=epi_polys)
    dataset = LgeDataset(
        sa_slices=sa_slices, la_slices=la_slices, sa_rois=rois,
        la_roles=list(cfg.la_views),
        slice_thickness_mm=cfg.slice_thickness_mm, gap_mm=cfg.gap_mm,
    )
    truth = PhantomTruth(
        true_ipps=np.array([p.ipp for p in sa_true_poses + la_true_poses]),
        contours=contours,
        infarct_mask=np.array(infarct_masks),
        gains=gains,
        config=cfg,
    )
    return dataset, truth


def default_wedge_config(seed: int = 0, noise_sigma: float = 0.08) -> PhantomConfig:
    """Convenience config: one 60 deg transmural basal wedge with an MVO pocket.

    The pocket sits on the most basal slice so its only through-plane
    neighbor is wedge infarct; everywhere else it borders infarct or the
    cavity, making it a genuinely enclosed no-reflow blob.
    """
    wedge = InfarctWedge(slice_lo=0, slice_hi=1, angle_lo_deg=0.0, angle_hi_deg=60.0,
                         depth_frac=1.0)
    pocket = MvoPocket(wedge=0, center_angle_deg=30.0, center_slice=0.0, radius_mm=4.5)
    return PhantomConfig(wedges=(wedge,), mvo_pockets=(pocket,),
                         noise_sigma=noise_sigma, seed=seed)
