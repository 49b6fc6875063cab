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

from dataclasses import dataclass

import numpy as np

from .dataset import ContourSet, LgeDataset
from .errors import (
    COUNT, FINITE, POSITIVE, GeometryError, ParameterError, check_number,
)
from .geometry import Roi, SliceImage, SlicePose
from .raster import circle_polygon, contour_masks


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


# Fixed anatomy, contrast and texture of every phantom. Intensities are on
# the [0, 1] scale; INTENSITY_SCALE maps it to stored integer units.
SLICE_THICKNESS_MM = 7.0
GAP_MM = 3.0
SLICE_SPACING_MM = SLICE_THICKNESS_MM + GAP_MM
ENDO_RADIUS_BASE_MM = 17.0
ENDO_RADIUS_APEX_MM = 7.0
EPI_RADIUS_BASE_MM = 25.0
EPI_RADIUS_APEX_MM = 13.0
INTENSITY_BACKGROUND = 0.12
INTENSITY_MYOCARDIUM = 0.30
INTENSITY_BLOOD_POOL = 0.80
INTENSITY_INFARCT = 0.75
INTENSITY_SCALE = 2000.0
MAX_NOISE_SIGMA = 1e6      # every pixel saturates far below; the magnitude overflows far above
TEXTURE_SEED = 1234
ROI_MARGIN_PX = 7
EDGE_SOFTNESS_MM = 1.5     # one-sided blend width at tissue borders
# Rows of an LA view run along +z; its columns run along this patient axis
# (LA4C: plane y = 0, columns along +x; LA2C: plane x = 0, columns along +y).
_LA_COL_AXIS = {"LA4C": 0, "LA2C": 1}
LA_VIEWS = tuple(_LA_COL_AXIS)


@dataclass(frozen=True)
class PhantomConfig:
    """What varies between phantoms: grid, lesions, misalignment, gains, noise."""

    n_sa: int = 6
    rows: int = 96
    cols: int = 96
    ps_mm: float = 1.25
    wedges: tuple = ()
    mvo_pockets: tuple = ()
    gains: tuple | None = None             # per SA slice; None -> all 1.0
    translations_mm: tuple | None = None   # per slice, SA block then LA; None -> zeros
    noise_sigma: float = 0.0               # on the [0, 1] intensity scale
    seed: int = 0

    @property
    def apex_z_mm(self) -> float:
        return (self.n_sa - 1) * SLICE_SPACING_MM


@dataclass
class PhantomTruth:
    true_ipps: np.ndarray          # (n_slices, 3), SA block first
    contours: ContourSet
    infarct_mask: np.ndarray       # (n_sa, rows, cols) bool
    gains: np.ndarray              # (n_sa,)
    config: PhantomConfig


def _listed(name: str, value, what: str, n: int | None = None, kind=object) -> tuple | list:
    """``value``, a tuple or list of ``kind`` entries (``n`` of them if given)."""
    if not (isinstance(value, (tuple, list)) and n in (None, len(value))
            and all(isinstance(v, kind) for v in value)):
        raise ParameterError(f"{name} must list {what}, got {value!r}")
    return value


def _validate(cfg: PhantomConfig):
    check_number("seed", cfg.seed, **COUNT)
    check_number("noise sigma", cfg.noise_sigma, ok=lambda v: 0 <= v <= MAX_NOISE_SIGMA,
                 what=f"a finite non-negative number at most {MAX_NOISE_SIGMA:g}")
    for name in ("n_sa", "rows", "cols"):
        check_number(name, getattr(cfg, name), integral=True, what="a positive integer",
                     ok=lambda v: v >= 1)
    check_number("ps_mm", cfg.ps_mm, **POSITIVE)
    if cfg.gains is not None:
        for gain in _listed("gains", cfg.gains, "one factor per SA slice", cfg.n_sa):
            check_number("gain", gain, **POSITIVE)
    if cfg.translations_mm is not None:
        for t in _listed("translations_mm", cfg.translations_mm,
                         "one 3-vector per slice (SA then LA)", cfg.n_sa + len(LA_VIEWS)):
            for v in _listed("translation", t, "three numbers", 3):
                check_number("translation", v, **FINITE)
    for w in _listed("wedges", cfg.wedges, "InfarctWedge entries", kind=InfarctWedge):
        check_number("wedge slice_lo", w.slice_lo, integral=True, what="in [0, n_sa)",
                     ok=lambda v: 0 <= v < cfg.n_sa)
        check_number("wedge slice_hi", w.slice_hi, integral=True, what="in [slice_lo, n_sa)",
                     ok=lambda v: w.slice_lo <= v < cfg.n_sa)
        check_number("wedge angle_lo_deg", w.angle_lo_deg, **FINITE)
        check_number("wedge angle_hi_deg", w.angle_hi_deg, **FINITE)
        check_number("wedge depth fraction", w.depth_frac, what="in (0, 1]",
                     ok=lambda v: 0 < v <= 1)
    for m in _listed("mvo_pockets", cfg.mvo_pockets, "MvoPocket entries", kind=MvoPocket):
        check_number("MVO pocket wedge", m.wedge, integral=True, what="an index into wedges",
                     ok=lambda v: 0 <= v < len(cfg.wedges))
        check_number("MVO pocket center_angle_deg", m.center_angle_deg, **FINITE)
        check_number("MVO pocket center_slice", m.center_slice, **FINITE)
        check_number("MVO pocket radius", m.radius_mm, **POSITIVE)


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
    re = ENDO_RADIUS_BASE_MM + t * (ENDO_RADIUS_APEX_MM - ENDO_RADIUS_BASE_MM)
    rp = EPI_RADIUS_BASE_MM + t * (EPI_RADIUS_APEX_MM - EPI_RADIUS_BASE_MM)
    above = z < 0
    if np.any(above):
        re = np.where(above, ENDO_RADIUS_BASE_MM - 0.35 * z, re)
        rp = np.where(above, EPI_RADIUS_BASE_MM - 0.30 * z, rp)
    cap_len = EPI_RADIUS_APEX_MM
    past = z > z_apex
    if np.any(past):
        s = np.clip((z - z_apex) / cap_len, 0.0, 1.0)
        f = np.sqrt(np.clip(1.0 - s * s, 0.0, 1.0))
        re = np.where(past, ENDO_RADIUS_APEX_MM * f, re)
        rp = np.where(past, EPI_RADIUS_APEX_MM * f, rp)
    return re, rp


def _background(cfg: PhantomConfig, axes, rp):
    """Smooth textured background so intersection profiles carry information."""
    rng = np.random.default_rng(TEXTURE_SEED)
    n_blobs = 60
    fov = max(cfg.rows, cfg.cols) * cfg.ps_mm / 2.0
    centers = np.column_stack([
        rng.uniform(-fov, fov, n_blobs),
        rng.uniform(-fov, fov, n_blobs),
        rng.uniform(-20.0, cfg.apex_z_mm + 30.0, n_blobs),
    ])
    widths = rng.uniform(4.0, 10.0, n_blobs)
    amps = rng.uniform(-0.12, 0.12, n_blobs)
    x, y, z = axes
    # A Gaussian blob is one factor per patient axis. Each axis runs along the
    # rows or the columns (or is constant), so the blobs' row factors (with
    # the amplitude) times their column factors sum in one matrix product.
    row, col = amps[:, None], np.ones((n_blobs, 1))
    for axis, c in zip(axes, centers.T):
        f = np.exp(-(axis - c[:, None, None]) ** 2 / (2.0 * widths * widths)[:, None, None])
        if f.shape[2] == 1:
            row = row * f[:, :, 0]
        else:
            col = col * f[:, 0, :]
    out = INTENSITY_BACKGROUND + row.T @ col
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
        rel = [a - p for a, p in zip(axes, p0)]
        along = rel[0] * u[0] + rel[1] * u[1] + rel[2] * u[2]
        d = np.sqrt(sum((r - along * ui) ** 2 for r, ui in zip(rel, u)))
        out = out + 0.22 * _smoothstep((4.0 - d) / 1.5)
    # Two coronary-like helices hugging the epicardium: a bright dot next to
    # the wall whose position rotates with z, pinning the through-plane
    # direction inside every SA region of interest.
    for phi0, pitch in ((20.0, 0.07), (200.0, -0.07)):
        phi = np.radians(phi0) + pitch * z
        helix_r = rp + 3.0
        cx = -helix_r * np.cos(phi)
        cy = helix_r * np.sin(phi)
        d = np.hypot(x - cx, y - cy)
        out = out + 0.25 * _smoothstep((3.5 - d) / 1.0)
    return np.clip(out, 0.01, None)


def _tissue_mod(axes, phase: float, amp: float, z_amp: float = 0.6):
    """Gentle deterministic within-tissue variation (keeps histograms smooth)."""
    x, y, z = axes
    return (
        1.0
        + amp * np.sin(0.23 * x + phase) * np.cos(0.19 * y + 0.7 * phase)
        + z_amp * amp * np.sin(0.11 * z + 1.3 * phase)
    )


def _papillary_weight(cfg: PhantomConfig, axes, r, re):
    """Smooth indicator of the two papillary muscle blobs in the cavity."""
    x, y, z = axes
    z_apex = cfg.apex_z_mm
    z_mid = 0.5 * z_apex
    z_half = 0.3 * z_apex
    w_z = _smoothstep((z_half + 3.0 - np.abs(z - z_mid)) / 3.0)
    frac = 0.35 + 0.35 * np.clip((z - (z_mid - z_half)) / (2 * z_half + 1e-9), 0.0, 1.0)
    weight = 0.0
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


def _wedge_mask(w: InfarctWedge, z, r, re, rp, theta):
    dz = SLICE_SPACING_MM
    z_lo = w.slice_lo * dz - 0.5 * dz
    z_hi = w.slice_hi * dz + 0.5 * dz
    lo = w.angle_lo_deg % 360.0
    hi = w.angle_hi_deg % 360.0
    if lo <= hi:
        in_angle = (theta >= lo) & (theta < hi)
    else:
        in_angle = (theta >= lo) | (theta < hi)
    in_depth = r <= re + w.depth_frac * (rp - re)
    return (z >= z_lo) & (z <= z_hi) & in_angle & in_depth


def _mvo_mask(cfg: PhantomConfig, m: MvoPocket, axes, wedge):
    zc = m.center_slice * SLICE_SPACING_MM
    re_c, _ = _radii(cfg, zc)
    rad = np.radians(m.center_angle_deg)
    center = np.array([-float(re_c + 0.6 * m.radius_mm) * np.cos(rad),
                       float(re_c + 0.6 * m.radius_mm) * np.sin(rad),
                       zc])
    d2 = sum((a - c) ** 2 for a, c in zip(axes, center))
    return (d2 <= m.radius_mm ** 2) & wedge


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _paint(cfg: PhantomConfig, axes, regions=None):
    """(noise-free intensity, infarct mask) of a slice.

    ``regions`` are an SA slice's (blood pool, myocardium) masks from its
    truth contours; an LA view has none and takes them from the radii.
    Pixels inside the myocardium mask carry pure tissue values (so truth
    masks match the painted classes voxel-exactly); the blend to blood pool
    and background happens one-sidedly on the cavity and background sides,
    keeping the intensity profile continuous across the borders.
    """
    x, y, z = axes
    r = np.hypot(x, y)
    re, rp = _radii(cfg, z)
    bp_mask, myo_mask = (r < re, (r >= re) & (r < rp)) if regions is None else regions
    e = EDGE_SOFTNESS_MM

    # Blood pool carries no axial trend: slice-consistent BP intensity is the
    # premise of the normalization stage.
    bp = INTENSITY_BLOOD_POOL * _tissue_mod(axes, 0.9, 0.02, z_amp=0.0)
    myo = INTENSITY_MYOCARDIUM * _tissue_mod(axes, 0.4, 0.05)
    inf = INTENSITY_INFARCT * _tissue_mod(axes, 1.7, 0.03)
    bg = _background(cfg, axes, rp)

    # Cavity: rises from myocardium level at the wall to blood pool inward.
    w_bp = _smoothstep((re - r) / e)
    cavity = myo + w_bp * (bp - myo)
    pap_w = _papillary_weight(cfg, axes, r, re)
    cavity = cavity + pap_w * (myo - cavity)
    # Background: relaxes from myocardium level at the epi wall outward.
    w_bg = _smoothstep((r - rp) / e)
    outside = myo + w_bg * (bg - myo)

    values = np.where(bp_mask, cavity, outside)
    values = np.where(myo_mask, myo, values)
    theta = angle_about_axis_deg(x, y) if cfg.wedges else None
    wedges = [_wedge_mask(w, z, r, re, rp, theta) for w in cfg.wedges]
    infarct = np.zeros(values.shape, dtype=bool)
    for wedge in wedges:
        infarct |= wedge
    infarct &= myo_mask
    values = np.where(infarct, inf, values)
    for m in cfg.mvo_pockets:
        values = np.where(_mvo_mask(cfg, m, axes, wedges[m.wedge]) & myo_mask, myo, values)
    return values, infarct


def _sa_pose(cfg: PhantomConfig, k: int) -> SlicePose:
    half_r = (cfg.rows - 1) / 2.0 * cfg.ps_mm
    half_c = (cfg.cols - 1) / 2.0 * cfg.ps_mm
    return SlicePose(
        ipp=np.array([-half_r, -half_c, k * SLICE_SPACING_MM]),
        iop_row=np.array([1.0, 0.0, 0.0]),
        iop_col=np.array([0.0, 1.0, 0.0]),
        ps_row=cfg.ps_mm, ps_col=cfg.ps_mm, rows=cfg.rows, cols=cfg.cols,
    )


def _la_pose(cfg: PhantomConfig, view: str) -> SlicePose:
    z_lo = -15.0
    z_hi = cfg.apex_z_mm + EPI_RADIUS_APEX_MM + 15.0
    rows = int(np.ceil((z_hi - z_lo) / cfg.ps_mm)) + 1
    cols = cfg.cols
    axis = _LA_COL_AXIS[view]
    ipp = np.array([0.0, 0.0, z_lo])
    ipp[axis] = -((cols - 1) / 2.0 * cfg.ps_mm)
    return SlicePose(ipp=ipp, iop_row=np.array([0.0, 0.0, 1.0]), iop_col=np.eye(3)[axis],
                     ps_row=cfg.ps_mm, ps_col=cfg.ps_mm, rows=rows, cols=cols)


def _pixel_axes(pose: SlicePose) -> tuple:
    """Patient (x, y, z) of every pixel as broadcastable axes.

    Each is a (rows, 1) column, a (1, cols) row or a (1, 1) constant, summed
    as ``pixel_to_patient`` sums it, so every coordinate keeps its bits. A
    zero orientation component adds the same signed zero at every pixel, kept
    as one element. Only axis-aligned poses factor this way.
    """
    if np.count_nonzero(pose.iop_row) != 1 or np.count_nonzero(pose.iop_col) != 1:
        raise GeometryError("phantom slices must run along patient axes")
    r = np.arange(pose.rows, dtype=float)[:, None] * pose.ps_row
    c = np.arange(pose.cols, dtype=float)[None, :] * pose.ps_col
    return tuple(o + (r * a if a else r[:1] * a) + (c * b if b else c[:, :1] * b)
                 for o, a, b in zip(pose.ipp, pose.iop_row, pose.iop_col))


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
    n_slices = cfg.n_sa + len(LA_VIEWS)
    trans = (np.zeros((n_slices, 3)) if cfg.translations_mm is None
             else np.asarray(cfg.translations_mm, dtype=float))

    center_r = (cfg.rows - 1) / 2.0
    center_c = (cfg.cols - 1) / 2.0
    endo_polys, epi_polys, rois = [], [], []
    for k in range(cfg.n_sa):
        re_k, rp_k = _radii(cfg, k * SLICE_SPACING_MM)
        endo_polys.append(circle_polygon(center_r, center_c, float(re_k) / cfg.ps_mm))
        epi_polys.append(circle_polygon(center_r, center_c, float(rp_k) / cfg.ps_mm))
        half_px = int(np.ceil(float(rp_k) / cfg.ps_mm)) + ROI_MARGIN_PX
        rois.append(Roi(
            max(0, int(np.floor(center_r)) - half_px),
            min(cfg.rows - 1, int(np.ceil(center_r)) + half_px),
            max(0, int(np.floor(center_c)) - half_px),
            min(cfg.cols - 1, int(np.ceil(center_c)) + half_px),
        ))
    contours = ContourSet(endo=endo_polys, epi=epi_polys)
    masks = contour_masks(contours, (cfg.n_sa, cfg.rows, cfg.cols))
    myo = masks.myocardium

    # Paint, noise and store each slice, SA block first (the noise order).
    true_poses = [_sa_pose(cfg, k) for k in range(cfg.n_sa)]
    true_poses += [_la_pose(cfg, view) for view in LA_VIEWS]
    slices, infarct_masks = [], []
    for k, pose in enumerate(true_poses):
        sa = k < cfg.n_sa
        values, infarct = _paint(cfg, _pixel_axes(pose), (masks.endo[k], myo[k]) if sa else None)
        if sa:
            values = values * gains[k]
            infarct_masks.append(infarct)
        noisy = _apply_noise(values, cfg.noise_sigma, rng)
        stored = np.round(np.clip(noisy * INTENSITY_SCALE, 0.0, 65535.0))
        slices.append(SliceImage(pose=pose.translated(trans[k]), pixels=stored))

    dataset = LgeDataset(
        sa_slices=slices[:cfg.n_sa], la_slices=slices[cfg.n_sa:], sa_rois=rois,
        la_roles=list(LA_VIEWS),
        slice_thickness_mm=SLICE_THICKNESS_MM, gap_mm=GAP_MM,
    )
    truth = PhantomTruth(
        true_ipps=np.array([p.ipp for p in true_poses]),
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
