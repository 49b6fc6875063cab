"""Vector-graphics outputs: 16-segment bull's eye and Bland-Altman plots.

Plain SVG text with fixed number formatting, so identical inputs always
produce identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .aha import SEGMENTS_PER_LEVEL
from .errors import ParameterError
from .metrics import BlandAltmanStats

_HOT_STOPS = (
    (0.0, (10, 10, 10)),
    (0.35, (180, 30, 20)),
    (0.7, (250, 160, 30)),
    (1.0, (255, 250, 230)),
)


def _hot_color(fraction: float) -> str:
    f = min(max(fraction, 0.0), 1.0)
    for (f0, c0), (f1, c1) in zip(_HOT_STOPS, _HOT_STOPS[1:]):
        if f <= f1:
            t = 0.0 if f1 == f0 else (f - f0) / (f1 - f0)
            rgb = tuple(int(round(a + t * (b - a))) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#ffffff"


def _sector_path(cx, cy, r_in, r_out, a0_deg, a1_deg) -> str:
    """Annular sector path; angle 0 points up, growing clockwise on screen."""
    def pt(radius, ang_deg):
        ang = np.radians(ang_deg)
        return cx + radius * np.sin(ang), cy - radius * np.cos(ang)

    x0, y0 = pt(r_out, a0_deg)
    x1, y1 = pt(r_out, a1_deg)
    x2, y2 = pt(r_in, a1_deg)
    x3, y3 = pt(r_in, a0_deg)
    large = 1 if (a1_deg - a0_deg) % 360.0 > 180.0 else 0
    return (
        f"M {x0:.3f} {y0:.3f} "
        f"A {r_out:.3f} {r_out:.3f} 0 {large} 1 {x1:.3f} {y1:.3f} "
        f"L {x2:.3f} {y2:.3f} "
        f"A {r_in:.3f} {r_in:.3f} 0 {large} 0 {x3:.3f} {y3:.3f} Z"
    )


def bullseye_svg(segment_percent, path, reference_angle_deg: float = 0.0) -> Path:
    """Bull's eye of the 16 segment values (basal ring outside, apex inside)."""
    values = np.asarray(segment_percent, dtype=float)
    if values.shape != (16,):
        raise ParameterError("expected 16 segment values")
    size = 360.0
    cx = cy = size / 2.0
    rings = {"basal": (120.0, 160.0), "mid": (80.0, 120.0), "apical": (40.0, 80.0)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    for level, (r_in, r_out) in rings.items():
        first, last = SEGMENTS_PER_LEVEL[level]
        n_sectors = last - first + 1
        span = 360.0 / n_sectors
        for s in range(n_sectors):
            seg_id = first + s
            a0 = reference_angle_deg + s * span
            a1 = a0 + span
            color = _hot_color(values[seg_id - 1] / 100.0)
            d = _sector_path(cx, cy, r_in, r_out, a0, a1)
            parts.append(
                f'<path d="{d}" fill="{color}" stroke="black" stroke-width="1"/>'
            )
            mid_ang = np.radians(a0 + span / 2.0)
            r_mid = (r_in + r_out) / 2.0
            tx = cx + r_mid * np.sin(mid_ang)
            ty = cy - r_mid * np.cos(mid_ang)
            parts.append(
                f'<text x="{tx:.1f}" y="{ty:.1f}" font-size="11" fill="#00aaff" '
                f'text-anchor="middle" dominant-baseline="middle">'
                f"{seg_id}:{values[seg_id - 1]:.0f}</text>"
            )
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path


def bland_altman_csv(pairs, path) -> Path:
    arr = np.asarray(pairs, dtype=float)
    lines = ["mean,difference"]
    for auto, manual in arr:
        lines.append(f"{(auto + manual) / 2.0:.6f},{auto - manual:.6f}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def bland_altman_svg(pairs, stats: BlandAltmanStats, path) -> Path:
    """Scatter of per-pair mean vs difference with mean and limit lines."""
    arr = np.asarray(pairs, dtype=float)
    means = (arr[:, 0] + arr[:, 1]) / 2.0
    diffs = arr[:, 0] - arr[:, 1]
    w, h, margin = 420.0, 300.0, 40.0
    x_lo = float(min(means.min(), 0.0))
    x_hi = float(max(means.max(), 1e-9))
    y_vals = np.concatenate([diffs, [stats.loa_low, stats.loa_high]])
    y_lo = float(y_vals.min()) - 0.5
    y_hi = float(y_vals.max()) + 0.5

    def sx(x):
        return margin + (x - x_lo) / max(x_hi - x_lo, 1e-9) * (w - 2 * margin)

    def sy(y):
        return h - margin - (y - y_lo) / max(y_hi - y_lo, 1e-9) * (h - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect width="{w:.0f}" height="{h:.0f}" fill="white"/>',
    ]
    for y, dash, label in (
        (stats.mean_diff, "", "mean"),
        (stats.loa_low, "6,4", "-1.96 SD"),
        (stats.loa_high, "6,4", "+1.96 SD"),
    ):
        parts.append(
            f'<line x1="{sx(x_lo):.2f}" y1="{sy(y):.2f}" x2="{sx(x_hi):.2f}" '
            f'y2="{sy(y):.2f}" stroke="#555555" stroke-width="1" '
            f'stroke-dasharray="{dash}"/>'
        )
        parts.append(
            f'<text x="{sx(x_hi) + 2:.2f}" y="{sy(y) + 3:.2f}" font-size="10" '
            f'fill="#555555">{label} {y:.2f}</text>'
        )
    for x, y in zip(means, diffs):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f5fa8"/>'
        )
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path
