"""Agreement metrics between automatic and reference results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class BlandAltmanStats:
    mean_diff: float
    sd_diff: float
    loa_low: float
    loa_high: float


def dice(a, b) -> float:
    """Dice overlap 2|a&b| / (|a|+|b|); two empty sets agree perfectly (1)."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ParameterError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = int(a.sum())
    nb = int(b.sum())
    if na + nb == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / (na + nb)


def bland_altman(pairs) -> BlandAltmanStats:
    """Agreement statistics for (automatic, manual) value pairs.

    Differences are automatic minus manual; limits of agreement are the mean
    difference plus/minus 1.96 sample standard deviations.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError("pairs must be a sequence of (automatic, manual) values")
    if arr.shape[0] < 2:
        raise ParameterError("need at least 2 pairs")
    if not np.isfinite(arr).all():
        raise ParameterError("pairs must be finite")
    diffs = arr[:, 0] - arr[:, 1]
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    return BlandAltmanStats(
        mean_diff=mean, sd_diff=sd,
        loa_low=mean - 1.96 * sd, loa_high=mean + 1.96 * sd,
    )
