"""Objective over-smoothness metrics over spectrogram grids.

Two metrics: the variance of the absolute Laplacian-filter response (higher
means sharper) and windowed structural similarity between two grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, as_grid, reflect_indices

# 3x3 Laplacian mask; rows sum to zero so constant grids respond with zero.
LAPLACIAN_MASK = np.array(
    [[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]]
) / 6.0

# SSIM stabilization constants (0.01**2 and 0.03**2) for unit dynamic range.
SSIM_C1, SSIM_C2 = 0.0001, 0.0009


@dataclass(frozen=True)
class SsimConfig:
    """Window and dynamic range for SSIM.

    ``lo``/``hi`` give the dynamic range used to normalize inputs to [0, 1]
    before any statistics; when left as None the joint min/max of the two
    grids is used. ``SSIM_C1`` and ``SSIM_C2`` presuppose unit dynamic
    range, which is why the normalization is not optional.
    """

    window: int = 11
    lo: float | None = None
    hi: float | None = None
    window_kind: str = "box"  # "box" or "gaussian"
    gaussian_sigma: float = 1.5

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ContractError("window side must be odd and >= 3")
        if (self.lo is None) != (self.hi is None):
            raise ContractError("set both lo and hi, or neither")
        if self.lo is not None and not self.lo < self.hi:
            raise ContractError(f"degenerate dynamic range [{self.lo}, {self.hi}]")
        if self.window_kind not in ("box", "gaussian"):
            raise ContractError(f"unknown window kind {self.window_kind!r}")


def laplacian_response(spec) -> np.ndarray:
    """Valid (no padding) cross-correlation with the 3x3 Laplacian mask.

    Input must be at least 3x3; output shape is (T-2, F-2).
    """
    grid = as_grid(spec)
    t, f = grid.shape
    if t < 3 or f < 3:
        raise ContractError(f"grid must be at least 3x3, got {t}x{f}")
    out = np.zeros((t - 2, f - 2))
    for di in range(3):
        for dj in range(3):
            w = LAPLACIAN_MASK[di, dj]
            if w != 0.0:
                out += w * grid[di : di + t - 2, dj : dj + f - 2]
    return out


def var_laplacian(spec) -> float:
    """Variance of the absolute Laplacian response.

    Normalized by the response cell count so values are comparable across
    grid sizes. Zero for any constant grid; grows as the grid gets sharper.
    """
    response = np.abs(laplacian_response(spec))
    return float(np.mean((response - response.mean()) ** 2))


def _window_kernel(cfg: SsimConfig) -> np.ndarray:
    w = cfg.window
    if cfg.window_kind == "box":
        return np.full(w, 1.0 / w)
    offsets = np.arange(w) - w // 2
    k1 = np.exp(-0.5 * (offsets / cfg.gaussian_sigma) ** 2)
    return k1 / k1.sum()


def _window_means(planes: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """Window means of a (P, T, F) stack of planes, reflect-padded at edges.

    The window is separable, so each plane gets one 1-D pass along T and one
    along F, each summing shifted slices. Planes go one at a time so that a
    plane's intermediates stay in cache.
    """
    _, t, f = planes.shape
    pad = len(k1) // 2
    rows = reflect_indices(t, -pad, t + pad)
    cols = reflect_indices(f, -pad, f + pad)
    out = np.empty_like(planes)
    padded = planes.take(rows, axis=1).take(cols, axis=2)
    for plane, mean in zip(padded, out):
        along_t = k1[0] * plane[:t]
        for i in range(1, len(k1)):
            along_t += k1[i] * plane[i:i + t]
        np.multiply(along_t[:, :f], k1[0], out=mean)
        for i in range(1, len(k1)):
            mean += k1[i] * along_t[:, i:i + f]
    return out


def ssim_map(a, b, cfg: SsimConfig | None = None) -> np.ndarray:
    """Per-cell SSIM between two equally shaped grids.

    Both grids are first mapped to [0, 1] using the configured dynamic range
    (default: their joint min/max), then windowed means, variances, and the
    covariance feed the two-factor similarity formula. Cells lie in [-1, 1];
    negative covariance can make cells negative and no clamping is applied.
    """
    cfg = cfg or SsimConfig()
    ga, gb = as_grid(a), as_grid(b)
    if ga.shape != gb.shape:
        raise ContractError(f"shape mismatch {ga.shape} vs {gb.shape}")
    if cfg.lo is None:
        lo = min(ga.min(), gb.min())
        hi = max(ga.max(), gb.max())
    else:
        lo, hi = cfg.lo, cfg.hi
    span = hi - lo
    if span <= 0.0:
        # Joint range collapses only when both grids are the same constant.
        span = 1.0
    ga = (ga - lo) / span
    gb = (gb - lo) / span

    mu_a, mu_b, sq_a, sq_b, ab = _window_means(
        np.stack([ga, gb, ga * ga, gb * gb, ga * gb]), _window_kernel(cfg))
    var_a = sq_a - mu_a * mu_a
    var_b = sq_b - mu_b * mu_b
    cov = ab - mu_a * mu_b
    luminance = (2.0 * mu_a * mu_b + SSIM_C1) / (mu_a**2 + mu_b**2 + SSIM_C1)
    structure = (2.0 * cov + SSIM_C2) / (var_a + var_b + SSIM_C2)
    return luminance * structure


def ssim(a, b, cfg: SsimConfig | None = None) -> float:
    """Mean of :func:`ssim_map`; 1.0 exactly when the grids are identical."""
    return float(np.mean(ssim_map(a, b, cfg)))
