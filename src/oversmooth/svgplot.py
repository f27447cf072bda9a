"""Hand-emitted SVG figures: line plots, heatmaps, bar charts.

No plotting dependency; the output is plain XML that is byte-stable for
fixed inputs, so figures can be diffed in tests. Heatmaps use a fixed
five-stop color ramp (dark blue -> teal -> yellow) interpolated linearly,
and draw their cells as one embedded PNG inside a vector frame and colorbar;
the PNG's compressed bytes are stable for one zlib build.
"""

from __future__ import annotations

import base64
import struct
import zlib

import numpy as np

from ._version import __version__
from .core import ContractError

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 120, 50, 60
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                 "#8c564b", "#17becf", "#7f7f7f")

RAMP = (
    (0.00, (20, 20, 70)),
    (0.25, (40, 90, 160)),
    (0.50, (30, 160, 140)),
    (0.75, (220, 200, 60)),
    (1.00, (250, 250, 210)),
)
NON_FINITE_COLOR = "#ff00ff"  # off the ramp: NaN and +-inf heatmap cells


def ramp_rgb(values) -> np.ndarray:
    """Ramp colours of ``values`` in C order, as an (n, 3) uint8 array.

    Values are clamped to [0, 1]; NaN takes the top stop's colour. Channels
    round half to even, as Python's ``round`` does.
    """
    x = np.clip(np.asarray(values, dtype=float).ravel(), 0.0, 1.0)
    x = np.nan_to_num(x, nan=1.0)
    stops, stop_rgb = (np.array(v, dtype=float) for v in zip(*RAMP))
    # Segment i spans stops i-1..i and holds x0 < x <= x1 (x = 0 in the first).
    i = np.clip(np.searchsorted(stops, x), 1, len(RAMP) - 1)
    x0, x1 = stops[i - 1], stops[i]
    c0, c1 = stop_rgb[i - 1], stop_rgb[i]
    w = ((x - x0) / (x1 - x0))[:, None]
    return np.rint(c0 + w * (c1 - c0)).astype(np.uint8)


def ramp_colors(values) -> list[str]:
    """``ramp_rgb`` of ``values`` as ``#rrggbb`` strings."""
    return [f"#{r:02x}{g:02x}{b:02x}" for r, g, b in ramp_rgb(values).tolist()]


def _png(rgb: np.ndarray) -> bytes:
    """8-bit RGB PNG of an (h, w, 3) uint8 array, top row first, filter 0."""
    h, w, _ = rgb.shape
    rows = np.concatenate([np.zeros((h, 1), np.uint8), rgb.reshape(h, -1)], 1)
    chunks = ((b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)),
              (b"IDAT", zlib.compress(rows.tobytes(), 1)), (b"IEND", b""))
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        struct.pack(">I", len(data)) + tag + data
        + struct.pack(">I", zlib.crc32(tag + data)) for tag, data in chunks)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    # XML character data: "&" goes first so the entities are not re-escaped.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]


def _footer() -> list[str]:
    return [
        f'<text x="{WIDTH - 8}" y="{HEIGHT - 8}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10" fill="#666">'
        f'oversmooth {__version__}</text>',
        "</svg>",
    ]


def _axes(xlabel: str, ylabel: str, x_lo, x_hi, y_lo, y_hi) -> list[str]:
    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" '
        f'height="{PLOT_H}" fill="none" stroke="black"/>',
        f'<text x="{MARGIN_L + PLOT_W / 2}" y="{HEIGHT - 16}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{_escape(xlabel)}</text>",
        f'<text x="18" y="{MARGIN_T + PLOT_H / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_T + PLOT_H / 2})">'
        f"{_escape(ylabel)}</text>",
    ]
    for i in range(5):
        frac = i / 4
        x = MARGIN_L + frac * PLOT_W
        y = MARGIN_T + PLOT_H - frac * PLOT_H
        parts += [
            f'<line x1="{_fmt(x)}" y1="{MARGIN_T + PLOT_H}" x2="{_fmt(x)}" '
            f'y2="{MARGIN_T + PLOT_H + 5}" stroke="black"/>',
            f'<text x="{_fmt(x)}" y="{MARGIN_T + PLOT_H + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f"{_fmt(x_lo + frac * (x_hi - x_lo))}</text>",
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
            f'y2="{_fmt(y)}" stroke="black"/>',
            f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">'
            f"{_fmt(y_lo + frac * (y_hi - y_lo))}</text>",
        ]
    return parts


def _legend(entries: list[tuple[str, str]]) -> list[str]:
    parts = []
    x = WIDTH - MARGIN_R + 10
    for i, (label, color) in enumerate(entries):
        y = MARGIN_T + 14 * i
        parts.append(
            f'<rect x="{x}" y="{y}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + 14}" y="{y + 9}" font-family="sans-serif" '
            f'font-size="10">{_escape(label)}</text>'
        )
    return parts


def line_plot(series, title: str, xlabel: str, ylabel: str) -> str:
    """One polyline, named in the legend: ``series`` is (label, xs, ys)."""
    label, xs, ys = series
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    parts = _header(title) + _axes(xlabel, ylabel, x_lo, x_hi, y_lo, y_hi)
    pts = " ".join(
        f"{_fmt(MARGIN_L + (x - x_lo) / (x_hi - x_lo) * PLOT_W)},"
        f"{_fmt(MARGIN_T + PLOT_H - (y - y_lo) / (y_hi - y_lo) * PLOT_H)}"
        for x, y in zip(xs, ys)
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="{SERIES_COLORS[0]}" '
        f'stroke-width="1.5"/>'
    )
    parts += _legend([(label, SERIES_COLORS[0])]) + _footer()
    return "\n".join(parts) + "\n"


def heatmap(matrix, title: str, xlabel: str, ylabel: str) -> str:
    """Each cell is one pixel of a PNG stretched, unsmoothed, over the plot
    area, row 0 at the bottom; the vector colorbar doubles as the legend.
    The ramp spans the finite cells' range; NaN and +-inf cells take
    ``NON_FINITE_COLOR`` and the colorbar states their count."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or 0 in m.shape:
        raise ContractError(f"heatmap needs a non-empty 2-D grid, got {m.shape}")
    finite = np.isfinite(m)
    values = m[finite] if finite.any() else np.zeros(1)
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    rows, cols = m.shape
    rgb = ramp_rgb(np.where(finite, m - lo, 0.0) / span).reshape(rows, cols, 3)
    rgb[~finite] = np.frombuffer(bytes.fromhex(NON_FINITE_COLOR[1:]), np.uint8)
    png = base64.b64encode(_png(rgb[::-1])).decode("ascii")
    parts = _header(title) + _axes(xlabel, ylabel, 0, cols, 0, rows) + [
        f'<image x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" '
        f'height="{PLOT_H}" preserveAspectRatio="none" '
        f'style="image-rendering:pixelated" href="data:image/png;base64,{png}"/>']
    bar_x = WIDTH - MARGIN_R + 20
    parts += [
        f'<rect x="{bar_x}" y="{_fmt(MARGIN_T + PLOT_H - (i + 1) / 32 * PLOT_H)}" '
        f'width="14" height="{_fmt(PLOT_H / 32 + 0.5)}" fill="{color}"/>'
        for i, color in enumerate(ramp_colors(np.arange(32) / 31))
    ] + [
        f'<text x="{bar_x + 18}" y="{MARGIN_T + 10}" font-family="sans-serif" '
        f'font-size="10">{_fmt(hi)}</text>',
        f'<text x="{bar_x + 18}" y="{MARGIN_T + PLOT_H}" '
        f'font-family="sans-serif" font-size="10">{_fmt(lo)}</text>',
    ]
    bad = int(m.size - np.count_nonzero(finite))
    if bad:
        parts.append(
            f'<text x="{bar_x}" y="{MARGIN_T + PLOT_H + 18}" '
            f'font-family="sans-serif" font-size="10" '
            f'fill="{NON_FINITE_COLOR}">{bad} non-finite</text>'
        )
    parts += _footer()
    return "\n".join(parts) + "\n"


def bar_chart(labels, values, title: str, ylabel: str) -> str:
    values = [float(v) for v in values]
    y_lo = min(0.0, min(values))
    y_hi = max(values) if max(values) > y_lo else y_lo + 1.0
    parts = _header(title) + _axes("strategy", ylabel, 0, len(values), y_lo, y_hi)
    legend = []
    width = PLOT_W / max(len(values), 1)
    for i, (label, value) in enumerate(zip(labels, values)):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        legend.append((label, color))
        h = (value - y_lo) / (y_hi - y_lo) * PLOT_H
        parts.append(
            f'<rect x="{_fmt(MARGIN_L + i * width + 0.15 * width)}" '
            f'y="{_fmt(MARGIN_T + PLOT_H - h)}" width="{_fmt(0.7 * width)}" '
            f'height="{_fmt(h)}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_L + (i + 0.5) * width)}" '
            f'y="{MARGIN_T + PLOT_H + 30}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_escape(label)}</text>'
        )
    parts += _legend(legend) + _footer()
    return "\n".join(parts) + "\n"
