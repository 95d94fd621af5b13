"""Dependency-free SVG line charts for forecast-vs-measurement overlays.

Deterministic output: same data, same bytes.
"""

from __future__ import annotations

from datetime import datetime, timezone
from html import escape   # xml.sax.saxutils would import urllib.request: ~25 ms

import numpy as np

WIDTH, HEIGHT = 960, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 46

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_values(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min((s for s in (1, 2, 5, 10) if s * mag >= raw), default=10) * mag
    first = np.ceil(lo / step) * step
    return [float(first + i * step) for i in range(int((hi - first) / step) + 1)]


def line_plot_svg(path, x: np.ndarray, series: list[dict], band: dict | None = None,
                  title: str = "") -> None:
    """Write a line chart.

    x: epoch seconds shared by all traces (traces may be tails of it).
    series: [{'label', 'values', 'color'?}], values aligned to the tail of x.
    band: optional {'lower', 'upper', 'label'} shaded region, tail-aligned.
    """
    x = np.asarray(x, dtype=np.float64)
    ys = [np.asarray(s["values"], dtype=np.float64) for s in series]
    # frame on the first (reference) trace and the band; diverging model
    # traces run off-chart instead of destroying the scale
    framed = [ys[0]] + ([np.asarray(band["lower"]), np.asarray(band["upper"])]
                        if band else [])
    all_y = np.concatenate(framed)
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    pad = 0.08 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(x[0]), float(x[-1]) if len(x) > 1 else float(x[0]) + 1.0

    px_w = WIDTH - MARGIN_L - MARGIN_R
    px_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v):
        # clamp so off-scale values keep renderable coordinates
        py = MARGIN_T + (y_hi - v) / (y_hi - y_lo) * px_h
        return min(max(py, -1e5), 1e5)

    def polyline_points(xs, vals):
        return " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(xs, vals))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="20" font-size="14">{escape(title)}</text>',
    ]

    for yt in _tick_values(y_lo, y_hi):
        py = sy(yt)
        parts.append(f'<line x1="{MARGIN_L}" y1="{_fmt(py)}" x2="{WIDTH - MARGIN_R}" '
                     f'y2="{_fmt(py)}" stroke="#dddddd"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" '
                     f'text-anchor="end">{yt:g}</text>')
    n_xticks = 6
    for i in range(n_xticks):
        xv = x_lo + (x_hi - x_lo) * i / (n_xticks - 1)
        label = datetime.fromtimestamp(xv, tz=timezone.utc).strftime("%m-%d %H:%M")
        parts.append(f'<line x1="{_fmt(sx(xv))}" y1="{MARGIN_T + px_h}" '
                     f'x2="{_fmt(sx(xv))}" y2="{MARGIN_T + px_h + 5}" stroke="#333333"/>')
        parts.append(f'<text x="{_fmt(sx(xv))}" y="{MARGIN_T + px_h + 20}" '
                     f'text-anchor="middle">{label}</text>')
    parts.append(f'<text x="16" y="{MARGIN_T + px_h / 2:.0f}" '
                 f'transform="rotate(-90 16 {MARGIN_T + px_h / 2:.0f})" '
                 f'text-anchor="middle">top-oil [degC]</text>')

    if band is not None:
        lower = np.asarray(band["lower"], dtype=np.float64)
        upper = np.asarray(band["upper"], dtype=np.float64)
        bx = x[len(x) - len(lower):]
        pts = (polyline_points(bx, upper) + " "
               + polyline_points(bx[::-1], lower[::-1]))
        parts.append(f'<polygon points="{pts}" fill="#1f77b4" fill-opacity="0.18" '
                     'stroke="none"/>')

    legend_y, lx = MARGIN_T + 6, WIDTH - MARGIN_R - 170
    for i, (s, vals) in enumerate(zip(series, ys)):
        color = s.get("color") or PALETTE[i % len(PALETTE)]
        xs = x[len(x) - len(vals):]
        parts.append(f'<polyline points="{polyline_points(xs, vals)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.2"/>')
        parts.append(f'<line x1="{lx}" y1="{legend_y + 16 * i}" x2="{lx + 22}" '
                     f'y2="{legend_y + 16 * i}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{legend_y + 16 * i + 4}">{escape(s["label"])}</text>')
    if band is not None and band.get("label"):
        i, label = len(series), escape(band["label"])
        parts.append(f'<rect x="{lx}" y="{legend_y + 16 * i - 6}" width="22" height="10" '
                     'fill="#1f77b4" fill-opacity="0.18"/>')
        parts.append(f'<text x="{lx + 28}" y="{legend_y + 16 * i + 4}">{label}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
