"""Dependency-free static SVG charts: scatter, means line, histogram.

Charts are built as plain strings with fixed-precision coordinates, so the
same data always produces byte-identical output.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["histogram_svg", "means_svg", "scatter_svg"]

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 70

POINT_COLOR = "#1f77b4"
LINE_COLOR = "#d62728"
BAR_COLOR = "#1f77b4"
GRID_COLOR = "#d9d9d9"

_PLOT_LEFT = MARGIN_LEFT
_PLOT_RIGHT = WIDTH - MARGIN_RIGHT
_PLOT_TOP = MARGIN_TOP
_PLOT_BOTTOM = HEIGHT - MARGIN_BOTTOM


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("'", "&#39;")
    )


def _axis_range(values: Sequence[float], pad_fraction: float = 0.08):
    # min and max skip a NaN that is not first, so check every value.
    if not all(map(math.isfinite, values)):
        raise ValueError("cannot plot non-finite values")
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span == 0.0:
        pad = 0.5 if hi == 0.0 else abs(hi) * 0.5
    else:
        pad = span * pad_fraction
    return lo - pad, hi + pad


def _scale(lo: float, hi: float, px_lo: float, px_hi: float):
    def to_px(v: float) -> float:
        return px_lo + (v - lo) / (hi - lo) * (px_hi - px_lo)

    return to_px


def _frame(title: str, x_label: str, y_label: str, x_rng, y_rng):
    """The chart's opening lines (canvas, title, grid, axes, labels) and its
    data-to-pixel scales: (lines, x_px, y_px)."""
    x_px = _scale(x_rng[0], x_rng[1], _PLOT_LEFT, _PLOT_RIGHT)
    y_px = _scale(y_rng[0], y_rng[1], _PLOT_BOTTOM, _PLOT_TOP)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-size="18" font-family="Arial">{_escape(title)}</text>',
    ]
    ticks = 5
    for i in range(ticks + 1):
        vx = x_rng[0] + (x_rng[1] - x_rng[0]) * i / ticks
        vy = y_rng[0] + (y_rng[1] - y_rng[0]) * i / ticks
        px = x_px(vx)
        py = y_px(vy)
        lines.append(
            f'<line x1="{_PLOT_LEFT}" y1="{py:.2f}" x2="{_PLOT_RIGHT}" '
            f'y2="{py:.2f}" stroke="{GRID_COLOR}" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_PLOT_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="Arial">{vy:.3g}</text>'
        )
        lines.append(
            f'<line x1="{px:.2f}" y1="{_PLOT_BOTTOM}" x2="{px:.2f}" '
            f'y2="{_PLOT_BOTTOM + 5}" stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{px:.2f}" y="{_PLOT_BOTTOM + 22}" '
            f'text-anchor="middle" font-size="12" font-family="Arial">'
            f"{vx:.3g}</text>"
        )
    lines.append(
        f'<line x1="{_PLOT_LEFT}" y1="{_PLOT_BOTTOM}" x2="{_PLOT_RIGHT}" '
        f'y2="{_PLOT_BOTTOM}" stroke="#000000" stroke-width="2"/>'
    )
    lines.append(
        f'<line x1="{_PLOT_LEFT}" y1="{_PLOT_TOP}" x2="{_PLOT_LEFT}" '
        f'y2="{_PLOT_BOTTOM}" stroke="#000000" stroke-width="2"/>'
    )
    lines.append(
        f'<text x="{(_PLOT_LEFT + _PLOT_RIGHT) / 2:.1f}" '
        f'y="{HEIGHT - 18}" text-anchor="middle" font-size="14" '
        f'font-family="Arial">{_escape(x_label)}</text>'
    )
    lines.append(
        f'<text x="20" y="{(_PLOT_TOP + _PLOT_BOTTOM) / 2:.1f}" '
        f'text-anchor="middle" font-size="14" font-family="Arial" '
        f'transform="rotate(-90 20 {(_PLOT_TOP + _PLOT_BOTTOM) / 2:.1f})">'
        f"{_escape(y_label)}</text>"
    )
    return lines, x_px, y_px


def _finish(lines: list[str]) -> str:
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _check_points(points) -> list[tuple[float, float]]:
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("nothing to plot")
    return pts


def scatter_svg(
    points: Sequence[tuple[float, float]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """One dot per (x, y) pair."""
    pts = _check_points(points)
    x_rng = _axis_range([p[0] for p in pts])
    y_rng = _axis_range([p[1] for p in pts])
    lines, x_px, y_px = _frame(title, x_label, y_label, x_rng, y_rng)
    for x, y in pts:
        lines.append(
            f'<circle cx="{x_px(x):.2f}" cy="{y_px(y):.2f}" r="3" '
            f'fill="{POINT_COLOR}" fill-opacity="0.75"/>'
        )
    return _finish(lines)


def means_svg(
    points: Sequence[tuple[float, float]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """A line through the points in x order, with a marker per point."""
    pts = sorted(_check_points(points))
    x_rng = _axis_range([p[0] for p in pts])
    y_rng = _axis_range([p[1] for p in pts])
    lines, x_px, y_px = _frame(title, x_label, y_label, x_rng, y_rng)
    if len(pts) > 1:
        path = " ".join(f"{x_px(x):.2f},{y_px(y):.2f}" for x, y in pts)
        lines.append(
            f'<polyline fill="none" stroke="{LINE_COLOR}" '
            f'stroke-width="2" points="{path}"/>'
        )
    for x, y in pts:
        lines.append(
            f'<circle cx="{x_px(x):.2f}" cy="{y_px(y):.2f}" r="4" '
            f'fill="{LINE_COLOR}"/>'
        )
    return _finish(lines)


def histogram_svg(
    bars: Sequence[tuple[float, int]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """One vertical bar per (x, count) pair; counts start at zero."""
    data = sorted((float(x), int(c)) for x, c in bars)
    if not data:
        raise ValueError("nothing to plot")
    if any(c < 0 for _, c in data):
        raise ValueError("counts must be >= 0")
    x_rng = _axis_range([x for x, _ in data], pad_fraction=0.15)
    y_rng = (0.0, max(max(c for _, c in data), 1) * 1.05)
    lines, x_px, y_px = _frame(title, x_label, y_label, x_rng, y_rng)
    gaps = [b[0] - a[0] for a, b in zip(data, data[1:]) if b[0] > a[0]]
    if gaps:
        bar_w = (x_px(x_rng[0] + min(gaps)) - x_px(x_rng[0])) * 0.8
    else:
        bar_w = (_PLOT_RIGHT - _PLOT_LEFT) * 0.2
    for x, count in data:
        top = y_px(float(count))
        left = x_px(x) - bar_w / 2
        lines.append(
            f'<rect x="{left:.2f}" y="{top:.2f}" width="{bar_w:.2f}" '
            f'height="{_PLOT_BOTTOM - top:.2f}" fill="{BAR_COLOR}" '
            f'stroke="#000000" stroke-width="0.5"/>'
        )
    return _finish(lines)
