"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: the output must be byte-stable across runs and
structurally predictable (exactly one <polyline> per data series, a
viewBox, no external references), which rules out plotting libraries
that embed generated ids or render lines as paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_WIDTH = 800
_PANEL_HEIGHT = 300
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 42


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple
    ys: tuple


@dataclass(frozen=True)
class Panel:
    title: str
    x_label: str
    y_label: str
    series: tuple


def _finite_points(series):
    pts = []
    for x, y in zip(series.xs, series.ys):
        if math.isfinite(x) and math.isfinite(y):
            pts.append((float(x), float(y)))
    return pts


def _axis_range(values):
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.05
    else:
        pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    """&, > and < as XML entities, in that order (as xml.sax.saxutils.escape
    does without extra entities, whose import pulls in urllib and email)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def render_chart(panels) -> str:
    """Render stacked line-chart panels as a standalone SVG document."""
    total_h = _PANEL_HEIGHT * len(panels)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {total_h}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{total_h}" fill="white"/>',
    ]
    for p_idx, panel in enumerate(panels):
        top = p_idx * _PANEL_HEIGHT
        plot_x0 = _MARGIN_LEFT
        plot_x1 = _WIDTH - _MARGIN_RIGHT
        plot_y0 = top + _MARGIN_TOP
        plot_y1 = top + _PANEL_HEIGHT - _MARGIN_BOTTOM
        all_pts = [pt for s in panel.series for pt in _finite_points(s)]
        if not all_pts:
            out.append(
                f'<text x="{plot_x0}" y="{plot_y0}">no finite data</text>'
            )
            continue
        x_lo, x_hi = _axis_range([pt[0] for pt in all_pts])
        y_lo, y_hi = _axis_range([pt[1] for pt in all_pts])

        def to_px(x, y):
            fx = (x - x_lo) / (x_hi - x_lo)
            fy = (y - y_lo) / (y_hi - y_lo)
            return (
                plot_x0 + fx * (plot_x1 - plot_x0),
                plot_y1 - fy * (plot_y1 - plot_y0),
            )

        out.append(
            f'<text x="{plot_x0}" y="{top + 18}" font-size="14">'
            f"{_escape(panel.title)}</text>"
        )
        axis = f'stroke="black" stroke-width="1"'
        out.append(
            f'<line x1="{plot_x0}" y1="{plot_y1}" x2="{plot_x1}" y2="{plot_y1}" {axis}/>'
        )
        out.append(
            f'<line x1="{plot_x0}" y1="{plot_y0}" x2="{plot_x0}" y2="{plot_y1}" {axis}/>'
        )
        for frac in (0.0, 0.5, 1.0):
            xv = x_lo + frac * (x_hi - x_lo)
            yv = y_lo + frac * (y_hi - y_lo)
            px, _ = to_px(xv, y_lo)
            _, py = to_px(x_lo, yv)
            out.append(
                f'<text x="{_fmt(px)}" y="{plot_y1 + 16}" text-anchor="middle">'
                f"{_escape(_tick_label(xv))}</text>"
            )
            out.append(
                f'<text x="{plot_x0 - 6}" y="{_fmt(py + 4)}" text-anchor="end">'
                f"{_escape(_tick_label(yv))}</text>"
            )
        out.append(
            f'<text x="{(plot_x0 + plot_x1) / 2:.0f}" y="{plot_y1 + 34}" '
            f'text-anchor="middle">{_escape(panel.x_label)}</text>'
        )
        out.append(
            f'<text x="16" y="{(plot_y0 + plot_y1) / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(plot_y0 + plot_y1) / 2:.0f})">'
            f"{_escape(panel.y_label)}</text>"
        )
        for s_idx, series in enumerate(panel.series):
            color = _COLORS[s_idx % len(_COLORS)]
            pts = _finite_points(series)
            coords = " ".join(
                f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(x, y) for x, y in pts)
            )
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"/>'
            )
            out.append(
                f'<text x="{plot_x1 - 150}" y="{plot_y0 + 14 + 14 * s_idx}" '
                f'fill="{color}">{_escape(series.label)}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
