"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: the output must be byte-stable across runs and
structurally predictable (exactly one <polyline> per data series, a
viewBox, no external references), which rules out plotting libraries
that embed generated ids or render lines as paths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_WIDTH = 800
_PANEL_HEIGHT = 300
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 42
_FLOAT_MAX = sys.float_info.max


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


def _axis(values, start, end):
    """One axis over values as (ticks, to_pixel): the padded range's low
    end, middle and high end, and the map of that range onto start..end.
    The pad is 5% of the span (of |value| for one value), or 1 where that
    rounds to 0, and the range is clamped to +-the largest double; the map
    works on halves, so the span it divides by is finite and nonzero."""
    lo, hi = min(values), max(values)
    pad = (hi - lo if lo != hi else abs(lo)) * 0.05 or 1.0
    lo, hi = max(lo - pad, -_FLOAT_MAX), min(hi + pad, _FLOAT_MAX)
    half_span = hi / 2 - lo / 2

    def to_pixel(v):
        return start + (v / 2 - lo / 2) / half_span * (end - start)

    return (lo, lo + half_span, hi), to_pixel


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
        series_pts = [_finite_points(s) for s in panel.series]
        all_pts = [pt for pts in series_pts for pt in pts]
        if not all_pts:
            out.append(
                f'<text x="{plot_x0}" y="{plot_y0}">no finite data</text>'
            )
            continue
        x_ticks, x_px = _axis([x for x, _ in all_pts], plot_x0, plot_x1)
        y_ticks, y_px = _axis([y for _, y in all_pts], plot_y1, plot_y0)
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
        for xv, yv in zip(x_ticks, y_ticks):
            out.append(
                f'<text x="{_fmt(x_px(xv))}" y="{plot_y1 + 16}" text-anchor="middle">'
                f"{_escape(_tick_label(xv))}</text>"
            )
            out.append(
                f'<text x="{plot_x0 - 6}" y="{_fmt(y_px(yv) + 4)}" text-anchor="end">'
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
        for s_idx, (series, pts) in enumerate(zip(panel.series, series_pts)):
            color = _COLORS[s_idx % len(_COLORS)]
            coords = " ".join(f"{_fmt(x_px(x))},{_fmt(y_px(y))}" for x, y in pts)
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
