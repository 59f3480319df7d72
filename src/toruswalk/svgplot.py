"""Minimal static SVG log-log chart for scan reports.  No dependencies,
deterministic output byte for byte."""

from __future__ import annotations

import math

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50

# (colour, stroke width, dash pattern or None) of each series
_SERIES_STYLE = {
    "D": ("#1f77b4", "2", None),
    "lower": ("#2ca02c", "1.5", "6,3"),
    "upper": ("#d62728", "1.5", "6,3"),
    "etk": ("#9467bd", "1.5", "2,3"),
}


def _fmt(v: float) -> str:
    return "%.6g" % v


def loglog_svg(series: dict) -> str:
    """Render named (x, y) series with positive coordinates on log-log axes.

    series maps a name from _SERIES_STYLE to a list of (x, y) pairs.  Pairs
    with a None or nonpositive coordinate are dropped, and a series left
    with no pair is neither drawn nor named in the legend.
    """
    series = {name: [(x, y) for x, y in data if None not in (x, y) and x > 0 and y > 0]
              for name, data in series.items()}
    series = {name: data for name, data in series.items() if data}
    if not series:
        raise ValueError("nothing to plot")
    lx = [math.log10(x) for data in series.values() for x, _ in data]
    ly = [math.log10(y) for data in series.values() for _, y in data]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def sx(x):
        return _ML + (math.log10(x) - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (math.log10(y) - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>',
    ]
    for name, data in series.items():
        color, width, dash = _SERIES_STYLE[name]
        dashes = f' stroke-dasharray="{dash}"' if dash else ""
        path = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in data)
        parts.append(
            f'<polyline points="{path}" stroke="{color}" stroke-width="{width}" '
            f'fill="none"{dashes}/>'
        )
        for x, y in data:
            parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.5" fill="{color}"/>')
    parts.append(
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">log10 k '
        f"[{_fmt(x0)} .. {_fmt(x1)}]</text>"
    )
    parts.append(
        f'<text x="16" y="{_H // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {_H // 2})">log10 discrepancy '
        f"[{_fmt(y0)} .. {_fmt(y1)}]</text>"
    )
    legend_y = _MT + 16
    for name in series:
        parts.append(
            f'<text x="{_W - _MR - 90}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="12" fill="{_SERIES_STYLE[name][0]}">{name}</text>'
        )
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

