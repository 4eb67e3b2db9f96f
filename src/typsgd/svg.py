"""Minimal deterministic SVG charts (log-scale polylines and scatters).

Good enough for loss curves and embedding scatters without pulling in a
plotting stack; both kinds go through one writer, and output bytes depend
only on the data passed in.
"""

from __future__ import annotations

import math

from ._csvio import provenance_line, write_text

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT, MARGIN = 640, 420, 56


def _bounds(values):
    lo, hi = min(values), max(values)
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _write(path, series, title, x_label, y_label, config_digest, mark):
    """Write the chart: frame, title, three ticks per axis, axis labels, each series' marks and legend entry.

    ``series`` is [(label, xs, ys), ...]; ``mark(color, points)`` gives the SVG elements of one
    series from its (px, py) pixel positions.
    """
    left, right, top, bottom = MARGIN, WIDTH - MARGIN, MARGIN, HEIGHT - MARGIN
    x_lo, x_hi = _bounds([x for _, xs, _ in series for x in xs])
    y_lo, y_hi = _bounds([y for _, _, ys in series for y in ys])
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- {provenance_line(config_digest)} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" fill="none" stroke="#888"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv, yv = x_lo + frac * (x_hi - x_lo), y_lo + frac * (y_hi - y_lo)
        px = left + frac * (right - left)
        py = bottom - frac * (bottom - top)
        parts.append(
            f'<text x="{_fmt(px)}" y="{bottom + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {HEIGHT / 2})">{y_label}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = [
            (left + (x - x_lo) / (x_hi - x_lo) * (right - left), bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top))
            for x, y in zip(xs, ys)
        ]
        parts.extend(mark(color, points))
        parts.append(
            f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 16 + 16 * i}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


def _polyline(color, points):
    pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
    return [f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>']


def _circles(color, points):
    return [f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2" fill="{color}" fill-opacity="0.6"/>' for px, py in points]


def line_chart(path, series, title, y_label="loss", config_digest="none"):
    """Write a polyline chart of log10 y (y floored at 1e-16) against iteration. ``series`` is [(label, xs, ys), ...]."""
    floor = 1e-16
    series = [(label, xs, [math.log10(max(y, floor)) for y in ys]) for label, xs, ys in series]
    _write(path, series, title, "iteration", f"log10 {y_label}", config_digest, _polyline)


def scatter_chart(path, groups, title, config_digest="none"):
    """Write a scatter plot of y against x. ``groups`` is [(label, xs, ys), ...]."""
    _write(path, groups, title, "x", "y", config_digest, _circles)
