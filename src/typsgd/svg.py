"""Minimal deterministic SVG charts (polylines and scatters).

Good enough for loss curves and embedding scatters without pulling in a
plotting stack; output bytes depend only on the data passed in.
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


class _Canvas:
    def __init__(self, title, config_digest="none", seed=None):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f"<!-- {provenance_line(config_digest, seed)} -->",
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15" '
            f'font-family="sans-serif">{title}</text>',
        ]

    def axes(self, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
        left, right = MARGIN, WIDTH - MARGIN
        top, bottom = MARGIN, HEIGHT - MARGIN
        self.parts.append(
            f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
            'fill="none" stroke="#888"/>'
        )
        for frac in (0.0, 0.5, 1.0):
            xv, yv = x_lo + frac * (x_hi - x_lo), y_lo + frac * (y_hi - y_lo)
            px = left + frac * (right - left)
            py = bottom - frac * (bottom - top)
            self.parts.append(
                f'<text x="{_fmt(px)}" y="{bottom + 18}" text-anchor="middle" '
                f'font-size="11" font-family="sans-serif">{_fmt(xv)}</text>'
            )
            self.parts.append(
                f'<text x="{left - 6}" y="{_fmt(py + 4)}" text-anchor="end" '
                f'font-size="11" font-family="sans-serif">{_fmt(yv)}</text>'
            )
        self.parts.append(
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif">{x_label}</text>'
        )
        self.parts.append(
            f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif" transform="rotate(-90 16 {HEIGHT / 2})">{y_label}</text>'
        )

    def save(self, path):
        self.parts.append("</svg>")
        write_text(path, "\n".join(self.parts) + "\n")


def _project(xs, ys, x_lo, x_hi, y_lo, y_hi):
    left, right = MARGIN, WIDTH - MARGIN
    top, bottom = MARGIN, HEIGHT - MARGIN
    for x, y in zip(xs, ys):
        px = left + (x - x_lo) / (x_hi - x_lo) * (right - left)
        py = bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)
        yield px, py


def line_chart(path, series, title, x_label="iteration", y_label="loss", log_y=False,
               config_digest="none", seed=None):
    """Write a polyline chart. ``series`` is [(label, xs, ys), ...]."""
    floor = 1e-16
    if log_y:
        series = [
            (label, xs, [math.log10(max(y, floor)) for y in ys]) for label, xs, ys in series
        ]
        y_label = f"log10 {y_label}"
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = _bounds(all_x)
    y_lo, y_hi = _bounds(all_y)
    canvas = _Canvas(title, config_digest, seed)
    canvas.axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label)
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in _project(xs, ys, x_lo, x_hi, y_lo, y_hi))
        canvas.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        canvas.parts.append(
            f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 16 + 16 * i}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif" fill="{color}">{label}</text>'
        )
    canvas.save(path)


def scatter_chart(path, groups, title, x_label="x", y_label="y", config_digest="none", seed=None):
    """Write a scatter plot. ``groups`` is [(label, xs, ys), ...]."""
    all_x = [x for _, xs, _ in groups for x in xs]
    all_y = [y for _, _, ys in groups for y in ys]
    x_lo, x_hi = _bounds(all_x)
    y_lo, y_hi = _bounds(all_y)
    canvas = _Canvas(title, config_digest, seed)
    canvas.axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label)
    for i, (label, xs, ys) in enumerate(groups):
        color = PALETTE[i % len(PALETTE)]
        for px, py in _project(xs, ys, x_lo, x_hi, y_lo, y_hi):
            canvas.parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2" fill="{color}" fill-opacity="0.6"/>')
        canvas.parts.append(
            f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 16 + 16 * i}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif" fill="{color}">{label}</text>'
        )
    canvas.save(path)
