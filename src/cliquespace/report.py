"""Static SVG scatter of the instance space, written without a plot library.

One circle per instance at its (Z1, Z2) coordinates, colored by the
best-performing solver; the boundary hull as a dashed polyline; a
legend keyed by solver.  The file embeds the usual artifact metadata
as XML comments.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

import numpy as np

from .artifacts import open_whole, svg_meta_lines

WIDTH, HEIGHT = 760, 560
MARGIN = 56
LEGEND_ROW = 20

PALETTE = (
    "#4269d0",
    "#efb118",
    "#ff725c",
    "#6cc5b0",
    "#3ca951",
    "#ff8ab7",
    "#a463f2",
    "#9c6b4e",
    "#97bbf5",
    "#9498a0",
)


def _axis_range(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    pad = (hi - lo) * 0.05 or 1.0
    return lo - pad, hi + pad


def solver_colors(solver_ids) -> dict[str, str]:
    ordered = sorted(set(solver_ids))
    return {sid: PALETTE[i % len(PALETTE)] for i, sid in enumerate(ordered)}


def render_scatter(
    points: np.ndarray,
    labels,
    boundary: np.ndarray,
    path: str | Path,
    meta: dict | None = None,
) -> None:
    """Write the scatter plot; ``labels[i]`` colors ``points[i]``."""
    points = np.asarray(points, dtype=float)
    labels = list(labels)
    if points.shape[0] != len(labels):
        raise ValueError("points and labels are not aligned")
    x_lo, x_hi = _axis_range(points[:, 0])
    y_lo, y_hi = _axis_range(points[:, 1])
    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN

    def sx(x: float) -> float:
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        # SVG y grows downward
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * plot_h

    colors = solver_colors(labels)
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.extend(svg_meta_lines(meta))
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16">'
        "Instance space by best solver</text>"
    )
    out.append(
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>'
    )
    # axis labels and extremes
    out.append(
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle" '
        'font-size="13">Z1</text>'
    )
    out.append(
        f'<text x="16" y="{HEIGHT / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {HEIGHT / 2:.0f})">Z2</text>'
    )
    for value, px in ((x_lo, MARGIN), (x_hi, WIDTH - MARGIN)):
        out.append(
            f'<text x="{px}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
            f'font-size="10">{value:.2f}</text>'
        )
    for value, py in ((y_lo, HEIGHT - MARGIN), (y_hi, MARGIN)):
        out.append(
            f'<text x="{MARGIN - 6}" y="{py + 3}" text-anchor="end" '
            f'font-size="10">{value:.2f}</text>'
        )
    if boundary is not None and len(boundary):
        ring = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in boundary)
        out.append(
            f'<polygon points="{ring}" fill="none" stroke="#888" '
            'stroke-dasharray="5 4" stroke-width="1.2"/>'
        )
    for (x, y), label in zip(points, labels):
        out.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" '
            f'fill="{colors[label]}" fill-opacity="0.75" stroke="#333" '
            'stroke-width="0.4"/>'
        )
    lx, ly = WIDTH - MARGIN - 150, MARGIN + 10
    out.append(
        f'<text x="{lx}" y="{ly}" font-size="12" font-weight="bold">best solver</text>'
    )
    for i, sid in enumerate(sorted(colors)):
        row_y = ly + (i + 1) * LEGEND_ROW
        out.append(
            f'<rect x="{lx}" y="{row_y - 9}" width="11" height="11" '
            f'fill="{colors[sid]}"/>'
        )
        # a [portfolio] id is any INI key, so it may hold markup characters
        out.append(f'<text x="{lx + 16}" y="{row_y}" font-size="12">{escape(sid)}</text>')
    out.append("</svg>")
    with open_whole(path) as fh:
        fh.write("\n".join(out) + "\n")
