"""Minimal deterministic SVG rendering of phase portraits.

Hand-rolled on purpose: output bytes depend only on the inputs (no library
version strings, ids, or timestamps), so renders are diffable artifacts.
Y axis points up; the separatrix level is dashed; the saddle is drawn as a
cross and the vortex core as a dot.  The viewBox is in thousandths of a
pixel, so every coordinate is an integer, written by orjson.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["render_portrait"]

_STYLE = (
    "polyline{fill:none;stroke:#4878a8;stroke-width:1100}"
    "polyline.sep{stroke:#b03030;stroke-width:1400;stroke-dasharray:7000 5000}"
    "line.saddle{stroke:#202020;stroke-width:1600}"
    "circle.vortex{fill:#202020}"
)
_WIDTH = 800  # of the image, in pixels


def render_portrait(
    polylines,
    bbox,
    separatrix_level: float | None = None,
    saddle=None,
    vortex=None,
) -> str:
    """Render polylines (objects with .points, finite vertices, and .level)
    into an SVG string.

    A point's coordinates are the integers np.rint(1000*pixel), thousandths
    of a pixel, each within one image size of the view."""
    import orjson  # see cli.write_csvs

    xmin, xmax, ymin, ymax = (float(v) for v in bbox)
    # the height is 1 to 16 widths whatever the aspect ratio; a side too
    # small for a finite scale (below about 1e-305) takes the largest one
    sx = min(_WIDTH / (xmax - xmin), sys.float_info.max)
    height = int(round(min(max((ymax - ymin) * sx, 1.0), 16.0 * _WIDTH)))
    sy = min(height / (ymax - ymin), sys.float_info.max)
    w, h = 1000 * _WIDTH, 1000 * height  # the view, in thousandths of a pixel

    polylines = list(polylines)
    marks = np.array([p for p in (saddle, vortex) if p is not None], dtype=float).reshape(-1, 2)
    pts = np.concatenate([*(np.asarray(poly.points, dtype=float) for poly in polylines), marks])
    with np.errstate(over="ignore"):  # to inf, which the clip bounds
        x = np.clip(1000.0 * ((pts[:, 0] - xmin) * sx), -w, 2 * w)
        y = np.clip(1000.0 * ((ymax - pts[:, 1]) * sy), -h, 2 * h)
    table = np.rint(np.column_stack([x, y])).astype(np.int64).ravel()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {w} {h}">',
        f"<style>{_STYLE}</style>",
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    end = 0
    for poly in polylines:  # points="x,y,x,y": a 1-d array is the fast one to dump
        start, end = end, end + 2 * len(poly.points)
        coords = orjson.dumps(table[start:end], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        # callers pass the level the separatrix polylines carry, exactly
        is_sep = separatrix_level is not None and poly.level == separatrix_level
        cls = ' class="sep"' if is_sep else ""
        parts.append(f'<polyline{cls} points="{coords}"/>')
    marks = table[end:].reshape(-1, 2).tolist()
    if saddle is not None:
        (cx, cy), r = marks.pop(0), 6000
        parts += [f'<line class="saddle" x1="{cx - r}" y1="{cy - d}" x2="{cx + r}" y2="{cy + d}"/>'
                  for d in (r, -r)]
    if vortex is not None:
        cx, cy = marks[0]
        parts.append(f'<circle class="vortex" cx="{cx}" cy="{cy}" r="3500"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
