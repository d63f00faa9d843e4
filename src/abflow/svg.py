"""Minimal deterministic SVG rendering of phase portraits.

Hand-rolled on purpose: output bytes depend only on the inputs (no library
version strings, ids, or timestamps), so renders are diffable artifacts.
Y axis points up; the separatrix level is dashed; the saddle is drawn as a
cross and the vortex core as a dot.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["render_portrait"]

_STYLE = (
    "polyline{fill:none;stroke:#4878a8;stroke-width:1.1}"
    "polyline.sep{stroke:#b03030;stroke-width:1.4;stroke-dasharray:7 5}"
    "line.saddle{stroke:#202020;stroke-width:1.6}"
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
    """Render polylines (objects with .points and .level) into an SVG string.

    Each polyline's points attribute is one %-format over its pixel
    coordinates, three decimals each."""
    xmin, xmax, ymin, ymax = (float(v) for v in bbox)
    # the height is 1 to 16 widths whatever the aspect ratio; a side too
    # small for a finite scale (below about 1e-305) takes the largest one
    sx = min(_WIDTH / (xmax - xmin), sys.float_info.max)
    height = int(round(min(max((ymax - ymin) * sx, 1.0), 16.0 * _WIDTH)))
    sy = min(height / (ymax - ymin), sys.float_info.max)

    def to_px(x, y):
        # floats or arrays
        return (x - xmin) * sx, (ymax - y) * sy

    def marker_px(point):
        # a marker out of view stays within one image size of it
        cx, cy = to_px(float(point[0]), float(point[1]))
        return min(max(cx, -_WIDTH), 2.0 * _WIDTH), min(max(cy, -height), 2.0 * height)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f"<style>{_STYLE}</style>",
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
    ]
    for poly in polylines:
        pts = np.asarray(poly.points, dtype=float)
        u, v = to_px(pts[:, 0], pts[:, 1])
        # "%.3f" gives the same text as format(x, ".3f") for every float
        xy = tuple(np.column_stack([u, v]).ravel().tolist())
        coords = ("%.3f,%.3f " * len(pts) % xy)[:-1]
        # callers pass the level the separatrix polylines carry, exactly
        is_sep = separatrix_level is not None and poly.level == separatrix_level
        cls = ' class="sep"' if is_sep else ""
        parts.append(f"<polyline{cls} points=\"{coords}\"/>")
    if saddle is not None:
        cx, cy = marker_px(saddle)
        r = 6.0
        parts.append(
            f'<line class="saddle" x1="{cx - r:.3f}" y1="{cy - r:.3f}" '
            f'x2="{cx + r:.3f}" y2="{cy + r:.3f}"/>'
        )
        parts.append(
            f'<line class="saddle" x1="{cx - r:.3f}" y1="{cy + r:.3f}" '
            f'x2="{cx + r:.3f}" y2="{cy - r:.3f}"/>'
        )
    if vortex is not None:
        cx, cy = marker_px(vortex)
        parts.append(f'<circle class="vortex" cx="{cx:.3f}" cy="{cy:.3f}" r="3.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
