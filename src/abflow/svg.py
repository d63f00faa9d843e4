"""Minimal deterministic SVG rendering of phase portraits.

Hand-rolled on purpose: output bytes depend only on the inputs (no library
version strings, ids, or timestamps), so renders are diffable artifacts.
Y axis points up; the separatrix level is dashed; the saddle is drawn as a
cross and the vortex core as a dot.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_portrait"]

_STYLE = (
    "polyline{fill:none;stroke:#4878a8;stroke-width:1.1}"
    "polyline.sep{stroke:#b03030;stroke-width:1.4;stroke-dasharray:7 5}"
    "line.saddle{stroke:#202020;stroke-width:1.6}"
    "circle.vortex{fill:#202020}"
)


def render_portrait(
    polylines,
    bbox,
    separatrix_level: float | None = None,
    saddle=None,
    vortex=None,
    width: int = 800,
) -> str:
    """Render polylines (objects with .points and .level) into an SVG string.

    Each polyline's points attribute is one %-format over its pixel
    coordinates, three decimals each."""
    xmin, xmax, ymin, ymax = (float(v) for v in bbox)
    sx = width / (xmax - xmin)
    height = int(round((ymax - ymin) * sx))
    sy = height / (ymax - ymin)

    def to_px(x, y):
        # floats or arrays
        return (x - xmin) * sx, (ymax - y) * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
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
        cx, cy = to_px(float(saddle[0]), float(saddle[1]))
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
        cx, cy = to_px(float(vortex[0]), float(vortex[1]))
        parts.append(f'<circle class="vortex" cx="{cx:.3f}" cy="{cy:.3f}" r="3.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
