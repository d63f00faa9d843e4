"""Minimal deterministic SVG rendering of phase portraits.

Hand-rolled on purpose: output bytes depend only on the inputs (no library
version strings, ids, or timestamps), so renders are diffable artifacts.
Y axis points up; the separatrix level is dashed; the saddle is drawn as a
cross and the vortex core as a dot.  Pixels are "%.3f" text, made in one pass.
"""

from __future__ import annotations

import itertools
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
_BLOCK = 4096  # vertices of whole polylines formatted at once, which bounds the temporaries


def _fixed3(v: np.ndarray, sep: np.ndarray) -> str:
    """"%.3f" of each value of v, |v| < 1e11, followed by its sep byte: n =
    rint(fl(1000 v)), save at a tie, which the exact 1000 v (Dekker's two-
    product) breaks.  One orjson call writes 1, |n| // 1000, 1, |n| % 1000 a
    value, in rows of w + 3 bytes with a comma: the 1s become the sign and
    the point, the comma sep; a sign and zeros "%.3f" omits are cut."""
    import orjson  # see cli.write_csvs

    n = np.rint(p := 1000.0 * v)
    tie = np.flatnonzero(abs(p - n) == 0.5)
    if len(tie):
        t, p = v[tie], p[tie]
        c = 134217729.0 * t  # 2**27 + 1: t's upper 26 bits are hi
        hi = c - (c - t)
        n[tie] = np.rint(p + 0.25 * np.sign((1000.0 * hi - p) + 1000.0 * (t - hi)))
    n = abs(n).astype(np.int64)
    w = max(4, len(str(n.max())))
    data = orjson.dumps(n + 9000 * (n // 1000) + (10 ** (w + 1) + 1000),
                        option=orjson.OPT_SERIALIZE_NUMPY)
    text = np.frombuffer(data[:-1] + b",", np.uint8)[1:].reshape(-1, w + 3).copy()
    text[:, 0], text[:, w - 2], text[:, -1] = np.signbit(v) * np.uint8(ord("-")), ord("."), sep
    for j in range(1, w - 3):  # 0 marks a byte cut
        text[:, j] *= n >= 10 ** (w - j)
    return text.tobytes().translate(None, b"\0").decode()


def render_portrait(
    polylines,
    bbox,
    separatrix_level: float | None = None,
    saddle=None,
    vortex=None,
) -> str:
    """Render polylines (objects with .points and .level) into an SVG string.

    Each polyline's points attribute holds its pixel coordinates, "%.3f"
    each: _fixed3's text, or a %-format in a block with a pixel not finite
    or 1e11 or more in size."""
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
    polylines = list(polylines)
    polys = [np.asarray(poly.points, dtype=float) for poly in polylines]
    coords, full = {}, [i for i, pts in enumerate(polys) if len(pts)]
    done = np.cumsum([len(polys[i]) for i in full])
    for _, group in itertools.groupby(range(len(full)), key=lambda i: (done[i] - 1) // _BLOCK):
        block = [full[i] for i in group]
        pts = np.concatenate([polys[i] for i in block])
        px = np.column_stack(to_px(pts[:, 0], pts[:, 1])).ravel()
        ends = 2 * np.cumsum([len(polys[i]) for i in block])
        if (abs(px) < 1e11).all():
            sep = np.tile(np.array([44, 32], np.uint8), len(pts))  # "u,v u,v"
            sep[ends - 1] = 10  # each polyline's end
            coords.update(zip(block, _fixed3(px, sep).split("\n")))
        else:  # a pixel not finite or that large: one %-format a polyline
            coords.update((i, ("%.3f,%.3f " * (len(v) // 2) % tuple(v.tolist()))[:-1])
                          for i, v in zip(block, np.split(px, ends[:-1])))
    for i, poly in enumerate(polylines):
        # callers pass the level the separatrix polylines carry, exactly
        is_sep = separatrix_level is not None and poly.level == separatrix_level
        cls = ' class="sep"' if is_sep else ""
        parts.append(f"<polyline{cls} points=\"{coords.get(i, '')}\"/>")
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
