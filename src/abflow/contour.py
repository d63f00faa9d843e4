"""Level curves of the stream function, phase portraits, and circulation.

Level extraction is marching squares on a regular grid with linear edge
interpolation, followed by one Newton correction of every vertex along the
local field normal (the stream-function gradient), which makes the residual
|psi(vertex) - level| certifiable.  Saddle-ambiguous cells are resolved by
evaluating the stream function at the cell center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import critical
from .errors import InvalidContourError, InvalidParamsError
from .field import FlowParams, PhysicalConstants, stream_values, velocity

__all__ = [
    "Polyline",
    "PortraitSpec",
    "CirculationResult",
    "level_curves",
    "portrait",
    "circulation",
    "circulation_from_flux",
    "polygon_area",
    "winding_number",
    "hausdorff_distance",
]


@dataclass
class Polyline:
    """Ordered planar point list carrying a level value and a closed flag."""

    points: np.ndarray
    level: float | None = None
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("polyline needs at least two 2-d points")
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise ValueError("polyline has coincident consecutive points")
        if self.closed:
            gap = float(np.hypot(*(pts[0] - pts[-1])))
            span = float(np.abs(pts).max())
            if gap > 1e-9 * max(1.0, span):
                raise ValueError("closed polyline endpoints do not match")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PortraitSpec:
    """Grid, bounding box, and level selection for portraits."""

    bbox: tuple[float, float, float, float] = (-4.0, 4.0, -3.0, 3.0)
    grid: tuple[int, int] = (400, 300)
    levels: tuple[float, ...] | None = None
    n_levels: int = 15
    include_separatrix: bool = True

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.bbox
        if not (xmax > xmin and ymax > ymin):
            raise InvalidParamsError(f"degenerate bbox {self.bbox!r}")
        nx, ny = self.grid
        if nx < 8 or ny < 8:
            raise InvalidParamsError("grid must be at least 8x8")

    @property
    def cell_diag(self) -> float:
        xmin, xmax, ymin, ymax = self.bbox
        nx, ny = self.grid
        return math.hypot((xmax - xmin) / (nx - 1), (ymax - ymin) / (ny - 1))


@dataclass(frozen=True)
class CirculationResult:
    value: float
    contour: dict
    richardson_error_estimate: float


def polygon_area(points: np.ndarray) -> float:
    """Signed shoelace area (positive for counterclockwise orientation)."""
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

def winding_number(points: np.ndarray, about=(0.0, 0.0)) -> int:
    """Winding count of a closed polyline around a point (angle summation)."""
    p = np.asarray(points, dtype=float) - np.asarray(about, dtype=float)
    ang = np.arctan2(p[:, 1], p[:, 0])
    d = np.diff(np.append(ang, ang[0]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(d.sum()) / (2.0 * np.pi)))

def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return math.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max()))


def default_core_radius(params: FlowParams) -> float:
    """Exclusion radius around the vortex core."""
    if params.delta > 0.0 and params.k > 0.0:
        return 1e-4 * params.saddle_height
    return 1e-6


# marching-squares case table; corner bits BL=1, BR=2, TR=4, TL=8,
# edges B(ottom), R(ight), T(op), L(eft); cases 5 and 10 resolved by center
_CASES = {
    0: [], 15: [],
    1: [("L", "B")],
    2: [("B", "R")],
    3: [("L", "R")],
    4: [("R", "T")],
    6: [("B", "T")],
    7: [("L", "T")],
    8: [("T", "L")],
    9: [("B", "T")],
    11: [("R", "T")],
    12: [("L", "R")],
    13: [("B", "R")],
    14: [("L", "B")],
}


def _edge_key(edge: str, i: int, j: int):
    if edge == "B":
        return ("h", i, j)
    if edge == "T":
        return ("h", i, j + 1)
    if edge == "L":
        return ("v", i, j)
    return ("v", i + 1, j)  # "R"


def _interp(level, va, vb, ca, cb):
    t = (level - va) / (vb - va)
    return ca + min(max(t, 0.0), 1.0) * (cb - ca)


class _Grid:
    """Cached grid evaluation shared by all levels of one portrait."""

    def __init__(self, params: FlowParams, spec: PortraitSpec):
        self.params = params
        self.spec = spec
        xmin, xmax, ymin, ymax = spec.bbox
        nx, ny = spec.grid
        self.xs = np.linspace(xmin, xmax, nx)
        self.ys = np.linspace(ymin, ymax, ny)
        xg, yg = np.meshgrid(self.xs, self.ys)
        self.psi = stream_values(params, xg, yg)
        self.cell_ok = self._usable_cells()

    def _usable_cells(self) -> np.ndarray:
        finite = np.isfinite(self.psi)
        ok = finite[:-1, :-1] & finite[:-1, 1:] & finite[1:, 1:] & finite[1:, :-1]
        if self.params.delta > 0.0:
            core = default_core_radius(self.params)
            xlo, xhi = self.xs[:-1], self.xs[1:]
            ylo, yhi = self.ys[:-1], self.ys[1:]
            dx = np.maximum(np.maximum(xlo, -xhi), 0.0)
            dy = np.maximum(np.maximum(ylo, -yhi), 0.0)
            dist = np.hypot(dx[None, :], dy[:, None])
            ok &= dist >= core
        return ok

    def center_value(self, i: int, j: int) -> float:
        cx = 0.5 * (self.xs[i] + self.xs[i + 1])
        cy = 0.5 * (self.ys[j] + self.ys[j + 1])
        return float(stream_values(self.params, cx, cy))


def _edge_point(grid: _Grid, key, level) -> np.ndarray:
    kind, i, j = key
    v = grid.psi
    xs, ys = grid.xs, grid.ys
    if kind == "h":
        x = _interp(level, v[j, i], v[j, i + 1], xs[i], xs[i + 1])
        return np.array([x, ys[j]])
    y = _interp(level, v[j, i], v[j + 1, i], ys[j], ys[j + 1])
    return np.array([xs[i], y])


def _extract_segments(grid: _Grid, level: float) -> list[tuple]:
    below = grid.psi < level
    case = (
        below[:-1, :-1].astype(np.int8)
        + 2 * below[:-1, 1:]
        + 4 * below[1:, 1:]
        + 8 * below[1:, :-1]
    )
    case[~grid.cell_ok] = 0
    segments = []
    for j, i in np.argwhere((case != 0) & (case != 15)):
        c = int(case[j, i])
        if c in (5, 10):
            center_below = grid.center_value(i, j) < level
            if c == 5:
                pairs = [("B", "R"), ("T", "L")] if center_below else [("L", "B"), ("R", "T")]
            else:
                pairs = [("L", "B"), ("R", "T")] if center_below else [("B", "R"), ("T", "L")]
        else:
            pairs = _CASES[c]
        for ea, eb in pairs:
            segments.append((_edge_key(ea, i, j), _edge_key(eb, i, j)))
    return segments


def _stitch(segments: list[tuple]) -> list[tuple[list, bool]]:
    """Join edge-key segments into maximal chains; returns (node list, closed)."""
    adj: dict = {}
    for sa, sb in segments:
        adj.setdefault(sa, []).append(sb)
        adj.setdefault(sb, []).append(sa)

    visited = set()
    chains = []

    def walk(start):
        chain = [start]
        visited.add(start)
        node = start
        while True:
            nxt = [n for n in adj[node] if n not in visited]
            if not nxt:
                break
            node = nxt[0]
            visited.add(node)
            chain.append(node)
        return chain

    endpoints = sorted(k for k, nbrs in adj.items() if len(nbrs) == 1)
    for start in endpoints:
        if start not in visited:
            chains.append((walk(start), False))
    for start in sorted(adj):
        if start not in visited:
            chain = walk(start)
            closed = len(chain) > 2 and chain[0] in adj[chain[-1]]
            chains.append((chain, closed))
    return chains


def _refine(params: FlowParams, pts: np.ndarray, level: float, max_shift: float) -> np.ndarray:
    # one Newton step along the field normal: grad psi = (-v, u)
    x, y = pts[:, 0], pts[:, 1]
    res = stream_values(params, x, y) - level
    u, v = velocity(params, x, y)
    gx, gy = np.broadcast_arrays(np.negative(v), u)
    g2 = gx * gx + gy * gy
    with np.errstate(divide="ignore", invalid="ignore"):
        sx = np.where(g2 > 0, res * gx / g2, 0.0)
        sy = np.where(g2 > 0, res * gy / g2, 0.0)
    shift = np.hypot(sx, sy)
    keep = (shift <= max_shift) & np.isfinite(shift)
    out = pts.copy()
    out[keep, 0] -= sx[keep]
    out[keep, 1] -= sy[keep]
    return out


def _dedupe(pts: np.ndarray, tol: float) -> np.ndarray:
    if len(pts) < 2:
        return pts
    keep = [0]
    for idx in range(1, len(pts)):
        if np.hypot(*(pts[idx] - pts[keep[-1]])) > tol:
            keep.append(idx)
    return pts[keep]


def _normalize(poly: Polyline) -> Polyline:
    pts = poly.points
    if poly.closed:
        body = pts[:-1]
        keys = [(p[0], p[1]) for p in body]
        start = keys.index(min(keys))
        body = np.roll(body, -start, axis=0)
        if len(body) > 2 and tuple(body[-1]) < tuple(body[1]):
            body = np.roll(body[::-1], 1, axis=0)
        pts = np.vstack([body, body[:1]])
    else:
        if tuple(pts[-1]) < tuple(pts[0]):
            pts = pts[::-1]
    return Polyline(points=pts, level=poly.level, closed=poly.closed)


def _curves_from_grid(grid: _Grid, level: float) -> list[Polyline]:
    level = float(level)
    if not math.isfinite(level):
        raise InvalidParamsError(f"level must be finite, got {level!r}")
    segments = _extract_segments(grid, level)
    if not segments:
        return []
    diag = grid.spec.cell_diag
    polylines = []
    for chain, closed in _stitch(segments):
        pts = np.array([_edge_point(grid, key, level) for key in chain])
        pts = _refine(grid.params, pts, level, max_shift=diag)
        pts = _dedupe(pts, tol=1e-12 * max(1.0, diag))
        if closed and len(pts) >= 3:
            pts = np.vstack([pts, pts[:1]])
        elif closed:
            closed = False
        if len(pts) < 2:
            continue
        polylines.append(_normalize(Polyline(points=pts, level=level, closed=closed)))
    polylines.sort(key=lambda p: (p.points[0, 0], p.points[0, 1], len(p)))
    return polylines


def level_curves(params: FlowParams, level: float, spec: PortraitSpec) -> list[Polyline]:
    """All polylines of the level set {psi = level} inside the bbox."""
    return _curves_from_grid(_Grid(params, spec), level)


def _auto_levels(grid: _Grid, n: int) -> list[float]:
    psi = grid.psi
    xg, yg = np.meshgrid(grid.xs, grid.ys)
    r = np.hypot(xg, yg)
    sel = np.isfinite(psi) & (r >= 2.0 * grid.spec.cell_diag)
    vals = psi[sel]
    if vals.size == 0:
        return []
    qs = np.arange(1, n + 1) / (n + 1)
    return [float(q) for q in np.unique(np.quantile(vals, qs))]


def portrait(params: FlowParams, spec: PortraitSpec) -> list[Polyline]:
    """Level curves over the requested (or automatically chosen) levels.

    With ``include_separatrix`` and delta > 0, k > 0 the exact separatrix
    level is added.  Output order is deterministic: levels ascending, then
    polylines by starting vertex.
    """
    grid = _Grid(params, spec)
    if spec.levels is not None:
        levels = [float(v) for v in spec.levels]
    else:
        levels = _auto_levels(grid, spec.n_levels)
    if spec.include_separatrix and params.delta > 0.0 and params.k > 0.0:
        ls = critical.separatrix_level(params)
        if ls not in levels:
            levels.append(ls)
    levels = sorted(set(levels))
    out: list[Polyline] = []
    for level in levels:
        out.extend(_curves_from_grid(grid, level))
    return out


def circulation(
    params: FlowParams,
    center=(0.0, 0.0),
    radius: float = 1.0,
    samples: int = 512,
) -> CirculationResult:
    """Circulation of the current around a circle, by closed trapezoidal
    quadrature (spectrally accurate for this analytic field).

    Converges to -2*pi*hbar*delta/mass when the circle encloses the origin
    and to 0 otherwise.
    """
    cx, cy = float(center[0]), float(center[1])
    radius = float(radius)
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise InvalidContourError(f"center must be finite, got {center!r}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise InvalidContourError(f"radius must be positive and finite, got {radius!r}")
    if samples < 16:
        raise InvalidContourError(f"need at least 16 samples, got {samples}")
    gap = abs(math.hypot(cx, cy) - radius)
    if gap <= max(default_core_radius(params), 1e-12 * max(1.0, radius)):
        raise InvalidContourError("contour passes through the vortex core")

    def quad(n: int) -> float:
        theta = 2.0 * np.pi * np.arange(n) / n
        ct, st = np.cos(theta), np.sin(theta)
        u, v = velocity(params, cx + radius * ct, cy + radius * st)
        integrand = radius * (-st * u + ct * v)
        return float(np.sum(integrand) * (2.0 * np.pi / n))

    value = quad(samples)
    estimate = abs(value - quad(max(16, samples // 2)))
    return CirculationResult(
        value=value,
        contour={"center": (cx, cy), "radius": radius, "samples": samples},
        richardson_error_estimate=estimate,
    )


def circulation_from_flux(consts: PhysicalConstants, mass: float, flux: float) -> float:
    """Circulation expressed through the magnetic flux: -e*Phi/(c*mass)."""
    if not (math.isfinite(mass) and mass > 0):
        raise InvalidParamsError(f"mass must be positive, got {mass!r}")
    return -consts.charge * flux / (consts.light_speed * mass)
