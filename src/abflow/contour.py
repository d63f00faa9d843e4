"""Level curves of the stream function, phase portraits, and circulation.

Level curves come from their closed form: in canonical coordinates
(x, y) = l*(X, U), l = delta/k, the level psi = b*(C + log l) is the curve
X^2 + U^2 = exp(2(C + U)), which meets the y axis at Lambert-W values of e^C.
Each piece is sampled from such a crossing at U = u0, where X^2 =
u0^2*exp(2w) - (u0 + w)^2 at U = u0 + w, by _curve, which trajectories and
the separatrix share, all pieces of a portrait in one table; with delta = 0
the levels are lines, with k = 0 circles.  Curves run as the flow does: down
the side x > 0, up the side x < 0, lines toward -x, circles clockwise.  Every
vertex lies on its level to roundoff, in the bbox, and at most one cell
diagonal from the next; loops within a cell are dropped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import critical
from .errors import InvalidContourError, InvalidParamsError
from .field import FlowParams, PhysicalConstants, _velocity, stream_values

__all__ = [
    "Polyline",
    "PortraitSpec",
    "CirculationResult",
    "portrait",
    "circulation",
    "circulation_from_flux",
]


GRID_MAX = 2048  # largest grid side, a bound on memory
SAMPLES_MAX = 1 << 20  # most circulation samples, a bound on memory
LEVEL_NODES = (128, 96)  # most grid nodes per side that the automatic levels sample
_T65 = np.linspace(0.0, np.pi, 65)  # the parameters of a side's arc-length estimate


@dataclass
class Polyline:
    """An n x 2 float array of at least two vertices, no two consecutive
    ones equal, with its level and a closed flag; a closed polyline's last
    vertex is its first, bit for bit.  The library builds these from closed
    forms, so they hold by construction and are checked in the tests."""

    points: np.ndarray
    level: float | None = None
    closed: bool = False

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PortraitSpec:
    """Grid, bounding box, and level selection for portraits.  ``grid``, 8 to
    GRID_MAX per side, sets the vertex spacing; the 0 to GRID_MAX automatic
    levels are quantiles of psi over at most 128x96 of its nodes (every node
    of a grid within that, every ceil(nx/128)-th and ceil(ny/96)-th of a
    larger one).  The bbox's bounds are finite and so is x*x + y*y on it."""

    bbox: tuple[float, float, float, float] = (-4.0, 4.0, -3.0, 3.0)
    grid: tuple[int, int] = (400, 300)
    levels: tuple[float, ...] | None = None
    n_levels: int = 15
    include_separatrix: bool = True

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.bbox
        if not (xmax > xmin and ymax > ymin):
            raise InvalidParamsError(f"degenerate bbox {self.bbox!r}")
        # the farthest corner; where its x*x + y*y is finite, so is the cell diagonal
        xr, yr = max(-xmin, xmax), max(-ymin, ymax)
        if not xr * xr + yr * yr <= sys.float_info.max:
            raise InvalidParamsError(f"x*x + y*y is not finite on bbox {self.bbox!r}")
        nx, ny = self.grid
        if not (8 <= nx <= GRID_MAX and 8 <= ny <= GRID_MAX):
            raise InvalidParamsError(f"grid must be 8 to {GRID_MAX} per side, got {self.grid!r}")
        if not 0 <= self.n_levels <= GRID_MAX:
            raise InvalidParamsError(f"n_levels must be 0 to {GRID_MAX}, got {self.n_levels!r}")

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


def canonical_x(w, u0: float) -> np.ndarray:
    """|X|/|u0| at height U = u0 + w on the level curve through the point
    (0, u0) of the y axis, in canonical coordinates (x, y) = l*(X, U),
    l = delta/k; 0 where the curve has no point at that height.  In the
    plane this is x/|y0| at y = y0 + l*w, y0 = l*u0.

    psi/b = log(R) - U + log(l) is constant along the curve, so its radius is
    R = |u0|*exp(w) and X^2 = R^2 - U^2.  Written as X^2/u0^2 = expm1(2w) -
    2w/u0 - (w/u0)^2 it keeps its digits near the anchor and never squares
    u0.  The anchor u0 = 1 is the saddle, through which the separatrix runs.
    """
    w = np.asarray(w, dtype=float)
    r = w / u0
    return np.sqrt(np.maximum(np.expm1(2.0 * w) - 2.0 * r - r * r, 0.0))


def _log_root(newton_step, t: float) -> float:
    # Newton's method in t = log(root), from a start the iterates approach
    # monotonically
    for _ in range(200):
        t -= (dt := newton_step(t))
        if abs(dt) <= 4.0 * sys.float_info.epsilon * max(1.0, abs(t)):
            break
    return math.exp(t)


def _pieces(c: float, log_l: float) -> list[tuple[float, float, float, bool, bool]]:
    """The level psi = b*c as pieces (u0, w_lo, w_hi, sides meet at w_lo, at
    w_hi): heights U = u0 + w, w_lo <= w <= w_hi, from a crossing U = u0 of
    the y axis.

    The crossings are Lambert-W values (Corless et al., "On the Lambert W
    function", 1996), C = c - log l: U = -W0(e^C), the root V = -U of
    V + log V = C, and for C < -1 also U = -W0(-e^C) and -W_{-1}(-e^C), the
    roots of U - log U = -C.  Each is solved in log form, log(U) + log(l)
    kept whole.  A loop is anchored at its top, so the separatrix's loop and
    arms share the saddle U = 1.
    """
    cc = c - log_l
    v0 = _log_root(lambda t: (math.exp(t) + (t + log_l) - c) / (math.exp(t) + 1.0),
                   cc if cc < 1.0 else math.log(cc))
    if cc > -1.0:
        return [(-v0, 0.0, math.inf, True, False)]
    if cc == -1.0:
        return [(1.0, -1.0 - v0, 0.0, True, True), (1.0, 0.0, math.inf, False, False)]
    f = lambda t: (math.exp(t) - (t + log_l) + c) / (math.exp(t) - 1.0)
    u1 = _log_root(f, cc)
    return [(u1, -u1 - v0, 0.0, True, True),
            (_log_root(f, math.log(-2.0 * cc)), 0.0, math.inf, True, False)]


def _curve(u0, w_lo, w_hi, s):
    """w and X/|u0| at the parameters s of the level piece through (0, u0),
    w_lo <= w <= w_hi, run as the flow runs it: its side X > 0 from w_hi down
    to w_lo for s in [0, pi], then its side X < 0 back up.  On each side
    w = w_lo + span*(1 - cos t)/2, t = |pi - s|, written from the nearer
    end so that it keeps its digits at both."""
    t, span = np.abs(np.pi - s), w_hi - w_lo
    w = np.where(t < 0.5 * np.pi, w_lo + span * np.sin(0.5 * t) ** 2,
                 w_hi - span * np.cos(0.5 * t) ** 2)
    return w, canonical_x(w, u0)


def _clip(cycle: np.ndarray, level: float, spec: PortraitSpec) -> list[Polyline]:
    """The polylines in the bbox of a closed path, whose last vertex is its
    first: the path, closed, if it lies inside and not within one grid cell,
    else its runs between vertices outside or NaN, in the path's direction."""
    pts = cycle[np.append(True, (cycle[1:] != cycle[:-1]).any(axis=1))]
    xmin, xmax, ymin, ymax = spec.bbox
    x, y = pts[:, 0], pts[:, 1]
    inside = (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)
    if inside.all():
        nx, ny = spec.grid
        fits = np.ptp(x) * (nx - 1) < xmax - xmin and np.ptp(y) * (ny - 1) < ymax - ymin
        return [] if fits else [Polyline(pts, level, closed=True)]
    k = int(np.argmin(inside))  # start outside, so that no run wraps around
    pts, inside = np.concatenate([pts[k:-1], pts[:k]]), np.concatenate([inside[k:-1], inside[:k]])
    ends = np.flatnonzero(np.diff(np.concatenate(([0], inside.astype(np.int8), [0]))))
    return [Polyline(pts[i:j], level) for i, j in zip(ends[::2], ends[1::2]) if j - i >= 2]


def _trace(rows: list, l: float, spec: PortraitSpec) -> list[Polyline]:
    """The polylines of the pieces in ``rows``, each (level, u0, y0, lo, hi,
    meet at lo, meet at hi), in one table: each side x >= 0 at y = y0 + l*w is
    _curve's, resampled by arc length and bisected until vertices are at most
    a cell diagonal apart, then mirrored, joined as the flow runs and clipped."""
    level, u0, y0, lo, hi, meet_lo, meet_hi = (np.array(col) for col in zip(*rows))
    piece = np.column_stack([u0, lo, hi, np.abs(y0)])

    def side(s, n):  # x and y - y0 at s, n vertices a piece
        u0, lo, hi, abs_y0 = np.repeat(piece, n, axis=0).T
        first = np.cumsum(n) - n
        w, x = _curve(u0, lo, hi, s)
        x *= abs_y0
        x[first[meet_hi]] = 0.0
        x[(first + n - 1)[meet_lo]] = 0.0
        return x, l * w

    x, y = (v.reshape(-1, 65) for v in side(np.tile(_T65, len(lo)), np.full(len(lo), 65)))
    arc = np.pad(np.cumsum(np.hypot(np.diff(x), np.diff(y)), axis=1), ((0, 0), (1, 0)))
    keep = arc[:, -1] > 1e-9 * spec.cell_diag  # longer than a point at the grid's resolution
    if not keep.any():
        return []
    piece, level, y0, meet_lo, meet_hi, arc = (
        v[keep] for v in (piece, level, y0, meet_lo, meet_hi, arc))
    n = 3 + (arc[:, -1] / (0.9 * spec.cell_diag)).astype(int)
    s = np.concatenate([np.interp(np.linspace(0.0, a[-1], k), a, _T65) for a, k in zip(arc, n)])
    for _ in range(60):
        x, y = side(s, n)
        long = np.hypot(np.diff(x), np.diff(y)) > spec.cell_diag
        long[np.cumsum(n)[:-1] - 1] = False  # from one piece to the next
        if not long.any():
            break
        i = np.flatnonzero(long)
        n += np.bincount(np.searchsorted(np.cumsum(n), i, side="right"), minlength=len(n))
        s = np.insert(s, i + 1, 0.5 * (s[i] + s[i + 1]))
    y += np.repeat(y0, n)
    right, mirror = np.column_stack([x, y]), np.column_stack([0.0 - x, y])  # 0.0 - 0.0 is +0.0
    polylines, gap = [], np.full((1, 2), np.nan)
    for i, k, lv, m_lo, m_hi in zip(np.cumsum(n) - n, n, level.tolist(), meet_lo.tolist(),
                                    meet_hi.tolist()):
        down, up = right[i:i + k], mirror[i:i + k][::-1]
        # down the side x > 0, up the side x < 0 and back to the start, broken
        # by a NaN row at each end where the sides do not meet (gap[True:] is empty)
        polylines += _clip(np.vstack([down, gap[m_lo:], up, gap[m_hi:], down[:1]]), lv, spec)
    return polylines


def _circle(r: float, level: float, spec: PortraitSpec) -> list[Polyline]:
    """The polylines of the circle of radius r about the vortex, clockwise
    from its top in closed form: its side x >= 0, cut where it or its mirror
    image meets a side of the bbox, has 2 vertices an arc, or at least 3 and
    at most 0.9 cells apart where either lies inside; then it is mirrored."""
    xmin, xmax, ymin, ymax = spec.bbox
    at_x = [math.asin(min(abs(v) / r, 1.0)) for v in (xmin, xmax)]
    at_y = [math.acos(min(max(v / r, -1.0), 1.0)) for v in (ymin, ymax)]
    cuts = sorted({0.0, math.pi, *at_x, *(math.pi - t for t in at_x), *at_y})
    phi = [np.zeros(1)]
    for p, q in zip(cuts, cuts[1:]):
        x, y = r * math.sin(0.5 * (p + q)), r * math.cos(0.5 * (p + q))
        inside = ymin <= y <= ymax and (xmin <= x <= xmax or xmin <= -x <= xmax)
        k = 3 + int(r * (q - p) / (0.9 * spec.cell_diag)) if inside else 2  # after p
        phi.append(p + (q - p) / k * np.arange(1, k + 1))
    phi = np.concatenate(phi)
    down = r * np.column_stack([np.sin(phi), np.cos(phi)])
    down[[0, -1], 0] = 0.0  # the top and the bottom lie on the y axis
    return _clip(np.vstack([down, down[-2::-1] * [-1.0, 1.0] + 0.0]), level, spec)  # not -0.0


def _curves(params: FlowParams, levels, spec: PortraitSpec) -> list[Polyline]:
    """All polylines of the level sets {psi = level} inside the bbox, sampled
    from their closed form, ordered by level and then by starting vertex."""
    a, b = params.a, params.b
    xmin, xmax, ymin, ymax = spec.bbox
    r_near = math.hypot(max(xmin, -xmax, 0.0), max(ymin, -ymax, 0.0))
    r_far = math.hypot(max(-xmin, xmax), max(-ymin, ymax))
    curves, rows = [], []
    for level in map(float, levels):
        if not math.isfinite(level):
            raise InvalidParamsError(f"level must be finite, got {level!r}")
        if b == 0.0 or math.isinf(level / b):
            # the line y = -level/a, run toward -x: b*log r is below roundoff
            y = -level / a if a > 0.0 else math.nan
            if ymin <= y <= ymax:
                x = np.linspace(xmax, xmin, 2 + int((xmax - xmin) / (0.9 * spec.cell_diag)))
                x = x[np.append(True, x[1:] != x[:-1])]  # a bbox a few ulps wide repeats x
                curves.append(Polyline(np.column_stack([x, np.full_like(x, y)]), level))
            continue
        if a == 0.0:  # a rotation: the circle r = exp(level/b), kept a positive double
            curves += _circle(math.exp(min(max(level / b, -745.0), 709.0)), level, spec)
            continue
        l, c, log_l = params.saddle_height, level / b, math.log(params.saddle_height)
        if abs(c - log_l + 1.0) <= 8.0 * sys.float_info.epsilon * (1.0 + abs(log_l)):
            c, log_l = -1.0, 0.0  # off the separatrix by rounding only: snap to it
        for anchor, w_lo, w_hi, meet_lo, meet_hi in _pieces(c, log_l):
            y0 = l * anchor
            if y0 == 0.0:  # the piece is below the float resolution of the vortex
                continue
            # r = |y0|*exp(w): the bbox's annulus bounds w (expm1(2w) overflows past 354)
            lo = max(w_lo, (ymin - y0) / l, math.log(r_near / abs(y0)) if r_near else -math.inf)
            hi = min(w_hi, (ymax - y0) / l, math.log(r_far / abs(y0)), 350.0)
            if lo < hi:
                rows.append((level, anchor, y0, lo, hi, meet_lo and lo == w_lo,
                             meet_hi and hi == w_hi))
    curves += _trace(rows, params.saddle_height, spec) if rows else []
    return sorted(curves, key=lambda p: (p.level, p.points[0, 0], p.points[0, 1], len(p)))


def _auto_levels(params: FlowParams, spec: PortraitSpec) -> list[float]:
    # quantiles of psi on the grid's nodes, away from the vortex: per side
    # every ceil(n/cap)-th node from the first, at most LEVEL_NODES in all
    xmin, xmax, ymin, ymax = spec.bbox
    (nx, ny), (cx, cy) = spec.grid, LEVEL_NODES
    xs = np.linspace(xmin, xmax, nx)[::math.ceil(nx / cx)]
    ys = np.linspace(ymin, ymax, ny)[::math.ceil(ny / cy)]
    xg, yg = np.meshgrid(xs, ys, copy=False)
    psi = stream_values(params, xg, yg)
    vals = psi[np.isfinite(psi) & (np.hypot(xg, yg) >= 2.0 * spec.cell_diag)]
    if vals.size == 0:
        return []
    # np.quantile's default (linear) method and np.unique, bit for bit,
    # without the numpy.ma that both import: the partition, on np.quantile's
    # own indices, puts each quantile's neighbours in their sorted places;
    # of equal levels (0.0 and -0.0), the first once sorted is kept
    at = (vals.size - 1) * (np.arange(1, spec.n_levels + 1) / (spec.n_levels + 1))
    lo = np.floor(at)
    gamma, lo = at - lo, lo.astype(np.intp)
    hi = np.minimum(lo + 1, vals.size - 1)
    vals.partition(sorted({0, vals.size - 1, *lo.tolist(), *hi.tolist()}))
    a, b = vals[lo], vals[hi]
    q = np.sort(np.where(gamma >= 0.5, b - (b - a) * (1.0 - gamma), a + (b - a) * gamma)).tolist()
    return [v for v, prev in zip(q, [math.nan, *q]) if v != prev]


def portrait(params: FlowParams, spec: PortraitSpec) -> list[Polyline]:
    """Level curves over the requested (or automatically chosen) levels.

    With ``include_separatrix`` and delta > 0, k > 0 the exact separatrix
    level is added.  Output order is deterministic: levels ascending, then
    polylines by starting vertex.
    """
    if spec.levels is not None:
        levels = [float(v) for v in spec.levels]
    else:
        levels = _auto_levels(params, spec)
    if spec.include_separatrix and params.delta > 0.0 and params.k > 0.0:
        levels.append(critical.separatrix_level(params))
    return _curves(params, sorted(set(levels)), spec)


def circulation(
    params: FlowParams,
    center=(0.0, 0.0),
    radius: float = 1.0,
    samples: int = 512,
) -> CirculationResult:
    """Circulation of the current around a circle, by closed trapezoidal
    quadrature (spectrally accurate for this analytic field).

    Converges to -2*pi*hbar*delta/mass when the circle encloses the origin
    and to 0 otherwise.  Takes 16 to SAMPLES_MAX samples and a circle on
    which x*x + y*y stays finite.  The Richardson error estimate is the
    distance to the max(16, samples//2)-point rule, summed from every other
    sample where its nodes are those (even samples from 32, and 16): the
    field is evaluated once per sample, and a second time on the coarse
    nodes only for odd samples and 17 to 31.
    """
    cx, cy = float(center[0]), float(center[1])
    radius = float(radius)
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise InvalidContourError(f"center must be finite, got {center!r}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise InvalidContourError(f"radius must be positive and finite, got {radius!r}")
    if not 16 <= samples <= SAMPLES_MAX:
        raise InvalidContourError(f"need 16 to {SAMPLES_MAX} samples, got {samples}")
    reach = max(abs(cx), abs(cy)) + radius
    if 2.0 * reach * reach > sys.float_info.max:
        raise InvalidContourError(f"x*x + y*y overflows on a circle of reach {reach!r}")
    if params.b != 0.0 and abs(math.hypot(cx, cy) - radius) <= 1e-12 * radius:
        raise InvalidContourError("contour passes through the vortex core")

    # the uniform stream's trapezoid sum is zero in exact arithmetic; in
    # doubles it leaves roundoff ~eps*a*R, so only the vortex is summed, with
    # b split into a power of two s and b/s in [1, 2): the terms keep their
    # bits, scaled by 1/s, and the sum overflows only where s times it does
    s = math.ldexp(1.0, math.frexp(params.b)[1] - 1)

    def integrand(n: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(n) / n
        ct, st = np.cos(theta), np.sin(theta)
        u, v = _velocity(0.0, params.b / s, cx + radius * ct, cy + radius * st)
        return radius * (-st * u + ct * v)

    def rule(terms: np.ndarray) -> float:
        return s * float(np.sum(terms) * (2.0 * np.pi / len(terms)))

    # the coarse rule's nodes 2*pi*k/half are the fine rule's 2*pi*(k*n/half)/n
    # to the bit wherever half divides n: every even n from 32, and 16.  Its
    # terms are copied out, so np.sum pairs them as it pairs a fresh array
    terms = integrand(samples)
    half = max(16, samples // 2)
    coarse = terms[:: samples // half] if samples % half == 0 else integrand(half)
    value = rule(terms)
    estimate = abs(value - rule(np.ascontiguousarray(coarse)))
    return CirculationResult(
        value=value,
        contour={"center": (cx, cy), "radius": radius, "samples": samples},
        richardson_error_estimate=estimate,
    )


def circulation_from_flux(consts: PhysicalConstants, mass: float, flux: float) -> float:
    """Circulation expressed through the magnetic flux: -e*Phi/(c*mass), finite or an
    InvalidParamsError."""
    if not (math.isfinite(mass) and mass > 0):
        raise InvalidParamsError(f"mass must be positive, got {mass!r}")
    value = -consts.charge * flux / (consts.light_speed * mass)
    if not math.isfinite(value):  # a flux that is not finite, or an overflow
        raise InvalidParamsError(f"flux {flux!r} gives circulation {value!r}, not a finite number")
    return value
