"""Trajectories, closed orbits, and the separatrix, from the level sets of psi.

psi is a first integral of the flow, so an orbit runs along its level set,
whose path is known in closed form (see contour); only the time along it
needs numerics.  Trajectories run in one canonical frame, x = l*X and
t = tau*T, in which the field is the same for every unit system and every
guard is a constant of that one problem.  There a regular flow moves with
dU/dT = -X/R^2: down the side X > 0 of a level piece and up its side X < 0.
One sampler, contour's _curve, serves every side of every piece of an orbit
or a portrait: its vertices lie at w = w_lo + span*(1 - cos t)/2 for equal
steps of t, and each step is timed by four 8-point Gauss-Legendre panels,
in which dT/dt = |u0|*exp(2w)/canonical_x(w, u0)*dw/dt is smooth at the
axis crossings.  Those steps and nodes are the same on every side of every
orbit, so the factors of dT/dt that depend on t alone are tabulated once, at
import.  A closed level's period is twice the time along one side.
A rotation's circle and a line flow's line are closed forms in T.

In canonical coordinates (x, y) = l*(X, U) with l = delta/k the separatrix
is the curve X^2 = exp(2(U-1)) - U^2 for every flow: one canonical table of
it, built on first use, is scaled by l.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import critical
from .contour import Polyline, _curve, _pieces, _side
from .errors import InvalidParamsError, SingularPointError
from .field import FlowParams, _frame, stream_values

__all__ = ["Trajectory", "TrajectoryStatus", "SeparatrixResult", "integrate", "trace_separatrix"]

# guards of the canonical problem: lengths in l, times in tau
_CORE_RADIUS = 1e-4
_HALF_WIDTH = 10.0  # of the domain box, or twice the start point
_FAR = 1e150  # past it the vortex moves a point by under 1e-150 of the stream: a line
_SIDE_STEPS = 64  # equal steps of t along one side of a level piece
_STEP_PANELS = 4  # Gauss-Legendre panels timing each step
SAMPLES_MAX = 1 << 18  # most samples of one trajectory, a bound on memory and time
# _STEP_PANELS 8-point Gauss-Legendre panels on [0, 2*_STEP_PANELS], from the
# rule's positive nodes on [-1, 1] and their weights
_GL = np.array([
    [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],
    [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]])
_GL = np.hstack([_GL[:, ::-1] * [[-1.0], [1.0]], _GL])
_GL_NODES = (np.arange(1.0, 2.0 * _STEP_PANELS, 2.0)[:, None] + _GL[0]).ravel()
_GL_WEIGHTS = np.tile(_GL[1], _STEP_PANELS)

# W(1/e): the loop meets the negative y axis at U = -W(1/e) (Corless et al.,
# "On the Lambert W function", 1996); its area is 2*int X dU over the loop
_W_INV_E = 0.2784645427610738
_LOOP_AREA = 0.731444628777403


class TrajectoryStatus(enum.Enum):
    COMPLETED = "completed"
    CLOSED_ORBIT_DETECTED = "closed_orbit_detected"
    ENTERED_CORE_RADIUS = "entered_core_radius"
    LEFT_DOMAIN = "left_domain"


@dataclass(frozen=True)
class Trajectory:
    """Samples of one orbit with Hamiltonian-drift statistics.

    ``times`` are strictly increasing elapsed times; ``h_values`` is the
    Hamiltonian at each sample.  No sample lies inside the core exclusion
    radius.
    """

    times: np.ndarray
    points: np.ndarray
    h_values: np.ndarray
    max_h_drift: float
    status: TrajectoryStatus

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SeparatrixResult:
    loop: Polyline
    unbounded_branches: list[Polyline]
    loop_area: float
    loop_max_radius: float
    lower_axis_crossing: float


def _factors(s):
    """The factors of _rate at the parameters s that depend on s alone:
    _curve's, _side(s), and |sin s|."""
    return (*_side(s), np.abs(np.sin(s)))


def _rate(u0: float, w_lo: float, w_hi: float, factors):
    """dT/ds = R^2/|X|*|dw/ds| at the parameters s, given as _factors(s),
    smooth where X vanishes like the square root of the distance to a
    crossing."""
    w, x = _curve(u0, w_lo, w_hi, factors[:2])
    return np.exp(2.0 * w) * (factors[2] / x) * (0.5 * abs(u0) * (w_hi - w_lo))


def _time(u0: float, w_lo: float, w_hi: float, a, b):
    """The time along the curve from each parameter a to b, by _STEP_PANELS
    8-point Gauss-Legendre panels."""
    a, h = np.asarray(a), np.asarray((b - a) / (2.0 * _STEP_PANELS))
    return h * (_rate(u0, w_lo, w_hi, _factors(a[..., None] + h[..., None] * _GL_NODES))
                @ _GL_WEIGHTS)


# Every curve has the vertices _S, and each side (s from pi to 2*pi) the
# same steps, so the factors that depend on s alone are formed once: _curve's
# at the vertices, and the steps' widths and _rate's at their nodes.  So are
# the separatrix's side x >= 0, at four times the steps so that its loop
# ends within 1e-4*l of the saddle.
_S = np.pi * np.linspace(0.0, 2.0, 2 * _SIDE_STEPS + 1)
_S_SIDE = _side(_S)
_STEP_H = (_S[_SIDE_STEPS + 1:] - _S[_SIDE_STEPS:-1]) / (2.0 * _STEP_PANELS)
_STEP_NODES = _factors(_S[_SIDE_STEPS:-1, None] + _STEP_H[:, None] * _GL_NODES)
_LOOP_SIDE = _side(math.pi * np.linspace(0.0, 1.0, 4 * _SIDE_STEPS + 1))
for _a in (_GL, _GL_NODES, _GL_WEIGHTS, _S, _STEP_H, *_S_SIDE, *_STEP_NODES, *_LOOP_SIDE):
    _a.flags.writeable = False


def _side_times(u0: float, w_lo: float, w_hi: float):
    """_time over each step of a side, s from pi to 2*pi, from the node table."""
    return _STEP_H * (_rate(u0, w_lo, w_hi, _STEP_NODES) @ _GL_WEIGHTS)


def _still(x: float, y: float):
    """The curve of a start that does not move, in the form of _level_curve."""
    return np.array([0.0, math.inf]), np.full(2, x), np.full(2, y), 0, None, lambda k, dt: (x, y)


def _level_curve(x: float, y: float, half: float):
    """The curve of the start's level piece, sampled at _SIDE_STEPS steps of
    t a side and at the start: its times C, vertices X and U, the start's
    index, the period or None, and the point dt after vertex k."""
    c = math.log(math.hypot(x, y)) - y
    pieces = _pieces(c, 0.0)
    u0, lo, hi = pieces[0 if len(pieces) == 1 or y < 1.0 else 1][:3]
    loop, saddle = hi == 0.0, c == -1.0  # the separatrix reaches the saddle as T -> inf
    on_axis = x == 0.0 and not saddle  # the start is a crossing: its piece's end, or anchor
    if on_axis and loop and y < 0.0:
        lo = y - u0
    elif on_axis:
        u0, lo = y, (u0 + lo) - y if loop else 0.0
    if not loop:  # to R = 2*half, past the box
        hi = math.log(2.0 * half / abs(u0))
    w_s = min(max(math.log(math.hypot(x, y) / abs(u0)), lo), hi)  # R = |u0|*exp(w)
    if saddle and w_s == (hi if loop else lo):  # the saddle, to rounding
        return _still(x, y)
    span = hi - lo
    t_s = (2.0 * math.asin(math.sqrt((w_s - lo) / span)) if w_s - lo < hi - w_s
           else math.pi - 2.0 * math.asin(math.sqrt((hi - w_s) / span)))
    s_s = math.pi - t_s if x > 0.0 or x == 0.0 < y and loop else math.pi + t_s
    s, q = _S, _side_times(u0, lo, hi)  # a side, and its mirror
    C = np.zeros(len(s))
    C[1:_SIDE_STEPS + 1], C[_SIDE_STEPS + 1:] = q[::-1], q
    C = C.cumsum()
    i_s, c_s = int(np.searchsorted(s, s_s)), None
    if (x / u0) ** 2 < 1e-8 and not saddle:
        # next to a crossing, where X is the root of a rounding of w, the start
        # is timed from the crossing by x/(dX/dT) there, dX/dT = 1/U - 1
        j = _SIDE_STEPS if t_s < 0.5 * math.pi else 0 if s_s < math.pi else 2 * _SIDE_STEPS
        c_s = C[j] + x / (1.0 / (u0 + (lo if j == _SIDE_STEPS else hi)) - 1.0)
        i_s, s_s, c_s = j + (c_s > C[j]), s[j], None if c_s == C[j] else c_s
    elif s[i_s] != s_s:  # the start's time, from the end of its panel away from a crossing
        c_s = (C[i_s] - _time(u0, lo, hi, s_s, s[i_s]) if s_s % math.pi < 0.5 * math.pi
               else C[i_s - 1] + _time(u0, lo, hi, s[i_s - 1], s_s))
    w, X = _curve(u0, lo, hi, _S_SIDE)
    X, U = np.copysign(abs(u0) * X, np.pi - s), u0 + w
    X[[_SIDE_STEPS, 0, -1] if loop else _SIDE_STEPS] = 0.0  # the crossings: pi, and 0 and 2*pi
    if c_s is not None:
        c_s = min(max(c_s, C[i_s - 1]), C[i_s])  # monotone, where it rounds onto a neighbour
        s, C, X, U = (np.concatenate((v[:i_s], [v_s], v[i_s:]))
                      for v, v_s in ((s, s_s), (C, c_s), (X, x), (U, y)))
    X[i_s], U[i_s] = x, y
    if saddle:
        C[-1 if loop else np.flatnonzero(s == np.pi)[0]] = math.inf

    def at(k: int, dt: float) -> tuple[float, float]:
        # Newton's method on the time from vertex k, bisecting where a step
        # leaves the panel to vertex k + 1, as it does next to the saddle.
        # A start timed from a crossing shares its s: before the crossing it
        # moves on the line to it, past it the time runs from the crossing
        if s[k + 1] == s[k]:
            f = dt / (C[k + 1] - C[k])
            return float(X[k] + f * (X[k + 1] - X[k])), float(U[k] + f * (U[k + 1] - U[k]))
        j = k - 1 if k == i_s and s[k - 1] == s[k] else k
        dt += C[k] - C[j]
        a, lo_s, hi_s = s[j], s[j], s[k + 1]
        p = a + (hi_s - a) * (dt / (C[k + 1] - C[j]) or 0.5)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(60):
                f = float(_time(u0, lo, hi, a, p)) - dt
                lo_s, hi_s = (p, hi_s) if f < 0.0 else (lo_s, p)
                p, prev = p - f / float(_rate(u0, lo, hi, _factors(p))), p
                if not lo_s < p < hi_s:
                    p = 0.5 * (lo_s + hi_s)
                if p == prev:
                    break
        wp, xp = _curve(u0, lo, hi, _side(p))
        return math.copysign(abs(u0) * float(xp), math.pi - p), u0 + float(wp)

    return C, X, U, i_s, C[-1] if loop and not saddle else None, at


def integrate(params: FlowParams, p0, *, max_time: float = 100.0,
              detect_closure: bool = False) -> Trajectory:
    """The orbit from p0 for max_time, in the flow's own time unit,
    sampled on its level set and timed by quadrature.

    A regular flow's orbit runs along the start's level piece in the
    direction of motion; a rotation's is its circle and a line flow's its
    line.  It halts at exactly max_time, on core entry, or on leaving the
    domain; with ``detect_closure`` a level that closes within max_time
    ends after one period, on p0, with status CLOSED_ORBIT_DETECTED.  The
    saddle and a zero field give p0 at 0 and at max_time.  The guards are
    constants of the canonical problem x = l*X, t = tau*T: l = delta/k and
    tau = l/a for a regular flow; a line flow or a rotation has no length of
    its own, so l is the start's distance to the origin (1 at the origin)
    and tau = l/a or l*l/b (a = hbar*k/mass, b = hbar*delta/mass).  The core
    exclusion radius is 1e-4*l, and the domain is the box of half-width
    10*l, widened to twice the start point.  Samples are formed in that
    frame and mapped back as p0 + l*(P - P0), so the first is p0 itself.
    A max_time that is not finite and positive, or that needs more than
    SAMPLES_MAX samples, is an InvalidParamsError; a start the flow cannot
    run from is a SingularPointError: one that is not finite, lies in the
    core, has no canonical units, or where psi's x*x + y*y overflows.
    """
    if not (math.isfinite(max_time) and max_time > 0):
        raise InvalidParamsError(f"max_time must be positive, got {max_time!r}")
    start = float(p0[0]), float(p0[1])
    if not (math.isfinite(start[0]) and math.isfinite(start[1])):
        raise SingularPointError(f"start point {p0!r} is not finite")
    if params.b > 0.0 and not math.isfinite(start[0] * start[0] + start[1] * start[1]):
        raise SingularPointError(f"psi is not finite at {p0!r}: x*x + y*y overflows there")
    l, tau, ca, cb = _frame(params, *start)
    if not (0.0 < l < math.inf and 0.0 < tau < math.inf and max_time / tau < math.inf):
        raise SingularPointError(f"no trajectory from {p0!r} for max_time {max_time!r} "
                                 f"in the canonical units l={l!r}, tau={tau!r}")
    x, y = start[0] / l, start[1] / l
    half = max(_HALF_WIDTH, 2.0 * max(abs(x), abs(y)))
    if math.hypot(x, y) <= _CORE_RADIUS:
        raise SingularPointError(
            f"start point {p0!r} lies within the core exclusion radius {_CORE_RADIUS * l!r}"
        )

    # the curve the start moves on: times C along it, its vertices, the
    # start's index, its period if it closes, and the point dt after vertex k
    if ca == cb == 0.0:  # no field
        C, X, U, i_s, period, at = _still(x, y)
    elif cb == 0.0 or math.hypot(x, y) > _FAR:  # a line: X = x - T, to the edge of the box
        C, X, U = np.array([0.0, x + half]), np.array([x, -half]), np.full(2, y)
        i_s, period, at = 0, None, lambda k, dt: (x - dt, y)
    elif ca == 0.0:  # a rotation: clockwise round the unit circle in 2*pi
        r, theta = math.hypot(x, y), math.atan2(y, x)
        C = np.linspace(0.0, 2.0 * math.pi, 2 * _SIDE_STEPS + 1)
        X, U, i_s, period = r * np.cos(theta - C), r * np.sin(theta - C), 0, C[-1]
        at = lambda k, dt: (r * math.cos(theta - C[k] - dt), r * math.sin(theta - C[k] - dt))
    else:
        C, X, U, i_s, period, at = _level_curve(x, y, half)
    t_end = max_time / tau
    closing = detect_closure and period is not None and period <= t_end
    if closing:
        t_end = period
    if period is None:
        k = np.arange(i_s, len(C))
        T = C[k] - C[i_s]
    else:  # laps of the closed curve, whose last vertex is its first
        m = len(C) - 1
        laps = math.ceil(min(t_end / period, SAMPLES_MAX // m + 1))
        lap, k = np.divmod(np.arange(i_s, i_s + laps * m + 1), m)
        T = (C[k] - C[i_s]) + lap * period
    # a start within rounding of a vertex can share its time: the start stands for both
    tie = np.zeros(len(T) + 1, dtype=bool)
    tie[1:-1] = T[1:] - T[:-1] == 0.0
    keep = ~(tie[1:] | tie[:-1]) | (k == i_s)
    T, k = T[keep], k[keep]
    X, U = X[k], U[k]

    # the first of: a vertex outside the box or an open curve's last (kept),
    # one inside the core (dropped), and max_time (reached exactly)
    out = np.maximum(np.abs(X), np.abs(U)) >= half
    out[-1] |= period is None
    hits = [(int(np.argmax(v)) + kept, rank, status) for rank, (v, kept, status) in enumerate([
        (out, 1, TrajectoryStatus.LEFT_DOMAIN),
        (np.hypot(X, U) <= _CORE_RADIUS, 0, TrajectoryStatus.ENTERED_CORE_RADIUS),
        (T >= t_end, 0, None)]) if v.any()]
    end, _, status = min(hits) if hits else (SAMPLES_MAX + 1, 0, None)
    if status is None and end <= SAMPLES_MAX:
        status = (TrajectoryStatus.CLOSED_ORBIT_DETECTED if closing
                  else TrajectoryStatus.COMPLETED)
        if T[end] != t_end:  # the point at max_time, between two vertices, takes vertex end's row
            X[end], U[end] = at(k[end - 1], t_end - T[end - 1])
            T[end] = t_end
        end += 1
    if end > SAMPLES_MAX or status is None:
        raise InvalidParamsError(f"trajectory reached SAMPLES_MAX = {SAMPLES_MAX} samples at time "
                                 f"{float(tau * T[SAMPLES_MAX - 1])!r} of max_time {max_time!r}")
    times, pts = T[:end], np.empty((end, 2))
    pts[:, 0], pts[:, 1] = X[:end], U[:end]
    points = np.array(start) + l * (pts - pts[0])
    hs = stream_values(params, points[:, 0], points[:, 1])
    with np.errstate(invalid="ignore"):  # inf - inf, where psi overflows
        drift = float(np.max(np.abs(hs - hs[0])))
    return Trajectory(
        times=tau * times,
        points=points,
        h_values=hs,
        max_h_drift=drift,
        status=status,
    )


def _loop_metrics(params: FlowParams) -> tuple[float, float, float]:
    """The separatrix loop's area, largest radius and crossing of the
    negative y axis: closed forms times l = delta/k."""
    if params.delta == 0.0 or params.k == 0.0:
        raise InvalidParamsError("separatrix tracing requires delta > 0 and k > 0")
    l = params.saddle_height
    return _LOOP_AREA * l * l, l, -_W_INV_E * l


@functools.cache
def _separatrix_table() -> tuple[np.ndarray, np.ndarray]:
    """The separatrix in canonical units, built on first use, read-only: its
    loop, down the side X >= 0 from the saddle and up its mirror, and its
    right arm, up to its first vertex outside the box."""
    w, x = _curve(1.0, -1.0 - _W_INV_E, 0.0, _LOOP_SIDE)
    x[[0, -1]] = 0.0  # X^2 vanishes at the saddle and the crossing only to roundoff
    down = np.column_stack([x, 1.0 + w])
    loop = np.vstack([down, down[-2::-1] * [-1.0, 1.0] + 0.0])  # up its mirror; not -0.0
    w, x = _curve(1.0, 0.0, math.log(2.0 * _HALF_WIDTH), [v[::-1] for v in _LOOP_SIDE])
    n = int(np.argmax(np.maximum(x, 1.0 + w) > _HALF_WIDTH)) + 1
    right = np.column_stack([x[:n], 1.0 + w[:n]])
    loop.flags.writeable = right.flags.writeable = False
    return loop, right


def trace_separatrix(params: FlowParams) -> SeparatrixResult:
    """The level set through the saddle, sampled from its closed form.

    In canonical coordinates (x, y) = l*(X, U), l = delta/k, the separatrix
    is X = +-sqrt(exp(2(U-1)) - U^2): the homoclinic loop for
    -W(1/e) <= U <= 1 and the two unbounded arms for U >= 1, each sampled
    as trajectories are.  The loop is closed through the saddle and runs as
    the flow does, down the right side (the unstable direction) and back up
    its mirror.  The arms, left (the right's mirror) then right, run from
    the saddle to their first vertex outside the box of half-width 10*l,
    a trajectory's domain.
    """
    area, l, crossing = _loop_metrics(params)
    level = critical.separatrix_level(params)
    loop, right = (l * v for v in _separatrix_table())
    left = right * [-1.0, 1.0] + 0.0  # the saddle keeps x = +0.0

    return SeparatrixResult(
        loop=Polyline(points=loop, level=level, closed=True),
        unbounded_branches=[Polyline(points=left, level=level),
                            Polyline(points=right, level=level)],
        loop_area=area,
        loop_max_radius=l,
        lower_axis_crossing=crossing,
    )
