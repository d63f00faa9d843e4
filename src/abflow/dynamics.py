"""Trajectory integration, closed-orbit detection, and the separatrix.

The integrator is an embedded Dormand-Prince 5(4) pair with per-step error
control plus a hard budget on the Hamiltonian drift |H(t) - H(0)|: a step
whose endpoint violates the budget is rejected and bisected.  The Hamiltonian
is a first integral of the flow, so the budget is attainable whenever the
error tolerances are; if bisection stalls the trajectory is reported with
``step_failure`` rather than silently accepted.

The separatrix needs no integration: in canonical coordinates
(x, y) = l*(X, U) with l = delta/k it is the curve X^2 = exp(2(U-1)) - U^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import critical
from .contour import Polyline, canonical_x, default_core_radius, polygon_area
from .errors import InvalidParamsError, InvalidStartError
from .field import FlowParams, _psi, _velocity, current

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "TrajectoryStatus",
    "OrbitResult",
    "SeparatrixResult",
    "integrate",
    "detect_closed_orbit",
    "trace_separatrix",
    "position_at",
]

# Dormand-Prince 5(4) tableau (stage times omitted: the field is autonomous)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# weights of the embedded error estimate (5th order - 4th order)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_MIN_STEP_FRACTION = 1e-13
_MAX_STEP = 0.1
# a first return closes the orbit within this distance of the start and
# this angle (radians) of its start direction, after an arc ten times longer
_CLOSURE_POS_TOL = 1e-6
_CLOSURE_ANGLE_TOL = 1e-3
_CLOSURE_MIN_ARC = 10.0 * _CLOSURE_POS_TOL

# W(1/e): the loop meets the negative y axis at U = -W(1/e) (Corless et al.,
# "On the Lambert W function", 1996)
_W_INV_E = 0.2784645427610738
# vertices per side of the loop and per unbounded arm
_LOOP_SIDE_SAMPLES = 700
_ARM_SAMPLES = 580


class TrajectoryStatus(enum.Enum):
    COMPLETED = "completed"
    CLOSED_ORBIT_DETECTED = "closed_orbit_detected"
    ENTERED_CORE_RADIUS = "entered_core_radius"
    LEFT_DOMAIN = "left_domain"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and guards for trajectory integration.

    ``h_drift_budget`` bounds |H(t) - H(0)| in units of the field scale
    max(1, b), b = hbar*delta/mass.  ``core_radius`` defaults (None) to
    1e-4*(delta/k), or 1e-6 without rotation.  The domain is a box covering
    ten saddle heights, at least [-5, 5]^2, and twice the start point.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    core_radius: float | None = None
    max_time: float = 100.0
    h_drift_budget: float = 1e-8

    def __post_init__(self):
        if self.rel_tol < 1e-14 or self.abs_tol < 1e-14:
            raise InvalidParamsError("tolerances must be at least 1e-14")
        for name in ("rel_tol", "abs_tol", "max_time", "h_drift_budget"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidParamsError(f"{name} must be positive, got {v!r}")
        v = self.core_radius
        if v is not None and not (math.isfinite(v) and v > 0):
            raise InvalidParamsError(f"core_radius must be positive, got {v!r}")


@dataclass(frozen=True)
class Trajectory:
    """Integration samples with Hamiltonian-drift statistics.

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
class OrbitResult:
    closed: bool
    period: float | None
    return_distance: float


@dataclass(frozen=True)
class SeparatrixResult:
    loop: Polyline
    unbounded_branches: list[Polyline]
    loop_area: float
    loop_max_radius: float
    lower_axis_crossing: float


def _hermite(p, q, fp, fq, dt: float, s: float):
    """Cubic Hermite interpolant at s in [0, 1] of one step of length dt from
    p (slope fp) to q (slope fq); floats or arrays."""
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * p + (s3 - 2 * s2 + s) * dt * fp
            + (-2 * s3 + 3 * s2) * q + (s3 - s2) * dt * fq)


def _default_halfwidth(params: FlowParams) -> float:
    # ten saddle heights, at least [-5, 5]^2
    half = 5.0
    if params.delta > 0.0 and params.k > 0.0:
        half = max(half, 10.0 * params.saddle_height)
    return half


def integrate(
    params: FlowParams,
    p0,
    cfg: IntegratorConfig | None = None,
    *,
    detect_closure: bool = False,
) -> Trajectory:
    """Integrate the current field from p0 under adaptive step control.

    Halts on closed-orbit detection (if requested), core entry, domain exit,
    or max_time.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    a, b = params.a, params.b
    budget = cfg.h_drift_budget * max(1.0, b)

    def energy(x: float, y: float) -> float:
        return float(_psi(a, b, x, y))

    x, y = float(p0[0]), float(p0[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidStartError(f"start point {p0!r} is not finite")
    core = cfg.core_radius or default_core_radius(params)
    half = max(_default_halfwidth(params), 2.0 * max(abs(x), abs(y)))
    if math.hypot(x, y) <= core:
        raise InvalidStartError(
            f"start point {p0!r} lies within the core exclusion radius {core!r}"
        )

    h0 = energy(x, y)
    times = [0.0]
    pts = [(x, y)]
    hs = [h0]

    fx, fy = _velocity(a, b, x, y)
    speed0 = math.hypot(fx, fy)
    closure_on = detect_closure and speed0 > 0.0
    if closure_on:
        nx0, ny0 = fx / speed0, fy / speed0  # section normal = start direction
    x0, y0 = x, y
    g_prev = 0.0
    arc = 0.0

    t = 0.0
    h = 1e-3
    status = None
    rejections = 0
    t_end = cfg.max_time

    while t_end - t > 1e-12 * t_end:
        if h < _MIN_STEP_FRACTION * max(1.0, t):
            status = TrajectoryStatus.STEP_FAILURE
            break
        ht = min(h, t_end - t)

        # one Dormand-Prince attempt
        try:
            k = [(fx, fy)]
            for stage in range(1, 7):
                ax_ = x + ht * sum(_A[stage][m] * k[m][0] for m in range(stage))
                ay_ = y + ht * sum(_A[stage][m] * k[m][1] for m in range(stage))
                k.append(_velocity(a, b, ax_, ay_))
        except ZeroDivisionError:
            status = TrajectoryStatus.STEP_FAILURE
            break
        xn, yn = ax_, ay_  # stage 7 is evaluated at the 5th-order solution
        ex = ht * sum(_E[m] * k[m][0] for m in range(7))
        ey = ht * sum(_E[m] * k[m][1] for m in range(7))
        sx = cfg.abs_tol + cfg.rel_tol * max(abs(x), abs(xn))
        sy = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(yn))
        err = math.sqrt(0.5 * ((ex / sx) ** 2 + (ey / sy) ** 2))

        if err > 1.0:
            shrink = max(0.2, 0.9 * err ** -0.2)
        elif math.hypot(xn, yn) <= core:
            status = TrajectoryStatus.ENTERED_CORE_RADIUS
            break
        else:
            hn = energy(xn, yn)
            shrink = 0.5 if abs(hn - h0) > budget else None
        if shrink is not None:
            h = ht * shrink
            rejections += 1
            if rejections > 200:
                status = TrajectoryStatus.STEP_FAILURE
                break
            continue
        rejections = 0
        fxn, fyn = k[6]

        if closure_on:
            g_new = (xn - x0) * nx0 + (yn - y0) * ny0
            if arc > _CLOSURE_MIN_ARC and g_prev < 0.0 <= g_new:
                # refine the section crossing on the Hermite interpolant
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    px = _hermite(x, xn, fx, fxn, ht, mid)
                    py = _hermite(y, yn, fy, fyn, ht, mid)
                    gm = (px - x0) * nx0 + (py - y0) * ny0
                    if gm < 0.0:
                        lo = mid
                    else:
                        hi = mid
                s = 0.5 * (lo + hi)
                px = _hermite(x, xn, fx, fxn, ht, s)
                py = _hermite(y, yn, fy, fyn, ht, s)
                dist = math.hypot(px - x0, py - y0)
                vx, vy = _velocity(a, b, px, py)
                angle = abs(math.atan2(vx * ny0 - vy * nx0, vx * nx0 + vy * ny0))
                if dist <= _CLOSURE_POS_TOL and angle <= _CLOSURE_ANGLE_TOL:
                    times.append(t + s * ht)
                    pts.append((px, py))
                    hs.append(energy(px, py))
                    status = TrajectoryStatus.CLOSED_ORBIT_DETECTED
                    break
            g_prev = g_new

        arc += math.hypot(xn - x, yn - y)
        t = t + ht
        times.append(t)
        pts.append((xn, yn))
        hs.append(hn)
        x, y = xn, yn
        fx, fy = fxn, fyn  # FSAL

        if abs(x) > half or abs(y) > half:
            status = TrajectoryStatus.LEFT_DOMAIN
            break

        grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
        h = min(_MAX_STEP, ht * grow)

    if status is None:
        status = TrajectoryStatus.COMPLETED

    harr = np.array(hs)
    return Trajectory(
        times=np.array(times),
        points=np.array(pts),
        h_values=harr,
        max_h_drift=float(np.max(np.abs(harr - harr[0]))),
        status=status,
    )


def detect_closed_orbit(
    params: FlowParams, p0, cfg: IntegratorConfig | None = None
) -> OrbitResult:
    """First-return test: integrate until the trajectory re-enters the
    closure tolerance of p0 with matching velocity direction, or max_time."""
    traj = integrate(params, p0, cfg, detect_closure=True)
    start = traj.points[0]
    last = traj.points[-1]
    dist = float(np.hypot(*(last - start)))
    if traj.status is TrajectoryStatus.CLOSED_ORBIT_DETECTED:
        return OrbitResult(closed=True, period=float(traj.times[-1]), return_distance=dist)
    return OrbitResult(closed=False, period=None, return_distance=dist)


def trace_separatrix(params: FlowParams) -> SeparatrixResult:
    """The level set through the saddle, sampled from its closed form.

    In canonical coordinates (x, y) = l*(X, U), l = delta/k, the separatrix
    is X = +-sqrt(exp(2(U-1)) - U^2): the homoclinic loop for
    -W(1/e) <= U <= 1 and the two unbounded arms for U >= 1.  The loop is
    closed through the saddle and runs as the flow does, down the right side
    (the unstable direction) and back up the left.  The arms, left then
    right, run from the saddle to their first vertex outside the default
    integration domain.
    """
    if params.delta == 0.0 or params.k == 0.0:
        raise InvalidParamsError("separatrix tracing requires delta > 0 and k > 0")
    l = params.saddle_height
    level = critical.separatrix_level(params)

    # one side of the loop from the axis crossing up to the saddle (excluded):
    # U = -W(1/e) + t^2 makes X smooth in t at the crossing, and the cosine
    # spacing of t clusters the vertices toward the saddle
    t_max = math.sqrt(1.0 + _W_INV_E)
    s = np.linspace(0.0, 1.0, _LOOP_SIDE_SAMPLES + 1)[:-1]
    u = (t_max * np.sin(0.5 * np.pi * s)) ** 2 - _W_INV_E
    x = canonical_x(u - 1.0)
    x[0] = 0.0  # X^2 vanishes there only to roundoff
    loop_pts = l * np.column_stack([
        np.concatenate(([0.0], x[::-1], -x[1:], [0.0])),
        np.concatenate(([1.0], u[::-1], u[1:], [1.0])),
    ])

    # the right arm, w = U - 1 spaced quadratically toward the saddle; X
    # passes the domain half-width H before w reaches log(H) + 1
    half = _default_halfwidth(params) / l
    u = 1.0 + (math.log(half) + 1.0) * np.linspace(0.0, 1.0, _ARM_SAMPLES) ** 2
    x = canonical_x(u - 1.0)
    n = int(np.argmax(np.maximum(x, u) > half)) + 1
    right = l * np.column_stack([x[:n], u[:n]])
    left = right.copy()
    left[1:, 0] *= -1.0  # the saddle keeps x = +0.0

    return SeparatrixResult(
        loop=Polyline(points=loop_pts, level=level, closed=True),
        unbounded_branches=[Polyline(points=left, level=level),
                            Polyline(points=right, level=level)],
        loop_area=abs(polygon_area(loop_pts[:-1])),
        loop_max_radius=l,
        lower_axis_crossing=-_W_INV_E * l,
    )


def position_at(params: FlowParams, traj: Trajectory, t: float) -> np.ndarray:
    """Cubic-Hermite interpolation of a trajectory at elapsed time t."""
    times = traj.times
    if not (times[0] <= t <= times[-1]):
        raise InvalidParamsError(f"t={t!r} outside trajectory range")
    i = int(np.searchsorted(times, t, side="right") - 1)
    i = min(i, len(times) - 2)
    dt = float(times[i + 1] - times[i])
    if dt == 0.0:
        return traj.points[i].copy()
    s = (t - float(times[i])) / dt
    p, q = traj.points[i], traj.points[i + 1]
    return _hermite(p, q, current(params, p), current(params, q), dt, s)
