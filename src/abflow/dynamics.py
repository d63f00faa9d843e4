"""Trajectory integration, closed orbits, and the separatrix.

The integrator is an embedded Dormand-Prince 5(4) pair with per-step error
control.  The Hamiltonian psi is a first integral of the flow, so each
accepted step is projected back onto the start's level set along grad psi
(Hairer, Lubich & Wanner, "Geometric Numerical Integration", 2nd ed.,
2006, section IV.4): the drift |H(t) - H(0)| stays at roundoff, and a
closed orbit next to the saddle does not slide onto a nearby level.

Trajectories are integrated in one canonical frame, x = l*X and t = tau*T,
in which the field is the same for every unit system; every guard is a
constant of that one problem.

Orbits are level sets of psi, so closure needs no search: whether a level
closes, and its period, follow from its y-axis crossings, and a closed orbit
is integrated for one period.  In canonical coordinates (x, y) = l*(X, U)
with l = delta/k the separatrix is the curve X^2 = exp(2(U-1)) - U^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import critical
from .contour import Polyline, _pieces, canonical_x
from .errors import InvalidParamsError, InvalidStartError
from .field import FlowParams, _frame, _psi, _velocity, stream_values

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "TrajectoryStatus",
    "OrbitResult",
    "SeparatrixResult",
    "integrate",
    "detect_closed_orbit",
    "trace_separatrix",
]

# guards of the canonical problem: lengths in l, times in tau
_CORE_RADIUS = 1e-4
_HALF_WIDTH = 10.0  # of the domain box, or twice the start point
_FIRST_STEP = 1e-3
_MAX_STEP = 0.1
_MIN_STEP_FRACTION = 1e-13
SAMPLES_MAX = 1 << 18  # most samples of one trajectory, a bound on memory and time
# a closed orbit ends within this distance of its start after one period
_CLOSURE_POS_TOL = 1e-6
# the tanh-sinh nodes of the period quadrature, step 1/16 (Takahasi & Mori,
# "Double exponential formulas for numerical integration", 1974)
_TS_NODES = np.arange(-72, 73) / 16.0

# W(1/e): the loop meets the negative y axis at U = -W(1/e) (Corless et al.,
# "On the Lambert W function", 1996); its area is 2*int X dU over the loop
_W_INV_E = 0.2784645427610738
_LOOP_AREA = 0.731444628777403
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

    A trajectory is integrated in canonical coordinates x = l*X, t = tau*T:
    l = delta/k and tau = l/a for a regular flow; a line flow or a rotation
    has no length of its own, so l is the start's distance to the origin
    (1 at the origin) and tau = l/a or l*l/b (a = hbar*k/mass,
    b = hbar*delta/mass).  Every guard is a constant of that one problem,
    so the samples, scaled by l and tau, do not depend on the unit system.
    ``rel_tol`` and ``abs_tol`` bound the local error in units of l; each
    step is projected onto the start's level, so psi drifts by roundoff.
    The core exclusion radius is 1e-4*l.  The domain is the box of
    half-width 10*l, widened to twice the start point.  The first step is
    1e-3*tau and no step is longer than 0.1*tau.  An orbit whose level set
    closes is closed if, integrated for its period, it ends within 1e-6*l
    of its start.  ``max_time`` is in the flow's own time unit; needing
    more than SAMPLES_MAX samples to reach it is an InvalidParamsError.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_time: float = 100.0

    def __post_init__(self):
        if self.rel_tol < 1e-14 or self.abs_tol < 1e-14:
            raise InvalidParamsError("tolerances must be at least 1e-14")
        for name in ("rel_tol", "abs_tol", "max_time"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidParamsError(f"{name} must be positive, got {v!r}")


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


def _canonical_period(ca: float, cb: float, X: float, U: float) -> float | None:
    """The period, in units of tau, of the orbit through the canonical point
    (X, U), or None if it does not close.  A rotation turns in 2*pi*R^2; a
    regular flow's level log R - U = C closes exactly when C < -1 and U < 1,
    in T = 2*int R^2/|X| dU between its y-axis crossings: a tanh-sinh sum
    whose nodes lie at w = +-d from the nearer crossing u0, where
    R^2/|X| = |u0|*exp(2w)/canonical_x(w, u0) keeps its digits."""
    if cb == 0.0:
        return None
    if ca == 0.0:
        return 2.0 * math.pi * (X * X + U * U)
    c = math.log(math.hypot(X, U)) - U
    if not (c < -1.0 and U < 1.0):
        return None
    top, w_lo = _pieces(c, 0.0)[0][:2]  # the loop spans top + w_lo <= U <= top
    s = 0.5 * math.pi * np.sinh(_TS_NODES)
    d = -w_lo / (1.0 + np.exp(2.0 * np.abs(s)))
    lower = _TS_NODES < 0.0
    u0, w = np.where(lower, top + w_lo, top), np.where(lower, d, -d)
    weights = -w_lo * (math.pi / 32.0) * np.cosh(_TS_NODES) / np.cosh(s) ** 2
    return float(np.sum(weights * np.abs(u0) * np.exp(2.0 * w) / canonical_x(w, u0)))


def integrate(
    params: FlowParams,
    p0,
    cfg: IntegratorConfig | None = None,
    *,
    detect_closure: bool = False,
) -> Trajectory:
    """Integrate the current field from p0 under adaptive step control.

    Halts on core entry, domain exit, or max_time; a zero field gives p0 at 0
    and at max_time.  With ``detect_closure`` a closed level ends after one
    period, closed if it returns within 1e-6*l of p0.  Steps run in the
    canonical frame of `IntegratorConfig`, mapped back; the first is p0 itself.
    A start that is not finite, lies in the core, has no canonical units, or
    where psi's x*x + y*y overflows is an InvalidStartError.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    start = float(p0[0]), float(p0[1])
    if not (math.isfinite(start[0]) and math.isfinite(start[1])):
        raise InvalidStartError(f"start point {p0!r} is not finite")
    if params.b > 0.0 and not math.isfinite(start[0] * start[0] + start[1] * start[1]):
        raise InvalidStartError(f"psi is not finite at {p0!r}: x*x + y*y overflows there")
    l, tau, ca, cb = _frame(params, *start)
    if not (0.0 < l < math.inf and 0.0 < tau < math.inf and cfg.max_time / tau < math.inf):
        raise InvalidStartError(
            f"cannot integrate from {p0!r} for max_time {cfg.max_time!r} "
            f"in the canonical units l={l!r}, tau={tau!r}"
        )
    core = _CORE_RADIUS
    x, y = start[0] / l, start[1] / l
    half = max(_HALF_WIDTH, 2.0 * max(abs(x), abs(y)))
    if math.hypot(x, y) <= core:
        raise InvalidStartError(
            f"start point {p0!r} lies within the core exclusion radius {core * l!r}"
        )

    h0 = float(_psi(ca, cb, x, y))
    times = [0.0]
    pts = [(x, y)]

    fx, fy = _velocity(ca, cb, x, y)
    x0, y0 = x, y

    t = 0.0
    h = _FIRST_STEP
    status = None
    rejections = 0
    period = _canonical_period(ca, cb, x, y) if detect_closure else None
    t_end = min(cfg.max_time / tau, period or math.inf)
    if ca == cb == 0.0:  # no field: nothing moves
        t, times, pts = t_end, [0.0, t_end], [(x, y)] * 2

    while t_end - t > 1e-12 * t_end:
        if h < _MIN_STEP_FRACTION * max(1.0, t):
            status = TrajectoryStatus.STEP_FAILURE
            break
        ht = min(h, t_end - t)

        # one Dormand-Prince 5(4) attempt (Dormand & Prince 1980) with the
        # stages written out; no stage times, the field is autonomous.  A
        # weight is applied as the rounded ratio c / d times k (k / 5 would
        # round differently from 1 / 5 * k), and zero weights are left out.
        k1x, k1y = fx, fy
        try:
            k2x, k2y = _velocity(ca, cb, x + ht * (1 / 5 * k1x), y + ht * (1 / 5 * k1y))
            k3x, k3y = _velocity(
                ca, cb,
                x + ht * (3 / 40 * k1x + 9 / 40 * k2x),
                y + ht * (3 / 40 * k1y + 9 / 40 * k2y),
            )
            k4x, k4y = _velocity(
                ca, cb,
                x + ht * (44 / 45 * k1x - 56 / 15 * k2x + 32 / 9 * k3x),
                y + ht * (44 / 45 * k1y - 56 / 15 * k2y + 32 / 9 * k3y),
            )
            k5x, k5y = _velocity(
                ca, cb,
                x + ht * (19372 / 6561 * k1x - 25360 / 2187 * k2x
                          + 64448 / 6561 * k3x - 212 / 729 * k4x),
                y + ht * (19372 / 6561 * k1y - 25360 / 2187 * k2y
                          + 64448 / 6561 * k3y - 212 / 729 * k4y),
            )
            k6x, k6y = _velocity(
                ca, cb,
                x + ht * (9017 / 3168 * k1x - 355 / 33 * k2x + 46732 / 5247 * k3x
                          + 49 / 176 * k4x - 5103 / 18656 * k5x),
                y + ht * (9017 / 3168 * k1y - 355 / 33 * k2y + 46732 / 5247 * k3y
                          + 49 / 176 * k4y - 5103 / 18656 * k5y),
            )
            # the 5th-order solution; stage 7 is evaluated there (FSAL)
            xn = x + ht * (35 / 384 * k1x + 500 / 1113 * k3x + 125 / 192 * k4x
                           - 2187 / 6784 * k5x + 11 / 84 * k6x)
            yn = y + ht * (35 / 384 * k1y + 500 / 1113 * k3y + 125 / 192 * k4y
                           - 2187 / 6784 * k5y + 11 / 84 * k6y)
            k7x, k7y = _velocity(ca, cb, xn, yn)
        except ZeroDivisionError:
            status = TrajectoryStatus.STEP_FAILURE
            break
        # embedded error estimate: 5th-order minus 4th-order weights
        ex = ht * (71 / 57600 * k1x - 71 / 16695 * k3x + 71 / 1920 * k4x
                   - 17253 / 339200 * k5x + 22 / 525 * k6x - 1 / 40 * k7x)
        ey = ht * (71 / 57600 * k1y - 71 / 16695 * k3y + 71 / 1920 * k4y
                   - 17253 / 339200 * k5y + 22 / 525 * k6y - 1 / 40 * k7y)
        sx = cfg.abs_tol + cfg.rel_tol * max(abs(x), abs(xn))
        sy = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(yn))
        err = math.sqrt(0.5 * ((ex / sx) ** 2 + (ey / sy) ** 2))

        if err > 1.0:
            h = ht * max(0.2, 0.9 * err ** -0.2)
            rejections += 1
            if rejections > 200:
                status = TrajectoryStatus.STEP_FAILURE
                break
            continue
        if math.hypot(xn, yn) <= core:
            status = TrajectoryStatus.ENTERED_CORE_RADIUS
            break
        rejections = 0
        if len(times) == SAMPLES_MAX:
            raise InvalidParamsError(f"trajectory reached SAMPLES_MAX = {SAMPLES_MAX} samples "
                                     f"at time {tau * t!r} of max_time {cfg.max_time!r}")
        # one Newton step onto the level h0 along grad psi = (-v, u); k7 anew (FSAL)
        g, s = float(_psi(ca, cb, xn, yn)) - h0, k7x * k7x + k7y * k7y
        if 0.0 < abs(g) < math.inf and s > 0.0:
            xn, yn = xn + g / s * k7y, yn - g / s * k7x
            k7x, k7y = _velocity(ca, cb, xn, yn)

        t = t + ht
        times.append(t)
        pts.append((xn, yn))
        x, y = xn, yn
        fx, fy = k7x, k7y  # FSAL

        if abs(x) > half or abs(y) > half:
            status = TrajectoryStatus.LEFT_DOMAIN
            break

        grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
        h = min(_MAX_STEP, ht * grow)

    if status is None:
        closed = t_end == period and math.hypot(x - x0, y - y0) <= _CLOSURE_POS_TOL
        status = TrajectoryStatus.CLOSED_ORBIT_DETECTED if closed else TrajectoryStatus.COMPLETED

    points = l * np.array(pts)
    points[0 if ca or cb else slice(None)] = start  # p0 itself, twice on a zero field
    hs = stream_values(params, points[:, 0], points[:, 1])
    return Trajectory(
        times=tau * np.array(times),
        points=points,
        h_values=hs,
        max_h_drift=float(np.max(np.abs(hs - hs[0]))),
        status=status,
    )


def detect_closed_orbit(
    params: FlowParams, p0, cfg: IntegratorConfig | None = None
) -> OrbitResult:
    """Integrate from p0 with ``detect_closure``: an orbit whose level set
    closes, run for its period within max_time, is closed if it ends within
    1e-6*l of p0, and its period is that time."""
    traj = integrate(params, p0, cfg, detect_closure=True)
    closed = traj.status is TrajectoryStatus.CLOSED_ORBIT_DETECTED
    return OrbitResult(closed=closed, period=float(traj.times[-1]) if closed else None,
                       return_distance=float(np.hypot(*(traj.points[-1] - traj.points[0]))))


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
    u = 1.0 + (math.log(_HALF_WIDTH) + 1.0) * np.linspace(0.0, 1.0, _ARM_SAMPLES) ** 2
    x = canonical_x(u - 1.0)
    n = int(np.argmax(np.maximum(x, u) > _HALF_WIDTH)) + 1
    right = l * np.column_stack([x[:n], u[:n]])
    left = right.copy()
    left[1:, 0] *= -1.0  # the saddle keeps x = +0.0

    return SeparatrixResult(
        loop=Polyline(points=loop_pts, level=level, closed=True),
        unbounded_branches=[Polyline(points=left, level=level),
                            Polyline(points=right, level=level)],
        loop_area=_LOOP_AREA * l * l,
        loop_max_radius=l,
        lower_axis_crossing=-_W_INV_E * l,
    )
