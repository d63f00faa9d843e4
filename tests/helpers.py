"""Helpers that only the tests use: the unit band of the scaling law,
the polyline invariants, winding numbers, signed areas and Hausdorff
distances of polylines, and a trajectory's position between samples."""

import math

import numpy as np
from hypothesis import strategies as st

from abflow import FlowParams, InvalidParamsError, Trajectory, current

# decimal logarithms of the length and time units and of delta
UNITS = dict(
    log_l=st.floats(-6.0, 6.0),
    log_tau=st.floats(-4.0, 4.0),
    log_delta=st.floats(-12.0, math.log10(0.5)),
)


def flow(l: float, tau: float, delta: float) -> FlowParams:
    """The flow with length unit delta/k = l and time unit tau: a = l/tau and
    b = l*l/tau."""
    return FlowParams(hbar=l * l / (tau * delta), k=delta / l, delta=delta)


def check_well_formed(poly) -> None:
    """A polyline as the library builds it: at least two 2-d float vertices,
    no two consecutive ones equal, and, if closed, its last vertex its first
    bit for bit."""
    pts = poly.points
    assert pts.dtype == float and pts.ndim == 2 and pts.shape[1] == 2 and len(pts) >= 2
    assert np.all((pts[1:] != pts[:-1]).any(axis=1)), "consecutive vertices are equal"
    if poly.closed:
        assert pts[-1].tobytes() == pts[0].tobytes(), "a closed polyline ends off its start"


def winding_number(points: np.ndarray, about=(0.0, 0.0)) -> int:
    """Winding count of a closed polyline around a point (angle summation)."""
    p = np.asarray(points, dtype=float) - np.asarray(about, dtype=float)
    ang = np.arctan2(p[:, 1], p[:, 0])
    d = np.diff(np.append(ang, ang[0]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(d.sum()) / (2.0 * np.pi)))


def _farthest_nearest_sq(a: np.ndarray, b: np.ndarray) -> float:
    # squared distance from b of the point of a farthest from it, over blocks
    # of a's rows so that memory stays O(block*len(b))
    rows = max(1, 65536 // max(1, len(b)))
    worst = 0.0
    for i in range(0, len(a), rows):
        blk = a[i:i + rows]
        d2 = (blk[:, :1] - b[:, 0]) ** 2 + (blk[:, 1:] - b[:, 1]) ** 2
        worst = max(worst, float(d2.min(axis=1).max()))
    return worst


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.sqrt(max(_farthest_nearest_sq(a, b), _farthest_nearest_sq(b, a)))


def polygon_area(points: np.ndarray) -> float:
    """Signed shoelace area (positive for counterclockwise orientation)."""
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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
    fp, fq = current(params, p), current(params, q)
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * p + (s3 - 2 * s2 + s) * dt * fp
            + (-2 * s3 + 3 * s2) * q + (s3 - s2) * dt * fq)


def ode_times(params: FlowParams, traj: Trajectory, substeps: int = 512) -> np.ndarray:
    """An independent oracle for a trajectory's times: the classical
    fourth-order Runge-Kutta method, in substeps equal steps, carries each
    sample along the field for the time to the next sample.  Where it lands
    ahead of that sample along the flow, by d at speed v, the field takes
    d/v less time between the two.  Returns each sample's time summed from
    those field times."""
    a, b = params.a, params.b

    def field(x, y):
        r2 = x * x + y * y
        return -a + b * (y / r2), -b * (x / r2)

    dt = np.diff(traj.times)
    x, y = traj.points[:-1].T
    h = dt / substeps
    for _ in range(substeps):
        k1 = field(x, y)
        k2 = field(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
        k3 = field(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
        k4 = field(x + h * k3[0], y + h * k3[1])
        x = x + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y = y + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    u, v = field(*traj.points[1:].T)
    ahead = ((x - traj.points[1:, 0]) * u + (y - traj.points[1:, 1]) * v) / (u * u + v * v)
    return np.concatenate([[0.0], np.cumsum(dt - ahead)])
