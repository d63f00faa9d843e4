"""Closed-form oracles and the output check of every op.

The flow ``psi = -a*y + b*log r`` is fully analytic, so every output the
benchmark times is compared with an independent closed form here.  A check
returns None when the output is right and a one-line reason when it is not.
Checks run after the op's timing stops.

In canonical units (x, y) = l*(X, U) the homoclinic loop is the curve
``X^2 = exp(2(U - 1)) - U^2`` for U in [-W(1/e), 1] (Corless et al., "On the
Lambert W function", 1996): it crosses the negative y axis at -W(1/e)*l,
reaches its largest radius l at the saddle, and encloses the area A1*l^2.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np

from workloads import Flow, Op


def _loop_constants() -> tuple[float, float]:
    with mpmath.workdps(30):
        w = mpmath.lambertw(1 / mpmath.e).real
        area = 2 * mpmath.quad(
            lambda u: mpmath.sqrt(mpmath.exp(2 * (u - 1)) - u * u), [-w, 0, 1]
        )
    return float(w), float(area)


W1E, A1 = _loop_constants()

# Tolerances, each with its reason (README.md has the same table).
# The traced loop is a chord polygon through integrator steps; over l in
# [0.1, 10] the worst crossing error seen is 3.5e-6 l and the worst area
# error 7.9e-6 l^2.
CROSSING_REL = 1e-5
AREA_REL = 3e-5
# the loop's branch is seeded 1e-6*l off the saddle
RADIUS_REL = 1e-6
# separatrix level, stagnation point, eigenvalues and current are elementary
# expressions, a few roundings apart
CLOSED_FORM_REL = 1e-13
# times 2*pi*R*max|J| on the circle: the trapezoid rule is exact to roundoff
# when the origin stays 0.3 radii off the circle; a 512-term sum loses about
# 512 ulp
CIRCULATION_ROUNDOFF = 1e-12
# times |a*y| + |b*log r| + |level| at a portrait vertex, on top of the
# discretisation bound in level_excess
PORTRAIT_ROUNDOFF = 1e-12


def psi(a: float, b: float, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if b == 0.0:
        return -a * y
    with np.errstate(divide="ignore"):
        return -a * y + 0.5 * b * np.log(x * x + y * y)


def level_excess(a: float, b: float, pts: np.ndarray, level: float, cell_diag: float):
    """Per-vertex |psi - level| and the bound a correct vertex stays within.

    A marching-squares vertex is a linear interpolation on a grid edge no
    longer than the cell diagonal h, so its residual is at most
    h^2/8 * max|psi''|; a Newton step of length at most h then leaves at most
    h^2/2 * max|psi''|.  Only the vortex term curves: |psi''| <= b/r^2.
    """
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    resid = np.abs(psi(a, b, x, y) - level)
    near = np.maximum(r - cell_diag, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        curved = np.where(near > 0.0, 0.5 * cell_diag**2 * b / near**2, np.inf)
        logr = np.abs(np.log(r)) if b != 0.0 else 0.0
    rounding = PORTRAIT_ROUNDOFF * (np.abs(a * y) + b * logr + abs(level))
    return resid, curved + rounding


def _close(got, want: float, scale: float, rel: float) -> bool:
    return got is not None and abs(float(got) - want) <= rel * scale


def separatrix_level(flow: Flow) -> float:
    return flow.b * (math.log(flow.delta / flow.k) - 1.0)


def _loop_failure(row: dict, l: float) -> str | None:
    crossing = row.get("lower_axis_crossing")
    if not _close(crossing, -W1E * l, l, CROSSING_REL):
        return f"lower_axis_crossing {crossing!r} != -W(1/e)*l = {-W1E * l!r}"
    radius = row.get("loop_max_radius")
    if not _close(radius, l, l, RADIUS_REL):
        return f"loop_max_radius {radius!r} != l = {l!r}"
    area = row.get("loop_area")
    if not _close(area, A1 * l * l, l * l, AREA_REL):
        return f"loop_area {area!r} != A1*l^2 = {A1 * l * l!r}"
    return None


def _circulation_failure(value, b: float, a: float, radius: float, dist: float,
                         encloses: bool) -> str | None:
    want = -2.0 * math.pi * b if encloses else 0.0
    scale = 2.0 * math.pi * radius * (a + b / dist)
    if not _close(value, want, scale, CIRCULATION_ROUNDOFF):
        return f"circulation {value!r} != {want!r}"
    return None


def _check_separatrix(op: Op, doc: dict, out: Path) -> str | None:
    flow = op.flow
    sep = separatrix_level(flow)
    if not _close(doc.get("separatrix_level"), sep, flow.b * (abs(math.log(flow.length)) + 1.0),
                  CLOSED_FORM_REL):
        return f"separatrix_level {doc.get('separatrix_level')!r} != b*(log(l) - 1) = {sep!r}"
    if doc.get("unbounded_branches") != 2:
        return f"unbounded_branches {doc.get('unbounded_branches')!r} != 2"
    return _loop_failure(doc, flow.length)


def _check_sweep(op: Op, doc: dict, out: Path) -> str | None:
    flow = op.flow
    rows = doc.get("rows", [])
    deltas = op.expect["deltas"]
    if [r.get("delta") for r in rows] != deltas:
        return "sweep rows do not match --deltas"
    radius = 2.0 * flow.length
    for row in rows:
        d = row["delta"]
        b = flow.hbar * d / flow.mass
        bad = _loop_failure(row, d / flow.k) or _circulation_failure(
            row.get("circulation"), b, flow.a, radius, radius, True
        )
        if bad:
            return f"delta={d!r}: {bad}"
    if doc.get("strictly_decreasing_area") is not True:
        return "strictly_decreasing_area is not true for decreasing deltas"
    return None


def _check_trajectory(op: Op, doc: dict, out: Path) -> str | None:
    status = doc.get("status")
    if op.expect["closed"]:
        ok = status == "closed_orbit_detected"
    else:
        ok = status in ("left_domain", "completed")
    if not ok:
        want = "closed" if op.expect["closed"] else "open"
        return f"status {status!r} for a start that should give a {want} orbit"
    return None


def _check_eval(op: Op, doc: dict, out: Path) -> str | None:
    a, b = op.flow.a, op.flow.b
    x, y = op.expect["at"]
    r2 = x * x + y * y
    want = (-a + b * y / r2, -b * x / r2)
    scale = a + b / math.sqrt(r2)
    got = doc.get("current") or [None, None]
    for g, w in zip(got, want):
        if not _close(g, w, scale, CLOSED_FORM_REL):
            return f"current {got!r} != {list(want)!r}"
    return None


def _check_stagnation(op: Op, doc: dict, out: Path) -> str | None:
    flow = op.flow
    sp = doc.get("stagnation_point", "missing")
    if flow.kind != "regular":
        return None if sp is None else f"stagnation_point {sp!r} for a flow without one"
    if not isinstance(sp, dict):
        return f"stagnation_point {sp!r} missing"
    l = flow.length
    c = flow.hbar * flow.k**2 / (flow.delta * flow.mass)
    rel = CLOSED_FORM_REL
    loc, eig = sp.get("location") or [None, None], sp.get("eigenvalues") or [None, None]
    if not (_close(loc[0], 0.0, l, rel) and _close(loc[1], l, l, rel)):
        return f"location {loc!r} != (0, l = {l!r})"
    if not (_close(eig[0], c, c, rel) and _close(eig[1], -c, c, rel)):
        return f"eigenvalues {eig!r} != (+-{c!r})"
    return None


def _check_circulation(op: Op, doc: dict, out: Path) -> str | None:
    cx, cy = op.expect["center"]
    radius = op.expect["radius"]
    dist = abs(math.hypot(cx, cy) - radius)
    return _circulation_failure(doc.get("circulation"), op.flow.b, op.flow.a, radius,
                                dist, op.expect["encloses"])


def _check_portrait(op: Op, doc: dict, out: Path) -> str | None:
    flow = op.flow
    xmin, xmax, ymin, ymax = op.expect["bbox"]
    nx, ny = op.expect["grid"]
    diag = math.hypot((xmax - xmin) / (nx - 1), (ymax - ymin) / (ny - 1))
    csvs = sorted(out.glob("level_*.csv"))
    if len(csvs) != doc.get("polylines") or not csvs:
        return f"{len(csvs)} level CSVs for {doc.get('polylines')!r} polylines"
    if not (out / "portrait.svg").read_text().startswith("<svg"):
        return "portrait.svg is not an SVG document"
    if op.expect["separatrix"]:
        sep = separatrix_level(flow)
        if not any(math.isclose(v, sep, rel_tol=1e-12) for v in doc.get("levels", [])):
            return f"separatrix level {sep!r} has no polyline"
    for path in csvs:
        level = float(path.name[len("level_"):].rsplit("_", 1)[0])
        lines = path.read_text().splitlines()
        if lines[0] != "x,y":
            return f"{path.name}: header {lines[0]!r}"
        pts = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        resid, bound = level_excess(flow.a, flow.b, pts, level, diag)
        bad = np.flatnonzero(~(resid <= bound))
        if bad.size:
            i = int(bad[0])
            return f"{path.name}: vertex {pts[i].tolist()} has |psi - level| {resid[i]:.3e} > {bound[i]:.3e}"
    return None


_CHECKS = {
    "portrait": _check_portrait,
    "separatrix": _check_separatrix,
    "sweep": _check_sweep,
    "trajectory": _check_trajectory,
    "eval": _check_eval,
    "stagnation": _check_stagnation,
    "circulation": _check_circulation,
}


def check(op: Op, code: int, stdout: str, stderr: str, out: Path) -> str | None:
    """None if the op's exit code and outputs match the closed forms, else
    the reason it failed."""
    if code != 0:
        if op.command == "verify":
            why = ",".join(s.split()[0] for s in stdout.splitlines() if s.endswith(" fail"))
        else:
            why = (stderr.strip().splitlines() or [""])[0]
        return f"exit {code}: {why}"[:200]
    if op.command == "verify":
        return None if stdout.rstrip().endswith("suite: PASS") else "verify report is not a PASS"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"summary is not JSON: {exc}"
    if doc.get("command") != op.command:
        return f"summary command {doc.get('command')!r} != {op.command!r}"
    return _CHECKS[op.command](op, doc, out)
