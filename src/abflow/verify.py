"""Numerical verification of the analytic identities of the flow.

Every identity is exact for the closed-form field, so each check measures a
residual that should vanish up to truncation/roundoff.  The suite works in
the flow's canonical frame x = l*X, t = tau*T (`field._frame`): sample
points, stencil steps and radii are in units of l, and every stencil and
per-point identity runs on the canonical flow, whose coefficients a and b
are each 0 or 1 and whose values are of order one, so these reports are the
same bits in every unit system.  `circulation_contour_independence`
compares a public physical output, the circulation around circles of
radius l*R, with its closed form, `far_field_decay` holds the velocity
kernel to the law |v + (a, 0)|*r = b at radii 10 to 1000, and
`canonical_scaling` ties the physical kernels at l*(X, U) to the
canonical ones at (X, U).

The field is checked through the complex potential F = phi + i*psi:
`potential_derivative` holds its central differences in x and in y
against F' and i*F' (which, with F analytic, gives the Cauchy-Riemann
equations, so both potentials are harmonic and their gradients
orthogonal; phi's part only off its cut, the negative real axis),
`potential_superposition` holds phi + i*psi against the
split F = -a*z + i*b*log(z), and `jacobian_finite_difference` holds the
velocity's central differences against the analytic Jacobian.  The suite
calls each canonical kernel (velocity, psi, phi) once on one stencil
table, the four neighbours of every sample point at every step, and once
at the points, the velocity also on the far-field circles.  It reads the field only through the kernels it imports,
so a test breaks the field by patching a kernel where the suite reads it.
The finite-difference checks compare Richardson-extrapolated differences
(steps h and h/2 combined to cancel the h^2 truncation term) with their
closed forms; `potential_derivative` also fits a convergence order from
RMS-aggregated raw residuals over a step-size ladder coarse enough for
truncation to dominate roundoff, and only where the flow has a vortex: a
line or zero flow's potentials are linear, so its differences hold
roundoff alone and there is no order to fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import critical
from .contour import circulation
from .errors import InvalidParamsError
from .field import (
    FlowParams, _dF, _F_parts, _frame, potential_values, stream_values, velocity,
)

__all__ = ["CheckReport", "run_suite", "format_report", "suite_passed"]

ORDER_BAND = (1.8, 2.2)
ORDER_LADDER = (1e-2, 5e-3, 2.5e-3)
H_FIRST = 1e-4
DERIVATIVE_TOL = 1e-10
N_POINTS = 200  # the seeded sample points
TINY = 1e-300
# far_field_decay's 24 points: 8 angles on each of the radii 10, 100, 1000
FAR_RADII = np.array([[10.0], [100.0], [1000.0]])
_FAR_ANGLES = np.linspace(-3.0, 3.0, 8)
FAR_X, FAR_Y = FAR_RADII * np.cos(_FAR_ANGLES), FAR_RADII * np.sin(_FAR_ANGLES)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check."""

    name: str
    params: str
    residual: float
    tolerance: float
    order: float | None
    verdict: str  # "pass" | "fail"


def _verdict(residual: float, tolerance: float, order: float | None) -> str:
    ok = residual <= tolerance
    if order is not None:
        ok = ok and ORDER_BAND[0] <= order <= ORDER_BAND[1]
    return "pass" if ok else "fail"


def _rms(v: np.ndarray) -> float:
    # np.mean's bits (one pairwise sum, then / n) without its wrappers
    return math.sqrt(np.square(v).sum() / v.size)


def _sample_points(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The suite's N_POINTS seeded sample points, at radii 0.1 to 5 from the
    core.

    Draw i = 1..2*N_POINTS is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014)
    on the counter seed + i*0x9E3779B97F4A7C15, its top 53 bits a uniform
    u in [0, 1): the first N_POINTS give the radii 0.1 + 4.9*u, the rest
    the angles -pi + 2*pi*u.  Every product is an array operation, which
    wraps mod 2**64 without a warning.  A seed outside 0 to 2**64 - 1 is an
    InvalidParamsError.
    """
    if not 0 <= seed < 2**64:
        raise InvalidParamsError(f"seed must be 0 to 2**64 - 1, got {seed!r}")
    z = np.arange(1, 2 * N_POINTS + 1, dtype=np.uint64)
    z = z * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0**-53
    r = 0.1 + 4.9 * u[:N_POINTS]
    th = -np.pi + 2.0 * np.pi * u[N_POINTS:]
    return r * np.cos(th), r * np.sin(th)


def run_suite(params: FlowParams, seed: int = 42) -> list[CheckReport]:
    """Run every identity check at N_POINTS seeded pseudorandom regular points.

    The points lie at radii 0.1 to 5 in units of l, drawn from a SplitMix64
    counter on the seed (`_sample_points`).  Each canonical kernel runs once
    on the stencil table and once at the points, the velocity also on the
    far-field circles; an order is fitted exactly when the flow has a
    vortex.  Failures are reported, never raised; a seed outside 0 to
    2**64 - 1 is an InvalidParamsError.
    """
    x, y = _sample_points(seed)
    r = np.hypot(x, y)
    scale = np.maximum(1.0, r)
    # no stencil reaches farther than the ladder's largest step; keep the
    # points farther than that from the cut of phi (the negative real axis)
    off_cut = np.where(x < 0.0, np.abs(y), r) > max(ORDER_LADDER) * scale
    pstr = (
        f"hbar={params.hbar:g} mass={params.mass:g} "
        f"k={params.k:g} delta={params.delta:g}"
    )
    l, _, ca, cb = _frame(params)
    canon = FlowParams(k=ca, delta=cb, allow_any_delta=True)

    def fitted_order(errors):
        # mean log2 ratio of successive ladder errors
        logs = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        return sum(logs) / len(logs)

    def report(name, residual, tol, order=None):
        residual = float(residual)
        return CheckReport(name, pstr, residual, tol, order, _verdict(residual, tol, order))

    # the stencil table: row s holds the neighbours (x + h, y), (x - h, y),
    # (x, y + h) and (x, y - h) of every point at the step h = steps[s]: the
    # first-derivative step and its half, then the order ladder
    h1 = H_FIRST * scale
    steps = np.array([h1, 0.5 * h1, *(h0 * scale for h0 in ORDER_LADDER)])
    xc, yc = np.broadcast_to(x, steps.shape), np.broadcast_to(y, steps.shape)
    xt = np.stack([x + steps, x - steps, xc, xc], axis=1)
    yt = np.stack([yc, yc, y + steps, y - steps], axis=1)
    ut, vt = velocity(canon, xt[:2], yt[:2])
    ft = potential_values(canon, xt, yt) + 1j * stream_values(canon, xt, yt)
    u0, v0 = velocity(canon, x, y)
    psi, phi = stream_values(canon, x, y), potential_values(canon, x, y)
    two_h = 2.0 * steps
    z = x + 1j * y

    def grad(t):
        # central differences in x and in y of a table's rows at their steps
        return (t[:, 0] - t[:, 1]) / two_h[:len(t)], (t[:, 2] - t[:, 3]) / two_h[:len(t)]

    def richardson(d):
        # the rows at h and h/2 combined, the h^2 term cancelled
        return (4.0 * d[1] - d[0]) / 3.0

    def check_potential_derivative():
        # dF/dx = F' and dF/dy = i*F', relative to the size of F''s terms,
        # since F' vanishes at the saddle; phi's part only off its cut
        fx, fy = grad(ft)
        fp, size = _dF(ca, cb, z), np.maximum(ca + cb / r, TINY)

        def resid(dx, dy):
            # psi's (imaginary) part at every point, phi's only off its cut
            ex, ey = (np.where(off_cut, d, 1j * d.imag) for d in (dx - fp, dy - 1j * fp))
            return np.maximum(np.abs(ex), np.abs(ey)) / size

        # the ladder's rows; without a vortex, F is linear, its differences
        # hold roundoff alone, and there is no order to fit
        order = fitted_order([_rms(e) for e in resid(fx[2:], fy[2:])]) if cb else None
        return report("potential_derivative", np.max(resid(richardson(fx), richardson(fy))),
                      DERIVATIVE_TOL, order)

    def check_superposition():
        # F1 + F2 = -a*z + i*b*log(z) against phi + i*psi, whose arctan2 and
        # log(r^2) kernels do not share the complex log; relative to the
        # size of the terms, since F itself may cancel
        f1, f2 = _F_parts(ca, cb, z)
        resid = np.abs(f1 + f2 - (phi + 1j * psi))
        size = ca * np.abs(z) + cb * (np.abs(np.log(np.abs(z))) + np.pi)
        return report("potential_superposition", np.max(resid / np.maximum(size, TINY)), 1e-14)

    def check_far_field():
        # the law |v + (a, 0)|*r = b far out, on the velocity kernel itself;
        # the canonical a and b are 0 or 1, so the residual is relative to b
        u, v = velocity(canon, FAR_X, FAR_Y)
        resid = np.max(np.abs(np.hypot(u + ca, v) * FAR_RADII - cb))
        return report("far_field_decay", resid, 1e-12)

    def check_jacobian_fd():
        # the entries u_x, u_y, v_x, v_y on the first-derivative rows, relative
        # to |J| = b/r^2, the size of J's eigenvalues
        alpha, beta = critical.jacobian_entries(canon, x, y)
        fd = [richardson(d) for d in (*grad(ut), *grad(vt))]
        size = np.maximum(cb / (x * x + y * y), TINY)
        resid = max(np.max(np.abs(j - d) / size) for j, d in zip((alpha, beta, beta, -alpha), fd))
        return report("jacobian_finite_difference", resid, 1e-10)

    def check_circulation():
        values = [circulation(params, (0.0, 0.0), l * R, 512).value for R in (0.3, 1.0, 3.0, 7.0)]
        # off the closed form, or one radius off another, relative to it
        expected = -2.0 * math.pi * params.b
        resid = max(max(abs(v - expected) for v in values), max(values) - min(values))
        return report("circulation_contour_independence", resid / max(abs(expected), TINY), 1e-10)

    def check_canonical_scaling():
        # the physical kernels at l*(X, U) against the canonical ones scaled
        # by l/tau (velocity) and l*l/tau (potentials), psi shifted by
        # b*log(l); each relative to the size of its terms, where the log's
        # rounded argument adds up to eps*b.  The factors are formed from a
        # and b, which they equal in exact arithmetic: l/tau is a (b/l for a
        # rotation) and l*l/tau is b (a*l for a line flow)
        lx, ly = l * x, l * y
        a, b = params.a, params.b
        vel, pot = (a if ca else b / l), (b if cb else a * l)
        u, v = velocity(params, lx, ly)
        shift = b * math.log(l)
        resids = [
            np.hypot(u - vel * u0, v - vel * v0) / np.maximum(vel * (ca + cb / r), TINY),
            np.abs(stream_values(params, lx, ly) - (pot * psi + shift))
            / np.maximum(pot * (ca * np.abs(y) + cb * np.abs(np.log(r))) + abs(shift) + b, TINY),
            np.abs(potential_values(params, lx, ly) - pot * phi)
            / np.maximum(pot * (ca * np.abs(x) + cb * np.pi), TINY),
        ]
        return report("canonical_scaling", max(np.max(rd) for rd in resids), 1e-14)

    checks = [
        check_potential_derivative,
        check_superposition,
        check_far_field,
        check_jacobian_fd,
        check_circulation,
        check_canonical_scaling,
    ]
    reports = [check() for check in checks]
    return sorted(reports, key=lambda rep: rep.name)


def suite_passed(reports: list[CheckReport]) -> bool:
    return all(rep.verdict != "fail" for rep in reports)


def format_report(reports: list[CheckReport]) -> str:
    """One fixed-width record per check: name, params, residual, tolerance,
    order, verdict."""
    lines = [
        f"{'check':32} {'residual':>12} {'tolerance':>12} {'order':>7} verdict",
        "-" * 78,
    ]
    for rep in reports:
        order = "-" if rep.order is None else f"{rep.order:.2f}"
        lines.append(f"{rep.name:32} {rep.residual:>12.3e} {rep.tolerance:>12.1e} {order:>7} "
                     f"{rep.verdict}")
    lines.append("-" * 78)
    lines.append(f"params: {reports[0].params}" if reports else "params: -")
    status = "PASS" if suite_passed(reports) else "FAIL"
    lines.append(f"suite: {status}")
    return "\n".join(lines)
