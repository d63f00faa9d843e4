"""Numerical verification of the analytic identities of the flow.

Every identity is exact for the closed-form field, so each check measures a
residual that should vanish up to truncation/roundoff.  The suite works in
the flow's canonical frame x = l*X, t = tau*T (`field._frame`): sample
points, stencil steps and radii are in units of l, and every stencil and
per-point identity runs on the canonical flow, whose coefficients a and b
are each 0 or 1 and whose values are of order one, so these reports are the
same bits in every unit system.  Two checks compare a public physical
output with its closed form (the velocity at the stagnation point, the
circulation around circles of radius l*R), `saddle_eigenvalues` checks the
canonical Jacobian at the saddle (0, 1) against +-1, and
`canonical_scaling` ties the physical kernels at l*(X, U) to the canonical
ones at (X, U).  The suite calls each canonical kernel (velocity, psi,
phi) once on one stencil table, the four neighbours of every sample point
at every step, and once at the points; each finite-difference check reads
its rows, never point by point.  It reads the field only through the
kernels it imports, so a test breaks the field by patching a kernel where
the suite reads it.  Finite-difference checks report two numbers:

* the residual compared against the tolerance is Richardson-extrapolated
  (stencils at h and h/2 combined to cancel the h^2 truncation term), since
  the raw stencil value at the documented step still carries a truncation
  floor above the tolerance near the inner sampling radius;
* the convergence order is fitted from RMS-aggregated raw residuals over a
  step-size ladder coarse enough for truncation to dominate roundoff, and
  only where the flow has a vortex: a line or zero flow's fields are linear,
  so its stencils hold roundoff alone and there is no order to fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import critical
from .contour import circulation
from .errors import InvalidParamsError
from .field import (
    FlowParams, _dF, _F_parts, _frame, current, potential_values, stream_values, velocity,
)

__all__ = ["CheckReport", "run_suite", "format_report", "suite_passed"]

ORDER_BAND = (1.8, 2.2)
ORDER_LADDER = (1e-2, 5e-3, 2.5e-3)
H_FIRST = 1e-4
H_LAPLACE = 1e-3
NORM_TOL = 1e-6
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
    verdict: str  # "pass" | "fail" | "not_applicable"


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
    scale = np.maximum(1.0, np.hypot(x, y))
    # no stencil reaches farther than the ladder's largest step; keep the
    # points farther than that from the cut of phi (the negative real axis)
    off_cut = np.where(x < 0.0, np.abs(y), np.hypot(x, y)) > max(ORDER_LADDER) * scale
    pstr = (
        f"hbar={params.hbar:g} mass={params.mass:g} "
        f"k={params.k:g} delta={params.delta:g}"
    )
    l, _, ca, cb = _frame(params)
    canon = FlowParams(k=ca, delta=cb, allow_any_delta=True)

    def fitted_order(errors):
        # mean log2 ratio of successive ladder errors; without a vortex the
        # stencils hold roundoff alone, and there is no order to fit
        if cb == 0.0:
            return None
        logs = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        return sum(logs) / len(logs)

    def report(name, residual, tol, order=None, applicable=True):
        if not applicable:
            return CheckReport(name, pstr, float("nan"), float("nan"), None, "not_applicable")
        residual = float(residual)
        return CheckReport(name, pstr, residual, tol, order, _verdict(residual, tol, order))

    # the stencil table: row s holds the neighbours (x + h, y), (x - h, y),
    # (x, y + h) and (x, y - h) of every point at the step h = steps[s]: the
    # first-derivative step and its half, the Laplacian step and its half,
    # and the order ladder
    h1, hl = H_FIRST * scale, H_LAPLACE * scale
    steps = np.array([h1, 0.5 * h1, hl, 0.5 * hl, *(h0 * scale for h0 in ORDER_LADDER)])
    first, laplace, ladder = 0, 2, slice(4, 7)
    xc, yc = np.broadcast_to(x, steps.shape), np.broadcast_to(y, steps.shape)
    xt = np.stack([x + steps, x - steps, xc, xc], axis=1)
    yt = np.stack([yc, yc, y + steps, y - steps], axis=1)
    ut, vt = velocity(canon, xt, yt)
    psit = stream_values(canon, xt, yt)  # psi is also the Hamiltonian
    phit = potential_values(canon, xt, yt)
    u0, v0 = velocity(canon, x, y)
    psi, phi = stream_values(canon, x, y), potential_values(canon, x, y)
    two_h = 2.0 * steps

    def grad(t, rows):
        # central differences in x and in y of a table at the steps of rows
        return (t[rows, 0] - t[rows, 1]) / two_h[rows], (t[rows, 2] - t[rows, 3]) / two_h[rows]

    div = (ut[:, 0] - ut[:, 1] + vt[:, 2] - vt[:, 3]) / two_h
    curl = (vt[:, 0] - vt[:, 1] - ut[:, 2] + ut[:, 3]) / two_h

    def richardson(t, row=first):
        # rows row (step h) and row + 1 (h/2) combined, the h^2 term cancelled
        return (4.0 * t[row + 1] - t[row]) / 3.0

    div_x, curl_x = richardson(div), richardson(curl)

    def check_divergence():
        errs = [_rms(d) for d in div[ladder]]
        return report("divergence_free", np.max(np.abs(div_x)), NORM_TOL, fitted_order(errs))

    def check_curl():
        errs = [_rms(c) for c in curl[ladder]]
        return report("curl_free", np.max(np.abs(curl_x)), NORM_TOL, fitted_order(errs))

    def check_harmonic(name, table, centre, mask):
        lap = (table[:, 0] + table[:, 1] + table[:, 2] + table[:, 3] - 4.0 * centre) / steps**2
        extrap = richardson(lap, laplace)[mask]
        errs = [_rms(row[mask]) for row in lap[ladder]]
        return report(name, np.max(np.abs(extrap)), NORM_TOL, fitted_order(errs))

    def check_potential_harmonic():
        return check_harmonic("velocity_potential_harmonic", phit, phi, off_cut)

    def check_stream_harmonic():
        return check_harmonic("stream_function_harmonic", psit, psi, np.ones_like(x, bool))

    z = x + 1j * y

    def check_velocity_identity():
        fp = _dF(ca, cb, z)
        resid = np.hypot(fp.real - u0, fp.imag + v0) / np.maximum(np.abs(fp), TINY)
        return report("derivative_velocity_identity", np.max(resid), 1e-13)

    def check_superposition():
        # F1 + F2 = -a*z + i*b*log(z) against phi + i*psi, whose arctan2 and
        # log(r^2) kernels do not share the complex log; relative to the
        # size of the terms, since F itself may cancel
        f1, f2 = _F_parts(ca, cb, z)
        resid = np.abs(f1 + f2 - (phi + 1j * psi))
        size = ca * np.abs(z) + cb * (np.abs(np.log(np.abs(z))) + np.pi)
        return report("potential_superposition", np.max(resid / np.maximum(size, TINY)), 1e-14)

    def check_mirror():
        return report("mirror_symmetry", np.max(np.abs(psi - stream_values(canon, -x, y))), 0.0)

    def check_far_field():
        # the law |v + (a, 0)|*r = b far out, on the velocity kernel itself;
        # the canonical a and b are 0 or 1, so the residual is relative to b
        u, v = velocity(canon, FAR_X, FAR_Y)
        resid = np.max(np.abs(np.hypot(u + ca, v) * FAR_RADII - cb))
        return report("far_field_decay", resid, 1e-12)

    def check_hamiltonian_gradient():
        errs = [_rms(np.hypot(dhdy - u0, -dhdx - v0)) for dhdx, dhdy in zip(*grad(psit, ladder))]
        rel = errs[-1] / max(_rms(np.hypot(u0, v0)), TINY)
        return report("hamiltonian_gradient_consistency", rel, 1e-3, fitted_order(errs))

    def check_jacobian_fd():
        # the entries u_x, u_y, v_x, v_y on the first-derivative rows, relative
        # to |J| = b/r^2, the size of J's eigenvalues
        alpha, beta = critical.jacobian_entries(canon, x, y)
        pair = slice(first, first + 2)
        fd = [richardson(d) for d in (*grad(ut, pair), *grad(vt, pair))]
        size = np.maximum(cb / (x * x + y * y), TINY)
        resid = max(np.max(np.abs(j - d) / size) for j, d in zip((alpha, beta, beta, -alpha), fd))
        return report("jacobian_finite_difference", resid, 1e-10)

    def check_stagnation():
        if not (ca and cb):
            return report("stagnation_zero_velocity", 0.0, 0.0, applicable=False)
        speed = float(np.hypot(*current(params, (0.0, l))))
        return report("stagnation_zero_velocity", speed / params.a, 1e-13)

    def check_eigenvalues():
        # the canonical saddle (0, 1) has eigenvalues +-1
        if not (ca and cb):
            return report("saddle_eigenvalues", 0.0, 0.0, applicable=False)
        lam = np.linalg.eigvalsh(critical.jacobian(canon, (0.0, 1.0)))
        return report("saddle_eigenvalues", max(abs(lam.max() - 1.0), abs(lam.min() + 1.0)), 1e-12)

    def check_circulation():
        values = [circulation(params, (0.0, 0.0), l * r, 512).value for r in (0.3, 1.0, 3.0, 7.0)]
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
        lx, ly, r = l * x, l * y, np.hypot(x, y)
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

    def check_orthogonality():
        # where neither gradient it divides by comes near zero at any step
        rows = [first, *range(len(steps))[ladder]]
        gpx, gpy, gsx, gsy = (*grad(phit, rows), *grad(psit, rows))
        gp, gs = np.hypot(gpx, gpy), np.hypot(gsx, gsy)
        mask = off_cut & np.all((gp >= 1e-3) & (gs >= 1e-3), axis=0)
        if not mask.any():  # a zero field has no direction to be orthogonal to
            return report("gradient_orthogonality", 0.0, 0.0, applicable=False)
        cosines = (gpx * gsx + gpy * gsy)[:, mask] / (gp * gs)[:, mask]
        errs = [_rms(c) for c in cosines[1:]]
        return report("gradient_orthogonality", np.max(np.abs(cosines[0])), 1e-4, fitted_order(errs))

    checks = [
        check_divergence,
        check_curl,
        check_potential_harmonic,
        check_stream_harmonic,
        check_velocity_identity,
        check_superposition,
        check_mirror,
        check_far_field,
        check_hamiltonian_gradient,
        check_jacobian_fd,
        check_stagnation,
        check_eigenvalues,
        check_circulation,
        check_canonical_scaling,
        check_orthogonality,
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
        resid = "-" if math.isnan(rep.residual) else f"{rep.residual:.3e}"
        tol = "-" if math.isnan(rep.tolerance) else f"{rep.tolerance:.1e}"
        order = "-" if rep.order is None else f"{rep.order:.2f}"
        lines.append(f"{rep.name:32} {resid:>12} {tol:>12} {order:>7} {rep.verdict}")
    lines.append("-" * 78)
    lines.append(f"params: {reports[0].params}" if reports else "params: -")
    status = "PASS" if suite_passed(reports) else "FAIL"
    lines.append(f"suite: {status}")
    return "\n".join(lines)
