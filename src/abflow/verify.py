"""Numerical verification of the analytic identities of the flow.

Every identity is exact for the closed-form field, so each check measures a
residual that should vanish up to truncation/roundoff.  Finite-difference
checks report two numbers:

* the residual compared against the tolerance is Richardson-extrapolated
  (stencils at h and h/2 combined to cancel the h^2 truncation term), since
  the raw stencil value at the documented step still carries a truncation
  floor above the tolerance near the inner sampling radius;
* the convergence order is fitted from RMS-aggregated raw residuals over a
  step-size ladder coarse enough for truncation to dominate roundoff; where
  some step's residual lies within the roundoff its stencil can produce,
  about eps*max|f|/h^p for a p-th derivative (a linear field, a vortex too
  weak to resolve), there is no order to fit and none is reported.

Residuals are expressed in units of the field coefficient scale
max(1, hbar*k/mass, hbar*delta/mass), so verdicts do not depend on the unit
system; with the default natural units the tolerances are absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import critical
from .contour import circulation
from .field import (
    FlowParams,
    complex_derivative,
    complex_potential,
    current,
    decompose_potential,
    hamiltonian,
    potential_values,
    stream_function,
    stream_values,
    velocity,
)

__all__ = ["CheckReport", "run_suite", "format_report", "suite_passed"]

ORDER_BAND = (1.8, 2.2)
ORDER_LADDER = (1e-2, 5e-3, 2.5e-3)
H_FIRST = 1e-4
H_LAPLACE = 1e-3
NORM_TOL = 1e-6
TINY = 1e-300
# bound on a stencil's roundoff in units of eps*max|f|/h^p; on line flows,
# where the residual is roundoff alone, it measures at most 1.6 of that unit,
# and the decade above it keeps roundoff from bending a fitted order
ROUNDOFF = 16.0 * np.finfo(float).eps


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


def _order_from_rms(errors: list[float], floors: list[float]) -> float | None:
    """Mean log2 ratio of successive ladder errors, or None when some step's
    error lies within the roundoff its stencil can produce (e.g. a linear
    field): truncation must dominate at every step for a fit to mean
    anything."""
    if any(e <= f for e, f in zip(errors, floors)):
        return None
    return float(np.mean([math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]))


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


def _roundoff(values, h: np.ndarray, power: int) -> np.ndarray:
    """Per point, the roundoff a difference over the stencil ``values`` with
    step h can leave in a power-th derivative: ROUNDOFF*max|f|/h^power."""
    return ROUNDOFF * np.max(np.abs(values), axis=0) / h**power


def run_suite(
    params: FlowParams,
    seed: int = 42,
    n_points: int = 200,
    tamper=None,
) -> list[CheckReport]:
    """Run every identity check at seeded random regular points.

    Finite-difference stencils are evaluated on whole arrays of points;
    checks named after a scalar entry point call it point by point.
    ``tamper(x, y) -> (du, dv)`` is a test-only hook that perturbs the
    sampled velocity field, used to confirm the suite detects a broken field.
    Failures are reported, never raised.
    """
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, 5.0, n_points)
    th = rng.uniform(-np.pi, np.pi, n_points)
    x = r * np.cos(th)
    y = r * np.sin(th)
    scale = np.maximum(1.0, np.hypot(x, y))
    # no stencil reaches farther than the ladder's largest step; keep the
    # points farther than that from the cut of phi (the negative real axis)
    off_cut = np.where(x < 0.0, np.abs(y), np.hypot(x, y)) > max(ORDER_LADDER) * scale
    pstr = (
        f"hbar={params.hbar:g} mass={params.mass:g} "
        f"k={params.k:g} delta={params.delta:g}"
    )
    a, b = params.a, params.b
    field_unit = max(a, b, 1e-30)
    field_unit_or_one = max(1.0, field_unit)

    def uv(xa, ya):
        u, v = velocity(params, xa, ya)
        u = np.broadcast_to(np.asarray(u, float), np.shape(xa)).copy()
        v = np.broadcast_to(np.asarray(v, float), np.shape(xa)).copy()
        if tamper is not None:
            du, dv = tamper(xa, ya)
            u += du
            v += dv
        return u, v

    def phi_at(xa, ya):
        return potential_values(params, xa, ya)

    def psi_at(xa, ya):  # also the Hamiltonian: one kernel serves both
        return stream_values(params, xa, ya)

    def report(name, residual, tol, order=None, applicable=True):
        if not applicable:
            return CheckReport(name, pstr, float("nan"), float("nan"), None, "not_applicable")
        residual = float(residual)
        return CheckReport(name, pstr, residual, tol, order, _verdict(residual, tol, order))

    def div_curl_values(h):
        ue, ve = uv(x + h, y)
        uw, vw = uv(x - h, y)
        un, vn = uv(x, y + h)
        us, vs = uv(x, y - h)
        div = (ue - uw + vn - vs) / (2.0 * h)
        curl = (ve - vw - un + us) / (2.0 * h)
        return div, curl, _roundoff([ue, ve, uw, vw, un, vn, us, vs], h, 1)

    h1 = H_FIRST * scale
    d1, c1, _ = div_curl_values(h1)
    d2, c2, _ = div_curl_values(0.5 * h1)
    div_x, curl_x = (4.0 * d2 - d1) / 3.0, (4.0 * c2 - c1) / 3.0
    div_curl_ladder = [div_curl_values(h0 * scale) for h0 in ORDER_LADDER]
    div_curl_floors = [_rms(fl) for _, _, fl in div_curl_ladder]

    def check_divergence():
        return report(
            "divergence_free",
            np.max(np.abs(div_x)) / field_unit_or_one,
            NORM_TOL,
            _order_from_rms([_rms(d) for d, _, _ in div_curl_ladder], div_curl_floors),
        )

    def check_curl():
        return report(
            "curl_free",
            np.max(np.abs(curl_x)) / field_unit_or_one,
            NORM_TOL,
            _order_from_rms([_rms(c) for _, c, _ in div_curl_ladder], div_curl_floors),
        )

    def check_cauchy_riemann():
        # the two equations for u - i v are the divergence and curl identities
        resid = max(np.max(np.abs(div_x)), np.max(np.abs(curl_x))) / field_unit_or_one
        errs = [_rms(np.hypot(d, c)) for d, c, _ in div_curl_ladder]
        return report("cauchy_riemann", resid, NORM_TOL, _order_from_rms(errs, div_curl_floors))

    def check_harmonic(name, f, mask):
        xs, ys, scale_m = x[mask], y[mask], scale[mask]

        def lap(h):
            vals = [f(xs + h, ys), f(xs - h, ys), f(xs, ys + h), f(xs, ys - h), f(xs, ys)]
            lap_h = (vals[0] + vals[1] + vals[2] + vals[3] - 4.0 * vals[4]) / h**2
            return lap_h, _roundoff(vals, h, 2)

        h1 = H_LAPLACE * scale_m
        extrap = (4.0 * lap(0.5 * h1)[0] - lap(h1)[0]) / 3.0
        ladder = [lap(h0 * scale_m) for h0 in ORDER_LADDER]
        return report(
            name,
            np.max(np.abs(extrap)) / field_unit_or_one,
            NORM_TOL,
            _order_from_rms([_rms(e) for e, _ in ladder], [_rms(fl) for _, fl in ladder]),
        )

    def check_potential_harmonic():
        return check_harmonic("velocity_potential_harmonic", phi_at, off_cut)

    def check_stream_harmonic():
        return check_harmonic("stream_function_harmonic", psi_at, np.ones_like(x, bool))

    def check_velocity_identity():
        u, v = uv(x, y)
        resid = 0.0
        for xi, yi, ui, vi in zip(x, y, u, v):
            fp = complex_derivative(params, complex(xi, yi))
            resid = max(resid, abs(fp - complex(ui, -vi)) / max(abs(fp), TINY))
        return report("derivative_velocity_identity", resid, 1e-13)

    def check_superposition():
        resid = 0.0
        for xi, yi in zip(x, y):
            z = complex(xi, yi)
            f = complex_potential(params, z)
            f1, f2 = decompose_potential(params, z)
            resid = max(resid, abs(f - (f1 + f2)) / max(abs(f), TINY))
        return report("potential_superposition", resid, 1e-14)

    def check_h_equals_psi():
        resid = max(
            abs(hamiltonian(params, (xi, yi)) - stream_function(params, (xi, yi)))
            for xi, yi in zip(x, y)
        )
        return report("hamiltonian_equals_stream", resid, 0.0)

    def check_mirror():
        resid = max(
            abs(stream_function(params, (xi, yi)) - stream_function(params, (-xi, yi)))
            for xi, yi in zip(x, y)
        )
        return report("mirror_symmetry", resid, 0.0)

    def check_far_field():
        # F'(z) - i*b/z against -a, relative to |F'(z)|: the deviation
        # F'(z) + a alone cancels to eps*a where b/|z| << a
        resid = 0.0
        for radius in (10.0, 100.0, 1000.0):
            for ang in np.linspace(-3.0, 3.0, 8):
                z = radius * complex(math.cos(ang), math.sin(ang))
                fp = complex_derivative(params, z)
                resid = max(resid, abs(fp - 1j * b / z + a) / max(abs(fp), TINY))
        return report("far_field_decay", resid, 1e-12)

    def check_hamiltonian_gradient():
        u, v = uv(x, y)
        errs, floors = [], []
        for h0 in ORDER_LADDER:
            h = h0 * scale
            vals = [psi_at(x, y + h), psi_at(x, y - h), psi_at(x + h, y), psi_at(x - h, y)]
            dhdy = (vals[0] - vals[1]) / (2.0 * h)
            dhdx = (vals[2] - vals[3]) / (2.0 * h)
            err = np.hypot(dhdy - u, -dhdx - v)
            errs.append(_rms(err))
            floors.append(_rms(_roundoff(vals, h, 1)))
        rel = errs[-1] / max(_rms(np.hypot(u, v)), TINY)
        return report(
            "hamiltonian_gradient_consistency", rel, 1e-3, _order_from_rms(errs, floors)
        )

    def check_jacobian_fd():
        h = 1e-5
        xs, ys = x[:100], y[:100]
        alpha, beta = critical.jacobian_entries(params, xs, ys)
        ue, ve = uv(xs + h, ys)
        uw, vw = uv(xs - h, ys)
        un, vn = uv(xs, ys + h)
        us, vs = uv(xs, ys - h)
        fd = [(ue - uw) / (2 * h), (un - us) / (2 * h), (ve - vw) / (2 * h), (vn - vs) / (2 * h)]
        resid = max(float(np.max(np.abs(j - d))) for j, d in zip((alpha, beta, beta, -alpha), fd))
        return report("jacobian_finite_difference", resid / field_unit_or_one, 1e-5)

    def check_stagnation():
        sp = critical.stagnation_point(params)
        if sp is None:
            return report("stagnation_zero_velocity", 0.0, 0.0, applicable=False)
        speed = float(np.hypot(*current(params, sp.location)))
        return report("stagnation_zero_velocity", speed / a, 1e-13)

    def check_eigenvalues():
        sp = critical.stagnation_point(params)
        if sp is None:
            return report("saddle_eigenvalues", 0.0, 0.0, applicable=False)
        c_exact = params.hbar * params.k**2 / (params.delta * params.mass)
        lam = np.linalg.eigvalsh(critical.jacobian(params, sp.location))
        resid = max(
            abs(lam.max() - c_exact) / c_exact, abs(lam.min() + c_exact) / c_exact
        )
        return report("saddle_eigenvalues", resid, 1e-12)

    def check_circulation():
        values = [
            circulation(params, (0.0, 0.0), radius, 512).value
            for radius in (0.3, 1.0, 3.0, 7.0)
        ]
        expected = -2.0 * math.pi * b
        resid = max(abs(v - expected) for v in values)
        resid = max(
            resid,
            max(
                abs(v1 - v2) for i, v1 in enumerate(values) for v2 in values[i + 1:]
            ),
        )
        # quadrature roundoff grows with a*R, the value with b
        resid /= max(field_unit_or_one, abs(expected))
        return report("circulation_contour_independence", resid, 1e-10)

    def check_orthogonality():
        u0, v0 = uv(x, y)
        speed = np.hypot(u0, v0)
        mask = off_cut & (speed >= 1e-3 * field_unit)
        if not mask.any():  # a zero field has no direction to be orthogonal to
            return report("gradient_orthogonality", 0.0, 0.0, applicable=False)
        xs, ys = x[mask], y[mask]
        residual = 0.0
        errs, floors = [], []
        for h0 in ORDER_LADDER + (H_FIRST,):
            h = (h0 * scale)[mask]
            phis = [phi_at(xs + h, ys), phi_at(xs - h, ys), phi_at(xs, ys + h), phi_at(xs, ys - h)]
            psis = [psi_at(xs + h, ys), psi_at(xs - h, ys), psi_at(xs, ys + h), psi_at(xs, ys - h)]
            gpx, gpy = (phis[0] - phis[1]) / (2 * h), (phis[2] - phis[3]) / (2 * h)
            gsx, gsy = (psis[0] - psis[1]) / (2 * h), (psis[2] - psis[3]) / (2 * h)
            gp, gs = np.hypot(gpx, gpy), np.hypot(gsx, gsy)
            cosang = (gpx * gsx + gpy * gsy) / np.maximum(gp * gs, TINY)
            if h0 == H_FIRST:
                residual = float(np.max(np.abs(cosang)))
            else:
                errs.append(_rms(cosang))
                # relative roundoff of each gradient bounds that of the cosine
                floors.append(_rms(
                    _roundoff(phis, h, 1) / np.maximum(gp, TINY)
                    + _roundoff(psis, h, 1) / np.maximum(gs, TINY)
                ))
        return report("gradient_orthogonality", residual, 1e-4, _order_from_rms(errs, floors))

    checks = [
        check_divergence,
        check_curl,
        check_cauchy_riemann,
        check_potential_harmonic,
        check_stream_harmonic,
        check_velocity_identity,
        check_superposition,
        check_h_equals_psi,
        check_mirror,
        check_far_field,
        check_hamiltonian_gradient,
        check_jacobian_fd,
        check_stagnation,
        check_eigenvalues,
        check_circulation,
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
