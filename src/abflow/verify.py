"""Numerical verification of the analytic identities of the flow.

Every identity is exact for the closed-form field, so each check measures a
residual that should vanish up to truncation/roundoff.  Finite-difference
checks report two numbers:

* the residual compared against the tolerance is Richardson-extrapolated
  (stencils at h and h/2 combined to cancel the h^2 truncation term), since
  the raw stencil value at the documented step still carries a truncation
  floor above the tolerance near the inner sampling radius;
* the convergence order is fitted from RMS-aggregated raw residuals over a
  step-size ladder coarse enough for truncation to dominate roundoff.

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
    stream_function,
    stream_values,
    velocity,
    velocity_potential,
)

__all__ = ["CheckReport", "run_suite", "format_report", "suite_passed"]

ORDER_BAND = (1.8, 2.2)
ORDER_LADDER = (1e-2, 5e-3, 2.5e-3)
H_FIRST = 1e-4
H_LAPLACE = 1e-3
NORM_TOL = 1e-6
TINY = 1e-300


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


def _order_from_rms(errors: list[float], floor: float) -> float | None:
    if max(errors) <= floor:
        return None  # residuals at roundoff level (e.g. linear field); nothing to fit
    ratios = []
    for e1, e2 in zip(errors, errors[1:]):
        if e2 <= 0:
            return None
        ratios.append(math.log2(e1 / e2))
    return float(np.mean(ratios))


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


def run_suite(
    params: FlowParams,
    seed: int = 42,
    n_points: int = 200,
    tamper=None,
) -> list[CheckReport]:
    """Run every identity check at seeded random regular points.

    ``tamper(x, y) -> (du, dv)`` is a test-only hook that perturbs the
    sampled velocity field, used to confirm the suite detects a broken field.
    Failures are reported, never raised.
    """
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, 5.0, n_points)
    th = rng.uniform(-np.pi, np.pi, n_points)
    x = r * np.cos(th)
    y = r * np.sin(th)
    off_cut = (np.pi - np.abs(th)) >= 0.05
    scale = np.maximum(1.0, np.hypot(x, y))
    pstr = (
        f"hbar={params.hbar:g} mass={params.mass:g} "
        f"k={params.k:g} delta={params.delta:g}"
    )
    a, b = params.a, params.b
    field_unit = max(a, b, 1e-30)
    field_unit_or_one = max(1.0, field_unit)
    order_floor = 1e-11 * field_unit_or_one

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
        return np.array(
            [velocity_potential(params, (xi, yi)) for xi, yi in zip(xa, ya)]
        )

    def h_at(xa, ya):
        return np.array([hamiltonian(params, (xi, yi)) for xi, yi in zip(xa, ya)])

    def first_deriv_sums(h):
        ue, ve = uv(x + h, y)
        uw, vw = uv(x - h, y)
        un, vn = uv(x, y + h)
        us, vs = uv(x, y - h)
        return ue - uw + vn - vs, ve - vw - un + us

    def laplace_sums(f, h, mask):
        xs, ys = x[mask], y[mask]
        hm = h[mask]
        c = f(xs, ys)
        return f(xs + hm, ys) + f(xs - hm, ys) + f(xs, ys + hm) + f(xs, ys - hm) - 4.0 * c

    def report(name, residual, tol, order=None, applicable=True):
        if not applicable:
            return CheckReport(name, pstr, float("nan"), float("nan"), None, "not_applicable")
        residual = float(residual)
        return CheckReport(name, pstr, residual, tol, order, _verdict(residual, tol, order))

    def div_curl_values(h):
        ds, cs = first_deriv_sums(h)
        return ds / (2.0 * h), cs / (2.0 * h)

    def div_curl_extrapolated(h):
        d1, c1 = div_curl_values(h)
        d2, c2 = div_curl_values(0.5 * h)
        return (4.0 * d2 - d1) / 3.0, (4.0 * c2 - c1) / 3.0

    def check_divergence():
        dx, _ = div_curl_extrapolated(H_FIRST * scale)
        errs = []
        for h0 in ORDER_LADDER:
            d, _ = div_curl_values(h0 * scale)
            errs.append(_rms(d))
        return report(
            "divergence_free",
            np.max(np.abs(dx)) / field_unit_or_one,
            NORM_TOL,
            _order_from_rms(errs, order_floor),
        )

    def check_curl():
        _, cx = div_curl_extrapolated(H_FIRST * scale)
        errs = []
        for h0 in ORDER_LADDER:
            _, c = div_curl_values(h0 * scale)
            errs.append(_rms(c))
        return report(
            "curl_free",
            np.max(np.abs(cx)) / field_unit_or_one,
            NORM_TOL,
            _order_from_rms(errs, order_floor),
        )

    def check_cauchy_riemann():
        # the two equations for u - i v are the divergence and curl identities
        dx, cx = div_curl_extrapolated(H_FIRST * scale)
        resid = max(np.max(np.abs(dx)), np.max(np.abs(cx))) / field_unit_or_one
        errs = []
        for h0 in ORDER_LADDER:
            d, c = div_curl_values(h0 * scale)
            errs.append(_rms(np.hypot(d, c)))
        return report("cauchy_riemann", resid, NORM_TOL, _order_from_rms(errs, order_floor))

    def check_harmonic(name, f, mask):
        def lap(h):
            return laplace_sums(f, h, mask) / h[mask] ** 2

        h1 = H_LAPLACE * scale
        extrap = (4.0 * lap(0.5 * h1) - lap(h1)) / 3.0
        errs = [_rms(lap(h0 * scale)) for h0 in ORDER_LADDER]
        return report(
            name,
            np.max(np.abs(extrap)) / field_unit_or_one,
            NORM_TOL,
            _order_from_rms(errs, order_floor),
        )

    def check_potential_harmonic():
        return check_harmonic("velocity_potential_harmonic", phi_at, off_cut)

    def check_stream_harmonic():
        psi = lambda xa, ya: stream_values(params, xa, ya)
        return check_harmonic("stream_function_harmonic", psi, np.ones_like(x, bool))

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
        resid = 0.0
        for radius in (10.0, 100.0, 1000.0):
            for ang in np.linspace(-3.0, 3.0, 8):
                z = radius * complex(math.cos(ang), math.sin(ang))
                dev = abs(complex_derivative(params, z) + a)
                target = b / abs(z)
                if target > 0:
                    resid = max(resid, abs(dev - target) / target)
                else:
                    resid = max(resid, dev)
        return report("far_field_decay", resid, 1e-12)

    def check_hamiltonian_gradient():
        errs = []
        rel = None
        for h0 in ORDER_LADDER:
            h = h0 * scale
            dhdy = (h_at(x, y + h) - h_at(x, y - h)) / (2.0 * h)
            dhdx = (h_at(x + h, y) - h_at(x - h, y)) / (2.0 * h)
            u, v = uv(x, y)
            err = np.hypot(dhdy - u, -dhdx - v)
            errs.append(_rms(err))
            rel = _rms(err) / max(_rms(np.hypot(u, v)), TINY)
        return report(
            "hamiltonian_gradient_consistency", rel, 1e-3, _order_from_rms(errs, order_floor)
        )

    def check_jacobian_fd():
        h = 1e-5
        resid = 0.0
        for xi, yi in zip(x[:100], y[:100]):
            jac = critical.jacobian(params, (xi, yi))
            ue, ve = uv(np.array([xi + h]), np.array([yi]))
            uw, vw = uv(np.array([xi - h]), np.array([yi]))
            un, vn = uv(np.array([xi]), np.array([yi + h]))
            us, vs = uv(np.array([xi]), np.array([yi - h]))
            fd = np.array(
                [
                    [(ue[0] - uw[0]) / (2 * h), (un[0] - us[0]) / (2 * h)],
                    [(ve[0] - vw[0]) / (2 * h), (vn[0] - vs[0]) / (2 * h)],
                ]
            )
            resid = max(resid, float(np.max(np.abs(jac - fd))))
        return report("jacobian_finite_difference", resid / max(1.0, b), 1e-5)

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
        resid /= max(1.0, abs(expected))
        return report("circulation_contour_independence", resid, 1e-10)

    def check_orthogonality():
        u0, v0 = uv(x, y)
        speed = np.hypot(u0, v0)
        mask = off_cut & (speed >= 1e-3 * field_unit)
        residual = 0.0
        errs = []
        for h0 in ORDER_LADDER + (H_FIRST,):
            h = (h0 * scale)[mask]
            xs, ys = x[mask], y[mask]
            gpx = (phi_at(xs + h, ys) - phi_at(xs - h, ys)) / (2 * h)
            gpy = (phi_at(xs, ys + h) - phi_at(xs, ys - h)) / (2 * h)
            psi = lambda xa, ya: stream_values(params, xa, ya)
            gsx = (psi(xs + h, ys) - psi(xs - h, ys)) / (2 * h)
            gsy = (psi(xs, ys + h) - psi(xs, ys - h)) / (2 * h)
            cosang = (gpx * gsx + gpy * gsy) / np.maximum(
                np.hypot(gpx, gpy) * np.hypot(gsx, gsy), TINY
            )
            if h0 == H_FIRST:
                residual = float(np.max(np.abs(cosang)))
            else:
                errs.append(_rms(cosang))
        return report("gradient_orthogonality", residual, 1e-4, _order_from_rms(errs, order_floor))

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
