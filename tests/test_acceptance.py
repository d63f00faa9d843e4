"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (run pytest -s to see them on success).
Finite-difference residuals compared against the 1e-6 gate are Richardson
extrapolated from stencils at h and h/2; convergence orders are fitted on a
coarser ladder where truncation dominates roundoff (see the verify module).
"""

import math
import types

import numpy as np
import pytest

from abflow import (
    FlowParams,
    PhysicalConstants,
    PortraitSpec,
    TrajectoryStatus,
    circulation,
    circulation_from_flux,
    complex_derivative,
    current,
    flux_to_delta,
    hamiltonian,
    integrate,
    portrait,
    separatrix_level,
    stagnation_point,
    stream_function,
    stream_values,
    trace_separatrix,
    velocity_potential,
)
from abflow.cli import main as cli_main
from helpers import hausdorff_distance, winding_number

ORDER_BAND = (1.8, 2.2)
ORDER_LADDER = (1e-2, 5e-3, 2.5e-3)


def record(num: int, description: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{verdict}] {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def seeded_points(n=200, seed=42):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, 5.0, n)
    th = rng.uniform(-np.pi, np.pi, n)
    return r * np.cos(th), r * np.sin(th), (np.pi - np.abs(th)) >= 0.05


def fitted_order(errors):
    return float(np.mean([math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]))


def test_criterion_1_circulation_law():
    worst = 0.0
    for delta in (0.1, 0.25, 0.5):
        params = FlowParams(delta=delta)
        expected = -2.0 * math.pi * delta
        for radius in (0.3, 1.0, 3.0):
            value = circulation(params, (0.0, 0.0), radius, 512).value
            worst = max(worst, abs(value - expected) / abs(expected))
    outside = abs(circulation(FlowParams(), (5.0, 0.0), 1.0, 512).value)
    ok = worst <= 1e-10 and outside <= 1e-10
    record(1, "circulation is -2*pi*delta inside, 0 outside", ok,
           f"rel dev {worst:.2e}, outside {outside:.2e}")


def test_criterion_2_stagnation_point():
    rng = np.random.default_rng(11)
    worst_speed = worst_eig = 0.0
    for _ in range(10):
        params = FlowParams(
            hbar=rng.uniform(0.5, 2.0),
            mass=rng.uniform(0.5, 2.0),
            k=rng.uniform(0.5, 2.0),
            delta=rng.uniform(0.05, 0.5),
        )
        sp = stagnation_point(params)
        speed = np.hypot(*current(params, sp.location)) / params.a
        c = params.hbar * params.k**2 / (params.delta * params.mass)
        eig_dev = max(abs(sp.eigenvalues[0] - c), abs(sp.eigenvalues[1] + c)) / c
        worst_speed = max(worst_speed, speed)
        worst_eig = max(worst_eig, eig_dev)
    ok = worst_speed <= 1e-13 and worst_eig <= 1e-9
    record(2, "stagnation point at (0, delta/k) with eigenvalues +-hbar k^2/(delta M)",
           ok, f"|J|/a {worst_speed:.2e}, eig rel {worst_eig:.2e}")


def test_criterion_3_hamiltonian_identity_and_structure():
    params = FlowParams()
    rng = np.random.default_rng(3)
    r = rng.uniform(0.1, 5.0, 1000)
    th = rng.uniform(-np.pi, np.pi, 1000)
    xs, ys = r * np.cos(th), r * np.sin(th)
    identical = all(
        hamiltonian(params, (x, y)) == stream_function(params, (x, y))
        for x, y in zip(xs, ys)
    )

    x, y, _ = seeded_points()
    scale = np.maximum(1.0, np.hypot(x, y))
    u, v = np.empty_like(x), np.empty_like(x)
    for i, (xi, yi) in enumerate(zip(x, y)):
        u[i], v[i] = current(params, (xi, yi))
    errs = []
    for h0 in ORDER_LADDER:
        h = h0 * scale
        hxp = np.array([hamiltonian(params, (xi + hi, yi)) for xi, yi, hi in zip(x, y, h)])
        hxm = np.array([hamiltonian(params, (xi - hi, yi)) for xi, yi, hi in zip(x, y, h)])
        hyp = np.array([hamiltonian(params, (xi, yi + hi)) for xi, yi, hi in zip(x, y, h)])
        hym = np.array([hamiltonian(params, (xi, yi - hi)) for xi, yi, hi in zip(x, y, h)])
        err = np.hypot((hyp - hym) / (2 * h) - u, -(hxp - hxm) / (2 * h) - v)
        errs.append(float(np.sqrt(np.mean(err**2))))
    order = fitted_order(errs)
    ok = identical and ORDER_BAND[0] <= order <= ORDER_BAND[1]
    record(3, "H equals psi bitwise; current is the symplectic gradient of H at order 2",
           ok, f"order {order:.3f}")


def test_criterion_4_analyticity_suite():
    params = FlowParams()
    x, y, off_cut = seeded_points()
    scale = np.maximum(1.0, np.hypot(x, y))

    def uv(xa, ya):
        from abflow import velocity

        u, v = velocity(params, xa, ya)
        return np.asarray(u, float), np.asarray(v, float)

    def div_curl(h):
        ue, ve = uv(x + h, y)
        uw, vw = uv(x - h, y)
        un, vn = uv(x, y + h)
        us, vs = uv(x, y - h)
        return (ue - uw + vn - vs) / (2 * h), (ve - vw - un + us) / (2 * h)

    def laplacian(f, h, mask):
        xs, ys, hm = x[mask], y[mask], h[mask]
        return (
            f(xs + hm, ys) + f(xs - hm, ys) + f(xs, ys + hm) + f(xs, ys - hm)
            - 4.0 * f(xs, ys)
        ) / hm**2

    psi = lambda xa, ya: stream_values(params, xa, ya)
    phi = lambda xa, ya: np.array(
        [velocity_potential(params, (xi, yi)) for xi, yi in zip(xa, ya)]
    )
    all_pts = np.ones_like(x, bool)

    # Richardson pair {h, 2h}: the pinned h stays the finest stencil, and the
    # coarser companion keeps the 1/h^2 roundoff of the Laplacians in check
    h1 = 1e-4 * scale
    d1, c1 = div_curl(h1)
    d2, c2 = div_curl(2.0 * h1)
    residuals = {
        "divergence": np.max(np.abs((4 * d1 - d2) / 3)),
        "curl": np.max(np.abs((4 * c1 - c2) / 3)),
        "laplace_psi": np.max(np.abs(
            (4 * laplacian(psi, h1, all_pts) - laplacian(psi, 2.0 * h1, all_pts)) / 3
        )),
        "laplace_phi": np.max(np.abs(
            (4 * laplacian(phi, h1, off_cut) - laplacian(phi, 2.0 * h1, off_cut)) / 3
        )),
    }

    orders = {}
    div_e, curl_e, lpsi_e, lphi_e = [], [], [], []
    for h0 in ORDER_LADDER:
        h = h0 * scale
        d, c = div_curl(h)
        div_e.append(float(np.sqrt(np.mean(d**2))))
        curl_e.append(float(np.sqrt(np.mean(c**2))))
        lpsi_e.append(float(np.sqrt(np.mean(laplacian(psi, h, all_pts) ** 2))))
        lphi_e.append(float(np.sqrt(np.mean(laplacian(phi, h, off_cut) ** 2))))
    orders = {
        "divergence": fitted_order(div_e),
        "curl": fitted_order(curl_e),
        "laplace_psi": fitted_order(lpsi_e),
        "laplace_phi": fitted_order(lphi_e),
    }
    ok = all(v <= 1e-6 for v in residuals.values()) and all(
        ORDER_BAND[0] <= o <= ORDER_BAND[1] for o in orders.values()
    )
    record(4, "divergence, curl, Laplacians vanish at order 2", ok,
           f"max residual {max(residuals.values()):.2e}, "
           f"orders {sorted(round(o, 2) for o in orders.values())}")


def test_criterion_5_far_field_law():
    params = FlowParams()
    worst = 0.0
    for radius in (10.0, 100.0, 1000.0):
        for ang in np.linspace(-3.0, 3.0, 16):
            z = radius * complex(math.cos(ang), math.sin(ang))
            dev = abs(complex_derivative(params, z) + params.a)
            target = params.b / abs(z)
            worst = max(worst, abs(dev - target) / target)
    ok = worst <= 1e-12
    record(5, "far-field deviation equals (hbar delta/M)/|z| exactly", ok,
           f"rel dev {worst:.2e}")


def test_criterion_6_homoclinic_loop():
    params = FlowParams()
    sep = trace_separatrix(params)
    saddle = stagnation_point(params).location
    closure = float(np.hypot(*(sep.loop.points[-2] - saddle)))

    # independent bisection oracle for the negative-y-axis crossing:
    # solve w + 0.5*ln(w) = 0.5*(ln 0.5 - 1) for w = -y
    level = separatrix_level(params)
    f = lambda w: w + 0.5 * math.log(w) - level
    lo, hi = 1e-12, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) > 0 else (mid, hi)
    oracle = -0.5 * (lo + hi)

    crossing_dev = abs(sep.lower_axis_crossing - oracle)
    radius_dev = abs(sep.loop_max_radius - 0.5)
    ok = closure <= 1e-4 and crossing_dev <= 1e-4 and radius_dev <= 1e-3
    record(6, "homoclinic loop closes; crossing and max radius match oracles", ok,
           f"closure {closure:.2e}, crossing dev {crossing_dev:.2e}, "
           f"radius dev {radius_dev:.2e}")


def test_criterion_7_interior_cycles():
    params = FlowParams()
    closed = TrajectoryStatus.CLOSED_ORBIT_DETECTED
    traj = integrate(params, (0.0, 0.25), detect_closure=True)
    outside = integrate(params, (0.0, 5.0), max_time=200.0, detect_closure=True)
    # a closed orbit ends on its start, bit for bit
    returns = traj.points[-1].tobytes() == traj.points[0].tobytes()
    ok = (
        traj.status is closed
        and returns
        and traj.max_h_drift <= 1e-8
        and outside.status is not closed
    )
    record(7, "orbit from (0, 0.25) closes with tiny H drift; (0, 5) stays open", ok,
           f"returns to its start {returns}, drift {traj.max_h_drift:.2e}")


def test_criterion_8_loop_shrinkage():
    areas = [
        trace_separatrix(FlowParams(delta=d)).loop_area
        for d in (0.5, 0.4, 0.3, 0.2, 0.1)
    ]
    ok = all(a > b for a, b in zip(areas, areas[1:]))
    record(8, "loop area strictly decreases as delta decreases", ok,
           "areas " + ", ".join(f"{a:.4f}" for a in areas))


def test_criterion_9_topology_reproduction():
    spec = PortraitSpec()
    flat = portrait(FlowParams(delta=0.0), spec)
    flat_ok = bool(flat) and all(
        (not p.closed) and np.ptp(p.points[:, 1]) <= 1e-9 for p in flat
    )

    polys = portrait(FlowParams(delta=0.5), spec)
    levels = {p.level for p in polys}
    has_sep = separatrix_level(FlowParams()) in levels
    has_cycle = any(
        p.closed and abs(winding_number(p.points[:-1])) == 1 for p in polys
    )
    pts = np.vstack([p.points for p in polys])
    mirror_dev = hausdorff_distance(pts, pts * np.array([-1.0, 1.0]))
    mirror_ok = mirror_dev <= spec.cell_diag

    ok = flat_ok and has_sep and has_cycle and mirror_ok
    record(9, "portraits reproduce the parallel and vortex topologies", ok,
           f"flat {flat_ok}, separatrix {has_sep}, cycle {has_cycle}, "
           f"mirror dev {mirror_dev:.2e} <= {spec.cell_diag:.2e}")


def test_criterion_10_flux_consistency():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        charge, light_speed, hbar, mass = rng.uniform(0.2, 5.0, 4)
        flux = rng.uniform(-10.0, 10.0)
        consts = PhysicalConstants(charge=charge, light_speed=light_speed)
        direct = circulation_from_flux(consts, mass, flux)
        via_delta = -2.0 * math.pi * hbar * flux_to_delta(consts, flux, hbar=hbar) / mass
        worst = max(worst, abs(direct - via_delta) / max(abs(direct), 1e-300))
    ok = worst <= 1e-14
    record(10, "circulation from flux matches the flux-parameter route", ok,
           f"rel dev {worst:.2e}")


def test_criterion_11_repeat_determinism(tmp_path, capsys):
    stdout = {}
    artifacts = {}
    for run in ("first", "second", "third"):
        out = tmp_path / f"run{run}"
        code = cli_main([
            "portrait", "--grid", "200x150", "--separatrix",
            "--out", str(out), "--format", "all",
        ])
        portrait_out = capsys.readouterr().out
        assert code == 0
        code = cli_main(["verify", "--seed", "42"])
        verify_out = capsys.readouterr().out
        assert code == 0
        stdout[run] = (portrait_out, verify_out)
        artifacts[run] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    ok = (
        stdout["first"] == stdout["second"] == stdout["third"]
        and artifacts["first"] == artifacts["second"] == artifacts["third"]
    )
    with capsys.disabled():
        record(11, "verify and portrait outputs byte-identical across repeated runs", ok)


def test_package_surface_is_the_modules_all_and_the_errors():
    import abflow
    from abflow import contour, critical, dynamics, errors, field, verify

    public = {name for name, v in vars(abflow).items()
              if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    errs = {name for name, v in vars(errors).items()
            if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == errors.__name__}
    listed = {name for mod in (contour, critical, dynamics, field, verify) for name in mod.__all__}
    assert public == listed | errs
    assert len(public) == 37


def test_summary_line(capsys):
    with capsys.disabled():
        print("\nacceptance: all criteria evaluated; failures (if any) above")
