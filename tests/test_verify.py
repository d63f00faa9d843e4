import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abflow import (
    CheckReport,
    FlowParams,
    InvalidParamsError,
    format_report,
    run_suite,
    suite_passed,
)
from abflow.verify import N_POINTS, ORDER_BAND, _sample_points

EXPECTED_CHECKS = [
    "canonical_scaling",
    "cauchy_riemann",
    "circulation_contour_independence",
    "curl_free",
    "derivative_velocity_identity",
    "divergence_free",
    "far_field_decay",
    "gradient_orthogonality",
    "hamiltonian_gradient_consistency",
    "jacobian_finite_difference",
    "mirror_symmetry",
    "potential_superposition",
    "saddle_eigenvalues",
    "stagnation_zero_velocity",
    "stream_function_harmonic",
    "velocity_potential_harmonic",
]


def test_default_suite_passes():
    reports = run_suite(FlowParams(), seed=42)
    assert suite_passed(reports)
    assert all(rep.verdict == "pass" for rep in reports)


def test_check_names_fixed_and_sorted():
    reports = run_suite(FlowParams(), seed=42)
    assert [rep.name for rep in reports] == EXPECTED_CHECKS


def test_deterministic_given_seed():
    a = run_suite(FlowParams(), seed=7)
    b = run_suite(FlowParams(), seed=7)
    assert a == b


def test_different_seed_changes_residuals():
    a = run_suite(FlowParams(), seed=1)
    b = run_suite(FlowParams(), seed=2)
    assert any(
        ra.residual != rb.residual
        for ra, rb in zip(a, b)
        if not math.isnan(ra.residual) and ra.residual != 0.0
    )


def test_finite_difference_checks_report_second_order():
    reports = {rep.name: rep for rep in run_suite(FlowParams(), seed=42)}
    for name in (
        "divergence_free",
        "curl_free",
        "cauchy_riemann",
        "stream_function_harmonic",
        "velocity_potential_harmonic",
        "hamiltonian_gradient_consistency",
    ):
        assert reports[name].order == pytest.approx(2.0, abs=0.2)


def test_delta_zero_marks_saddle_checks_not_applicable():
    reports = {rep.name: rep for rep in run_suite(FlowParams(delta=0.0), seed=42)}
    assert reports["stagnation_zero_velocity"].verdict == "not_applicable"
    assert reports["saddle_eigenvalues"].verdict == "not_applicable"
    assert suite_passed(reports.values())


def test_pure_rotation_passes():
    assert suite_passed(run_suite(FlowParams(k=0.0, delta=0.5), seed=42))


@pytest.mark.parametrize("kwargs", [
    dict(hbar=10.0, mass=0.1, k=3.0, delta=0.4),
    dict(hbar=0.2, mass=5.0, k=0.3, delta=0.05),
    dict(delta=2.0, allow_any_delta=True),
])
def test_suite_is_unit_invariant(kwargs):
    # the checks run in the canonical frame, so rescaled parameters must not
    # trip them
    assert suite_passed(run_suite(FlowParams(**kwargs), seed=9))


def test_tampered_field_is_detected():
    # a shear added to u breaks the divergence, hence both Cauchy-Riemann
    # equations; the curl identity is untouched by an x-linear term in u.
    # F' no longer equals u - i v: its check compares against the tampered u
    tamper = lambda x, y: (1e-4 * x, 0.0)
    reports = {rep.name: rep for rep in run_suite(FlowParams(), seed=42, tamper=tamper)}
    assert reports["divergence_free"].verdict == "fail"
    assert reports["cauchy_riemann"].verdict == "fail"
    assert reports["curl_free"].verdict == "pass"
    assert reports["derivative_velocity_identity"].verdict == "fail"
    assert not suite_passed(reports.values())


def test_tampered_curl_is_detected():
    tamper = lambda x, y: (0.0, 1e-4 * x)
    reports = {rep.name: rep for rep in run_suite(FlowParams(), seed=42, tamper=tamper)}
    assert reports["curl_free"].verdict == "fail"


def test_report_format():
    reports = run_suite(FlowParams(), seed=42)
    text = format_report(reports)
    lines = text.splitlines()
    for rep in reports:
        assert any(line.startswith(rep.name) and rep.verdict in line for line in lines)
    assert lines[-1] == "suite: PASS"
    assert any("hbar=1" in line for line in lines)


def test_report_dataclass_verdict_rule():
    rep = CheckReport("demo", "p", 1e-9, 1e-6, 2.0, "pass")
    assert rep.residual <= rep.tolerance


@pytest.mark.parametrize("kwargs", [
    dict(delta=1e-6),
    # l = delta/k = 0.01 in scaled units
    dict(hbar=10.0, mass=0.1, k=10.0, delta=0.1),
])
def test_far_field_decay_is_well_conditioned(kwargs):
    # u + a alone cancels to eps*a when b/|z| << a; the check must not
    # read that cancellation as a wrong field
    reports = {rep.name: rep for rep in run_suite(FlowParams(**kwargs), seed=42)}
    assert reports["far_field_decay"].verdict == "pass"
    assert suite_passed(reports.values())


def test_far_field_decay_detects_a_wrong_vortex_term(monkeypatch):
    import abflow.verify as verify_mod

    def half_vortex_off(x, y):
        # half of the canonical vortex's current (y, -x)/r^2 taken off
        r2 = x * x + y * y
        return -0.5 * y / r2, 0.5 * x / r2

    reports = {rep.name: rep
               for rep in run_suite(FlowParams(delta=1e-6), seed=42, tamper=half_vortex_off)}
    assert reports["far_field_decay"].verdict == "fail"

    # a wrong F' kernel, with the current intact, breaks F' = u - i v
    monkeypatch.setattr(verify_mod, "_dF", lambda a, b, z: -a + 0.5j * b / z)
    reports = {rep.name: rep for rep in run_suite(FlowParams(delta=1e-6), seed=42)}
    assert reports["derivative_velocity_identity"].verdict == "fail"


def test_every_seed_passes_at_natural_units():
    # stencils near the branch cut of phi must stay on one side of it
    failing = [seed for seed in range(100) if not suite_passed(run_suite(FlowParams(), seed=seed))]
    assert failing == []


@pytest.mark.parametrize("k", [0.6, 1.0, 3.0, 10.0])
def test_line_flows_pass(k):
    # with delta = 0, psi and phi are linear: their Laplacian stencils hold
    # roundoff alone, so there is no order to fit
    for seed in range(40):
        reports = {rep.name: rep for rep in run_suite(FlowParams(k=k, delta=0.0), seed=seed)}
        assert suite_passed(reports.values()), (seed, format_report(list(reports.values())))
        assert reports["stream_function_harmonic"].order is None
        assert reports["velocity_potential_harmonic"].order is None


FITTED = {
    "cauchy_riemann", "curl_free", "divergence_free", "gradient_orthogonality",
    "hamiltonian_gradient_consistency", "stream_function_harmonic",
    "velocity_potential_harmonic",
}


@pytest.mark.parametrize("kwargs, seed", [
    (dict(), 42),
    (dict(hbar=10.0, mass=0.1, k=3.0, delta=0.4), 9),
    (dict(hbar=0.2, mass=5.0, k=0.3, delta=0.05), 9),
    # a, b >~ 1e154: squares of the physical field would overflow, and an
    # overflow warning is an error under these tests
    (dict(hbar=1e155), 42),
    (dict(hbar=1e160), 42),
    (dict(hbar=1e200), 42),
    (dict(hbar=1e300), 42),
])
def test_report_keeps_verdicts_and_orders(kwargs, seed):
    # every check passes and every fitted order reads 2.00 on these sets
    lines = format_report(run_suite(FlowParams(**kwargs), seed=seed)).splitlines()
    rows = {line.split()[0]: line.split()[-2:] for line in lines[2:2 + len(EXPECTED_CHECKS)]}
    assert sorted(rows) == EXPECTED_CHECKS
    for name, (order, verdict) in rows.items():
        assert verdict == "pass"
        assert order == ("2.00" if name in FITTED else "-")
    assert lines[-1] == "suite: PASS"


def test_negative_seed_is_rejected():
    with pytest.raises(InvalidParamsError, match="-1"):
        run_suite(FlowParams(), seed=-1)


@pytest.mark.parametrize("seed", [2**64, 2**64 + 42, 10**30])
def test_seed_past_uint64_is_rejected(seed):
    # folding it mod 2**64 would give two seeds the same points
    with pytest.raises(InvalidParamsError, match=str(seed)):
        run_suite(FlowParams(), seed=seed)


def splitmix64(seed, n):
    """n SplitMix64 outputs on the counter seed + i*gamma, i = 1..n, in
    Python ints."""
    mask, out = 2**64 - 1, []
    for i in range(1, n + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_oracle_gives_the_reference_outputs():
    # the first outputs of the reference generator from states 0 and 1234567
    assert splitmix64(0, 2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert splitmix64(1234567, 3) == [6457827717110365317, 3203168211198807973,
                                      9817491932198370423]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1])
def test_sample_points_are_splitmix64(seed):
    n = N_POINTS
    u = [(z >> 11) * 2.0**-53 for z in splitmix64(seed, 2 * n)]
    r = np.array([0.1 + 4.9 * ui for ui in u[:n]])
    th = np.array([-math.pi + 2.0 * math.pi * ui for ui in u[n:]])
    x, y = _sample_points(seed)
    assert x.tobytes() == (r * np.cos(th)).tobytes()
    assert y.tobytes() == (r * np.sin(th)).tobytes()
    # the points lie at the radii r, up to the roundoff of cos and sin
    assert 0.1 <= r.min() and r.max() < 5.0
    assert np.allclose(np.hypot(x, y), r, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("k, delta", [(0.3, 0.0), (3.0, 1e-9)])
def test_fast_stream_residuals_on_the_field_scale(k, delta):
    # a = hbar*k/mass up to 3e6 >> max(1, b): the stencils run on the
    # canonical flow, and the circulation is read relative to -2*pi*b
    params = FlowParams(hbar=1e3, mass=1e-3, k=k, delta=delta)
    for seed in (1, 2, 3):
        reports = run_suite(params, seed=seed)
        assert suite_passed(reports), (seed, format_report(reports))


@pytest.mark.parametrize("hbar", [1e-40, 1e-150, 1e-300])
def test_gradient_orthogonality_on_weak_fields(hbar):
    # the speed threshold applies to the canonical field, so a weak field
    # keeps its points
    rep = {r.name: r for r in run_suite(FlowParams(hbar=hbar), seed=42)}["gradient_orthogonality"]
    assert rep.verdict == "pass"
    assert ORDER_BAND[0] <= rep.order <= ORDER_BAND[1]


def test_zero_field_has_no_gradient_orthogonality():
    reports = {r.name: r for r in run_suite(FlowParams(k=0.0, delta=0.0), seed=42)}
    assert reports["gradient_orthogonality"].verdict == "not_applicable"
    assert suite_passed(reports.values())


def test_tampered_zero_field_has_no_gradient_orthogonality():
    # psi and phi come from the untampered kernels, so a speed the tamper
    # adds to the zero field gives them no gradient to compare
    tamper = lambda x, y: (0.01 + 0.0 * x, 0.0)
    reports = {r.name: r for r in run_suite(FlowParams(k=0.0, delta=0.0), tamper=tamper)}
    assert reports["gradient_orthogonality"].verdict == "not_applicable"


def test_superposition_detects_a_wrong_vortex_term(monkeypatch):
    import abflow.verify as verify_mod

    def half_vortex(a, b, z):
        return -a * z, 0.5j * b * np.log(z)

    # F1 + F2 is compared with phi + i*psi, which do not call _F_parts
    monkeypatch.setattr(verify_mod, "_F_parts", half_vortex)
    reports = {r.name: r for r in run_suite(FlowParams(), seed=42)}
    assert reports["potential_superposition"].verdict == "fail"


PHYSICAL = {
    "canonical_scaling", "circulation_contour_independence", "saddle_eigenvalues",
    "stagnation_zero_velocity",
}


def bits(reports):
    """Each report's repr, params left out, outside the physical checks."""
    return [repr(replace(r, params="")) for r in reports if r.name not in PHYSICAL]


@given(
    kind=st.sampled_from(["regular", "rotation", "line"]),
    log_l=st.floats(-6.0, 6.0),
    log_tau=st.floats(-4.0, 4.0),
    delta=st.floats(1e-12, 0.5),
    seed=st.integers(0, 1000),
)
@settings(max_examples=200, deadline=None)
def test_suite_is_the_canonical_suite_in_every_unit_system(kind, log_l, log_tau, delta, seed):
    # l = delta/k in [1e-6, 1e6], tau in [1e-4, 1e4]: a = l/tau and b = a*l;
    # a line flow or a rotation takes a = l/tau or b = l*l/tau
    l, tau = 10.0**log_l, 10.0**log_tau
    params = {
        "regular": FlowParams(hbar=l * l / (tau * delta), k=delta / l, delta=delta),
        "rotation": FlowParams(hbar=l * l / (tau * delta), k=0.0, delta=delta),
        "line": FlowParams(hbar=l / tau, k=1.0, delta=0.0),
    }[kind]
    canon = FlowParams(k=float(kind != "rotation"), delta=float(kind != "line"),
                       allow_any_delta=True)
    reports = run_suite(params, seed=seed)
    assert suite_passed(reports), format_report(reports)
    assert bits(reports) == bits(run_suite(canon, seed=seed))


def test_saddle_near_the_top_of_the_double_range():
    # b = 5e304 at a saddle of r^2 = 2.5e5: the Jacobian must not overflow
    reports = run_suite(FlowParams(hbar=1e300, mass=1e-5, k=1e-3), seed=42)
    assert suite_passed(reports), format_report(reports)


@pytest.mark.parametrize("delta", [0.5, 1e-9])
def test_small_vortex_near_a_small_saddle(delta):
    # b = 1e-210*delta and l = 1e-100*delta: b*y would underflow to a
    # subnormal before the division by r^2, so the kernels divide first
    reports = run_suite(FlowParams(hbar=1e-150, mass=1e60, k=1e100, delta=delta), seed=42)
    assert suite_passed(reports), format_report(reports)


def test_tampered_jacobian_fails_saddle_eigenvalues(monkeypatch):
    import abflow.critical as critical_mod

    entries = critical_mod.jacobian_entries

    def scaled(params, x, y):
        alpha, beta = entries(params, x, y)
        return alpha * (1.0 + 1e-9), beta * (1.0 + 1e-9)

    monkeypatch.setattr(critical_mod, "jacobian_entries", scaled)
    reports = {rep.name: rep for rep in run_suite(FlowParams(), seed=42)}
    assert reports["saddle_eigenvalues"].verdict == "fail"


@pytest.mark.parametrize("params", [FlowParams(), FlowParams(k=0.0)], ids=["regular", "rotation"])
def test_each_kernel_is_called_a_few_times_per_suite(monkeypatch, params):
    # the stencils of every check share one table: each kernel runs on it,
    # at the points and for the few checks of their own
    import abflow.verify as verify_mod

    calls = {"velocity": 0, "stream_values": 0, "potential_values": 0}

    def counted(name):
        kernel = getattr(verify_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(verify_mod, name, counted(name))
    assert suite_passed(run_suite(params, seed=42))
    assert calls["velocity"] <= 5
    assert calls["stream_values"] <= 4
    assert calls["potential_values"] <= 3
