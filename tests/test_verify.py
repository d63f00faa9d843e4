import math

import pytest

from abflow import CheckReport, FlowParams, format_report, run_suite, suite_passed

EXPECTED_CHECKS = [
    "cauchy_riemann",
    "circulation_contour_independence",
    "curl_free",
    "derivative_velocity_identity",
    "divergence_free",
    "far_field_decay",
    "gradient_orthogonality",
    "hamiltonian_equals_stream",
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
    # residual gates are in field-coefficient units, so rescaled parameters
    # must not trip them
    assert suite_passed(run_suite(FlowParams(**kwargs), seed=9))


def test_tampered_field_is_detected():
    # a shear added to u breaks the divergence, hence both Cauchy-Riemann
    # equations; the curl identity is untouched by an x-linear term in u
    tamper = lambda x, y: (1e-4 * x, 0.0)
    reports = {rep.name: rep for rep in run_suite(FlowParams(), seed=42, tamper=tamper)}
    assert reports["divergence_free"].verdict == "fail"
    assert reports["cauchy_riemann"].verdict == "fail"
    assert reports["curl_free"].verdict == "pass"
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
    # F'(z) + a alone cancels to eps*a when b/|z| << a; the check must not
    # read that cancellation as a wrong field
    reports = {rep.name: rep for rep in run_suite(FlowParams(**kwargs), seed=42)}
    assert reports["far_field_decay"].verdict == "pass"
    assert suite_passed(reports.values())


def test_far_field_decay_detects_a_wrong_vortex_term(monkeypatch):
    import abflow.verify as verify_mod

    def half_vortex(params, z):
        return -params.a + 0.5j * params.b / complex(z)

    monkeypatch.setattr(verify_mod, "complex_derivative", half_vortex)
    reports = {rep.name: rep for rep in run_suite(FlowParams(delta=1e-6), seed=42)}
    assert reports["far_field_decay"].verdict == "fail"


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


@pytest.mark.parametrize("k, delta", [(0.3, 0.0), (3.0, 1e-9)])
def test_fast_stream_residuals_on_the_field_scale(k, delta):
    # a = hbar*k/mass up to 3e6 >> max(1, b): stencil and quadrature roundoff
    # grow with a, so the residuals are read in units of max(1, a, b)
    params = FlowParams(hbar=1e3, mass=1e-3, k=k, delta=delta)
    for seed in (1, 2, 3):
        reports = run_suite(params, seed=seed)
        assert suite_passed(reports), (seed, format_report(reports))
