import math
import re
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import abflow.contour as contour_mod
import abflow.critical as critical_mod
import abflow.field as field_mod
import abflow.verify as verify_mod
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
    "circulation_contour_independence",
    "far_field_decay",
    "jacobian_finite_difference",
    "potential_derivative",
    "potential_superposition",
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
    assert reports["potential_derivative"].order == pytest.approx(2.0, abs=0.2)


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


def add_to_velocity(monkeypatch, term):
    """Patch the velocity kernel where the suite reads it: term(x, y) ->
    (du, dv) is added to every velocity it computes."""
    kernel = verify_mod.velocity

    def broken(params, x, y):
        (u, v), (du, dv) = kernel(params, x, y), term(x, y)
        return u + du, v + dv

    monkeypatch.setattr(verify_mod, "velocity", broken)


@pytest.mark.parametrize("term", [lambda x, y: (1e-4 * x, 0.0), lambda x, y: (0.0, 1e-4 * x)],
                         ids=["u_x", "v_x"])
def test_tampered_field_is_detected(monkeypatch, term):
    # a shear added to u or to v breaks u_x or v_x against the analytic
    # Jacobian; the potentials, which do not read the velocity kernel, pass
    add_to_velocity(monkeypatch, term)
    reports = {rep.name: rep for rep in run_suite(FlowParams(), seed=42)}
    assert reports["jacobian_finite_difference"].verdict == "fail"
    assert reports["potential_derivative"].verdict == "pass"
    assert not suite_passed(reports.values())


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
    def half_vortex_off(x, y):
        # half of the canonical vortex's current (y, -x)/r^2 taken off
        r2 = x * x + y * y
        return -0.5 * y / r2, 0.5 * x / r2

    with monkeypatch.context() as m:
        add_to_velocity(m, half_vortex_off)
        reports = {rep.name: rep for rep in run_suite(FlowParams(delta=1e-6), seed=42)}
    assert reports["far_field_decay"].verdict == "fail"

    # a wrong F' kernel, with the potentials intact, breaks dF/dz = F'
    monkeypatch.setattr(verify_mod, "_dF", lambda a, b, z: -a + 0.5j * b / z)
    reports = {rep.name: rep for rep in run_suite(FlowParams(delta=1e-6), seed=42)}
    assert reports["potential_derivative"].verdict == "fail"


@pytest.mark.parametrize("mutate", [
    lambda kernel: lambda a, b, x, y: kernel(a * (1.0 + 1e-3), b, x, y),
    lambda kernel: lambda a, b, x, y: (a, 0.0),
], ids=["stream 1e-3 off", "reversed"])
def test_wrong_line_flow_velocity_is_detected(monkeypatch, mutate):
    # a line flow's velocity is constant: no difference sees it, and the
    # physical kernel scales with the canonical one; the far field compares
    # its size and sign with the flow's a
    monkeypatch.setattr(field_mod, "_velocity", mutate(field_mod._velocity))
    reports = {r.name: r for r in run_suite(FlowParams(k=1.0, delta=0.0), seed=42)}
    assert reports["far_field_decay"].verdict == "fail"


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


@pytest.mark.parametrize("params", [FlowParams(), FlowParams(k=0)], ids=["regular", "rotation"])
def test_every_seed_passes_at_natural_units(params):
    # stencils near the branch cut of phi must stay on one side of it
    failing = [seed for seed in range(100) if not suite_passed(run_suite(params, seed=seed))]
    assert failing == []


@pytest.mark.parametrize("k", [0.6, 1.0, 3.0, 10.0])
def test_line_flows_pass(k):
    # with delta = 0, psi and phi are linear: their differences hold
    # roundoff alone, so there is no order to fit
    for seed in range(40):
        reports = {rep.name: rep for rep in run_suite(FlowParams(k=k, delta=0.0), seed=seed)}
        assert suite_passed(reports.values()), (seed, format_report(list(reports.values())))
        assert reports["potential_derivative"].order is None


FITTED = {"potential_derivative"}


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
def test_potential_derivative_on_weak_fields(hbar):
    # the residual is relative to the canonical field, so a weak field
    # keeps its points and its order
    rep = {r.name: r for r in run_suite(FlowParams(hbar=hbar), seed=42)}["potential_derivative"]
    assert rep.verdict == "pass"
    assert ORDER_BAND[0] <= rep.order <= ORDER_BAND[1]


def test_broken_velocity_on_the_zero_field_is_reported(monkeypatch):
    # a speed the velocity kernel adds to the zero field has no canonical
    # counterpart to scale; the relative residuals divide by TINY, not by
    # zero (a warning is an error here)
    add_to_velocity(monkeypatch, lambda x, y: (0.01, 0.0))
    reports = {r.name: r for r in run_suite(FlowParams(k=0.0, delta=0.0))}
    assert reports["canonical_scaling"].verdict == "fail"


def test_superposition_detects_a_wrong_vortex_term(monkeypatch):
    def half_vortex(a, b, z):
        return -a * z, 0.5j * b * np.log(z)

    # F1 + F2 is compared with phi + i*psi, which do not call _F_parts
    monkeypatch.setattr(verify_mod, "_F_parts", half_vortex)
    reports = {r.name: r for r in run_suite(FlowParams(), seed=42)}
    assert reports["potential_superposition"].verdict == "fail"


PHYSICAL = {"canonical_scaling", "circulation_contour_independence"}


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


@pytest.mark.parametrize("params", [FlowParams(), FlowParams(k=0.0)], ids=["regular", "rotation"])
def test_each_kernel_is_called_a_few_times_per_suite(monkeypatch, params):
    # the stencils of every check share one table: each kernel runs on it,
    # at the points and in physical units for canonical_scaling, the
    # velocity also on the far-field circles
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
    assert calls == {"velocity": 4, "stream_values": 3, "potential_values": 3}


# The mutant table: each kind breaks one kernel where the suite reads it, or
# puts one wrong but self-consistent flow into all of them, at the sizes e
# of SIZES; the factor 1 + e of the last flips a scaled term's sign.  Each
# mutant runs alone, at seed 42, on each flow of MUTANT_FLOWS: the regular
# flow in three unit systems, a rotation, a line flow and the zero flow.
SIZES = (1e-9, 1e-3, -2.0)
MUTANT_FLOWS = {
    "natural": FlowParams(),
    "scaled": FlowParams(hbar=10.0, mass=0.1, k=3.0, delta=0.4),
    "canonical": FlowParams(k=1.0, delta=1.0, allow_any_delta=True),
    "rotation": FlowParams(k=0.0),
    "line": FlowParams(delta=0.0),
    "zero": FlowParams(k=0.0, delta=0.0),
}


def scale_terms(stream, vortex):
    """A kernel(a, b, ...) with its stream and vortex coefficients scaled."""
    return lambda kernel: lambda a, b, *xy: kernel(a * stream, b * vortex, *xy)


def add_term(term):
    """A kernel(a, b, x, y) plus term(x, y): a pair to a velocity, else a
    number."""
    def mutate(kernel):
        def mutant(a, b, x, y):
            value, extra = kernel(a, b, x, y), term(x, y)
            if isinstance(value, tuple):
                return value[0] + extra[0], value[1] + extra[1]
            return value + extra
        return mutant
    return mutate


def scale_item(i, factor):
    """A kernel returning a tuple, its item i scaled by factor."""
    def mutate(kernel):
        def mutant(*args):
            items = list(kernel(*args))
            items[i] = items[i] * factor
            return tuple(items)
        return mutant
    return mutate


def scale_property(factor):
    return lambda prop: property(lambda self: prop.fget(self) * factor)


@pytest.mark.parametrize("entry", [0, 1], ids=["alpha", "beta"])
def test_jacobian_off_by_1e_8_fails_its_finite_difference_check(monkeypatch, entry):
    # the analytic entries against the first-derivative stencils, relative
    # to |J|: an entry 1e-8 off, relative, is 100 times the tolerance
    broken = scale_item(entry, 1.0 + 1e-8)(critical_mod.jacobian_entries)
    monkeypatch.setattr(critical_mod, "jacobian_entries", broken)
    reports = {rep.name: rep for rep in run_suite(FlowParams(), seed=42)}
    assert reports["jacobian_finite_difference"].verdict == "fail"


def scale_items(factor):
    """A kernel returning a tuple, each item scaled by factor."""
    return lambda kernel: lambda *args: tuple(v * factor for v in kernel(*args))


# the kernels of a flow's coefficients a and b that the suite reads, the
# circulation's copy of the velocity kernel too
AB_KERNELS = [(field_mod, "_velocity"), (contour_mod, "_velocity"), (field_mod, "_psi"),
              (field_mod, "_phi"), (verify_mod, "_dF"), (verify_mod, "_F_parts")]


def whole_flow(stream, vortex):
    """Patches putting the flow of a*stream and b*vortex into every kernel
    the suite reads; the Jacobian is b times a function of the point."""
    return [(owner, attr, scale_terms(stream, vortex)) for owner, attr in AB_KERNELS] + [
        (critical_mod, "jacobian_entries", scale_items(vortex))]


def strain(e):
    """Patches putting the flow F + e*z^2/2 into every kernel the suite reads."""
    def dF(kernel):
        return lambda a, b, z: kernel(a, b, z) + e * z

    def F_parts(kernel):
        def mutant(a, b, z):
            f1, f2 = kernel(a, b, z)
            return f1 + 0.5 * e * z * z, f2
        return mutant

    def jacobian(kernel):
        def mutant(*args):
            alpha, beta = kernel(*args)
            return alpha + e, beta
        return mutant

    uv = add_term(lambda x, y: (e * x, -e * y))
    return [
        (field_mod, "_velocity", uv), (contour_mod, "_velocity", uv),
        (field_mod, "_psi", add_term(lambda x, y: e * x * y)),
        (field_mod, "_phi", add_term(lambda x, y: 0.5 * e * (x * x - y * y))),
        (verify_mod, "_dF", dF), (verify_mod, "_F_parts", F_parts),
        (critical_mod, "jacobian_entries", jacobian),
    ]


def mutant_kinds(e):
    """name -> [(owner, attribute, mutate), ...] at size e: the kinds of the
    table, each a kernel broken where the suite reads it, or one wrong but
    self-consistent flow put into every kernel (the whole-flow kinds)."""
    kinds = {
        "velocity: vortex": (field_mod, "_velocity", scale_terms(1.0, 1.0 + e)),
        "velocity: stream": (field_mod, "_velocity", scale_terms(1.0 + e, 1.0)),
        "velocity + e*(x, 0)": (field_mod, "_velocity", add_term(lambda x, y: (e * x, 0.0))),
        "velocity + e*(y, 0)": (field_mod, "_velocity", add_term(lambda x, y: (e * y, 0.0))),
        "velocity + e*(x, -y)": (field_mod, "_velocity", add_term(lambda x, y: (e * x, -e * y))),
        # the circulation quadrature sums the vortex alone, a = 0
        "circulation: vortex": (contour_mod, "_velocity", scale_terms(1.0, 1.0 + e)),
        "F': vortex": (verify_mod, "_dF", scale_terms(1.0, 1.0 + e)),
        "F': stream": (verify_mod, "_dF", scale_terms(1.0 + e, 1.0)),
        "F parts: vortex": (verify_mod, "_F_parts", scale_terms(1.0, 1.0 + e)),
        "F parts: stream": (verify_mod, "_F_parts", scale_terms(1.0 + e, 1.0)),
        "Jacobian: alpha": (critical_mod, "jacobian_entries", scale_item(0, 1.0 + e)),
        "Jacobian: beta": (critical_mod, "jacobian_entries", scale_item(1, 1.0 + e)),
        # a length has no sign to flip: circulation rejects the radius -l*R
        "frame: l": (verify_mod, "_frame", scale_item(0, 1.0 + abs(e))),
        "FlowParams.a": (FlowParams, "a", scale_property(1.0 + e)),
        "FlowParams.b": (FlowParams, "b", scale_property(1.0 + e)),
    }
    for name in ("psi", "phi"):
        kernel = f"_{name}"
        kinds[f"{name}: vortex"] = (field_mod, kernel, scale_terms(1.0, 1.0 + e))
        kinds[f"{name}: stream"] = (field_mod, kernel, scale_terms(1.0 + e, 1.0))
        kinds[f"{name} + e*x"] = (field_mod, kernel, add_term(lambda x, y: e * x))
        kinds[f"{name} + e*x*x"] = (field_mod, kernel, add_term(lambda x, y: e * x * x))
        kinds[f"{name} + e*x*y"] = (field_mod, kernel, add_term(lambda x, y: e * x * y))
        kinds[f"{name} + e"] = (field_mod, kernel, add_term(lambda x, y: e))
    kinds = {name: [patch] for name, patch in kinds.items()}
    kinds["whole flow: a"] = whole_flow(1.0 + e, 1.0)
    kinds["whole flow: b"] = whole_flow(1.0, 1.0 + e)
    kinds["whole flow: -b"] = whole_flow(1.0, -1.0)
    kinds["whole flow: strain"] = strain(e)
    return kinds


# the kinds that scale the stream a, the vortex b or the length l alone: on
# a flow without it they put in the same flow, or (a rotation or a line flow
# has no length of its own) an equally right frame, so they are no mutants
SCALES = {
    "a": {"velocity: stream", "F': stream", "F parts: stream", "psi: stream", "phi: stream",
          "FlowParams.a", "whole flow: a"},
    "b": {"velocity: vortex", "circulation: vortex", "F': vortex", "F parts: vortex",
          "psi: vortex", "phi: vortex", "Jacobian: alpha", "Jacobian: beta", "FlowParams.b",
          "whole flow: b", "whole flow: -b"},
    "l": {"frame: l"},
}


def equivalent(kind, params):
    """Whether the kind scales only what the flow lacks."""
    lacks = {"a": params.a == 0.0, "b": params.b == 0.0, "l": not (params.a and params.b)}
    return any(lacks[what] and kind in kinds for what, kinds in SCALES.items())


@pytest.fixture(scope="module")
def mutant_failures():
    """(kind, e, flow) -> the checks the suite fails with that mutant alone."""
    failures = {}
    for e in SIZES:
        for kind, patches in mutant_kinds(e).items():
            for flow, params in MUTANT_FLOWS.items():
                with pytest.MonkeyPatch.context() as m:
                    for owner, attr, mutate in patches:
                        m.setattr(owner, attr, mutate(vars(owner)[attr]))
                    reports = run_suite(params, seed=42)
                failures[kind, e, flow] = {r.name for r in reports if r.verdict == "fail"}
    return failures


# check -> (mutants of the table it fails, those it fails alone, the kinds
# of those); README's verify section lists the two counts
MUTANT_TABLE = {
    "canonical_scaling": (189, 17, {"FlowParams.a", "FlowParams.b", "frame: l"}),
    "circulation_contour_independence": (42, 20, {
        "circulation: vortex", "whole flow: -b", "whole flow: b",
    }),
    "far_field_decay": (128, 26, {"velocity: stream", "whole flow: a", "whole flow: strain"}),
    "jacobian_finite_difference": (100, 28, {
        "Jacobian: alpha", "Jacobian: beta", "velocity: vortex",
    }),
    "potential_derivative": (200, 24, {"F': stream", "F': vortex"}),
    "potential_superposition": (235, 36, {
        "F parts: stream", "F parts: vortex", "phi + e", "psi + e",
    }),
}


def test_every_mutant_fails_a_check(mutant_failures):
    for params in MUTANT_FLOWS.values():
        assert suite_passed(run_suite(params, seed=42))
    assert len(mutant_failures) == 31 * len(SIZES) * len(MUTANT_FLOWS)
    wrong = {key for key in mutant_failures if not equivalent(key[0], MUTANT_FLOWS[key[2]])}
    assert len(wrong) == 441
    # every wrong flow fails some check, and every equivalent one passes
    assert [key for key, failed in mutant_failures.items() if bool(failed) != (key in wrong)] == []


def test_mutant_table(mutant_failures):
    caught, alone, kinds = Counter(), Counter(), defaultdict(set)
    for (kind, _, _), failed in mutant_failures.items():
        caught.update(failed)
        if len(failed) == 1:
            (name,) = failed
            alone[name] += 1
            kinds[name].add(kind)
    table = {name: (caught[name], alone[name], kinds[name]) for name in EXPECTED_CHECKS}
    assert table == MUTANT_TABLE


def test_readme_lists_the_mutant_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\d+) \| (\d+) \|", readme, re.MULTILINE)
    assert {name: (int(n), int(k)) for name, n, k in rows} == {
        name: (n, k) for name, (n, k, _) in MUTANT_TABLE.items()
    }
