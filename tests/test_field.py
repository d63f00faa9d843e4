import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abflow import (
    FlowParams,
    PhysicalConstants,
    InvalidParamsError,
    SingularPointError,
    complex_derivative,
    complex_potential,
    current,
    flux_to_delta,
    hamiltonian,
    jacobian,
    near_branch_cut,
    potential_values,
    stream_function,
    stream_values,
    velocity,
    velocity_potential,
)
from abflow.field import SCALE_MAX, SCALE_MIN, _dF, _F_parts
from abflow.verify import _sample_points

P = FlowParams()  # hbar=mass=k=1, delta=0.5

coord = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
point_off_origin = st.tuples(coord, coord).filter(lambda p: math.hypot(*p) > 1e-3)
param_value = st.floats(0.1, 10.0, allow_nan=False)
# zero, or large enough that l*l = (delta/k)**2 is at least SCALE_MIN
delta_value = st.one_of(st.just(0.0), st.floats(1e-150, 0.5))


def any_params(hbar, mass, k, delta):
    return FlowParams(hbar=hbar, mass=mass, k=k, delta=delta)


class TestParams:
    def test_coefficients(self):
        p = FlowParams(hbar=2.0, mass=4.0, k=3.0, delta=0.25)
        assert p.a == 2.0 * 3.0 / 4.0
        assert p.b == 2.0 * 0.25 / 4.0

    @pytest.mark.parametrize("bad", [
        dict(hbar=0.0), dict(hbar=-1.0), dict(mass=0.0), dict(k=-1.0),
        dict(delta=-0.1), dict(hbar=float("nan")),
    ])
    def test_invalid(self, bad):
        with pytest.raises(InvalidParamsError):
            FlowParams(**bad)

    def test_delta_cap_and_relaxed_mode(self):
        with pytest.raises(InvalidParamsError):
            FlowParams(delta=0.8)
        p = FlowParams(delta=0.8, allow_any_delta=True)
        assert p.delta == 0.8

    @pytest.mark.parametrize("bad, scale", [
        (dict(hbar=1e-315), "a"),  # a and b subnormal
        (dict(hbar=1e307, k=100.0), "a"),  # a = 1e309 overflows
        (dict(hbar=1e308, mass=0.1), "a"),  # a and b overflow
        (dict(hbar=1e307), "a"),  # a = 1e307 is past SCALE_MAX
        (dict(k=1e-310), "a"),  # a subnormal, delta/k overflows
        (dict(delta=1e-310, allow_any_delta=True), "b"),  # b and delta/k subnormal
        (dict(k=1e-300), "l*l"),  # l = 5e299
        (dict(k=1e-200), "l*l"),  # l = 5e199
        (dict(hbar=1e300, k=1e-200), "l*l"),  # a = 1e100 and l = 5e199
        (dict(delta=1e300, allow_any_delta=True), "l*l"),  # l = 1e300
        (dict(k=1e200), "l*l"),  # l = 5e-201
        (dict(delta=1e-300), "l*l"),  # l = 1e-300
        (dict(hbar=1e-150, k=1e-100), "tau"),  # a = 1e-250 and l = 5e99
        (dict(hbar=1e-120, k=1e-100), "tau"),  # a = 1e-220 and l = 5e99
        (dict(hbar=1e305), "tau"),  # tau = 5e-306
    ])
    def test_unrepresentable_scales_are_rejected(self, bad, scale):
        message = f"^{re.escape(scale)} = .* is .*, " + re.escape(
            f"outside the range [{SCALE_MIN!r}, {SCALE_MAX!r}]")
        with pytest.raises(InvalidParamsError, match=message):
            FlowParams(**bad)

    def test_pure_rotation_allowed(self):
        p = FlowParams(k=0.0, delta=0.5)
        assert p.a == 0.0
        with pytest.raises(InvalidParamsError, match="requires k > 0"):
            p.saddle_height  # a rotation has no saddle

    def test_constants_validated(self):
        with pytest.raises(InvalidParamsError):
            PhysicalConstants(charge=0.0)


class TestCurrent:
    def test_substitution(self):
        assert np.allclose(current(P, (1.0, 1.0)), [-0.75, -0.25], rtol=0, atol=1e-15)

    def test_uniform_when_delta_zero(self):
        p = FlowParams(delta=0.0)
        for pt in [(7, 3), (0, 0), (-2, 5)]:
            assert np.array_equal(current(p, pt), [-1.0, 0.0])

    def test_stagnation_point_value(self):
        j = current(P, (0.0, 0.5))
        assert np.hypot(*j) <= 1e-13

    def test_singular_origin(self):
        with pytest.raises(SingularPointError):
            current(P, (0.0, 0.0))

    def test_pure_rotation(self):
        p = FlowParams(k=0.0, delta=0.5)
        j = current(p, (1.0, 0.0))
        assert np.allclose(j, [0.0, -0.5], atol=1e-15)

    @given(p=point_off_origin)
    def test_duality_with_derivative(self, p):
        # F' = u - i v
        u, v = current(P, p)
        fp = complex_derivative(P, complex(*p))
        assert fp == pytest.approx(complex(u, -v), rel=1e-14, abs=1e-300)


class TestComplexPotential:
    def test_at_one(self):
        assert complex_potential(P, 1.0) == pytest.approx(-1.0 + 0j, abs=1e-15)

    def test_at_i(self):
        f = complex_potential(P, 1j)
        assert f.real == pytest.approx(-math.pi / 4, abs=1e-15)
        assert f.imag == pytest.approx(-1.0, abs=1e-15)

    @given(p=point_off_origin)
    def test_delta_zero_is_uniform(self, p):
        z = complex(*p)
        assert complex_potential(FlowParams(delta=0.0), z) == -z

    def test_singular_origin(self):
        with pytest.raises(SingularPointError):
            complex_potential(P, 0j)

    @given(p=point_off_origin)
    def test_imag_part_is_stream_function(self, p):
        f = complex_potential(P, complex(*p))
        assert f.imag == pytest.approx(stream_function(P, p), rel=1e-13, abs=1e-15)

    @given(p=point_off_origin)
    def test_superposition(self, p):
        # F is the uniform-stream part plus the vortex part, (F1, F2) of _F_parts
        z = complex(*p)
        f = complex_potential(P, z)
        f1, f2 = _F_parts(P.a, P.b, z)
        assert abs(f - (f1 + f2)) <= 1e-14 * max(abs(f), 1e-30)

    def test_decompose_values(self):
        f1, f2 = _F_parts(P.a, P.b, 1.0 + 0j)
        assert (f1, f2) == (-1.0 + 0j, 0j)
        f1, f2 = _F_parts(P.a, P.b, 1j)
        assert f1 == -1j
        assert f2 == pytest.approx(-math.pi / 4 + 0j, abs=1e-15)

    @given(p=point_off_origin)
    def test_decompose_delta_zero(self, p):
        params = FlowParams(delta=0.0)
        _, f2 = _F_parts(params.a, params.b, complex(*p))
        assert f2 == 0j


class TestComplexDerivative:
    def test_substitution(self):
        fp = complex_derivative(P, 1 + 1j)
        assert fp == pytest.approx(-0.75 + 0.25j, abs=1e-15)

    def test_zero_at_stagnation(self):
        assert abs(complex_derivative(P, 0.5j)) <= 1e-13

    def test_singular_origin(self):
        with pytest.raises(SingularPointError):
            complex_derivative(P, 0j)

    @pytest.mark.parametrize("r", [10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("ang", [0.1, 1.0, 2.5, -2.0])
    def test_far_field_deviation_is_exact(self, r, ang):
        z = r * complex(math.cos(ang), math.sin(ang))
        dev = abs(complex_derivative(P, z) + P.a)
        assert dev == pytest.approx(P.b / abs(z), rel=1e-12)


class TestStreamFunction:
    def test_separatrix_point(self):
        assert stream_function(P, (0.0, 0.5)) == pytest.approx(
            0.5 * (math.log(0.5) - 1.0), abs=1e-15
        )

    def test_delta_zero(self):
        assert stream_function(FlowParams(delta=0.0), (3.0, 2.0)) == -2.0

    @given(p=point_off_origin)
    def test_mirror_symmetry_is_exact(self, p):
        x, y = p
        assert stream_function(P, (x, y)) == stream_function(P, (-x, y))

    @given(p=point_off_origin, hbar=param_value, mass=param_value,
           k=param_value, delta=delta_value)
    @settings(max_examples=50)
    def test_hamiltonian_is_same_kernel(self, p, hbar, mass, k, delta):
        params = any_params(hbar, mass, k, delta)
        assert hamiltonian(params, p) == stream_function(params, p)

    def test_hamiltonian_values(self):
        assert hamiltonian(P, (0.0, 0.25)) == pytest.approx(
            -0.25 + 0.5 * math.log(0.25), abs=1e-15
        )
        assert hamiltonian(P, (1.0, 0.0)) == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([1.0, -2.0, 0.5])
        ys = np.array([0.5, 1.0, -3.0])
        vals = stream_values(P, xs, ys)
        for i in range(3):
            assert vals[i] == stream_function(P, (xs[i], ys[i]))

    def test_vectorized_origin_is_minus_inf(self):
        assert stream_values(P, 0.0, 0.0) == -np.inf

    def test_vectorized_past_the_double_range_is_quiet(self):
        # x*x + y*y overflows to inf, and b*log(inf) - a*y is inf or inf - inf
        big = FlowParams(hbar=1e300)
        vals = stream_values(big, [0.0, 0.0, 1e200], [1e10, 1e160, 0.0])
        assert vals[0] == -np.inf and np.isnan(vals[1]) and vals[2] == np.inf


class TestVelocityPotential:
    def test_values(self):
        assert velocity_potential(P, (1.0, 0.0)) == -1.0
        assert velocity_potential(P, (0.0, 1.0)) == pytest.approx(-math.pi / 4, abs=1e-15)

    @given(p=point_off_origin)
    def test_delta_zero(self, p):
        assert velocity_potential(FlowParams(delta=0.0), p) == -p[0]

    @given(p=point_off_origin)
    def test_equals_real_part_of_potential(self, p):
        f = complex_potential(P, complex(*p))
        assert velocity_potential(P, p) == pytest.approx(f.real, rel=1e-13, abs=1e-15)

    def test_singular_origin(self):
        with pytest.raises(SingularPointError):
            velocity_potential(P, (0.0, 0.0))

    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(hbar=1e6, mass=1e-6, k=3.0, delta=0.4),
        dict(hbar=1e-6, mass=1e6, k=0.3, delta=0.05),
        dict(hbar=10.0, mass=0.1, k=0.0, delta=2.0, allow_any_delta=True),
        dict(delta=0.0),
    ])
    def test_array_entry_point_matches_scalar_bit_for_bit(self, kwargs):
        params = FlowParams(**kwargs)
        rng = np.random.default_rng(11)
        r = 10.0 ** rng.uniform(-6.0, 6.0, 500)
        th = rng.uniform(-np.pi, np.pi, 500)
        xs, ys = r * np.cos(th), r * np.sin(th)
        vals = potential_values(params, xs, ys)
        scalar = [velocity_potential(params, (xi, yi)) for xi, yi in zip(xs, ys)]
        assert vals.tobytes() == np.array(scalar).tobytes()

    def test_branch_cut_flag(self):
        assert near_branch_cut((-1.0, 1e-9))
        assert near_branch_cut((-1.0, 0.0))
        assert near_branch_cut((0.0, 0.0))
        assert not near_branch_cut((1.0, 0.0))
        assert not near_branch_cut((0.0, 1.0))


# every point function, with a complex point for the complex ones
POINT_FUNCTIONS = {
    "current": current,
    "stream_function": stream_function,
    "velocity_potential": velocity_potential,
    "complex_potential": lambda params, p: complex_potential(params, complex(*p)),
    "complex_derivative": lambda params, p: complex_derivative(params, complex(*p)),
    "jacobian": jacobian,
}


@pytest.mark.parametrize("name", POINT_FUNCTIONS)
@pytest.mark.parametrize("params, p, error", [
    (P, (math.nan, 1.0), InvalidParamsError),
    (FlowParams(delta=0.0), (0.0, math.inf), InvalidParamsError),
    (P, (0.0, 0.0), SingularPointError),
    # x*x + y*y below the smallest normal double: 0, or subnormal
    (P, (1e-170, 0.0), SingularPointError),
    (P, (1e-160, 0.0), SingularPointError),
    (FlowParams(k=0.0), (0.0, -1e-155), SingularPointError),
    (P, (1e-150, 0.0), None),
    (FlowParams(delta=0.0), (0.0, 0.0), None),  # a line flow has no core
    (FlowParams(delta=0.0), (1e-170, 0.0), None),
])
def test_point_functions_share_one_boundary(name, params, p, error):
    f = POINT_FUNCTIONS[name]
    if error is None:
        assert np.all(np.isfinite(f(params, p)))
    else:
        with pytest.raises(error):
            f(params, p)


@pytest.mark.parametrize("p", [(0.0, 0.0), (1e-170, 0.0)])
def test_velocity_is_quiet_within_the_core(p):
    # the array kernel gives NaN or inf there, with no exception or warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, v = velocity(P, *p)
    assert not (np.isfinite(u) and np.isfinite(v))


class TestFluxConversions:
    def test_substitution(self):
        c = PhysicalConstants()
        assert flux_to_delta(c, 1.0) == pytest.approx(1.0 / (2 * math.pi), abs=1e-16)
        assert flux_to_delta(c, math.pi) == pytest.approx(0.5, abs=1e-16)
        assert flux_to_delta(c, 0.0) == 0.0

    @pytest.mark.parametrize("flux, charge", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1e308, 1e300)])
    def test_nonfinite_flux_or_delta_is_rejected(self, flux, charge):
        with pytest.raises(InvalidParamsError, match="not a finite number"):
            flux_to_delta(PhysicalConstants(charge=charge), flux)


@pytest.mark.parametrize("kwargs", [
    dict(),
    dict(hbar=2.0, mass=0.5),
    dict(hbar=0.25, mass=4.0, k=3.0),
])
class TestScalarApiMatchesVerifyKernels:
    """The scalar entry points against the array kernels verify runs, at the
    suite's default sample points."""

    EPS = np.finfo(float).eps

    @pytest.fixture
    def points(self):
        x, y = _sample_points(42)
        return x, y, x + 1j * y

    def test_complex_derivative(self, kwargs, points):
        # CPython divides a complex by a complex with one more rounding than
        # numpy's reciprocal-multiply: the two agree to one ulp of |F'|
        params = FlowParams(**kwargs)
        _, _, z = points
        arr = _dF(params.a, params.b, z)
        scalar = np.array([complex_derivative(params, zi) for zi in z.tolist()])
        assert np.all(np.abs(scalar - arr) <= self.EPS * np.abs(arr))

    def test_potential_and_its_parts(self, kwargs, points):
        # cmath.log and numpy's complex log differ by at most an ulp of |F2|
        params = FlowParams(**kwargs)
        _, _, z = points
        f1, f2 = _F_parts(params.a, params.b, z)
        whole = np.array([complex_potential(params, zi) for zi in z.tolist()])
        assert np.all(np.abs(whole - (f1 + f2)) <= 2.0 * self.EPS * (np.abs(f1) + np.abs(f2)))

    def test_stream_function_and_hamiltonian(self, kwargs, points):
        params = FlowParams(**kwargs)
        x, y, _ = points
        arr = stream_values(params, x, y)
        psi = [stream_function(params, p) for p in zip(x.tolist(), y.tolist())]
        ham = [hamiltonian(params, p) for p in zip(x.tolist(), y.tolist())]
        assert np.array(psi).tobytes() == arr.tobytes()
        assert np.array(ham).tobytes() == arr.tobytes()
