import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abflow import (
    FlowParams,
    InvalidParamsError,
    complex_potential,
    current,
    hamiltonian,
    jacobian,
    jacobian_entries,
    separatrix_level,
    stagnation_point,
)

P = FlowParams()

param_value = st.floats(0.1, 10.0, allow_nan=False)
delta_pos = st.floats(0.01, 0.5, allow_nan=False)


def fd_jacobian(params, p, h=1e-5):
    x, y = p
    ue, ve = current(params, (x + h, y))
    uw, vw = current(params, (x - h, y))
    un, vn = current(params, (x, y + h))
    us, vs = current(params, (x, y - h))
    return np.array([
        [(ue - uw) / (2 * h), (un - us) / (2 * h)],
        [(ve - vw) / (2 * h), (vn - vs) / (2 * h)],
    ])


class TestStagnationPoint:
    def test_location_and_eigenvalues(self):
        sp = stagnation_point(P)
        assert np.allclose(sp.location, [0.0, 0.5], atol=0)
        assert sp.eigenvalues == pytest.approx((2.0, -2.0), rel=1e-14)

    def test_location_scales_with_k(self):
        sp = stagnation_point(FlowParams(k=2.0, delta=0.5))
        assert np.allclose(sp.location, [0.0, 0.25], atol=0)

    def test_absent_cases(self):
        assert stagnation_point(FlowParams(delta=0.0)) is None
        assert stagnation_point(FlowParams(k=0.0, delta=0.5)) is None

    @given(hbar=param_value, mass=param_value, k=param_value, delta=delta_pos)
    @settings(max_examples=50)
    def test_velocity_vanishes_there(self, hbar, mass, k, delta):
        params = FlowParams(hbar=hbar, mass=mass, k=k, delta=delta)
        sp = stagnation_point(params)
        assert np.hypot(*current(params, sp.location)) <= 1e-13 * params.a

    @given(hbar=param_value, mass=param_value, k=param_value, delta=delta_pos)
    @settings(max_examples=50)
    def test_eigenvalue_magnitude(self, hbar, mass, k, delta):
        params = FlowParams(hbar=hbar, mass=mass, k=k, delta=delta)
        c = hbar * k * k / (delta * mass)
        lam = stagnation_point(params).eigenvalues
        assert lam[0] == pytest.approx(c, rel=1e-12)
        assert lam[1] == pytest.approx(-c, rel=1e-12)

    def test_eigenvector_conventions(self):
        sp = stagnation_point(P)
        unstable, stable = sp.eigenvectors
        for v in (unstable, stable):
            assert np.hypot(*v) == pytest.approx(1.0, rel=1e-15)
            assert v[0] > 0  # sign fixed by positive x component
        assert abs(unstable @ stable) <= 1e-15  # orthogonal for this field
        jac = jacobian(P, sp.location)
        assert np.allclose(jac @ unstable, sp.eigenvalues[0] * unstable, atol=1e-12)
        assert np.allclose(jac @ stable, sp.eigenvalues[1] * stable, atol=1e-12)

    def test_level_matches_hamiltonian(self):
        sp = stagnation_point(P)
        assert sp.level == separatrix_level(P)


class TestJacobian:
    def test_at_saddle(self):
        jac = jacobian(P, (0.0, 0.5))
        assert np.allclose(jac, [[0.0, -2.0], [-2.0, 0.0]], atol=1e-14)

    def test_at_saddle_near_the_top_of_the_double_range(self):
        # b = 5e304 and r^2 = 2.5e5: b*(x*x - y*y) alone would overflow
        params = FlowParams(hbar=1e300, mass=1e-5, k=1e-3)
        jac = jacobian(params, stagnation_point(params).location)
        c = stagnation_point(params).eigenvalues[0]
        assert c == pytest.approx(2e299, rel=1e-15)
        assert np.allclose(jac, [[0.0, -c], [-c, 0.0]], rtol=1e-15, atol=0.0)

    def test_delta_zero_is_constant_field(self):
        assert np.array_equal(jacobian(FlowParams(delta=0.0), (3.0, -1.0)),
                              np.zeros((2, 2)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = rng.uniform(0.2, 5.0)
            th = rng.uniform(-np.pi, np.pi)
            p = (r * np.cos(th), r * np.sin(th))
            assert np.max(np.abs(jacobian(P, p) - fd_jacobian(P, p))) <= 1e-5

    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(hbar=1e6, mass=1e-6, k=3.0, delta=0.4),
        dict(hbar=1e-6, mass=1e6, k=0.3, delta=0.05),
        dict(hbar=10.0, mass=0.1, k=0.0, delta=2.0, allow_any_delta=True),
    ])
    def test_array_entries_match_scalar_bit_for_bit(self, kwargs):
        params = FlowParams(**kwargs)
        rng = np.random.default_rng(13)
        r = 10.0 ** rng.uniform(-3.0, 3.0, 500)
        th = rng.uniform(-np.pi, np.pi, 500)
        xs, ys = r * np.cos(th), r * np.sin(th)
        alpha, beta = jacobian_entries(params, xs, ys)
        arrays = np.stack([alpha, beta, beta, -alpha], axis=1).reshape(-1, 2, 2)
        scalar = np.array([jacobian(params, (xi, yi)) for xi, yi in zip(xs, ys)])
        assert arrays.tobytes() == scalar.tobytes()

    @given(x=st.floats(-10, 10), y=st.floats(-10, 10))
    @settings(max_examples=100)
    def test_trace_free(self, x, y):
        if math.hypot(x, y) < 1e-3:
            return
        jac = jacobian(P, (x, y))
        assert abs(jac[0, 0] + jac[1, 1]) <= 1e-12 * max(1.0, np.abs(jac).max())


class TestLocalQuadratic:
    def test_taylor_remainder_is_higher_order(self):
        # near the saddle z0, F(z) - F(z0) = i*(c/2)*(z - z0)^2 + O(|z - z0|^3)
        # with c the saddle's unstable eigenvalue; the ratio
        # |F - F(z0) - quadratic| / |z - z0|^2 -> 0 along 8 directions
        sp = stagnation_point(P)
        z0 = complex(*sp.location)
        c = sp.eigenvalues[0]
        f0 = complex_potential(P, z0)
        for j in range(8):
            direction = complex(math.cos(j * math.pi / 4), math.sin(j * math.pi / 4))
            ratios = []
            for rho in (1e-1, 1e-2, 1e-3, 1e-4):
                z = z0 + rho * direction
                quadratic = 1j * (c / 2.0) * (z - z0) ** 2
                num = abs(complex_potential(P, z) - f0 - quadratic)
                ratios.append(num / rho**2)
            assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
            assert ratios[-1] <= 1e-3


class TestSeparatrixLevel:
    def test_value(self):
        assert separatrix_level(P) == pytest.approx(0.5 * (math.log(0.5) - 1), abs=1e-15)

    def test_zero_case_in_relaxed_mode(self):
        p = FlowParams(delta=math.e, allow_any_delta=True)
        assert separatrix_level(p) == pytest.approx(0.0, abs=1e-15)

    def test_linear_in_hbar(self):
        assert separatrix_level(FlowParams(hbar=2.0)) == pytest.approx(
            2.0 * separatrix_level(P), rel=1e-15
        )

    @given(hbar=param_value, mass=param_value, k=param_value, delta=delta_pos)
    @settings(max_examples=50)
    def test_equals_hamiltonian_at_saddle(self, hbar, mass, k, delta):
        params = FlowParams(hbar=hbar, mass=mass, k=k, delta=delta)
        loc = stagnation_point(params).location
        assert separatrix_level(params) == pytest.approx(
            hamiltonian(params, loc), rel=1e-13
        )

    def test_requires_saddle(self):
        with pytest.raises(InvalidParamsError):
            separatrix_level(FlowParams(delta=0.0))
        with pytest.raises(InvalidParamsError):
            separatrix_level(FlowParams(k=0.0, delta=0.5))
