import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abflow import (
    FlowParams,
    InvalidParamsError,
    SingularPointError,
    TrajectoryStatus,
    contour,
    dynamics,
    hamiltonian,
    integrate,
    separatrix_level,
    stagnation_point,
    stream_values,
    trace_separatrix,
)
from helpers import (
    UNITS, check_well_formed, flow, ode_times, polygon_area, position_at, winding_number,
)

P = FlowParams()
EPS = sys.float_info.epsilon
CLOSED = TrajectoryStatus.CLOSED_ORBIT_DETECTED


def assert_closed(traj):
    """The orbit closed: its status says so and its last sample is its
    first, bit for bit."""
    assert traj.status is CLOSED
    assert traj.points[-1].tobytes() == traj.points[0].tobytes()


def _loop_constants():
    """W(1/e) and the canonical loop area A1 = 2*int sqrt(exp(2(u-1)) - u^2) du
    over [-W(1/e), 1], in 30-digit arithmetic."""
    with mpmath.workdps(30):
        w = mpmath.lambertw(1 / mpmath.e).real
        area = 2 * mpmath.quad(
            lambda u: mpmath.sqrt(mpmath.exp(2 * (u - 1)) - u * u), [-w, 0, 1]
        )
    return float(w), float(area)


W1E, A1 = _loop_constants()

# unit systems and flux parameters far from hbar = mass = k = 1, delta <= 1/2
SCALED = [
    FlowParams(hbar=1e-6, mass=1e-6),
    FlowParams(hbar=1e-6, mass=1e6),
    FlowParams(hbar=1e6, mass=1e-6),
    FlowParams(hbar=1e6, mass=1e6),
    FlowParams(delta=1e-9),
    FlowParams(delta=50.0, allow_any_delta=True),
]


def bisect_axis_crossing(params, level, lo=1e-12, hi=None):
    """Independent oracle: root of a*w + b*log(w) = level for w = -y > 0."""
    if hi is None:
        hi = params.saddle_height
    f = lambda w: params.a * w + params.b * math.log(w) - level
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return -0.5 * (lo + hi)


@functools.cache
def canonical_period(u0: float) -> float:
    """Independent oracle: the period, in units of tau, of the closed orbit
    through the canonical start (0, u0).  With K = log|u0| - u0, R = exp(K+U)
    and X = sqrt(R^2 - U^2), T = 2*int R^2/X dU between the orbit's y-axis
    crossings, -W0(exp K) and u0 for u0 > 0 or u0 and -W0(-exp K) for
    u0 < 0, in 30-digit arithmetic."""
    with mpmath.workdps(30):
        u0 = mpmath.mpf(u0)
        big_k = mpmath.log(abs(u0)) - u0
        if u0 > 0:
            lower, upper = -mpmath.lambertw(mpmath.exp(big_k)).real, u0
        else:
            lower, upper = u0, -mpmath.lambertw(-mpmath.exp(big_k)).real

        def integrand(u):
            r2 = mpmath.exp(2 * (big_k + u))
            # next to a crossing, R^2 - U^2 may round to a hair below zero
            return r2 / mpmath.sqrt(abs(r2 - u * u))

        return float(2 * mpmath.quad(integrand, [lower, 0, upper]))


def psi_terms(params: FlowParams, traj) -> float:
    """eps times the largest size of psi's terms, a*|y| + b*|log r|, along
    the trajectory: the roundoff in its values."""
    x, y = traj.points.T
    return EPS * float(np.max(params.a * np.abs(y) + params.b * np.abs(np.log(np.hypot(x, y)))))


class TestIntegrate:
    def test_uniform_flow_straight_line(self):
        p = FlowParams(delta=0.0)
        traj = integrate(p, (0.0, 2.0), max_time=5.0)
        assert traj.status is TrajectoryStatus.COMPLETED
        assert traj.points[-1] == pytest.approx([-5.0, 2.0], abs=1e-10)
        assert np.max(np.abs(traj.points[:, 1] - 2.0)) <= 1e-10

    def test_zero_field_gives_start_and_end(self):
        # nothing moves: the start at t = 0 and at max_time, not one sample per step
        traj = integrate(FlowParams(k=0.0, delta=0.0), (0.3, 1.0), max_time=1e3)
        assert len(traj) == 2
        assert traj.status is TrajectoryStatus.COMPLETED
        assert traj.times.tolist() == [0.0, 1e3]
        assert traj.points.tolist() == [[0.3, 1.0], [0.3, 1.0]]
        assert traj.max_h_drift == 0.0

    def test_times_strictly_increasing(self):
        traj = integrate(P, (0.0, 0.25), max_time=2.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_drift_statistics_consistent(self):
        traj = integrate(P, (0.0, 0.25), max_time=2.0)
        assert traj.max_h_drift == np.max(np.abs(traj.h_values - traj.h_values[0]))
        assert traj.max_h_drift <= 4.0 * psi_terms(P, traj)

    def test_level_set_confinement(self):
        traj = integrate(P, (0.0, 0.25), max_time=5.0)
        h0 = hamiltonian(P, (0.0, 0.25))
        levels = [hamiltonian(P, pt) for pt in traj.points]
        assert max(abs(v - h0) for v in levels) <= 1e-6

    def test_open_trajectory_exits_domain(self):
        traj = integrate(P, (0.0, 3.0), max_time=100.0)
        assert traj.status is TrajectoryStatus.LEFT_DOMAIN
        # stays on its own level set, never reaching the separatrix level
        lsep = separatrix_level(P)
        assert all(abs(h - traj.h_values[0]) <= 1e-6 for h in traj.h_values)
        assert abs(traj.h_values[0] - lsep) > 0.1

    def test_start_inside_core_rejected(self):
        with pytest.raises(SingularPointError):
            integrate(P, (1e-9, 0.0))

    @pytest.mark.parametrize("start", [
        (math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf),
    ])
    def test_nonfinite_start_rejected(self, start):
        with pytest.raises(SingularPointError):
            integrate(P, start)

    @pytest.mark.parametrize("params, start, max_time", [
        (FlowParams(k=0.0), (0.0, 1e-200), 1.0),  # tau = l*l/b underflows to 0
        (FlowParams(mass=1e-10), (0.0, 0.25), 1e300),  # max_time/tau overflows
    ])
    def test_unrepresentable_units_rejected(self, params, start, max_time):
        with pytest.raises(SingularPointError):
            integrate(params, start, max_time=max_time)

    @pytest.mark.parametrize("params", [P, FlowParams(hbar=2.0, mass=0.5), FlowParams(k=0.25),
                                        FlowParams(hbar=0.25, mass=4.0, k=3.0)])
    def test_start_whose_square_overflows_rejected(self, params):
        # psi forms x*x + y*y, which overflows one double past sqrt(max)
        past = math.nextafter(math.sqrt(sys.float_info.max), math.inf)
        for start in [(0.0, past), (-past, 0.0), (0.8 * past, 0.8 * past), (0.0, 1e160)]:
            with pytest.raises(SingularPointError):
                integrate(params, start)

    @pytest.mark.parametrize("params", [P, FlowParams(k=0.25)])
    def test_largest_start_with_a_finite_square_runs(self, params):
        # l = 0.5 and 2 are powers of two, so the samples l*(y/l) are y itself
        y = math.sqrt(sys.float_info.max)
        for start in [(0.0, y), (-y, 0.0)]:
            traj = integrate(params, start)
            assert np.isfinite(traj.h_values).all() and math.isfinite(traj.max_h_drift)

    def test_line_flow_start_beyond_the_square_range_runs(self):
        # psi = -a*y has no x*x + y*y to overflow
        traj = integrate(FlowParams(delta=0.0), (0.0, 1e160))
        assert traj.status is TrajectoryStatus.COMPLETED
        assert np.isfinite(traj.h_values).all()

    def test_no_sample_inside_core(self, monkeypatch):
        # a core of radius 0.3, in units of l = delta/k
        monkeypatch.setattr(dynamics, "_CORE_RADIUS", 0.3 / (P.delta / P.k))
        traj = integrate(P, (0.0, 0.35), max_time=50.0)
        assert traj.status is TrajectoryStatus.ENTERED_CORE_RADIUS
        assert np.all(np.hypot(traj.points[:, 0], traj.points[:, 1]) > 0.3)

    def test_samples_past_the_cap_rejected(self, monkeypatch):
        # a trajectory may take SAMPLES_MAX samples and not one more
        n = len(integrate(P, (0.0, 0.25), max_time=2.0))
        monkeypatch.setattr(dynamics, "SAMPLES_MAX", n)
        assert len(integrate(P, (0.0, 0.25), max_time=2.0)) == n
        monkeypatch.setattr(dynamics, "SAMPLES_MAX", n - 1)
        with pytest.raises(InvalidParamsError, match=f"SAMPLES_MAX = {n - 1} samples at time"):
            integrate(P, (0.0, 0.25), max_time=2.0)

    def test_mirror_time_reversal_symmetry(self):
        # psi is even in x, so the mirror (x, y) -> (-x, y) of a trajectory
        # run backward in time is a trajectory: integrate F from (-x0, y0)
        # for T, then G from the mirror of F(T); G retraces the mirror of F
        # and reaches (x0, y0) at T
        start = (0.1, 0.3)
        tmax = 1.5
        fwd = integrate(P, (-start[0], start[1]), max_time=tmax)
        assert fwd.status is TrajectoryStatus.COMPLETED
        end = fwd.points[-1]
        back = integrate(P, (-end[0], end[1]), max_time=tmax)
        assert back.status is TrajectoryStatus.COMPLETED
        assert back.points[-1] == pytest.approx(start, abs=1e-6)
        for t, pt in zip(back.times[:: max(1, len(back) // 40)],
                         back.points[:: max(1, len(back) // 40)]):
            mirrored = position_at(P, fwd, tmax - float(t))
            assert pt[0] == pytest.approx(-mirrored[0], abs=1e-6)
            assert pt[1] == pytest.approx(mirrored[1], abs=1e-6)


class TestClosedOrbit:
    def test_interior_cycle(self):
        traj = integrate(P, (0.0, 0.25), detect_closure=True)
        assert_closed(traj)
        assert traj.times[-1] > 0

    @pytest.mark.parametrize("params", [
        P,
        FlowParams(hbar=1e3, mass=4e-3, k=2.0, delta=0.5),
    ])
    def test_period_matches_quadrature(self, params):
        # the period is twice the time along one side of the level set, and
        # the orbit run for it comes back to its start
        l = params.saddle_height
        tau = params.delta * params.mass / (params.hbar * params.k ** 2)
        traj = integrate(params, (0.0, 0.5 * l), detect_closure=True)
        assert_closed(traj)
        assert traj.times[-1] / tau == pytest.approx(canonical_period(0.5), rel=1e-12)

    @pytest.mark.parametrize("u0, rel", [
        *[(u0, 1e-14) for u0 in (-0.278, -0.27, -0.2, 0.01, 0.25, 0.5, 0.9)],
        (0.99, 1e-12), (0.999, 1e-9), (0.9999, 1e-9),  # next to the saddle
    ])
    def test_period_from_the_level_set(self, u0, rel):
        # -0.278 lies just inside the loop's lowest point -W(1/e)
        traj = integrate(P, (0.0, 0.5 * u0), detect_closure=True)
        assert_closed(traj)
        assert traj.times[-1] / 0.5 == pytest.approx(canonical_period(u0), rel=rel, abs=0.0)

    @pytest.mark.parametrize("u", [-0.1, 0.2, 0.45])
    def test_off_axis_starts_share_their_level_period(self, u):
        # points (X, U) on the level through (0, 0.5): X^2 = R^2 - U^2 with
        # R = exp(K + U), K = log 0.5 - 0.5
        x = math.sqrt(math.exp(2.0 * (math.log(0.5) - 0.5 + u)) - u * u)
        traj = integrate(P, (0.5 * x, 0.5 * u), detect_closure=True)
        assert_closed(traj)
        assert traj.times[-1] / 0.5 == pytest.approx(canonical_period(0.5), rel=1e-12)

    def test_closure_is_the_start_inside_the_separatrix_loop(self):
        # a start closes exactly when it lies inside the homoclinic loop,
        # in every unit system; starts within |C + 1| < 1e-3 of the
        # separatrix level are left out, as their orbits pass the saddle
        rng = np.random.default_rng(5)
        verdicts = []
        for _ in range(60):
            l, tau = 10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-4, 4)
            params = scaled_units(l, tau)
            x, u = rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 1.5)
            if abs(math.log(math.hypot(x, u)) - u + 1.0) < 1e-3 or math.hypot(x, u) < 1e-3:
                continue
            inside = winding_number(trace_separatrix(params).loop.points[:-1] / l, (x, u)) != 0
            traj = integrate(params, (x * l, u * l), max_time=100.0 * tau, detect_closure=True)
            assert (traj.status is CLOSED) == inside, (l, tau, x, u)
            verdicts.append(inside)
        assert 10 <= sum(verdicts) <= len(verdicts) - 10

    def test_orientation_clockwise(self):
        traj = integrate(P, (0.0, 0.25), detect_closure=True)
        assert traj.status is TrajectoryStatus.CLOSED_ORBIT_DETECTED
        assert polygon_area(traj.points[:-1]) < 0  # negative circulation

    def test_unbounded_level_does_not_close(self):
        traj = integrate(P, (0.0, 5.0), max_time=200.0, detect_closure=True)
        assert traj.status is TrajectoryStatus.LEFT_DOMAIN

    def test_parallel_flow_never_closes(self):
        traj = integrate(FlowParams(delta=0.0), (0.0, 1.0), detect_closure=True)
        assert traj.status is TrajectoryStatus.LEFT_DOMAIN

    @pytest.mark.parametrize("delta", [0.5, 0.01])
    def test_closed_orbit_at_large_vortex_strength(self, delta):
        # b = hbar*delta/mass = 1e6*delta: H ~ b, and the closed form holds
        # it to roundoff in b's units
        params = FlowParams(hbar=1e3, mass=1e-3, k=math.sqrt(delta * 1e-6), delta=delta)
        l = params.saddle_height
        traj = integrate(params, (0.0, 0.5 * l), max_time=30.0, detect_closure=True)
        assert traj.status is TrajectoryStatus.CLOSED_ORBIT_DETECTED
        assert traj.max_h_drift <= 4.0 * psi_terms(params, traj)

    def test_drift_is_roundoff(self):
        # every sample is a vertex of the start's level set, so the drift is
        # roundoff in psi's terms
        traj = integrate(P, (0.0, 0.25), max_time=2.0)
        assert traj.max_h_drift <= 4.0 * psi_terms(P, traj)

    @given(u0=st.sampled_from([0.99999, 1.0 - 1e-6, 1.0 - 1e-7]), **UNITS)
    @settings(max_examples=40, deadline=None)
    def test_axis_starts_next_to_the_saddle_close(self, u0, log_l, log_tau, log_delta):
        # a drift of 1e-11 would move the orbit onto a level whose period
        # differs by dT/dC times it, and dT/dC grows like 1/(1 - U0)^2
        tau = 10.0**log_tau
        params = flow(10.0**log_l, tau, 10.0**log_delta)
        l = params.saddle_height
        assert_closed(integrate(params, (0.0, u0 * l), max_time=100.0 * tau,
                                detect_closure=True))


def scaled_units(l: float, tau: float) -> FlowParams:
    """delta = 0.5 and hbar = 1, with k and mass set so that the length unit
    delta/k is l and the time unit delta*mass/(hbar*k^2) is tau."""
    k = 0.5 / l
    return FlowParams(mass=k * k * tau / 0.5, k=k, delta=0.5)


class TestUnitInvariance:
    # the samples are formed in canonical units x = l*X, t = tau*T, so one
    # canonical start gives the same samples in every unit system

    @staticmethod
    def orbit(l, tau):
        return integrate(scaled_units(l, tau), (0.0, 0.5 * l), max_time=30.0 * tau,
                         detect_closure=True)

    @pytest.mark.parametrize("tau", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("l", [1e-6, 1e-4, 1.0, 1e6])
    def test_closed_orbit_is_unit_invariant(self, l, tau):
        traj = self.orbit(l, tau)
        assert_closed(traj)
        assert len(traj) == len(self.orbit(1.0, 1.0))
        assert abs(traj.times[-1] / tau - canonical_period(0.5)) <= 1e-9

    @pytest.mark.parametrize("r", [1e-5, 1e-2, 1.0, 10.0])
    def test_rotation_period_at_any_radius(self, r):
        params = FlowParams(k=0.0)
        period = 2.0 * math.pi * r * r / params.b
        traj = integrate(params, (0.0, r), max_time=2.0 * period, detect_closure=True)
        assert traj.status is TrajectoryStatus.CLOSED_ORBIT_DETECTED
        assert abs(traj.times[-1] / period - 1.0) <= 1e-9

    def test_first_sample_is_the_start(self):
        # l = delta/k is no power of two, so l*(x/l) need not give back x
        starts = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 5, 2))
        missed = 0
        for k, points in zip((3.0, 7.0, 0.3, 1.7), starts):
            params = FlowParams(k=k)
            l = params.saddle_height
            for x, y in points.tolist():
                missed += (l * (x / l), l * (y / l)) != (x, y)
                traj = integrate(params, (x, y), max_time=0.1)
                assert traj.points[0].tolist() == [x, y]
        assert missed > 0


@pytest.fixture(scope="module")
def sep():
    return trace_separatrix(P)


class TestSeparatrix:
    def test_loop_closes_at_saddle(self, sep):
        saddle = stagnation_point(P).location
        assert np.array_equal(sep.loop.points[0], saddle)
        assert np.array_equal(sep.loop.points[-1], saddle)
        # raw branch endpoint (before closing through the saddle)
        end_gap = np.hypot(*(sep.loop.points[-2] - saddle))
        assert end_gap <= 1e-4
        assert sep.loop.closed

    def test_loop_on_level_set(self, sep):
        lsep = separatrix_level(P)
        worst = max(abs(hamiltonian(P, pt) - lsep) for pt in sep.loop.points[1:-1])
        assert worst <= 1e-6

    def test_loop_encloses_vortex(self, sep):
        assert abs(winding_number(sep.loop.points[:-1])) == 1

    def test_lower_axis_crossing_matches_bisection_oracle(self, sep):
        oracle = bisect_axis_crossing(P, separatrix_level(P))
        assert sep.lower_axis_crossing == pytest.approx(oracle, abs=1e-4)

    def test_max_radius_is_saddle_height(self, sep):
        assert sep.loop_max_radius == pytest.approx(0.5, abs=1e-3)

    def test_two_unbounded_branches(self, sep):
        assert len(sep.unbounded_branches) == 2
        # one leaves to the left, one to the right
        finals = sorted(b.points[-1][0] for b in sep.unbounded_branches)
        assert finals[0] < -1.0 and finals[1] > 1.0

    def test_area_positive(self, sep):
        assert sep.loop_area > 0

    def test_requires_saddle(self):
        with pytest.raises(InvalidParamsError):
            trace_separatrix(FlowParams(delta=0.0))
        with pytest.raises(InvalidParamsError):
            trace_separatrix(FlowParams(k=0.0, delta=0.5))

    def test_arms_start_at_saddle(self, sep):
        saddle = stagnation_point(P).location
        for arm in sep.unbounded_branches:
            assert np.array_equal(arm.points[0], saddle)
            assert not arm.closed


@pytest.mark.parametrize("params", SCALED + [P, FlowParams(delta=0.1)],
                         ids=lambda p: f"hbar={p.hbar:g},mass={p.mass:g},delta={p.delta:g}")
class TestClosedFormSeparatrix:
    def test_loop_metrics_match_closed_forms(self, params):
        sep = trace_separatrix(params)
        l = params.saddle_height
        assert sep.lower_axis_crossing == pytest.approx(-W1E * l, rel=1e-5, abs=0.0)
        assert sep.loop_max_radius == pytest.approx(l, rel=1e-5, abs=0.0)
        assert sep.loop_area == pytest.approx(A1 * l * l, rel=1e-15, abs=0.0)
        assert len(sep.unbounded_branches) == 2

    def test_every_vertex_on_separatrix_level(self, params):
        sep = trace_separatrix(params)
        l = params.saddle_height
        level = separatrix_level(params)
        bound = 1e-13 * params.b * (abs(math.log(l)) + 1.0)
        for poly in [sep.loop, *sep.unbounded_branches]:
            x, y = poly.points[:, 0], poly.points[:, 1]
            assert np.max(np.abs(stream_values(params, x, y) - level)) <= bound

    def test_loop_closes_near_saddle(self, params):
        sep = trace_separatrix(params)
        l = params.saddle_height
        pts = sep.loop.points
        assert np.array_equal(pts[0], [0.0, l]) and np.array_equal(pts[-1], [0.0, l])
        assert np.hypot(pts[-2, 0], pts[-2, 1] - l) <= 1e-4 * l
        assert polygon_area(pts[:-1]) < 0  # clockwise, as the flow turns
        assert pts[1, 0] > 0 and pts[1, 1] < l  # leaves down the right side

    def test_polylines_are_well_formed(self, params):
        sep = trace_separatrix(params)
        assert sep.loop.closed and not any(arm.closed for arm in sep.unbounded_branches)
        for poly in [sep.loop, *sep.unbounded_branches]:
            check_well_formed(poly)


def test_separatrix_and_portrait_loops_cross_the_y_axis_at_one_point():
    # trace_separatrix samples its loop down to -W(1/e) below the saddle, a
    # portrait its separatrix piece down to the root _pieces solves for
    w_lo = contour._pieces(-1.0, 0.0)[0][1]
    assert (-1.0 - dynamics._W_INV_E).hex() == w_lo.hex()
    assert w_lo == -1.278464542761074


@pytest.mark.parametrize("params", [
    FlowParams(), FlowParams(hbar=2.0, mass=0.5), FlowParams(hbar=0.25, mass=4.0, k=3.0),
    FlowParams(delta=1e-9),
], ids=["natural", "hbar2-mass0.5", "hbar0.25-mass4-k3", "delta-1e-9"])
def test_loop_left_side_mirrors_the_right_bit_for_bit(params):
    # the flow is even in x: down the right side from the saddle to the
    # crossing, then back up the left, each vertex the mirror of one on the
    # right, so that the CSV writer formats each row once
    pts = trace_separatrix(params).loop.points
    n = len(pts) // 2
    assert len(pts) == 2 * n + 1 == 513
    right, left = pts[:n + 1], pts[n:][::-1]
    assert left.tobytes() == np.column_stack([0.0 - right[:, 0], right[:, 1]]).tobytes()
    assert pts[[0, n, -1], 0].tobytes() == np.zeros(3).tobytes()  # +0.0 on the y axis
    assert pts[n, 1] < 0.0 < pts[1, 0]


@pytest.mark.parametrize("delta", [0.5, 0.1])
def test_loop_agrees_with_integrated_orbit(delta):
    # integrate from the lower axis crossing for ten saddle time constants:
    # the orbit runs up the left side of the loop to within ~1e-5*l of the
    # saddle, before integration error could carry it off along an arm
    params = FlowParams(delta=delta)
    l = params.saddle_height
    tau = params.delta * params.mass / (params.hbar * params.k ** 2)
    traj = integrate(params, (0.0, -W1E * l), max_time=10.0 * tau)
    assert traj.status is TrajectoryStatus.COMPLETED
    loop = trace_separatrix(params).loop.points
    spacing = np.max(np.hypot(*np.diff(loop, axis=0).T))
    gaps = np.min(
        np.hypot(traj.points[:, None, 0] - loop[None, :, 0],
                 traj.points[:, None, 1] - loop[None, :, 1]),
        axis=1,
    )
    assert np.max(gaps) <= spacing


class TestConfigValidation:
    @pytest.mark.parametrize("start", [(0.0, 0.25), (math.nan, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("max_time", [0.0, -1.0, math.inf, math.nan])
    def test_invalid(self, max_time, start):
        # checked first: a start that is not finite or lies in the core is
        # a SingularPointError of its own
        with pytest.raises(InvalidParamsError, match="max_time must be positive"):
            integrate(P, start, max_time=max_time)

    def test_settings_are_keywords_only(self):
        with pytest.raises(TypeError):
            integrate(P, (0.0, 0.25), 5.0)


# starts of the benchmark's band, in units of l: closed ones on the y axis
# below and above the vortex, open ones below and above the loop
AXIS_STARTS = {"closed below": (-0.22, -0.10), "closed above": (0.15, 0.80),
               "open below": (-1.0, -0.35), "open above": (1.15, 2.0)}


class TestTimesAgainstTheODE:
    """Every sample's time against an independent ODE oracle: fixed-step
    RK4 from each sample for the time to the next (helpers.ode_times)."""

    @given(band=st.sampled_from(sorted(AXIS_STARTS)), s=st.floats(0.0, 1.0),
           max_time=st.floats(20.0, 40.0), closure=st.booleans(), **UNITS)
    @settings(max_examples=40, deadline=None)
    def test_axis_starts(self, band, s, max_time, closure, log_l, log_tau, log_delta):
        tau = 10.0**log_tau
        params = flow(10.0**log_l, tau, 10.0**log_delta)
        lo, hi = AXIS_STARTS[band]
        start = (0.0, (lo + (hi - lo) * s) * params.saddle_height)
        traj = integrate(params, start, max_time=max_time * tau, detect_closure=closure)
        assert (traj.status is TrajectoryStatus.CLOSED_ORBIT_DETECTED) == (
            closure and band.startswith("closed"))
        assert np.max(np.abs(ode_times(params, traj) - traj.times)) <= 1e-10 * tau

    @given(x=st.floats(-1.5, 1.5), u=st.floats(-1.0, 2.0), max_time=st.floats(20.0, 40.0),
           closure=st.booleans(), **UNITS)
    # a start timed from the crossing next to it, and max_time in the panel
    # past that start a lap on: the time there runs from the crossing
    @example(x=3e-05, u=0.8922005602092207, max_time=29.0, closure=False,
             log_l=0.0, log_tau=0.0, log_delta=-1.0)
    # a start next to the loop's lower crossing, and max_time just past it a
    # lap on: X there is measured from that crossing, so it does not round to 0
    @example(x=5e-06, u=-0.2, max_time=0.505688807485434, closure=False,
             log_l=0.0, log_tau=0.0, log_delta=-1.0)
    @settings(max_examples=40, deadline=None)
    def test_off_axis_starts(self, x, u, max_time, closure, log_l, log_tau, log_delta):
        # clear of the separatrix, as in the closure test, and of the vortex,
        # round which 40 tau take more than SAMPLES_MAX samples
        if math.hypot(x, u) < 0.1 or abs(math.log(math.hypot(x, u)) - u + 1.0) < 1e-3:
            return
        tau = 10.0**log_tau
        params = flow(10.0**log_l, tau, 10.0**log_delta)
        l = params.saddle_height
        traj = integrate(params, (x * l, u * l), max_time=max_time * tau, detect_closure=closure)
        assert np.max(np.abs(ode_times(params, traj) - traj.times)) <= 1e-10 * tau

    @pytest.mark.parametrize("params", [
        FlowParams(delta=0.0), FlowParams(hbar=3e-4, k=7e5, delta=0.0),
        FlowParams(k=0.0), FlowParams(hbar=2e3, mass=3e-2, k=0.0),
    ])
    @pytest.mark.parametrize("start", [(0.3, 0.2), (-2.0, 5.0), (1e-3, -4e-3)])
    def test_lines_and_rotations(self, params, start):
        l = math.hypot(*start)
        tau = l / params.a if params.b == 0.0 else l * l / params.b
        traj = integrate(params, start, max_time=30.0 * tau)
        assert np.max(np.abs(ode_times(params, traj) - traj.times)) <= 1e-10 * tau


class TestEdgeCases:
    def test_start_at_the_saddle_stays_put(self):
        for params in [P, *SCALED]:
            saddle = (0.0, params.saddle_height)
            traj = integrate(params, saddle, max_time=7.0, detect_closure=True)
            assert traj.status is TrajectoryStatus.COMPLETED
            assert traj.times[0] == 0.0 and traj.times[1] == pytest.approx(7.0, rel=1e-15)
            assert traj.points.tolist() == [list(saddle)] * 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_level_rounded_onto_the_separatrix_never_reaches_the_saddle(self, k):
        # 1 - U0 = k*2^-53: log(U0) - U0 rounds to -1, the separatrix's level,
        # whose time to the saddle diverges like -log|1 - U|
        u0 = 1.0 - k * 2.0**-53
        assert math.log(u0) - u0 == -1.0
        traj = integrate(P, (0.0, 0.5 * u0), max_time=1e3, detect_closure=True)
        assert traj.status is TrajectoryStatus.COMPLETED
        assert traj.times[-1] == 1e3 and np.all(np.diff(traj.times) > 0)
        # the samples lie on the separatrix, to its vertices' roundoff
        assert traj.max_h_drift <= 1e-13 * P.b * (abs(math.log(0.5)) + 1.0)

    def test_closed_level_goes_round_until_max_time(self):
        # without detect_closure the orbit laps its level, back on its start
        # at whole periods
        period = float(integrate(P, (0.0, 0.25), detect_closure=True).times[-1])
        traj = integrate(P, (0.0, 0.25), max_time=3.5 * period)
        assert traj.status is TrajectoryStatus.COMPLETED
        assert traj.times[-1] == pytest.approx(3.5 * period, rel=1e-15)
        back = np.flatnonzero(np.all(traj.points == [0.0, 0.25], axis=1))
        assert len(back) == 4
        assert traj.times[back] == pytest.approx(np.arange(4) * period, rel=1e-15, abs=0.0)

    def test_restart_from_any_sample(self):
        # a start on, or an ulp off, a vertex of its own level: its time can
        # round onto the vertex's, and the samples stay strictly timed, the
        # first and, on a closed level, the last of them the start itself
        for first in [(0.0, 0.25), (0.0, -0.3), (0.0, 0.8)]:
            orbit = integrate(P, first, detect_closure=True)
            for px, py in orbit.points[1:-1:17].tolist():
                for x in (px, math.nextafter(px, math.inf), math.nextafter(px, -math.inf)):
                    traj = integrate(P, (x, py), max_time=3.0, detect_closure=True)
                    assert np.all(np.diff(traj.times) > 0.0)
                    assert traj.points[0].tolist() == [x, py]
                    if traj.status is TrajectoryStatus.CLOSED_ORBIT_DETECTED:
                        assert traj.points[-1].tolist() == [x, py]
