import math

import mpmath
import numpy as np
import pytest

from abflow import (
    FlowParams,
    IntegratorConfig,
    InvalidParamsError,
    InvalidStartError,
    TrajectoryStatus,
    detect_closed_orbit,
    hamiltonian,
    integrate,
    separatrix_level,
    stagnation_point,
    stream_values,
    trace_separatrix,
)
from abflow.contour import polygon_area, winding_number
from abflow.dynamics import position_at

P = FlowParams()


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


class TestIntegrate:
    def test_uniform_flow_straight_line(self):
        p = FlowParams(delta=0.0)
        traj = integrate(p, (0.0, 2.0), IntegratorConfig(max_time=5.0))
        assert traj.status is TrajectoryStatus.COMPLETED
        assert traj.points[-1] == pytest.approx([-5.0, 2.0], abs=1e-10)
        assert np.max(np.abs(traj.points[:, 1] - 2.0)) <= 1e-10

    def test_times_strictly_increasing(self):
        traj = integrate(P, (0.0, 0.25), IntegratorConfig(max_time=2.0))
        assert np.all(np.diff(traj.times) > 0)

    def test_drift_statistics_consistent(self):
        traj = integrate(P, (0.0, 0.25), IntegratorConfig(max_time=2.0))
        assert traj.max_h_drift == np.max(np.abs(traj.h_values - traj.h_values[0]))
        assert traj.max_h_drift <= 1e-8

    def test_level_set_confinement(self):
        traj = integrate(P, (0.0, 0.25), IntegratorConfig(max_time=5.0))
        h0 = hamiltonian(P, (0.0, 0.25))
        levels = [hamiltonian(P, pt) for pt in traj.points]
        assert max(abs(v - h0) for v in levels) <= 1e-6

    def test_open_trajectory_exits_domain(self):
        traj = integrate(P, (0.0, 3.0), IntegratorConfig(max_time=100.0))
        assert traj.status is TrajectoryStatus.LEFT_DOMAIN
        # stays on its own level set, never reaching the separatrix level
        lsep = separatrix_level(P)
        assert all(abs(h - traj.h_values[0]) <= 1e-6 for h in traj.h_values)
        assert abs(traj.h_values[0] - lsep) > 0.1

    def test_start_inside_core_rejected(self):
        with pytest.raises(InvalidStartError):
            integrate(P, (1e-9, 0.0))

    @pytest.mark.parametrize("start", [
        (math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf),
    ])
    def test_nonfinite_start_rejected(self, start):
        with pytest.raises(InvalidStartError):
            integrate(P, start)

    def test_no_sample_inside_core(self):
        cfg = IntegratorConfig(core_radius=0.3, max_time=50.0)
        traj = integrate(P, (0.0, 0.35), cfg)
        assert traj.status is TrajectoryStatus.ENTERED_CORE_RADIUS
        assert np.all(np.hypot(traj.points[:, 0], traj.points[:, 1]) > 0.3)

    def test_unreachable_drift_budget_reports_step_failure(self):
        cfg = IntegratorConfig(h_drift_budget=1e-14, rel_tol=1e-6, abs_tol=1e-8,
                               max_time=50.0)
        traj = integrate(P, (0.0, 0.25), cfg)
        assert traj.status in (
            TrajectoryStatus.STEP_FAILURE,
            TrajectoryStatus.COMPLETED,
        )
        if traj.status is TrajectoryStatus.STEP_FAILURE:
            assert traj.max_h_drift <= 1e-14

    def test_mirror_time_reversal_symmetry(self):
        # psi is even in x, so the mirror (x, y) -> (-x, y) of a trajectory
        # run backward in time is a trajectory: integrate F from (-x0, y0)
        # for T, then G from the mirror of F(T); G retraces the mirror of F
        # and reaches (x0, y0) at T
        start = (0.1, 0.3)
        tmax = 1.5
        cfg = IntegratorConfig(max_time=tmax)
        fwd = integrate(P, (-start[0], start[1]), cfg)
        assert fwd.status is TrajectoryStatus.COMPLETED
        end = fwd.points[-1]
        back = integrate(P, (-end[0], end[1]), cfg)
        assert back.status is TrajectoryStatus.COMPLETED
        assert back.points[-1] == pytest.approx(start, abs=1e-6)
        for t, pt in zip(back.times[:: max(1, len(back) // 40)],
                         back.points[:: max(1, len(back) // 40)]):
            mirrored = position_at(P, fwd, tmax - float(t))
            assert pt[0] == pytest.approx(-mirrored[0], abs=1e-6)
            assert pt[1] == pytest.approx(mirrored[1], abs=1e-6)


class TestClosedOrbit:
    def test_interior_cycle(self):
        result = detect_closed_orbit(P, (0.0, 0.25))
        assert result.closed
        assert result.period > 0
        assert result.return_distance <= 1e-6

    def test_period_stable_under_tolerance_halving(self):
        base = IntegratorConfig()
        tight = IntegratorConfig(rel_tol=base.rel_tol / 2, abs_tol=base.abs_tol / 2)
        t1 = detect_closed_orbit(P, (0.0, 0.25), base).period
        t2 = detect_closed_orbit(P, (0.0, 0.25), tight).period
        assert t1 == pytest.approx(t2, abs=1e-8)

    def test_orientation_clockwise(self):
        traj = integrate(P, (0.0, 0.25), detect_closure=True)
        assert traj.status is TrajectoryStatus.CLOSED_ORBIT_DETECTED
        assert polygon_area(traj.points[:-1]) < 0  # negative circulation

    def test_unbounded_level_does_not_close(self):
        cfg = IntegratorConfig(max_time=200.0)
        result = detect_closed_orbit(P, (0.0, 5.0), cfg)
        assert not result.closed
        assert result.period is None

    def test_parallel_flow_never_closes(self):
        result = detect_closed_orbit(FlowParams(delta=0.0), (0.0, 1.0))
        assert not result.closed

    @pytest.mark.parametrize("delta", [0.5, 0.01])
    def test_closed_orbit_at_large_vortex_strength(self, delta):
        # b = hbar*delta/mass = 1e6*delta: H ~ b, so the drift budget must
        # scale with the field, or rel_tol alone overdraws it
        params = FlowParams(hbar=1e3, mass=1e-3, k=math.sqrt(delta * 1e-6), delta=delta)
        l = params.saddle_height
        traj = integrate(params, (0.0, 0.5 * l), IntegratorConfig(max_time=30.0),
                         detect_closure=True)
        assert traj.status is TrajectoryStatus.CLOSED_ORBIT_DETECTED
        assert traj.max_h_drift <= 1e-8 * params.b

    def test_drift_shrinks_with_tolerance(self):
        # drift scales roughly linearly with the error tolerance
        drifts = []
        for f in (1.0, 0.5, 0.25):
            cfg = IntegratorConfig(rel_tol=1e-8 * f, abs_tol=1e-10 * f, max_time=2.0)
            drifts.append(integrate(P, (0.0, 0.25), cfg).max_h_drift)
        assert drifts[0] / drifts[1] >= 1.7
        assert drifts[1] / drifts[2] >= 1.7


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
        assert sep.lower_axis_crossing == pytest.approx(-W1E * l, rel=1e-5)
        assert sep.loop_max_radius == pytest.approx(l, rel=1e-5)
        assert sep.loop_area == pytest.approx(A1 * l * l, rel=1e-5)
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


@pytest.mark.parametrize("delta", [0.5, 0.1])
def test_loop_agrees_with_integrated_orbit(delta):
    # integrate from the lower axis crossing for ten saddle time constants:
    # the orbit runs up the left side of the loop to within ~1e-5*l of the
    # saddle, before integration error could carry it off along an arm
    params = FlowParams(delta=delta)
    l = params.saddle_height
    tau = params.delta * params.mass / (params.hbar * params.k ** 2)
    traj = integrate(params, (0.0, -W1E * l), IntegratorConfig(max_time=10.0 * tau))
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
    @pytest.mark.parametrize("bad", [
        dict(rel_tol=1e-15), dict(abs_tol=0.0),
        dict(max_time=0.0), dict(h_drift_budget=-1e-8), dict(core_radius=0.0),
    ])
    def test_invalid(self, bad):
        with pytest.raises(InvalidParamsError):
            IntegratorConfig(**bad)
