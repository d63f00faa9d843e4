"""The scaling law for every output: a flow with length unit l = delta/k and
time unit tau = delta*mass/(hbar*k^2) gives the canonical flow's outputs
(a = b = 1, l = tau = 1) scaled by powers of l and tau, its levels shifted by
b*log(l).  Each output has one bound, in units of eps times its canonical
value's size, that holds in every unit system."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abflow import (
    FlowParams,
    PortraitSpec,
    TrajectoryStatus,
    circulation,
    integrate,
    portrait,
    separatrix_level,
    stagnation_point,
    trace_separatrix,
)
from helpers import UNITS, flow

EPS = sys.float_info.epsilon
CANON = FlowParams(k=1.0, delta=1.0, allow_any_delta=True)

# one bound per output, in eps of its canonical value's size
LOCATION = 2.0
EIGENVALUES = 4.0
SEPARATRIX_VERTICES = 16.0  # in units of l
SEPARATRIX_LEVEL = 2.0  # of b*(1 + |log l|), the size of its terms
LOOP_AREA = 4.0
CIRCULATION = 4.0  # of 2*pi*b, the vortex's circulation
PERIOD = 4.0
PORTRAIT_VERTICES = 128.0  # in units of l

def eps_off(value, canonical, scale: float) -> float:
    """How far value is from scale*canonical, in eps of scale*max|canonical|."""
    value, canonical = np.asarray(value, dtype=float), np.asarray(canonical, dtype=float)
    return float(np.max(np.abs(value - scale * canonical))
                 / (EPS * scale * np.max(np.abs(canonical))))


@given(**UNITS)
@settings(max_examples=100, deadline=None)
def test_stagnation_point(log_l, log_tau, log_delta):
    l, tau = 10.0**log_l, 10.0**log_tau
    sp, sp0 = stagnation_point(flow(l, tau, 10.0**log_delta)), stagnation_point(CANON)
    assert eps_off(sp.location, sp0.location, l) <= LOCATION
    assert eps_off(np.multiply(sp.eigenvalues, tau), sp0.eigenvalues, 1.0) <= EIGENVALUES


@given(**UNITS)
@settings(max_examples=100, deadline=None)
def test_separatrix(log_l, log_tau, log_delta):
    l, tau = 10.0**log_l, 10.0**log_tau
    params = flow(l, tau, 10.0**log_delta)
    sep, sep0 = trace_separatrix(params), trace_separatrix(CANON)
    curves, curves0 = [sep.loop, *sep.unbounded_branches], [sep0.loop, *sep0.unbounded_branches]
    assert [len(c) for c in curves] == [len(c) for c in curves0]
    for c, c0 in zip(curves, curves0):
        assert np.max(np.abs(c.points - l * c0.points)) <= SEPARATRIX_VERTICES * EPS * l
    log_l = math.log(l)
    assert (abs(separatrix_level(params) - params.b * (log_l - 1.0))
            <= SEPARATRIX_LEVEL * EPS * params.b * (1.0 + abs(log_l)))
    assert eps_off(sep.loop_area, sep0.loop_area, l * l) <= LOOP_AREA


@given(**UNITS, center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       radius=st.floats(0.1, 3.0))
@settings(max_examples=100, deadline=None)
def test_circulation(log_l, log_tau, log_delta, center, radius):
    # circles at least a quarter radius clear of the vortex, around it or not
    assume(abs(math.hypot(*center) - radius) >= 0.25 * radius)
    l, tau = 10.0**log_l, 10.0**log_tau
    params = flow(l, tau, 10.0**log_delta)
    value = circulation(params, (l * center[0], l * center[1]), l * radius).value
    value0 = circulation(CANON, center, radius).value
    assert abs(value - params.b * value0) <= CIRCULATION * EPS * 2.0 * math.pi * params.b


@given(**UNITS, u=st.floats(-0.25, 0.95))
@settings(max_examples=50, deadline=None)
def test_closed_orbit_period(log_l, log_tau, log_delta, u):
    # a start (0, l*u) inside the separatrix loop, against the canonical
    # orbit from its canonical image y/l
    assume(abs(u) >= 0.02)
    l, tau = 10.0**log_l, 10.0**log_tau
    params = flow(l, tau, 10.0**log_delta)
    y = l * u
    orbit = integrate(params, (0.0, y), max_time=100.0 * tau, detect_closure=True)
    orbit0 = integrate(CANON, (0.0, y / params.saddle_height), detect_closure=True)
    closed = TrajectoryStatus.CLOSED_ORBIT_DETECTED
    assert orbit.status is closed and orbit0.status is closed
    assert eps_off(orbit.times[-1], orbit0.times[-1], tau) <= PERIOD


# levels b*(C + log l): open curves above and below the vortex, closed ones
# inside the loop, the separatrix (C = -1) and the curves just outside it
LEVELS = (-3.0, -2.0, -1.5, -1.2, -1.0, -0.8, 0.0, 1.0, 2.0)


def portrait_spec(l: float, levels) -> PortraitSpec:
    return PortraitSpec(bbox=(-4 * l, 4 * l, -3 * l, 3 * l), grid=(200, 150),
                        levels=tuple(levels), include_separatrix=False)


@pytest.mark.parametrize("delta", [1e-12, 1e-3, 0.5])
@pytest.mark.parametrize("tau", [1e-4, 1.0, 1e4])
def test_portraits(tau, delta):
    canon = portrait(CANON, portrait_spec(1.0, LEVELS))
    for l in (10.0**e for e in range(-6, 7)):
        params = flow(l, tau, delta)
        polys = portrait(params, portrait_spec(l, [params.b * (c + math.log(l)) for c in LEVELS]))
        assert [(len(p), p.closed) for p in polys] == [(len(p), p.closed) for p in canon]
        for p, p0 in zip(polys, canon):
            assert np.max(np.abs(p.points - l * p0.points)) <= PORTRAIT_VERTICES * EPS * l
