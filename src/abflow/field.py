"""Closed-form evaluation of the flow field and its potentials.

The flow is a superposition of a uniform stream (strength ``a = hbar*k/mass``,
directed toward -x) and a point vortex at the origin (strength
``b = hbar*delta/mass``).  Everything in this module is an elementary function
of the coefficients ``a`` and ``b``; using the coefficients instead of the
ratio ``delta/k`` keeps the pure-rotation limit ``k = 0`` well defined.

Conventions: the complex logarithm is the principal branch (cut along the
negative real axis, argument in (-pi, pi]).  The stream function and the
velocity field do not see the cut; the complex potential and the velocity
potential do, and `near_branch_cut` reports proximity to it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, SingularPointError

__all__ = [
    "FlowParams",
    "PhysicalConstants",
    "current",
    "velocity",
    "complex_potential",
    "complex_derivative",
    "stream_function",
    "stream_values",
    "hamiltonian",
    "velocity_potential",
    "potential_values",
    "flux_to_delta",
    "near_branch_cut",
]

DELTA_MAX = 0.5
BRANCH_CUT_TOL = 0.05  # radians from the negative real axis that near_branch_cut flags
# the range of a flow's scales a, b, l*l and tau; see FlowParams
SCALE_MIN, SCALE_MAX = sys.float_info.min * 2**10, sys.float_info.max / 2**10


@dataclass(frozen=True)
class FlowParams:
    """Physical parameters of the flow.

    ``delta`` is the dimensionless flux parameter; by default it is capped at
    1/2.  Pass ``allow_any_delta=True`` to lift only that bound (every formula
    stays valid for any ``delta >= 0``).
    """

    hbar: float = 1.0
    mass: float = 1.0
    k: float = 1.0
    delta: float = 0.5
    allow_any_delta: bool = False

    def __post_init__(self):
        for name in ("hbar", "mass", "k", "delta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidParamsError(f"{name} must be finite, got {v!r}")
        if self.hbar <= 0:
            raise InvalidParamsError(f"hbar must be positive, got {self.hbar!r}")
        if self.mass <= 0:
            raise InvalidParamsError(f"mass must be positive, got {self.mass!r}")
        if self.k < 0:
            raise InvalidParamsError(f"k must be nonnegative, got {self.k!r}")
        if self.delta < 0:
            raise InvalidParamsError(f"delta must be nonnegative, got {self.delta!r}")
        if not self.allow_any_delta and self.delta > DELTA_MAX:
            raise InvalidParamsError(
                f"delta={self.delta!r} exceeds {DELTA_MAX}; "
                "pass allow_any_delta=True to lift the bound"
            )
        # a flow has a canonical frame in doubles: a and b, where k and delta
        # leave them nonzero, and a regular flow's l*l and tau = l/a lie in
        # [SCALE_MIN, SCALE_MAX].  The margin 2**10 covers the canonical
        # picture's largest factors: x*x + y*y from l*l/100 (verify's inner
        # radius) to 200*l*l (the 10*l box), psi up to about 364*b
        # (b*(|log l| + 12)), 2*pi*b, 11*a and 100*a/l
        regular = self.delta > 0 and self.k > 0
        l, a = self.delta / self.k if regular else 0.0, self.a
        for name, v, on in (("a = hbar*k/mass", a, self.k > 0),
                            ("b = hbar*delta/mass", self.b, self.delta > 0),
                            ("l*l = (delta/k)**2", l * l, regular),
                            ("tau = l/a", l / a if a else math.inf, regular)):
            if on and not SCALE_MIN <= v <= SCALE_MAX:
                raise InvalidParamsError(f"{name} is {v!r}, outside the range "
                                         f"[{SCALE_MIN!r}, {SCALE_MAX!r}] of a flow's scales")

    @property
    def a(self) -> float:
        """Uniform-stream coefficient hbar*k/mass."""
        return self.hbar * self.k / self.mass

    @property
    def b(self) -> float:
        """Vortex coefficient hbar*delta/mass."""
        return self.hbar * self.delta / self.mass

    @property
    def saddle_height(self) -> float:
        """Distance delta/k of the stagnation point from the origin (requires k > 0)."""
        if self.k <= 0:
            raise InvalidParamsError("saddle height requires k > 0")
        return self.delta / self.k


@dataclass(frozen=True)
class PhysicalConstants:
    """Charge and speed of light, used only in flux conversions."""

    charge: float = 1.0
    light_speed: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.charge) and self.charge > 0):
            raise InvalidParamsError(f"charge must be positive, got {self.charge!r}")
        if not (math.isfinite(self.light_speed) and self.light_speed > 0):
            raise InvalidParamsError(
                f"light_speed must be positive, got {self.light_speed!r}"
            )


def _frame(params: FlowParams, x: float = 0.0, y: float = 0.0):
    """(l, tau, ca, cb): the canonical frame x = l*X, t = tau*T, in which the
    field is _velocity(ca, cb, X, U) with ca and cb 0.0 or 1.0.  A regular
    flow has l = delta/k and tau = l/a; a line flow or a rotation has no
    length of its own, so l is the distance of (x, y) to the origin (1 at
    the origin) and tau = l/a or l*l/b."""
    a, b = params.a, params.b
    if a > 0.0 and b > 0.0:
        l = params.saddle_height
        return l, l / a, 1.0, 1.0
    l = math.hypot(x, y) or 1.0
    if a > 0.0:
        return l, l / a, 1.0, 0.0
    if b > 0.0:
        return l, l * l / b, 0.0, 1.0
    return l, 1.0, 0.0, 0.0  # no field: nothing moves


def _point(p) -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidParamsError(f"point components must be finite, got {p!r}")
    return x, y


def _regular_point(params: FlowParams, p) -> tuple[float, float]:
    """p as (x, y), finite (else an InvalidParamsError) and, where the flow
    has a vortex, off its core: x*x + y*y a normal double, so no closer than
    about 1.5e-154 to the origin (else a SingularPointError)."""
    x, y = _point(p)
    if params.delta > 0 and x * x + y * y < sys.float_info.min:
        raise SingularPointError(f"point ({x!r}, {y!r}) is within the vortex core: "
                                 "x*x + y*y is below the smallest normal double")
    return x, y


def _velocity(a: float, b: float, x, y):
    # shared kernel for velocity / current / the circulation quadrature; it
    # divides by r^2 first, since b*y underflows where b and y are both small
    if b == 0.0:
        return -a, 0.0
    r2 = x * x + y * y
    return -a + b * (y / r2), -b * (x / r2)


def velocity(params: FlowParams, x, y):
    """Vectorized velocity (u, v), arrays of the shape of x and y broadcast
    (a line flow's constant field too), quiet where it is not finite: NaN
    or +-inf at the origin and where x*x + y*y underflows or overflows."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u, v = _velocity(params.a, params.b, x, y)
    if params.b == 0.0:  # _velocity's constant field, one value per point
        shape = np.broadcast_shapes(x.shape, y.shape)
        u, v = np.full(shape, u), np.full(shape, v)
    return u, v


def current(params: FlowParams, p) -> np.ndarray:
    """Probability current J at point p.

    J = (-a + b*y/r^2, -b*x/r^2).  With delta = 0 the field is the constant
    (-a, 0) and is defined everywhere; otherwise a point within the vortex
    core, where x*x + y*y is 0 or subnormal, is a SingularPointError.
    """
    x, y = _regular_point(params, p)
    u, v = _velocity(params.a, params.b, x, y)
    return np.array([u, v])


def _F_parts(a: float, b: float, z):
    # shared kernel for complex_potential / verify:
    # (F1, F2) = (-a*z, i*b*log z), cmath on a Python complex, numpy on arrays
    log = cmath.log if isinstance(z, complex) else np.log
    return -a * z, (1j * b * log(z) if b != 0.0 else 0j)


def _dF(a: float, b: float, z):
    # shared kernel for complex_derivative / verify
    if b == 0.0:
        return complex(-a)
    return -a + 1j * b / z


def complex_potential(params: FlowParams, z: complex) -> complex:
    """F(z) = -a*z + i*b*log(z), principal branch."""
    z = complex(z)
    _regular_point(params, (z.real, z.imag))
    f1, f2 = _F_parts(params.a, params.b, z)
    # adding F2 = 0j would turn a -0.0 imaginary part of F1 into 0.0
    return f1 + f2 if params.b != 0.0 else f1


def complex_derivative(params: FlowParams, z: complex) -> complex:
    """F'(z) = -a + i*b/z; equals u - i*v of the current."""
    z = complex(z)
    _regular_point(params, (z.real, z.imag))
    return _dF(params.a, params.b, z)


def _psi(a: float, b: float, x, y):
    # shared kernel for stream_function / hamiltonian / stream_values
    if b == 0.0:
        return -a * y
    r2 = x * x + y * y
    return -a * y + 0.5 * b * np.log(r2)


def stream_function(params: FlowParams, p) -> float:
    """Stream function psi = -a*y + b*log(r); even in x, constant on streamlines."""
    x, y = _regular_point(params, p)
    return float(_psi(params.a, params.b, x, y))


def hamiltonian(params: FlowParams, p) -> float:
    """Hamiltonian of the flow; identical to `stream_function` (shared kernel)."""
    return stream_function(params, p)


def stream_values(params: FlowParams, x, y) -> np.ndarray:
    """Vectorized stream function, an array of the shape of x and y
    broadcast (a line flow's -a*y too), quiet where psi is not finite: -inf
    at the origin, +-inf or NaN where x*x + y*y or psi overflows."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        psi = _psi(params.a, params.b, x, y)
    if params.b == 0.0:  # _psi's -a*y, one value per point
        return np.full(np.broadcast(x, y).shape, psi)
    return np.asarray(psi)


def _phi(a: float, b: float, x, y):
    # shared kernel for velocity_potential / potential_values
    return -a * x - b * np.arctan2(y, x)


def velocity_potential(params: FlowParams, p) -> float:
    """Velocity potential phi = Re F = -a*x - b*theta, theta the principal argument.

    Discontinuous across the negative real axis; see `near_branch_cut`.
    """
    x, y = _regular_point(params, p)
    return float(_phi(params.a, params.b, x, y))


def potential_values(params: FlowParams, x, y) -> np.ndarray:
    """Vectorized velocity potential on arrays; no singularity check (the
    origin yields 0, the principal argument's value there)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.asarray(_phi(params.a, params.b, x, y))


def near_branch_cut(p) -> bool:
    """True when p lies within BRANCH_CUT_TOL radians of the negative real
    axis, where F and the velocity potential jump."""
    x, y = _point(p)
    if x == 0.0 and y == 0.0:
        return True
    return math.pi - abs(math.atan2(y, x)) < BRANCH_CUT_TOL


def flux_to_delta(consts: PhysicalConstants, flux: float, hbar: float = 1.0) -> float:
    """Dimensionless flux parameter delta = e*Phi/(2*pi*hbar*c), finite or an
    InvalidParamsError."""
    if not (math.isfinite(hbar) and hbar > 0):
        raise InvalidParamsError(f"hbar must be positive, got {hbar!r}")
    delta = consts.charge * flux / (2.0 * math.pi * hbar * consts.light_speed)
    if not math.isfinite(delta):  # a flux that is not finite, or an overflow
        raise InvalidParamsError(f"flux {flux!r} gives delta = {delta!r}, not a finite number")
    return delta
