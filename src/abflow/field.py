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
    "decompose_potential",
    "stream_function",
    "stream_values",
    "hamiltonian",
    "velocity_potential",
    "potential_values",
    "flux_to_delta",
    "delta_to_flux",
    "vector_potential",
    "near_branch_cut",
]

DELTA_MAX = 0.5


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


def _point(p) -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidParamsError(f"point components must be finite, got {p!r}")
    return x, y


def _check_regular(params: FlowParams, x: float, y: float) -> None:
    if params.delta > 0 and x == 0.0 and y == 0.0:
        raise SingularPointError("field is singular at the origin for delta > 0")


def _velocity(a: float, b: float, x, y):
    # shared kernel for velocity / current / the trajectory integrator
    if b == 0.0:
        return -a, 0.0
    r2 = x * x + y * y
    return -a + b * y / r2, -b * x / r2


def velocity(params: FlowParams, x: float, y: float) -> tuple[float, float]:
    """Velocity components (u, v) at (x, y); no singularity check."""
    return _velocity(params.a, params.b, x, y)


def current(params: FlowParams, p) -> np.ndarray:
    """Probability current J at point p.

    J = (-a + b*y/r^2, -b*x/r^2).  With delta = 0 the field is the constant
    (-a, 0) and is defined everywhere; otherwise the origin is singular.
    """
    x, y = _point(p)
    _check_regular(params, x, y)
    u, v = _velocity(params.a, params.b, x, y)
    return np.array([u, v])


def complex_potential(params: FlowParams, z: complex) -> complex:
    """F(z) = -a*z + i*b*log(z), principal branch."""
    z = complex(z)
    if z == 0 and params.delta > 0:
        raise SingularPointError("complex potential is singular at z = 0")
    if params.b == 0.0:
        return -params.a * z
    return -params.a * z + 1j * params.b * cmath.log(z)


def complex_derivative(params: FlowParams, z: complex) -> complex:
    """F'(z) = -a + i*b/z; equals u - i*v of the current."""
    z = complex(z)
    if params.b == 0.0:
        return complex(-params.a)
    if z == 0:
        raise SingularPointError("F' is singular at z = 0")
    return -params.a + 1j * params.b / z


def decompose_potential(params: FlowParams, z: complex) -> tuple[complex, complex]:
    """Split F into the uniform-stream part and the vortex part.

    Returns (F1, F2) with F1 = -a*z and F2 = i*b*log(z); their sum is
    `complex_potential` to machine precision.
    """
    z = complex(z)
    if z == 0 and params.delta > 0:
        raise SingularPointError("potential decomposition is singular at z = 0")
    f1 = -params.a * z
    f2 = 1j * params.b * cmath.log(z) if params.b != 0.0 else 0j
    return f1, f2


def _psi(a: float, b: float, x, y):
    # shared kernel for stream_function / hamiltonian / stream_values
    if b == 0.0:
        return -a * y
    r2 = x * x + y * y
    return -a * y + 0.5 * b * np.log(r2)


def stream_function(params: FlowParams, p) -> float:
    """Stream function psi = -a*y + b*log(r); even in x, constant on streamlines."""
    x, y = _point(p)
    _check_regular(params, x, y)
    return float(_psi(params.a, params.b, x, y))


def hamiltonian(params: FlowParams, p) -> float:
    """Hamiltonian of the flow; identical to `stream_function` (shared kernel)."""
    return stream_function(params, p)


def stream_values(params: FlowParams, x, y) -> np.ndarray:
    """Vectorized stream function on arrays; yields -inf at the origin instead
    of raising (grid evaluation support)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        return np.asarray(_psi(params.a, params.b, x, y))


def _phi(a: float, b: float, x, y):
    # shared kernel for velocity_potential / potential_values
    return -a * x - b * np.arctan2(y, x)


def velocity_potential(params: FlowParams, p) -> float:
    """Velocity potential phi = Re F = -a*x - b*theta, theta the principal argument.

    Discontinuous across the negative real axis; see `near_branch_cut`.
    """
    x, y = _point(p)
    if x == 0.0 and y == 0.0:
        raise SingularPointError("velocity potential is singular at the origin")
    return float(_phi(params.a, params.b, x, y))


def potential_values(params: FlowParams, x, y) -> np.ndarray:
    """Vectorized velocity potential on arrays; no singularity check (the
    origin yields 0, the principal argument's value there)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.asarray(_phi(params.a, params.b, x, y))


def near_branch_cut(p, angle_tol: float = 0.05) -> bool:
    """True when p lies within angle_tol radians of the negative real axis,
    where F and the velocity potential jump."""
    x, y = _point(p)
    if x == 0.0 and y == 0.0:
        return True
    return math.pi - abs(math.atan2(y, x)) < angle_tol


def flux_to_delta(consts: PhysicalConstants, flux: float, hbar: float = 1.0) -> float:
    """Dimensionless flux parameter delta = e*Phi/(2*pi*hbar*c)."""
    if not (math.isfinite(hbar) and hbar > 0):
        raise InvalidParamsError(f"hbar must be positive, got {hbar!r}")
    return consts.charge * flux / (2.0 * math.pi * hbar * consts.light_speed)


def delta_to_flux(consts: PhysicalConstants, delta: float, hbar: float = 1.0) -> float:
    """Inverse of `flux_to_delta`: Phi = 2*pi*hbar*c*delta/e."""
    if not (math.isfinite(hbar) and hbar > 0):
        raise InvalidParamsError(f"hbar must be positive, got {hbar!r}")
    return 2.0 * math.pi * hbar * consts.light_speed * delta / consts.charge


def vector_potential(consts: PhysicalConstants, flux: float, p) -> np.ndarray:
    """Vector potential of the string, A = (Phi/(2*pi*r)) * e_theta."""
    x, y = _point(p)
    r2 = x * x + y * y
    if r2 == 0.0:
        raise SingularPointError("vector potential is singular at the origin")
    c = flux / (2.0 * math.pi * r2)
    return np.array([-c * y, c * x])
