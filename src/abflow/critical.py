"""The stagnation point (a saddle), the Jacobian of the current, and the separatrix level."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .field import FlowParams, _regular_point

__all__ = [
    "CriticalPoint",
    "stagnation_point",
    "jacobian",
    "jacobian_entries",
    "separatrix_level",
]


@dataclass(frozen=True)
class CriticalPoint:
    """The stagnation point, a regular saddle.

    ``eigenvalues`` is (+c, -c) with c = a/l = hbar*k^2/(delta*mass),
    ``eigenvectors`` holds the matching unit directions (unstable first, sign
    fixed by positive x component), and ``level`` is the Hamiltonian there.
    """

    location: np.ndarray
    eigenvalues: tuple[float, float]
    eigenvectors: tuple[np.ndarray, np.ndarray]
    level: float


def stagnation_point(params: FlowParams) -> CriticalPoint | None:
    """The saddle at (0, delta/k), or None when delta = 0 or k = 0.

    With delta = 0 the velocity is constant and nonzero everywhere; with
    k = 0 the flow is a pure rotation with no stagnation point.  The rate
    c = a/l = 1/tau is a finite normal double, since FlowParams admits only
    a tau in [SCALE_MIN, SCALE_MAX].
    """
    if params.delta == 0.0 or params.k == 0.0:
        return None
    y0 = params.saddle_height
    c = params.a / y0  # = hbar*k^2/(delta*mass), in rounded arithmetic
    unstable = np.array([1.0, -1.0]) / math.sqrt(2.0)
    stable = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return CriticalPoint(
        location=np.array([0.0, y0]),
        eigenvalues=(c, -c),
        eigenvectors=(unstable, stable),
        level=separatrix_level(params),
    )


def jacobian_entries(params: FlowParams, x, y):
    """Entries (alpha, beta) of the Jacobian [[alpha, beta], [beta, -alpha]]
    of the current at (x, y), scalars or arrays; no singularity check."""
    # b/r2 times ratios of at most 1, so nothing overflows a finite result
    r2 = x * x + y * y
    b_r2 = params.b / r2
    return b_r2 * (-2.0 * x * y / r2), b_r2 * ((x * x - y * y) / r2)


def jacobian(params: FlowParams, p) -> np.ndarray:
    """Analytic Jacobian of the current at a regular point.

    The matrix is symmetric and trace-free for this field (divergence- and
    curl-free): [[alpha, beta], [beta, -alpha]], see `jacobian_entries`.
    """
    x, y = _regular_point(params, p)
    if params.b == 0.0:
        return np.zeros((2, 2))
    alpha, beta = jacobian_entries(params, x, y)
    return np.array([[alpha, beta], [beta, -alpha]])


def separatrix_level(params: FlowParams) -> float:
    """Stream-function value on the separatrix: (hbar*delta/mass)*(log(delta/k) - 1).

    Coincides with the Hamiltonian at the stagnation point.
    """
    if params.delta == 0.0 or params.k == 0.0:
        raise InvalidParamsError("separatrix level requires delta > 0 and k > 0")
    return params.b * (math.log(params.saddle_height) - 1.0)
