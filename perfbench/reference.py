"""A fixed reference computation that gauges the machine's speed of the moment.

The benchmark shares a few cores of a host with other jobs, and the host's
speed drifts: over seconds to minutes every op of a run gets up to twice as
slow, in CPU time as well as wall time, and a later run can sit in a slower
phase than an earlier one.  ``run.py`` therefore runs ``kernel()`` between
ops and expresses each op's time in units of the kernel's time measured next
to it.  The kernel is code of the benchmark, not of the program, so a change
to the program cannot move it.

Its work mixes what abflow's ops spend their time on, as a profile of the
CLI shows: Python-level float arithmetic over tuples (the Dormand-Prince
stages), dict and set walks keyed by tuples (segment stitching), numpy
scalar indexing and small array creation (marching-squares edge points),
vectorised numpy over a small grid (stream function evaluation) and float
formatting into text (CSV and SVG output).  It takes about 2 ms on a 2-core
VM.
"""

from __future__ import annotations

import numpy as np

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_XG, _YG = np.meshgrid(np.linspace(-3.0, 3.0, 120), np.linspace(-1.5, 2.5, 90))


def _rhs(x: float, y: float) -> tuple[float, float]:
    r2 = x * x + y * y
    return -1.0 + 0.25 * y / r2, -0.25 * x / r2


def _stages() -> float:
    x, y, h = 0.0, 0.5, 0.01
    for _ in range(60):
        k = [_rhs(x, y)]
        for stage in range(1, 6):
            ax = x + h * sum(_A[stage][m] * k[m][0] for m in range(stage))
            ay = y + h * sum(_A[stage][m] * k[m][1] for m in range(stage))
            k.append(_rhs(ax, ay))
        x, y = ax, ay
    return x + y


def _walk() -> int:
    adj: dict = {}
    for i in range(300):
        a, b = ("h", i % 24, i // 24), ("v", (i + 1) % 24, i // 24)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = set()
    for node in sorted(adj):
        if node not in seen:
            seen.add(node)
            seen.update(n for n in adj[node] if n not in seen)
    return len(seen)


def _edges_and_text() -> int:
    psi = -_YG + 0.25 * np.log(np.hypot(_XG, _YG))
    level = 0.7
    below = psi < level
    points = []
    for j, i in np.argwhere(below[:-1, :] != below[1:, :]):
        va, vb = psi[j, i], psi[j + 1, i]
        t = (level - va) / (vb - va)
        points.append(np.array([_XG[j, i], _YG[j, i] + t * (_YG[j + 1, i] - _YG[j, i])]))
    rows = "\n".join(",".join(repr(float(v)) for v in p) for p in points)
    path = " ".join("{:.2f},{:.2f}".format(*p) for p in points)
    return len(rows) + len(path)


def kernel() -> float:
    """One unit of reference work; returns a checksum of it."""
    return _stages() + _walk() + _edges_and_text()
