"""Seeded op lists for the abflow benchmark.

Every op is one ``abflow.cli.main(argv)`` call.  Its geometry (bounding box,
start point, integration time, circle) is drawn in canonical units: lengths
in ``l = delta/k`` and times in ``tau = delta*mass/(hbar*k^2)``.  The unit
system is drawn separately (``hbar``, ``delta`` and the length unit, with
``mass`` and ``k`` following from ``tau = 1``) and the geometry is mapped into
it, so the ideal work of an op does not depend on the unit draw.

Two unit bands exist:

* ``timed`` keeps the length unit in [0.1, 10] (0.1 to 1 for ``delta = 0``
  flows) and runs ``verify`` with its default sample seed.  The timed
  workloads use it; the program passes every output check there.
* ``full`` draws ``hbar`` and ``mass`` log-uniformly over [1e-3, 1e3] and
  ``delta`` over [1e-3, 0.5].  The census mode uses it to record the
  failures the program has at scaled units.

Every parameter that sets an op's work is drawn inside a stratum fixed by
the op's index, so the work of an op list barely depends on the seed, while
the seed moves every parameter inside its stratum, the units and the order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("portraits", "separatrix_orbits", "verify_queries")
BANDS = ("timed", "full")

TAU = 1.0
TIMED_LENGTH = (0.1, 10.0)
TIMED_LINE_LENGTH = (0.1, 1.0)

# at least 100 ops each, so that ten lie beyond p90
N_OPS = {"portraits": 100, "separatrix_orbits": 100, "verify_queries": 100}


@dataclass(frozen=True)
class Flow:
    """One drawn parameter set; ``kind`` is regular, line (delta = 0) or
    rotation (k = 0)."""

    kind: str
    hbar: float
    mass: float
    k: float
    delta: float

    @property
    def a(self) -> float:
        return self.hbar * self.k / self.mass

    @property
    def b(self) -> float:
        return self.hbar * self.delta / self.mass

    @property
    def length(self) -> float:
        """Length unit: l for regular flows, the distance the stream covers
        in tau for lines, the radius whose rotation period is 2*pi*tau for
        rotations."""
        if self.kind == "regular":
            return self.delta / self.k
        if self.kind == "line":
            return self.a * TAU
        return math.sqrt(self.b * TAU)

    def flags(self) -> list[str]:
        return [
            "--hbar", repr(self.hbar),
            "--mass", repr(self.mass),
            "--k", repr(self.k),
            "--delta", repr(self.delta),
        ]


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` omits ``--out``, which the runner adds per
    execution; ``expect`` holds what the output checks need."""

    command: str
    argv: tuple[str, ...]
    flow: Flow
    expect: dict = field(default_factory=dict, compare=False, hash=False)


def _logu(rng: random.Random, lo: float, hi: float, u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _stratum(rng: random.Random, i: int, n: int, mult: int = 1) -> float:
    """A point in stratum (i*mult mod n) of [0, 1).  Each parameter that sets
    an op's work gets its own multiplier, so op i pairs the same strata for
    every seed and the seed moves only the point inside each stratum."""
    return ((i * mult) % n + rng.random()) / n


def _kind(j: int, lines: bool = True) -> str:
    """Fixed shares: one op in ten has delta = 0, one in ten k = 0."""
    if j % 10 == 3 and lines:
        return "line"
    return "rotation" if j % 10 == 7 else "regular"


def draw_flow(rng: random.Random, kind: str, band: str, u_length: float) -> Flow:
    """Draw units; ``u_length`` in [0, 1) places the length unit in the
    timed band (ignored by the full band, where mass is drawn instead)."""
    hbar = _logu(rng, 1e-3, 1e3)
    delta = 0.0 if kind == "line" else _logu(rng, 1e-3, 0.5)
    if band == "full":
        mass = _logu(rng, 1e-3, 1e3)
    elif kind == "line":
        mass = hbar / (_logu(rng, *TIMED_LINE_LENGTH, u_length) * TAU)
    else:
        length = _logu(rng, *TIMED_LENGTH, u_length)
        mass = hbar * delta * TAU / length**2
    if kind == "line":
        k = 1.0
    elif kind == "rotation":
        k = 0.0
    else:
        k = math.sqrt(delta * mass / (hbar * TAU))
    return Flow(kind, hbar, mass, k, delta)


def _pt(x: float, y: float) -> str:
    return f"{x!r},{y!r}"


def _portraits(rng: random.Random, band: str, n: int) -> list[Op]:
    ops = []
    for i in range(n):
        flow = draw_flow(rng, _kind(i), band, _stratum(rng, i, n, 29))
        L = flow.length
        # most grids small, a tail up to 600x450: a pass stays short enough
        # that every op is timed several times in a run
        nx = round(120 * 5 ** _stratum(rng, i, n) ** 4)
        ny = round(0.75 * nx)
        n_levels = 8 + int(17 * _stratum(rng, i, n, 17))
        w = (2.5 + 2.5 * _stratum(rng, i, n, 23)) * L
        cy = rng.uniform(0.0, 0.5) * L if flow.kind == "regular" else 0.0
        bbox = (-w, w, cy - 0.75 * w, cy + 0.75 * w)
        sep = i % 2 == 0 and flow.kind == "regular"
        argv = [
            "portrait", *flow.flags(),
            "--bbox", ",".join(repr(v) for v in bbox),
            "--grid", f"{nx}x{ny}",
            "--n-levels", str(n_levels),
            "--separatrix" if sep else "--no-separatrix",
            "--format", "all",
        ]
        ops.append(Op("portrait", tuple(argv), flow,
                      {"bbox": bbox, "grid": (nx, ny), "separatrix": sep}))
    return ops


def _trajectory(rng: random.Random, flow: Flow, j: int, n: int) -> Op:
    L = flow.length
    u = _stratum(rng, j, n, 7)
    if flow.kind == "regular":
        # the homoclinic loop meets the y axis at -W(1/e)*l and l; starts stay
        # clear of it so closure times stay short
        closed = j % 5 < 3
        if closed:
            s = -0.22 + 0.12 * u if j % 4 == 0 else 0.15 + 0.65 * u
        else:
            s = -1.0 + 0.65 * u if j % 2 == 0 else 1.15 + 0.85 * u
    else:
        # a rotation's period at radius s*L is 2*pi*s^2*tau, below tmax
        s = 0.3 + 1.2 * u
        closed = flow.kind == "rotation"
    tmax = (20.0 + 20.0 * _stratum(rng, j, n, 13)) * TAU
    argv = ["trajectory", *flow.flags(), "--start", _pt(0.0, s * L),
            "--detect-closure", "--tmax", repr(tmax)]
    return Op("trajectory", tuple(argv), flow, {"closed": closed})


def _sweep(rng: random.Random, flow: Flow, j: int) -> Op:
    fracs = [0.75 + 0.2 * rng.random(), 0.5 + 0.2 * rng.random()][: 1 + j % 2]
    deltas = [flow.delta] + [flow.delta * f for f in fracs]
    argv = ["sweep", "--hbar", repr(flow.hbar), "--mass", repr(flow.mass),
            "--k", repr(flow.k), "--deltas", ",".join(repr(d) for d in deltas),
            "--radius", repr(2.0 * flow.length)]
    return Op("sweep", tuple(argv), flow, {"deltas": deltas})


def _separatrix_orbits(rng: random.Random, band: str, n: int) -> list[Op]:
    """Closure trajectories, one op in four a separatrix trace and one in
    24 a sweep.  Sorted by cost the list runs trajectories, separatrix
    traces, sweeps: p50 falls among the trajectories and p90 among the
    separatrix traces."""

    def command(i: int) -> str:
        if i % 24 == 5:
            return "sweep"
        return "separatrix" if i % 4 == 0 else "trajectory"

    cmds = [command(i) for i in range(n)]
    n_traj = cmds.count("trajectory")
    ops = []
    for i, cmd in enumerate(cmds):
        j = cmds[:i].count(cmd)
        kind = _kind(j) if cmd == "trajectory" else "regular"
        flow = draw_flow(rng, kind, band, _stratum(rng, i, n, 29))
        if cmd == "trajectory":
            ops.append(_trajectory(rng, flow, j, n_traj))
        elif cmd == "separatrix":
            ops.append(Op("separatrix", ("separatrix", *flow.flags()), flow))
        else:
            ops.append(_sweep(rng, flow, j))
    return ops


def _verify_queries(rng: random.Random, band: str, n: int) -> list[Op]:
    """One op in four a verify run, the rest eval, stagnation and
    circulation queries in equal shares: p50 falls among the queries, whose
    cost is mostly the CLI's per-call overhead, and p90 among the verify
    runs."""
    cheap = ("eval", "stagnation", "circulation")
    cmds = ["verify" if i % 4 == 0 else cheap[i % 3] for i in range(n)]
    ops = []
    for i, cmd in enumerate(cmds):
        j = cmds[:i].count(cmd)
        # verify misreads roundoff as truncation on a linear stream function
        # (see README.md), so timed verify ops get no delta = 0 flow
        kind = _kind(j, cmd != "verify" or band == "full")
        flow = draw_flow(rng, kind, band, _stratum(rng, i, n, 29))
        ops.append(_query(rng, cmd, flow, band))
    return ops


def _query(rng: random.Random, cmd: str, flow: Flow, band: str) -> Op:
    L = flow.length
    if cmd == "verify":
        # the timed band keeps the program's default sample seed: some seeds
        # put a sample point so near the branch cut that the velocity
        # potential's stencils cross it (see README.md)
        seed = rng.randrange(1 << 31)
        argv = ["verify", *flow.flags()] + (["--seed", str(seed)] if band == "full" else [])
        return Op("verify", tuple(argv), flow)
    if cmd == "stagnation":
        return Op("stagnation", ("stagnation", *flow.flags()), flow)
    if cmd == "eval":
        rho, th = rng.uniform(0.2, 3.0) * L, rng.uniform(-math.pi, math.pi)
        x, y = rho * math.cos(th), rho * math.sin(th)
        return Op("eval", ("eval", *flow.flags(), "--at", _pt(x, y)), flow, {"at": (x, y)})
    radius = rng.uniform(0.5, 3.0) * L
    encloses = rng.random() < 0.8
    # the origin lies within 0.7 radii of the centre or beyond 1.4 radii, so
    # the quadrature converges to roundoff
    c = radius * (rng.uniform(0.0, 0.7) if encloses else 1.0 / rng.uniform(0.3, 0.7))
    th = rng.uniform(-math.pi, math.pi)
    cx, cy = c * math.cos(th), c * math.sin(th)
    argv = ["circulation", *flow.flags(), "--center", _pt(cx, cy),
            "--radius", repr(radius), "--samples", "512"]
    return Op("circulation", tuple(argv), flow,
              {"center": (cx, cy), "radius": radius, "encloses": encloses})


_BUILDERS = {
    "portraits": _portraits,
    "separatrix_orbits": _separatrix_orbits,
    "verify_queries": _verify_queries,
}


def make_ops(workload: str, seed: int, band: str = "timed") -> list[Op]:
    """The op list of one workload; the same (workload, seed, band) always
    gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if band not in BANDS:
        raise ValueError(f"unknown band {band!r}; choose from {BANDS}")
    rng = random.Random(f"abflow-bench:{workload}:{band}:{seed}")
    ops = _BUILDERS[workload](rng, band, N_OPS[workload])
    rng.shuffle(ops)
    return ops
