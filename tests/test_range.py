"""The range of a flow's scales: FlowParams admits a flow exactly when a and
b and, for a regular flow, l*l and tau = l/a lie in [SCALE_MIN, SCALE_MAX].
On every flow it admits, each command runs at the flow's canonical points;
on every flow it refuses, each command exits 2 naming the scale."""

import math
import re
import warnings

import numpy as np
import pytest

from abflow.cli import main
from abflow.field import SCALE_MAX, SCALE_MIN

RULE = re.compile(r"error: (a|b|l\*l|tau) = \S+ is \S+, outside the range "
                  + re.escape(f"[{SCALE_MIN!r}, {SCALE_MAX!r}]") + " of a flow's scales\n")


def commands(hbar, mass, k, delta) -> dict[str, list[str]]:
    """Every command on the flow, at its canonical points: l*(0.7, 0.3),
    the circle of radius l, the box l*(-4, 4, -3, 3), the start l*(2, 0.5)
    and 5*tau."""
    l, a = delta / k, hbar * k / mass
    tau = l / a if a else math.inf
    units = ["--hbar", repr(hbar), "--mass", repr(mass), "--k", repr(k)]
    flow = [*units, "--delta", repr(delta)]
    return {
        "eval": ["eval", *flow, "--at", f"{0.7 * l!r},{0.3 * l!r}"],
        "stagnation": ["stagnation", *flow],
        "separatrix": ["separatrix", *flow],
        "portrait": ["portrait", *flow, "--grid", "80x60",
                     "--bbox", ",".join(repr(f * l) for f in (-4.0, 4.0, -3.0, 3.0))],
        "circulation": ["circulation", *flow, "--radius", repr(l)],
        "trajectory": ["trajectory", *flow, "--start", f"{2.0 * l!r},{0.5 * l!r}",
                       "--tmax", repr(5.0 * tau)],
        "verify": ["verify", *flow],
        "sweep": ["sweep", *units, "--deltas", repr(delta), "--radius", repr(l)],
    }


def run(capsys, argv) -> tuple[int, str]:
    """The exit code and stderr of one in-process run; an exception, a
    warning among them, escapes as a traceback would."""
    code = main(argv)
    return code, capsys.readouterr().err


def refused_scale(e_hbar, e_mass, e_k, e_delta) -> str | None:
    """The first scale out of range, from the decimal exponents of hbar,
    mass, k and delta in exact arithmetic, or None."""
    lo, hi = math.log10(SCALE_MIN), math.log10(SCALE_MAX)
    e_l = e_delta - e_k
    for name, e in (("a", e_hbar + e_k - e_mass), ("b", e_hbar + e_delta - e_mass),
                    ("l*l", 2.0 * e_l), ("tau", e_l - (e_hbar + e_k - e_mass))):
        if not lo <= e <= hi:
            return name
    return None


def probe_draws(n: int = 100, seed: int = 5) -> list[tuple[float, float, float, float]]:
    """Seeded decimal exponents: hbar, mass and k log-uniform over 1e-150 to
    1e150 and delta over 1e-12 to 0.5; then flows that a wider rule admitted
    and no command could run: l = 3.86e-154, where verify found the saddle
    within the vortex core, and a rate a/l = 2e-350 that stagnation could not
    report."""
    rng = np.random.default_rng(seed)
    e = rng.uniform(-150.0, 150.0, (n, 3))
    e_delta = rng.uniform(-12.0, math.log10(0.5), n)
    return [*zip(*e.T.tolist(), e_delta.tolist()),
            (0.0, 0.0, math.log10(2.59e149), -4.0), (-150.0, 0.0, -100.0, math.log10(0.5))]


def test_probe_every_command_runs_on_every_admitted_flow(capsys):
    seen = {True: 0, False: 0}
    for exps in probe_draws():
        hbar, mass, k, delta = (10.0**e for e in exps)
        scale = refused_scale(*exps)
        seen[scale is None] += 1
        for name, argv in commands(hbar, mass, k, delta).items():
            code, err = run(capsys, argv)
            label = f"{name} at hbar={hbar!r} mass={mass!r} k={k!r} delta={delta!r}"
            if scale is None:
                assert code == 0 and err == "", f"{label}: exit {code}, {err!r}"
            else:
                match = RULE.fullmatch(err)
                assert code == 2 and match and match[1] == scale, f"{label}: exit {code}, {err!r}"
    assert seen[True] >= 70 and seen[False] >= 10  # both sides of the rule are probed


def corner(l: float, tau: float, delta: float) -> tuple[float, float, float, float]:
    """hbar, mass, k and delta of the flow with length l and time tau; with
    mass = delta, hbar is b = l*l/tau and stays a double where delta is small."""
    return l * l / tau, delta, delta / l, delta


# (l, tau) with l*l or tau a factor f from an end of the range, the other
# scale chosen so that a = l/tau and b = l*l/tau stay well inside it
CORNERS = {
    "l*l at SCALE_MIN": lambda f: (math.sqrt(SCALE_MIN * f), 1e-100),
    "l*l at SCALE_MAX": lambda f: (math.sqrt(SCALE_MAX / f), 1e100),
    "tau at SCALE_MIN": lambda f: (1e-100, SCALE_MIN * f),
    "tau at SCALE_MAX": lambda f: (1e100, SCALE_MAX / f),
}


@pytest.mark.parametrize("delta", [0.5, 1e-12])
@pytest.mark.parametrize("where", CORNERS)
def test_every_command_runs_at_the_corners_of_the_range(capsys, where, delta):
    l, tau = CORNERS[where](1.0 + 1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, args in commands(*corner(l, tau, delta)).items():
            code, err = run(capsys, args)
            assert code == 0 and err == "", f"{name} {where}: exit {code}, {err!r}"


@pytest.mark.parametrize("delta", [0.5, 1e-12])
@pytest.mark.parametrize("where", CORNERS)
def test_one_step_past_a_corner_is_refused(capsys, where, delta):
    l, tau = CORNERS[where](1.0 - 1e-4)
    for name, args in commands(*corner(l, tau, delta)).items():
        code, err = run(capsys, args)
        match = RULE.fullmatch(err)
        assert code == 2 and match and match[1] == where.split()[0], f"{name}: {err!r}"
