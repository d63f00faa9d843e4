"""Command-line frontend.

Subcommands: eval, portrait, stagnation, separatrix, circulation, trajectory,
verify, sweep.  A summary document is printed to stdout as JSON (the verify
report is a fixed-width text document); CSV/SVG artifacts go to --out.

Setting precedence: flags > key=value config file (--config) > built-in
defaults; a config key that names no setting is a usage error.  Exit codes:
0 ok, 1 verification failure, 2 usage, 3 singular input, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import critical, dynamics, verify as verify_mod
from .contour import PortraitSpec, circulation, portrait
from .errors import (
    InvalidContourError,
    InvalidParamsError,
    InvalidStartError,
    SingularPointError,
)
from .field import (
    FlowParams,
    PhysicalConstants,
    complex_derivative,
    complex_potential,
    current,
    flux_to_delta,
    hamiltonian,
    near_branch_cut,
    stream_function,
    velocity_potential,
)
from .svg import render_portrait

DEFAULTS = {
    "hbar": 1.0,
    "mass": 1.0,
    "k": 1.0,
    "delta": 0.5,
    "charge": 1.0,
    "light_speed": 1.0,
    "allow_any_delta": False,
    "bbox": (-4.0, 4.0, -3.0, 3.0),
    "grid": (400, 300),
    "n_levels": 15,
    "separatrix": True,
    "center": (0.0, 0.0),
    "radius": 1.0,
    "samples": 512,
    "tmax": 100.0,
    "rtol": 1e-10,
    "atol": 1e-12,
    "seed": 42,
    "format": "csv",
    "out": None,
    "levels": None,
    "detect_closure": False,
}


def _point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected x,y got {text!r}")
    return float(parts[0]), float(parts[1])


def _bbox(text: str) -> tuple[float, float, float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected xmin,xmax,ymin,ymax got {text!r}")
    return tuple(parts)


def _grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected NxM got {text!r}")
    return int(parts[0]), int(parts[1])


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))

_CONFIG_PARSERS = {
    **dict.fromkeys(
        ("hbar", "mass", "k", "delta", "flux", "charge", "light_speed",
         "radius", "tmax", "rtol", "atol"),
        float,
    ),
    "bbox": _bbox,
    "grid": _grid,
    "levels": _floats,
    "deltas": _floats,
    "at": _point,
    "start": _point,
    "center": _point,
    "samples": int,
    "seed": int,
    "n_levels": int,
    "format": str,
    "out": str,
    "allow_any_delta": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "separatrix": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "detect_closure": lambda s: s.lower() in ("1", "true", "yes", "on"),
}

# settings that set a flow's delta, which sweep takes from --deltas instead
_DELTA_SETTINGS = {"delta", "flux", "charge", "light_speed"}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParamsError(f"bad config line {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise InvalidParamsError(f"unknown config key {key!r} in {raw!r}")
        try:
            cfg[key] = parser(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise InvalidParamsError(f"bad config value {raw!r}: {exc}") from exc
    return cfg


class _Settings:
    """flags > config file > defaults"""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._config = _load_config(self._args.get("config"))

    @property
    def configured(self) -> set:
        """Settings the config file sets."""
        return set(self._config)

    def __getattr__(self, key):
        v = self._args.get(key)
        if v is not None:
            return v
        if key in self._config:
            return self._config[key]
        return DEFAULTS.get(key)


def _flow_params(s: _Settings) -> FlowParams:
    delta = s.delta
    if s.flux is not None:
        consts = _constants(s)
        delta = flux_to_delta(consts, s.flux, hbar=s.hbar)
    return FlowParams(
        hbar=s.hbar,
        mass=s.mass,
        k=s.k,
        delta=delta,
        allow_any_delta=bool(s.allow_any_delta),
    )


def _constants(s: _Settings) -> PhysicalConstants:
    return PhysicalConstants(charge=s.charge, light_speed=s.light_speed)


def _units(params: FlowParams) -> dict:
    return {
        "hbar": params.hbar,
        "mass": params.mass,
        "note": "all outputs in units with the stated hbar and mass"
        + (" (natural units)" if params.hbar == 1.0 and params.mass == 1.0 else ""),
    }


class _Emitter:
    def __init__(self, s: _Settings):
        self.fmt = s.format
        self.out = Path(s.out) if s.out else None
        self.files: list[str] = []

    def _want(self, kind: str) -> bool:
        return self.out is not None and self.fmt in (kind, "all")

    def write_csv(self, name: str, header: str, rows) -> None:
        if not self._want("csv"):
            return
        self.out.mkdir(parents=True, exist_ok=True)
        lines = [header]
        for row in rows:
            lines.append(",".join(repr(float(v)) for v in row))
        (self.out / name).write_text("\n".join(lines) + "\n")
        self.files.append(name)

    def write_svg(self, name: str, content: str) -> None:
        if not self._want("svg"):
            return
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / name).write_text(content)
        self.files.append(name)

    def write_text(self, name: str, content: str) -> None:
        if self.out is None:
            return
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / name).write_text(content)
        self.files.append(name)

    def finish(self, summary: dict) -> None:
        summary["files"] = sorted(self.files)
        text = json.dumps(summary, sort_keys=True, indent=2)
        if self.out is not None and self.fmt in ("json", "all"):
            self.out.mkdir(parents=True, exist_ok=True)
            (self.out / "summary.json").write_text(text + "\n")
        print(text)


def _params_summary(params: FlowParams) -> dict:
    return {
        "hbar": params.hbar,
        "mass": params.mass,
        "k": params.k,
        "delta": params.delta,
        "a": params.a,
        "b": params.b,
    }


def _cmd_eval(s: _Settings) -> int:
    params = _flow_params(s)
    if s.at is None:
        raise InvalidParamsError("eval requires --at x,y")
    p = s.at
    z = complex(p[0], p[1])
    j = current(params, p)
    f = complex_potential(params, z)
    fp = complex_derivative(params, z)
    summary = {
        "command": "eval",
        "params": _params_summary(params),
        "units": _units(params),
        "point": list(p),
        "current": [float(j[0]), float(j[1])],
        "complex_potential": [f.real, f.imag],
        "complex_derivative": [fp.real, fp.imag],
        "stream_function": stream_function(params, p),
        "hamiltonian": hamiltonian(params, p),
        "velocity_potential": velocity_potential(params, p),
        "near_branch_cut": near_branch_cut(p),
    }
    em = _Emitter(s)
    em.finish(summary)
    return 0


def _cmd_stagnation(s: _Settings) -> int:
    params = _flow_params(s)
    sp = critical.stagnation_point(params)
    summary = {
        "command": "stagnation",
        "params": _params_summary(params),
        "units": _units(params),
    }
    if sp is None:
        summary["stagnation_point"] = None
    else:
        summary["stagnation_point"] = {
            "location": sp.location.tolist(),
            "eigenvalues": list(sp.eigenvalues),
            "eigenvectors": [v.tolist() for v in sp.eigenvectors],
            "level": sp.level,
        }
    _Emitter(s).finish(summary)
    return 0


def _level_name(level: float, index: int) -> str:
    return f"level_{float(level)!r}_{index}.csv"


def _cmd_portrait(s: _Settings) -> int:
    params = _flow_params(s)
    spec = PortraitSpec(
        bbox=s.bbox,
        grid=s.grid,
        levels=s.levels,
        n_levels=s.n_levels,
        include_separatrix=bool(s.separatrix),
    )
    polylines = portrait(params, spec)
    em = _Emitter(s)
    counters: dict[float, int] = {}
    for poly in polylines:
        idx = counters.get(poly.level, 0)
        counters[poly.level] = idx + 1
        em.write_csv(_level_name(poly.level, idx), "x,y", poly.points)

    sep_level = None
    saddle = vortex = None
    if params.delta > 0.0:
        vortex = (0.0, 0.0)
        if params.k > 0.0:
            sep_level = critical.separatrix_level(params)
            saddle = critical.stagnation_point(params).location
    em.write_svg(
        "portrait.svg",
        render_portrait(polylines, spec.bbox, sep_level, saddle, vortex),
    )
    summary = {
        "command": "portrait",
        "params": _params_summary(params),
        "units": _units(params),
        "bbox": list(spec.bbox),
        "grid": list(spec.grid),
        "levels": sorted({float(p.level) for p in polylines}),
        "separatrix_level": sep_level,
        "polylines": len(polylines),
        "closed_polylines": sum(1 for p in polylines if p.closed),
    }
    em.finish(summary)
    return 0


def _cmd_separatrix(s: _Settings) -> int:
    params = _flow_params(s)
    result = dynamics.trace_separatrix(params)
    em = _Emitter(s)
    em.write_csv("separatrix_loop.csv", "x,y", result.loop.points)
    for i, branch in enumerate(result.unbounded_branches):
        em.write_csv(f"separatrix_branch_{i}.csv", "x,y", branch.points)
    sep_level = critical.separatrix_level(params)
    saddle = critical.stagnation_point(params).location
    em.write_svg(
        "separatrix.svg",
        render_portrait(
            [result.loop, *result.unbounded_branches],
            _loop_bbox(result),
            sep_level,
            saddle,
            (0.0, 0.0),
        ),
    )
    summary = {
        "command": "separatrix",
        "params": _params_summary(params),
        "units": _units(params),
        "separatrix_level": sep_level,
        "loop_points": len(result.loop.points),
        "loop_area": result.loop_area,
        "loop_max_radius": result.loop_max_radius,
        "lower_axis_crossing": result.lower_axis_crossing,
        "unbounded_branches": len(result.unbounded_branches),
    }
    em.finish(summary)
    return 0


def _loop_bbox(result) -> tuple[float, float, float, float]:
    pts = np.vstack([result.loop.points] + [b.points for b in result.unbounded_branches])
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    mx = 0.05 * max(xmax - xmin, ymax - ymin, 1e-6)
    return (float(xmin - mx), float(xmax + mx), float(ymin - mx), float(ymax + mx))


def _cmd_circulation(s: _Settings) -> int:
    params = _flow_params(s)
    result = circulation(params, s.center, s.radius, int(s.samples))
    expected = (
        -2.0 * math.pi * params.b
        if math.hypot(*s.center) < s.radius
        else 0.0
    )
    summary = {
        "command": "circulation",
        "params": _params_summary(params),
        "units": _units(params),
        "contour": result.contour,
        "circulation": result.value,
        "richardson_error_estimate": result.richardson_error_estimate,
        "closed_form_if_origin_enclosed": -2.0 * math.pi * params.b,
        "expected": expected,
    }
    _Emitter(s).finish(summary)
    return 0


def _cmd_trajectory(s: _Settings) -> int:
    params = _flow_params(s)
    if s.start is None:
        raise InvalidParamsError("trajectory requires --start x,y")
    cfg = dynamics.IntegratorConfig(
        rel_tol=s.rtol, abs_tol=s.atol, max_time=s.tmax
    )
    traj = dynamics.integrate(
        params, s.start, cfg, detect_closure=bool(s.detect_closure)
    )
    em = _Emitter(s)
    em.write_csv(
        "trajectory.csv",
        "t,x,y,h",
        (
            (t, p[0], p[1], h)
            for t, p, h in zip(traj.times, traj.points, traj.h_values)
        ),
    )
    summary = {
        "command": "trajectory",
        "params": _params_summary(params),
        "units": _units(params),
        "start": list(s.start),
        "status": traj.status.value,
        "samples": len(traj),
        "elapsed_time": float(traj.times[-1]),
        "final_point": traj.points[-1].tolist(),
        "max_h_drift": traj.max_h_drift,
    }
    if traj.status is dynamics.TrajectoryStatus.CLOSED_ORBIT_DETECTED:
        summary["period"] = float(traj.times[-1])
    em.finish(summary)
    return 4 if traj.status is dynamics.TrajectoryStatus.STEP_FAILURE else 0


def _cmd_verify(s: _Settings) -> int:
    params = _flow_params(s)
    reports = verify_mod.run_suite(params, seed=int(s.seed))
    text = verify_mod.format_report(reports)
    print(text)
    em = _Emitter(s)
    em.write_text("verify_report.txt", text + "\n")
    if em.out is not None and s.format in ("json", "all"):
        payload = [
            {
                "name": rep.name,
                "params": rep.params,
                "residual": None if math.isnan(rep.residual) else rep.residual,
                "tolerance": None if math.isnan(rep.tolerance) else rep.tolerance,
                "order": rep.order,
                "verdict": rep.verdict,
            }
            for rep in reports
        ]
        em.write_text("verify_report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if verify_mod.suite_passed(reports) else 1


def _cmd_sweep(s: _Settings) -> int:
    ignored = sorted(_DELTA_SETTINGS & s.configured)
    if ignored:
        raise InvalidParamsError(
            f"sweep takes delta from --deltas only; --config sets {', '.join(ignored)}"
        )
    deltas = s.deltas
    if deltas is None:
        raise InvalidParamsError("sweep requires --deltas d1,d2,...")
    rows = []
    for delta in deltas:
        params = FlowParams(
            hbar=s.hbar,
            mass=s.mass,
            k=s.k,
            delta=delta,
            allow_any_delta=bool(s.allow_any_delta),
        )
        result = dynamics.trace_separatrix(params)
        circ = circulation(params, (0.0, 0.0), s.radius, int(s.samples))
        rows.append(
            {
                "delta": delta,
                "loop_area": result.loop_area,
                "loop_max_radius": result.loop_max_radius,
                "lower_axis_crossing": result.lower_axis_crossing,
                "circulation": circ.value,
            }
        )
    em = _Emitter(s)
    em.write_csv(
        "sweep.csv",
        "delta,loop_area,loop_max_radius,lower_axis_crossing,circulation",
        (
            (
                r["delta"],
                r["loop_area"],
                r["loop_max_radius"],
                r["lower_axis_crossing"],
                r["circulation"],
            )
            for r in rows
        ),
    )
    summary = {
        "command": "sweep",
        "units": {"hbar": s.hbar, "mass": s.mass, "note": "per-delta results"},
        "k": s.k,
        "rows": rows,
        "strictly_decreasing_area": all(
            a["loop_area"] > b["loop_area"] for a, b in zip(rows, rows[1:])
        ),
    }
    em.finish(summary)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "portrait": _cmd_portrait,
    "stagnation": _cmd_stagnation,
    "separatrix": _cmd_separatrix,
    "circulation": _cmd_circulation,
    "trajectory": _cmd_trajectory,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hbar", type=float)
    common.add_argument("--mass", type=float)
    common.add_argument("--k", type=float)
    common.add_argument("--allow-any-delta", dest="allow_any_delta",
                        action="store_true", default=None)
    common.add_argument("--config")
    common.add_argument("--out")
    common.add_argument("--format", choices=["csv", "json", "svg", "all"])
    common.add_argument("--seed", type=int)
    # delta and the flux that sets it; sweep takes its deltas from --deltas only
    flux_flags = argparse.ArgumentParser(add_help=False, parents=[common])
    flux_flags.add_argument("--delta", type=float)
    flux_flags.add_argument("--flux", type=float)
    flux_flags.add_argument("--charge", type=float)
    flux_flags.add_argument("--light-speed", dest="light_speed", type=float)

    parser = argparse.ArgumentParser(
        prog="abflow",
        description="Flow of the probability current around a magnetic string.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[flux_flags], help="evaluate fields at a point")
    p.add_argument("--at", type=_point)

    p = sub.add_parser("portrait", parents=[flux_flags], help="extract a phase portrait")
    p.add_argument("--bbox", type=_bbox)
    p.add_argument("--grid", type=_grid)
    p.add_argument("--levels", type=_floats)
    p.add_argument("--n-levels", dest="n_levels", type=int)
    p.add_argument("--separatrix", dest="separatrix",
                   action=argparse.BooleanOptionalAction, default=None)

    sub.add_parser("stagnation", parents=[flux_flags], help="report the stagnation point")

    sub.add_parser("separatrix", parents=[flux_flags], help="sample the separatrix")

    p = sub.add_parser("circulation", parents=[flux_flags],
                       help="circle quadrature of the circulation")
    p.add_argument("--center", type=_point)
    p.add_argument("--radius", type=float)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("trajectory", parents=[flux_flags], help="integrate one trajectory")
    p.add_argument("--start", type=_point)
    p.add_argument("--tmax", type=float)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--detect-closure", dest="detect_closure",
                   action="store_true", default=None)

    sub.add_parser("verify", parents=[flux_flags], help="run the identity verification suite")

    # no abbreviations, or argparse would read --delta as --deltas
    p = sub.add_parser("sweep", parents=[common], allow_abbrev=False,
                       help="separatrix metrics over a delta list")
    p.add_argument("--deltas", type=_floats)
    p.add_argument("--radius", type=float)
    p.add_argument("--samples", type=int)

    return parser


# flags whose values may start with a minus sign; fold them into --flag=value
# so argparse does not mistake the value for an option
_SIGNED_VALUE_FLAGS = {
    "--bbox", "--levels", "--at", "--start", "--center", "--deltas",
}


def _fold_signed_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _SIGNED_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_signed_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = _Settings(args)
        return _COMMANDS[args.command](settings)
    except (SingularPointError, InvalidStartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidParamsError, InvalidContourError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
