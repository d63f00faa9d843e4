"""Command-line frontend.

Subcommands: eval, portrait, stagnation, separatrix, circulation, trajectory,
verify, sweep.  A summary document is printed to stdout as JSON (the verify
report is a fixed-width text document); CSV/SVG artifacts go to --out.

Every setting is one row of ``_SETTINGS``: its value parser, its default
and the commands that read it.  The rows generate each subcommand's flags
(booleans also take a ``--no-`` form; no flag may be abbreviated) and the
keys a ``--config`` file may set for that command; a key that names no
setting, or a setting the command does not read, is a usage error.
Precedence: flags > key=value config file > defaults.  Exit codes: 0 ok,
1 verification failure, 2 usage, 3 singular input, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import critical, dynamics, verify as verify_mod
from .contour import PortraitSpec, circulation, portrait
from .errors import (
    InvalidContourError,
    InvalidParamsError,
    InvalidStartError,
    NumericalError,
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


def _bool(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise argparse.ArgumentTypeError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
    return word in ("1", "true", "yes", "on")


def _format(text: str) -> str:
    if text not in ("csv", "json", "svg", "all"):
        raise argparse.ArgumentTypeError(f"expected csv, json, svg or all, got {text!r}")
    return text


_ALL = frozenset(
    ("eval", "portrait", "stagnation", "separatrix", "circulation", "trajectory", "verify", "sweep")
)
# sweep takes each flow's delta from --deltas
_FLOWS = _ALL - {"sweep"}

# name: (value parser for the flag and the config line, default, commands)
_SETTINGS = {
    "hbar": (float, 1.0, _ALL),
    "mass": (float, 1.0, _ALL),
    "k": (float, 1.0, _ALL),
    "delta": (float, 0.5, _FLOWS),
    "flux": (float, None, _FLOWS),
    "charge": (float, 1.0, _FLOWS),
    "light_speed": (float, 1.0, _FLOWS),
    "allow_any_delta": (_bool, False, _ALL),
    "out": (str, None, _ALL),
    "format": (_format, "csv", _ALL),
    "seed": (int, 42, {"verify"}),
    "at": (_point, None, {"eval"}),
    "bbox": (_bbox, (-4.0, 4.0, -3.0, 3.0), {"portrait"}),
    "grid": (_grid, (400, 300), {"portrait"}),
    "levels": (_floats, None, {"portrait"}),
    "n_levels": (int, 15, {"portrait"}),
    "separatrix": (_bool, True, {"portrait"}),
    "center": (_point, (0.0, 0.0), {"circulation"}),
    "radius": (float, 1.0, {"circulation", "sweep"}),
    "samples": (int, 512, {"circulation", "sweep"}),
    "start": (_point, None, {"trajectory"}),
    "tmax": (float, 100.0, {"trajectory"}),
    "rtol": (float, 1e-10, {"trajectory"}),
    "atol": (float, 1e-12, {"trajectory"}),
    "detect_closure": (_bool, False, {"trajectory"}),
    "deltas": (_floats, None, {"sweep"}),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParamsError(f"cannot read config file {path!r}: {exc}") from exc
    cfg = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParamsError(f"bad config line {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _SETTINGS:
            raise InvalidParamsError(f"unknown config key {key!r} in {raw!r}")
        parse, _, commands = _SETTINGS[key]
        if command not in commands:
            raise InvalidParamsError(f"{command} does not read config key {key!r} in {raw!r}")
        try:
            cfg[key] = parse(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise InvalidParamsError(f"bad config value {raw!r}: {exc}") from exc
    return cfg


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """The command's settings only: flags > config file > defaults."""
    given = dict(vars(args))
    command = given.pop("command")
    config = _load_config(given.pop("config", None), command)
    defaults = {name: row[1] for name, row in _SETTINGS.items() if command in row[2]}
    return argparse.Namespace(**{**defaults, **config, **given})


def _flow_params(s: argparse.Namespace, delta: float | None = None) -> FlowParams:
    if delta is None:
        delta = s.delta
        if s.flux is not None:
            consts = PhysicalConstants(charge=s.charge, light_speed=s.light_speed)
            delta = flux_to_delta(consts, s.flux, hbar=s.hbar)
    return FlowParams(
        hbar=s.hbar,
        mass=s.mass,
        k=s.k,
        delta=delta,
        allow_any_delta=s.allow_any_delta,
    )


class _Emitter:
    """The artifacts of one command: each is written under --out if its
    kind is wanted, the directory made on the first write, and the summary
    lists every file written."""

    def __init__(self, s: argparse.Namespace):
        self.fmt = s.format
        self.out = Path(s.out) if s.out else None
        self.files: list[str] = []

    def wants(self, kind: str | None) -> bool:
        """Whether an artifact of kind (csv, json or svg; None for every
        format) will be written: --out is set and --format asks for it."""
        return self.out is not None and (kind is None or self.fmt in (kind, "all"))

    def write(self, name: str, text: str, kind: str | None) -> None:
        """Write out/name if an artifact of kind is wanted; the directory is
        made on the first write.  A directory or file that cannot be made
        is a usage error naming the path."""
        if not self.wants(kind):
            return
        path = self.out / name
        try:
            if not self.files:
                os.makedirs(self.out, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise InvalidParamsError(f"cannot write {str(path)!r}: {exc}") from exc
        self.files.append(name)

    def write_csv(self, name: str, header: str, table) -> None:
        """Write the rows of a 2-D array (or nested sequence) of numbers as
        CSV, each cell the repr of a Python float.  The whole table is one
        %-format: one "%r,...,%r" row per line, filled from .tolist()."""
        if not self.wants("csv"):
            return
        cells = np.asarray(table, dtype=float)
        row = ",".join(["%r"] * cells.shape[1]) + "\n"
        text = row * len(cells) % tuple(cells.ravel().tolist())
        self.write(name, header + "\n" + text, "csv")

    def write_points(self, tables: list[tuple[str, np.ndarray]]) -> None:
        """Write each (name, n x 2 array), in order, as the "x,y" CSV that
        write_csv gives it, formatting the rows of all tables in one pass.
        The flow is even in x, so its tables mirror about the y axis, and
        repr(-v) is "-" + repr(v): each distinct (|x|, y) row (by bits,
        found with one lexsort) is formatted once, and a row whose x has its
        sign bit set, NaN aside, is "-" + that text.  Tables without a
        mirror are written the same way and gain less."""
        if not tables or not self.wants("csv"):
            return
        pts = np.concatenate([np.asarray(points, dtype=float) for _, points in tables])
        x = pts[:, 0]
        folded = np.column_stack([np.abs(x), pts[:, 1]])
        bits = folded.view(np.uint64)
        order = np.lexsort((bits[:, 1], bits[:, 0]))
        ranked = bits[order]
        first = np.ones(len(pts), dtype=bool)
        first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
        row_of = np.empty(len(pts), dtype=np.intp)
        row_of[order] = np.cumsum(first) - 1
        distinct = folded[order[first]]
        texts = ("%r,%r\n" * len(distinct) % tuple(distinct.ravel().tolist())).splitlines(True)
        row_of, minus = row_of.tolist(), (np.signbit(x) & ~np.isnan(x)).tolist()
        end = 0
        for name, points in tables:
            # hold one table's row strings at a time, not the command's
            start, end = end, end + len(points)
            rows = ["-" + texts[i] if m else texts[i]
                    for i, m in zip(row_of[start:end], minus[start:end])]
            self.write(name, "x,y\n" + "".join(rows), "csv")

    def finish(self, summary: dict) -> None:
        """Print the JSON summary and write it if wanted; a summary that
        holds NaN or an infinity is a NumericalError, printed nowhere."""
        summary["files"] = sorted(self.files)
        try:
            text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NumericalError(f"a {summary['command']} result is not finite in doubles") from exc
        self.write("summary.json", text + "\n", "json")
        print(text)


def _summary_head(command: str, params: FlowParams) -> dict:
    natural = params.hbar == 1.0 and params.mass == 1.0
    return {
        "command": command,
        "params": {
            "hbar": params.hbar,
            "mass": params.mass,
            "k": params.k,
            "delta": params.delta,
            "a": params.a,
            "b": params.b,
        },
        "units": {
            "hbar": params.hbar,
            "mass": params.mass,
            "note": "all outputs in units with the stated hbar and mass"
            + (" (natural units)" if natural else ""),
        },
    }


def _cmd_eval(s: argparse.Namespace) -> int:
    params = _flow_params(s)
    if s.at is None:
        raise InvalidParamsError("eval requires --at x,y")
    p = s.at
    z = complex(p[0], p[1])
    j = current(params, p)
    f = complex_potential(params, z)
    fp = complex_derivative(params, z)
    summary = {
        **_summary_head("eval", params),
        "point": list(p),
        "current": [float(j[0]), float(j[1])],
        "complex_potential": [f.real, f.imag],
        "complex_derivative": [fp.real, fp.imag],
        "stream_function": stream_function(params, p),
        "hamiltonian": hamiltonian(params, p),
        "velocity_potential": velocity_potential(params, p),
        "near_branch_cut": near_branch_cut(p),
    }
    _Emitter(s).finish(summary)
    return 0


def _cmd_stagnation(s: argparse.Namespace) -> int:
    params = _flow_params(s)
    sp = critical.stagnation_point(params)
    summary = {
        **_summary_head("stagnation", params),
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


def _cmd_portrait(s: argparse.Namespace) -> int:
    params = _flow_params(s)
    spec = PortraitSpec(
        bbox=s.bbox,
        grid=s.grid,
        levels=s.levels,
        n_levels=s.n_levels,
        include_separatrix=s.separatrix,
    )
    polylines = portrait(params, spec)
    em = _Emitter(s)
    counters: dict[float, int] = {}
    tables = []
    for poly in polylines:
        idx = counters.get(poly.level, 0)
        counters[poly.level] = idx + 1
        tables.append((f"level_{float(poly.level)!r}_{idx}.csv", poly.points))
    em.write_points(tables)

    sep_level = None
    saddle = vortex = None
    if params.delta > 0.0:
        vortex = (0.0, 0.0)
        if params.k > 0.0:
            sep_level = critical.separatrix_level(params)
            saddle = (0.0, params.saddle_height)
    if em.wants("svg"):
        em.write(
            "portrait.svg",
            render_portrait(polylines, spec.bbox, sep_level, saddle, vortex),
            "svg",
        )
    summary = {
        **_summary_head("portrait", params),
        "bbox": list(spec.bbox),
        "grid": list(spec.grid),
        "levels": sorted({float(p.level) for p in polylines}),
        "separatrix_level": sep_level,
        "polylines": len(polylines),
        "closed_polylines": sum(1 for p in polylines if p.closed),
    }
    em.finish(summary)
    return 0


def _cmd_separatrix(s: argparse.Namespace) -> int:
    params = _flow_params(s)
    result = dynamics.trace_separatrix(params)
    em = _Emitter(s)
    em.write_points([("separatrix_loop.csv", result.loop.points)] + [
        (f"separatrix_branch_{i}.csv", branch.points)
        for i, branch in enumerate(result.unbounded_branches)
    ])
    sep_level = critical.separatrix_level(params)
    if em.wants("svg"):
        em.write(
            "separatrix.svg",
            render_portrait(
                [result.loop, *result.unbounded_branches],
                _loop_bbox(result),
                sep_level,
                (0.0, params.saddle_height),
                (0.0, 0.0),
            ),
            "svg",
        )
    summary = {
        **_summary_head("separatrix", params),
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
    mx = 0.05 * max(xmax - xmin, ymax - ymin)
    return (float(xmin - mx), float(xmax + mx), float(ymin - mx), float(ymax + mx))


def _cmd_circulation(s: argparse.Namespace) -> int:
    params = _flow_params(s)
    result = circulation(params, s.center, s.radius, s.samples)
    expected = (
        -2.0 * math.pi * params.b
        if math.hypot(*s.center) < s.radius
        else 0.0
    )
    summary = {
        **_summary_head("circulation", params),
        "contour": result.contour,
        "circulation": result.value,
        "richardson_error_estimate": result.richardson_error_estimate,
        "closed_form_if_origin_enclosed": -2.0 * math.pi * params.b,
        "expected": expected,
    }
    _Emitter(s).finish(summary)
    return 0


def _cmd_trajectory(s: argparse.Namespace) -> int:
    params = _flow_params(s)
    if s.start is None:
        raise InvalidParamsError("trajectory requires --start x,y")
    cfg = dynamics.IntegratorConfig(
        rel_tol=s.rtol, abs_tol=s.atol, max_time=s.tmax
    )
    traj = dynamics.integrate(
        params, s.start, cfg, detect_closure=s.detect_closure
    )
    em = _Emitter(s)
    em.write_csv(
        "trajectory.csv",
        "t,x,y,h",
        np.column_stack([traj.times, traj.points, traj.h_values]),
    )
    summary = {
        **_summary_head("trajectory", params),
        "start": list(s.start),
        "status": traj.status.value,
        "samples": len(traj),
        "elapsed_time": float(traj.times[-1]),
        "final_point": traj.points[-1].tolist(),
        "max_h_drift": traj.max_h_drift,
    }
    if s.detect_closure:
        summary["return_distance"] = float(np.hypot(*(traj.points[-1] - traj.points[0])))
    if traj.status is dynamics.TrajectoryStatus.CLOSED_ORBIT_DETECTED:
        summary["period"] = float(traj.times[-1])
    em.finish(summary)
    return 4 if traj.status is dynamics.TrajectoryStatus.STEP_FAILURE else 0


def _cmd_verify(s: argparse.Namespace) -> int:
    params = _flow_params(s)
    reports = verify_mod.run_suite(params, seed=s.seed)
    text = verify_mod.format_report(reports)
    print(text)
    em = _Emitter(s)
    em.write("verify_report.txt", text + "\n", None)
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
    em.write("verify_report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n", "json")
    return 0 if verify_mod.suite_passed(reports) else 1


def _cmd_sweep(s: argparse.Namespace) -> int:
    if s.deltas is None:
        raise InvalidParamsError("sweep requires --deltas d1,d2,...")
    rows = []
    for delta in s.deltas:
        params = _flow_params(s, delta)
        result = dynamics.trace_separatrix(params)
        circ = circulation(params, (0.0, 0.0), s.radius, s.samples)
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
    em.write_csv("sweep.csv", ",".join(rows[0]), [list(r.values()) for r in rows])
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
    "eval": (_cmd_eval, "evaluate fields at a point"),
    "portrait": (_cmd_portrait, "extract a phase portrait"),
    "stagnation": (_cmd_stagnation, "report the stagnation point"),
    "separatrix": (_cmd_separatrix, "sample the separatrix"),
    "circulation": (_cmd_circulation, "circle quadrature of the circulation"),
    "trajectory": (_cmd_trajectory, "integrate one trajectory"),
    "verify": (_cmd_verify, "run the identity verification suite"),
    "sweep": (_cmd_sweep, "separatrix metrics over a delta list"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abflow",
        description="Flow of the probability current around a magnetic string.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        # no abbreviations, or argparse would read --delta as --deltas; an
        # absent flag leaves no attribute, so config and defaults show through
        p = sub.add_parser(command, help=help_text, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config")
        for name, (parse, _, commands) in _SETTINGS.items():
            if command not in commands:
                continue
            if parse is _bool:
                p.add_argument(_flag(name), action=argparse.BooleanOptionalAction)
            else:
                p.add_argument(_flag(name), type=parse)
    return parser


def _fold_signed_values(argv: list[str]) -> list[str]:
    # a value may start with a minus sign (--bbox -4,4,-3,3); fold it into
    # --flag=value so argparse does not mistake the value for an option
    valued = {_flag(name) for name, row in _SETTINGS.items() if row[0] is not _bool}
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in valued and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_fold_signed_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](_settings(args))
    except (SingularPointError, InvalidStartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidParamsError, InvalidContourError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
