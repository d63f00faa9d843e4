"""Command-line frontend.

Subcommands: eval, portrait, stagnation, separatrix, circulation, trajectory,
verify, sweep.  A summary document is printed to stdout as JSON (the verify
report is a fixed-width text document); CSV/SVG artifacts go to --out.  The
JSON is the text of json.dumps(v, sort_keys=True, indent=2), written by
``_json`` from C-level pieces.

Every setting is one row of ``_SETTINGS``: its value parser, its default
(... if required) and the commands that read it.  The rows give each
command's flags (booleans also take a ``--no-`` form; no flag may be
abbreviated), and ``_settings`` reads argv, then each ``name = value`` line
of a ``--config`` file, through them: name is a flag's in ``_`` or ``-``,
not config nor a ``--no-`` form.  Anything else, a required setting left
unset, or --delta with --flux is a usage error, printed as ``error: ...``
on stderr like every other; -h or --help prints the usage.  Exit codes: 0
ok, 1 verification failure, 2 usage, 3 singular input, 4 numerical failure.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

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

_ascii = json.encoder.encode_basestring_ascii


def _json(v, allow_nan: bool = False, pad: str = "\n") -> str:
    """json.dumps(v, sort_keys=True, indent=2, allow_nan=allow_nan), the
    same bytes, from C-level pieces (json takes its pure-Python encoder
    whenever indent is set).  pad is the newline and indent of v's line.
    A dict with str keys, list, tuple, str, int, finite float, bool or None
    is written here; anything else, a NaN or an infinity too, is left to
    json.dumps and re-indented to pad."""
    kind = type(v)
    if kind is float and v - v == 0.0 or kind is int:
        return repr(v)
    if kind is str:
        return _ascii(v)
    if kind is bool or v is None:
        return "true" if v is True else "false" if v is False else "null"
    inner = pad + "  "
    if kind is list or kind is tuple:
        items = [_json(x, allow_nan, inner) for x in v]
    elif kind is dict and all(type(k) is str for k in v):
        items = [f"{_ascii(k)}: {_json(x, allow_nan, inner)}" for k, x in sorted(v.items())]
    else:
        return json.dumps(v, sort_keys=True, indent=2, allow_nan=allow_nan).replace("\n", pad)
    if not items:
        return "{}" if kind is dict else "[]"
    body = inner + ("," + inner).join(items) + pad
    return "{" + body + "}" if kind is dict else "[" + body + "]"


def _numbers(text: str, count: int | None = None) -> tuple[float, ...]:
    values = tuple(map(float, text.split(",")))
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {text!r}")
    return values


def _grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"expected NxM got {text!r}")
    return int(parts[0]), int(parts[1])


def _bool(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
    return word in ("1", "true", "yes", "on")


def _format(text: str) -> str:
    if text not in ("csv", "json", "svg", "all"):
        raise ValueError(f"expected csv, json, svg or all, got {text!r}")
    return text


_ALL = frozenset(
    ("eval", "portrait", "stagnation", "separatrix", "circulation", "trajectory", "verify", "sweep")
)
# sweep takes each flow's delta from --deltas
_FLOWS = _ALL - {"sweep"}

# name: (value parser for the flag and the config line, default, or ... where
# the command requires the setting, commands)
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
    "at": (functools.partial(_numbers, count=2), ..., {"eval"}),
    "bbox": (functools.partial(_numbers, count=4), (-4.0, 4.0, -3.0, 3.0), {"portrait"}),
    "grid": (_grid, (400, 300), {"portrait"}),
    "levels": (_numbers, None, {"portrait"}),
    "n_levels": (int, 15, {"portrait"}),
    "separatrix": (_bool, True, {"portrait"}),
    "center": (functools.partial(_numbers, count=2), (0.0, 0.0), {"circulation"}),
    "radius": (float, 1.0, {"circulation", "sweep"}),
    "samples": (int, 512, {"circulation", "sweep"}),
    "start": (functools.partial(_numbers, count=2), ..., {"trajectory"}),
    "tmax": (float, 100.0, {"trajectory"}),
    "detect_closure": (_bool, False, {"trajectory"}),
    "deltas": (_numbers, ..., {"sweep"}),
}


@functools.cache
def _flags(command: str) -> tuple[dict, dict]:
    # flag: (setting, value parser, the value text a boolean's flag implies)
    flags, defaults = {"--config": ("config", str, None)}, {}
    for name, (parse, default, commands) in _SETTINGS.items():
        if command in commands:
            defaults[name] = default
            flag = "--" + name.replace("_", "-")
            flags[flag] = (name, parse, "1" if parse is _bool else None)
            if parse is _bool:
                flags["--no-" + flag[2:]] = (name, parse, "0")
    return flags, defaults


def _settings(argv: list[str]) -> SimpleNamespace | None:
    """The command argv[0] names and its settings: flags > config file >
    defaults.  A flag is --name VALUE or --name=VALUE (a value may start
    with a minus sign), a boolean's --name or --no-name; the last of a
    repeated flag wins.  -h or --help prints the usage and gives None;
    whatever else the module docstring refuses is an InvalidParamsError."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print("usage: abflow COMMAND [--FLAG VALUE ...]\ncommands:")
        print("\n".join(f"  {name:12} {help_text}" for name, (_, help_text) in _COMMANDS.items()))
        return None
    if command not in _COMMANDS:
        raise InvalidParamsError(f"expected a command ({', '.join(_COMMANDS)}), got {command!r}")
    flags, defaults = _flags(command)

    def take(into: dict, where: str, name: str, parse, text: str) -> None:
        try:
            into[name] = parse(text)
        except ValueError as exc:
            raise InvalidParamsError(f"bad {where} value {text!r}: {exc}") from exc
    given, config, args = {}, {}, iter(argv[1:])
    for token in args:
        if token in ("-h", "--help"):
            print(" ".join(["usage: abflow", command, *(
                f"{flag} VALUE" if defaults.get(name) is ... else f"[{flag}]" if implied
                else f"[{flag} VALUE]" for flag, (name, _, implied) in flags.items())]))
            return None
        flag, eq, text = token.partition("=")
        name, parse, implied = flags.get(flag, (None, None, None))
        if parse is None or implied and eq:
            shown = " ".join([token, *itertools.islice(args, 1)])
            raise InvalidParamsError(f"unrecognized arguments: {shown}")
        if not eq:
            text = implied or next(args, None)
            if text is None:
                raise InvalidParamsError(f"{flag} expects a value")
        take(given, flag, name, parse, text)
    if "config" in given:
        path = given.pop("config")
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidParamsError(f"cannot read config file {path!r}: {exc}") from exc
        for raw in text.splitlines():
            key, eq, value = raw.split("#", 1)[0].partition("=")
            name, parse, implied = flags.get("--" + key.strip().replace("_", "-"), (None,) * 3)
            if eq and name not in (None, "config") and implied != "0":
                take(config, f"config line {raw!r}", name, parse, value.strip())
            elif eq or key.strip():
                raise InvalidParamsError(f"bad config line {raw!r}: expected SETTING = VALUE")
    if {"delta", "flux"} <= given.keys() | config.keys():
        raise InvalidParamsError(f"{command} takes --delta or --flux, not both")
    values = {**defaults, **config, **given}
    for name, value in values.items():
        if value is ...:
            raise InvalidParamsError(f"{command} requires --{name.replace('_', '-')}")
    return SimpleNamespace(**values, command=command)


def _flow_params(s: SimpleNamespace, delta: float | None = None) -> FlowParams:
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


def _print(text: str) -> None:
    """Print text on stdout.  A reader that has gone away (a closed pipe)
    is no error: stdout is pointed at the null device, so that the
    interpreter's last flush stays quiet too."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class _Emitter:
    """The artifacts of one command: each wanted one is kept, in the order
    written, and `save` writes them under --out once the command has its
    results, so that a command that fails writes nothing.  The summary
    lists every file written."""

    def __init__(self, s: SimpleNamespace):
        self.fmt = s.format
        self.out = Path(s.out) if s.out else None
        self.texts: dict[str, str] = {}

    def wants(self, kind: str | None) -> bool:
        """Whether an artifact of kind (csv, json or svg; None for every
        format) will be written: --out is set and --format asks for it."""
        return self.out is not None and (kind is None or self.fmt in (kind, "all"))

    def write(self, name: str, text: str, kind: str | None) -> None:
        """Keep text as out/name if an artifact of kind is wanted."""
        if self.wants(kind):
            self.texts[name] = text

    def save(self) -> None:
        """Write the kept texts, in order, making the directory first.  A
        directory or file that cannot be made is a usage error naming the
        path."""
        path = self.out
        try:
            if self.texts:
                os.makedirs(path, exist_ok=True)
            for name, text in self.texts.items():
                path = self.out / name
                path.write_text(text)
        except OSError as exc:
            raise InvalidParamsError(f"cannot write {str(path)!r}: {exc}") from exc

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
            # hold one table's row strings at a time, then only its text
            start, end = end, end + len(points)
            rows = ["-" + texts[i] if m else texts[i]
                    for i, m in zip(row_of[start:end], minus[start:end])]
            self.write(name, "x,y\n" + "".join(rows), "csv")

    def write_svg(self, name: str, curves, bbox, markers) -> None:
        """Render and write the curves with their markers if an SVG is
        wanted; a bbox of None fits the curves."""
        if self.wants("svg"):
            self.write(name, render_portrait(curves, bbox or _bbox_of(curves), *markers), "svg")

    def finish(self, summary: dict) -> None:
        """Write the kept artifacts and the JSON summary, if wanted, then
        print the summary; a summary that holds NaN or an infinity is a
        NumericalError, and then nothing is written or printed."""
        summary["files"] = sorted(self.texts)
        try:
            text = _json(summary)
        except ValueError as exc:
            raise NumericalError(f"a {summary['command']} result is not finite in doubles") from exc
        self.write("summary.json", text + "\n", "json")
        self.save()
        _print(text)


def _summary_head(command: str, params: FlowParams) -> dict:
    natural = params.hbar == 1.0 and params.mass == 1.0
    return {
        "command": command,
        "params": {name: getattr(params, name)
                   for name in ("hbar", "mass", "k", "delta", "a", "b")},
        "units": {
            "hbar": params.hbar,
            "mass": params.mass,
            "note": "all outputs in units with the stated hbar and mass"
            + (" (natural units)" if natural else ""),
        },
    }


def _on_one_flow(handler):
    """The command that runs handler(s, params, em) on the flow its settings
    give.  The handler returns (summary keys, exit code); the command prints
    the flow's summary head with those keys and the files written."""

    @functools.wraps(handler)
    def run(s: SimpleNamespace) -> int:
        params = _flow_params(s)
        em = _Emitter(s)
        keys, code = handler(s, params, em)
        em.finish({**_summary_head(s.command, params), **keys})
        return code

    return run


def _markers(params: FlowParams) -> tuple:
    """The separatrix level, saddle and vortex that render_portrait marks,
    each None where the flow has none."""
    if params.delta == 0.0:
        return None, None, None
    if params.k == 0.0:
        return None, None, (0.0, 0.0)
    return critical.separatrix_level(params), (0.0, params.saddle_height), (0.0, 0.0)


@_on_one_flow
def _cmd_eval(s: SimpleNamespace, params: FlowParams, em: _Emitter) -> tuple[dict, int]:
    p = s.at
    z = complex(p[0], p[1])
    j = current(params, p)
    f = complex_potential(params, z)
    fp = complex_derivative(params, z)
    return {
        "point": list(p),
        "current": [float(j[0]), float(j[1])],
        "complex_potential": [f.real, f.imag],
        "complex_derivative": [fp.real, fp.imag],
        "stream_function": stream_function(params, p),
        "hamiltonian": hamiltonian(params, p),
        "velocity_potential": velocity_potential(params, p),
        "near_branch_cut": near_branch_cut(p),
    }, 0


@_on_one_flow
def _cmd_stagnation(s: SimpleNamespace, params: FlowParams, em: _Emitter) -> tuple[dict, int]:
    sp = critical.stagnation_point(params)
    if sp is None:
        return {"stagnation_point": None}, 0
    return {"stagnation_point": {
        "location": sp.location.tolist(),
        "eigenvalues": list(sp.eigenvalues),
        "eigenvectors": [v.tolist() for v in sp.eigenvectors],
        "level": sp.level,
    }}, 0


@_on_one_flow
def _cmd_portrait(s: SimpleNamespace, params: FlowParams, em: _Emitter) -> tuple[dict, int]:
    spec = PortraitSpec(
        bbox=s.bbox,
        grid=s.grid,
        levels=s.levels,
        n_levels=s.n_levels,
        include_separatrix=s.separatrix,
    )
    polylines = portrait(params, spec)
    tables = [(f"level_{float(poly.level)!r}_{i}.csv", poly.points)  # levels ascending
              for _, run in itertools.groupby(polylines, key=lambda p: p.level)
              for i, poly in enumerate(run)]
    em.write_points(tables)
    markers = _markers(params)
    em.write_svg("portrait.svg", polylines, spec.bbox, markers)
    return {
        "bbox": list(spec.bbox),
        "grid": list(spec.grid),
        "levels": sorted({float(p.level) for p in polylines}),
        "separatrix_level": markers[0],
        "polylines": len(polylines),
        "closed_polylines": sum(1 for p in polylines if p.closed),
    }, 0


@_on_one_flow
def _cmd_separatrix(s: SimpleNamespace, params: FlowParams, em: _Emitter) -> tuple[dict, int]:
    result = dynamics.trace_separatrix(params)
    em.write_points([("separatrix_loop.csv", result.loop.points)] + [
        (f"separatrix_branch_{i}.csv", branch.points)
        for i, branch in enumerate(result.unbounded_branches)
    ])
    markers = _markers(params)
    em.write_svg("separatrix.svg", [result.loop, *result.unbounded_branches], None, markers)
    return {
        "separatrix_level": markers[0],
        "loop_points": len(result.loop.points),
        "loop_area": result.loop_area,
        "loop_max_radius": result.loop_max_radius,
        "lower_axis_crossing": result.lower_axis_crossing,
        "unbounded_branches": len(result.unbounded_branches),
    }, 0


def _bbox_of(curves) -> tuple[float, float, float, float]:
    """The curves' bounding box with 5% margins."""
    pts = np.vstack([c.points for c in curves])
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    mx = 0.05 * max(xmax - xmin, ymax - ymin)
    return (float(xmin - mx), float(xmax + mx), float(ymin - mx), float(ymax + mx))


@_on_one_flow
def _cmd_circulation(s: SimpleNamespace, params: FlowParams, em: _Emitter) -> tuple[dict, int]:
    result = circulation(params, s.center, s.radius, s.samples)
    closed_form = -2.0 * math.pi * params.b
    return {
        "contour": result.contour,
        "circulation": result.value,
        "richardson_error_estimate": result.richardson_error_estimate,
        "closed_form_if_origin_enclosed": closed_form,
        "expected": closed_form if math.hypot(*s.center) < s.radius else 0.0,
    }, 0


@_on_one_flow
def _cmd_trajectory(s: SimpleNamespace, params: FlowParams, em: _Emitter) -> tuple[dict, int]:
    traj = dynamics.integrate(params, s.start, max_time=s.tmax, detect_closure=s.detect_closure)
    em.write_csv(
        "trajectory.csv",
        "t,x,y,h",
        np.column_stack([traj.times, traj.points, traj.h_values]),
    )
    keys = {
        "start": list(s.start),
        "status": traj.status.value,
        "samples": len(traj),
        "elapsed_time": float(traj.times[-1]),
        "final_point": traj.points[-1].tolist(),
        "max_h_drift": traj.max_h_drift,
    }
    if traj.status is dynamics.TrajectoryStatus.CLOSED_ORBIT_DETECTED:
        keys["period"] = float(traj.times[-1])
    return keys, 0


def _cmd_verify(s: SimpleNamespace) -> int:
    params = _flow_params(s)
    reports = verify_mod.run_suite(params, seed=s.seed)
    text = verify_mod.format_report(reports)
    _print(text)
    em = _Emitter(s)
    em.write("verify_report.txt", text + "\n", None)
    if em.wants("json"):
        payload = [  # each report's fields, NaN as null
            {k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in dataclasses.asdict(rep).items()}
            for rep in reports
        ]
        em.write("verify_report.json", _json(payload, allow_nan=True) + "\n", "json")
    em.save()
    return 0 if verify_mod.suite_passed(reports) else 1


def _cmd_sweep(s: SimpleNamespace) -> int:
    rows = []
    for delta in s.deltas:
        params = _flow_params(s, delta)
        area, radius, crossing = dynamics._loop_metrics(params)
        circ = circulation(params, (0.0, 0.0), s.radius, s.samples)
        rows.append({"delta": delta, "loop_area": area, "loop_max_radius": radius,
                     "lower_axis_crossing": crossing, "circulation": circ.value})
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
    "trajectory": (_cmd_trajectory, "sample one trajectory"),
    "verify": (_cmd_verify, "run the identity verification suite"),
    "sweep": (_cmd_sweep, "separatrix metrics over a delta list"),
}


def main(argv=None) -> int:
    try:
        s = _settings(sys.argv[1:] if argv is None else list(argv))
        return 0 if s is None else _COMMANDS[s.command][0](s)
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
