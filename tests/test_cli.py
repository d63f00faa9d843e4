import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abflow import FlowParams, PortraitSpec, cli, dynamics, portrait, trace_separatrix
from abflow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def xy_csv(points) -> str:
    """The x,y CSV write_csv gives a table: one "%r,%r" row per point."""
    return "x,y\n" + "".join(",".join(["%r"] * 2) % tuple(p) + "\n" for p in points.tolist())


# the unit systems of scripts/artifact_digest.py
UNITS = [
    dict(),
    dict(hbar=2.0, mass=0.5),
    dict(hbar=0.25, mass=4.0, k=3.0),
]

# cells whose text is easy to get wrong: signed zeros, subnormals, the ends
# of the double range, infinities and NaN with either sign bit
# (repr(-nan) is "nan")
EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
              -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan,
              0.1 + 0.2, 0.5]
cell = st.one_of(st.sampled_from(EDGE_CELLS), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def point_tables(draw):
    """1-30 tables cut from rows drawn from one pool, each row with its x
    and its y as they are or negated: exact mirror pairs, rows that differ
    only in the sign of a zero or a NaN, and repeats within and across
    tables."""
    pool = draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=12))
    # each pick is a pool row, then a mask: 1 negates its x, 2 its y
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(0, 3)),
                          min_size=30, max_size=300))
    rows = [(-pool[i][0] if m & 1 else pool[i][0], -pool[i][1] if m & 2 else pool[i][1])
            for i, m in picks]
    cuts = sorted(draw(st.sets(st.integers(1, len(rows) - 1), max_size=29)))
    return [np.array(rows[a:b]) for a, b in zip([0, *cuts], [*cuts, len(rows)])]


# JSON values whose text is easy to get wrong: floats at the edges of repr
# and of JSON, ints past 64 bits with bools among them, and text with
# quotes, backslashes, control and non-ASCII characters, in nested dicts,
# lists and tuples
json_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\xe9\U0001f600'),
                              st.characters()), max_size=8)
json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf]),
    st.floats(),
    json_text,
)
json_value = st.recursive(json_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(json_text, inner, max_size=4),
), max_leaves=24)


class TestEval:
    def test_current_at_point(self, capsys):
        doc = run_json(capsys, "eval", "--k", "1", "--delta", "0.5", "--at", "1,1")
        assert doc["current"] == [-0.75, -0.25]
        assert doc["units"]["hbar"] == 1.0

    @pytest.mark.parametrize("at", ["7,3", "0,0"])  # a line flow has no core
    def test_uniform_flow(self, capsys, at):
        doc = run_json(capsys, "eval", "--k", "1", "--delta", "0", "--at", at)
        assert doc["current"] == [-1.0, 0.0]

    @pytest.mark.parametrize("at", ["0,0", "1e-170,0", "1e-160,0"])
    def test_singular_point_exit_code(self, capsys, at):
        # the origin, and points whose x*x + y*y is 0 or subnormal
        code = main(["eval", "--at", at, "--delta", "0.5"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_missing_point_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "eval")
        assert code == 2

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["eval", "--at", "banana"]) == 2
        assert main(["nonsense"]) == 2

    @pytest.mark.parametrize("argv, token", [
        ([], "command"),
        (["nonsense"], "nonsense"),
        (["eval", "--at", "1,1", "extra"], "extra"),
        (["eval", "--at"], "--at"),
        (["eval", "--at", "1,1", "--del", "0.3"], "--del"),  # no abbreviations
        (["eval", "--at", "1,1", "--no-hbar"], "--no-hbar"),  # --no- is for booleans
        (["portrait", "--separatrix=1"], "--separatrix"),  # a boolean takes no value
        (["eval", "--at", "1,2,3"], "expected 2 comma-separated numbers, got '1,2,3'"),
        (["portrait", "--grid", "400"], "expected NxM got '400'"),
        (["eval", "--at", "nan,0"], "point components must be finite"),
        # flux_to_delta checks its constants before FlowParams does
        (["eval", "--flux", "1", "--hbar", "0", "--at", "1,1"], "hbar must be positive"),
        (["eval", "--flux", "1", "--light-speed", "0", "--at", "1,1"],
         "light_speed must be positive"),
    ], ids=["no-command", "unknown-command", "positional", "missing-value", "abbreviation",
            "negated-value-flag", "valued-boolean", "point-arity", "grid-form",
            "nonfinite-point", "flux-zero-hbar", "flux-zero-light-speed"])
    def test_usage_errors_name_the_token(self, capsys, argv, token):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert token in captured.err

    def test_flag_forms(self, capsys):
        assert run_json(capsys, "eval", "--at=-1,-2")["point"] == [-1.0, -2.0]
        doc = run_json(capsys, "portrait", "--bbox=-4,4,-3,3", "--grid", "40x30")
        assert doc["bbox"] == [-4.0, 4.0, -3.0, 3.0]
        doc = run_json(capsys, "eval", "--delta", "0.1", "--at", "1,1", "--delta", "0.3")
        assert doc["params"]["delta"] == 0.3  # the last of a repeated flag wins

    def test_help_prints_usage(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert all(command in out for command in cli._ALL)
        assert main(["portrait", "--help"]) == 0
        out = capsys.readouterr().out
        for name, (_, _, commands) in cli._SETTINGS.items():
            assert ("--" + name.replace("_", "-") in out) == ("portrait" in commands), name

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--at"), ("trajectory", "--start"), ("sweep", "--deltas"),
    ])
    def test_help_shows_the_required_flag_without_brackets(self, capsys, command, flag):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert f" {flag} VALUE" in out and f"[{flag} " not in out
        assert out.count("[") == len(cli._flags(command)[0]) - 1  # every other flag is optional

    def test_flux_sets_delta(self, capsys):
        doc = run_json(capsys, "eval", "--flux", str(math.pi), "--at", "1,1")
        assert doc["params"]["delta"] == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("flags", [
        ["--flux", "nan"], ["--flux", "-inf"], ["--flux", "1e308", "--charge", "1e300"],
    ])
    def test_nonfinite_flux_or_delta_is_usage_error(self, capsys, flags):
        code = main(["eval", *flags, "--at", "1,1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "not a finite number" in captured.err

    def test_overflowing_coefficient_is_usage_error(self, capsys):
        code = main(["eval", "--hbar", "1e307", "--k", "100", "--at", "1,1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "a = hbar*k/mass is inf, outside the range" in captured.err

    def test_nonfinite_result_is_numerical_failure(self, capsys, tmp_path):
        # psi = -a*y = -1e310 overflows: no summary is printed or written
        out = tmp_path / "eval"
        code = main(["eval", "--hbar", "1e300", "--at", "0,1e10", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("error:")
        assert not (out / "summary.json").exists()

    def test_relaxed_delta_flag(self, capsys):
        code, _ = run_cli(capsys, "eval", "--delta", "0.8", "--at", "1,1")
        assert code == 2
        doc = run_json(capsys, "eval", "--delta", "0.8", "--allow-any-delta",
                       "--at", "1,1")
        assert doc["params"]["delta"] == 0.8


def value_texts(parse) -> tuple[str, str]:
    """Two value texts that a setting's parser reads as different values."""
    if isinstance(parse, functools.partial):  # a fixed count of numbers
        count = parse.keywords["count"]
        return ",".join(["0.25"] * count), ",".join(["-1.5"] * count)
    return {float: ("0.25", "0.125"), int: ("7", "9"), str: ("here", "there"),
            cli._bool: ("0", "1"), cli._format: ("svg", "json"), cli._grid: ("40x30", "20x10"),
            cli._numbers: ("0.5,0.25", "0.125")}[parse]


def as_flag(name: str, parse, text: str) -> list[str]:
    """The flags that set name to what text reads as."""
    flag = "--" + name.replace("_", "-")
    if parse is cli._bool:
        return [flag] if cli._bool(text) else ["--no-" + flag[2:]]
    return [flag, text]


class TestConfigPrecedence:
    @pytest.mark.parametrize("command", sorted(cli._ALL))
    def test_every_setting_reads_the_same_from_flag_and_config(self, tmp_path, command):
        settings = {name: parse for name, (parse, _, commands) in cli._SETTINGS.items()
                    if command in commands}
        required = [name for name, (_, default, commands) in cli._SETTINGS.items()
                    if command in commands and default is ...]
        cfg = tmp_path / "flow.cfg"
        for i, (name, parse) in enumerate(settings.items()):
            base = [command, *(arg for other in required if other != name
                               for arg in as_flag(other, settings[other],
                                                  value_texts(settings[other])[0]))]
            mine, theirs = value_texts(parse)
            key = name if i % 2 else name.replace("_", "-")  # either spelling
            by_flag = vars(cli._settings([*base, *as_flag(name, parse, mine)]))
            cfg.write_text(f"{key} = {mine}\n")
            assert vars(cli._settings([*base, "--config", str(cfg)])) == by_flag, name
            assert by_flag[name] == parse(mine) != parse(theirs)
            cfg.write_text(f"{key} = {theirs}\n")
            both = cli._settings([*base, "--config", str(cfg), *as_flag(name, parse, mine)])
            assert vars(both) == by_flag, name  # the flag wins

    @pytest.mark.parametrize("argv, line", [
        (["portrait"], "no_separatrix = 1"),
        (["trajectory", "--start", "0,0.25"], "no-detect-closure = 1"),
        (["eval", "--at", "1,1"], "config = other.cfg"),
    ])
    def test_negated_forms_and_config_are_not_config_keys(self, capsys, tmp_path, argv, line):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text(line + "\n")
        code = main([*argv, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert line in captured.err

    def test_config_gives_a_required_setting(self, capsys, tmp_path):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("at = 1,1\n")
        assert run_json(capsys, "eval", "--config", str(cfg))["point"] == [1.0, 1.0]

    @pytest.mark.parametrize("argv, flag", [
        (["eval"], "--at"), (["trajectory"], "--start"), (["sweep"], "--deltas"),
    ])
    def test_missing_required_setting_names_its_flag(self, capsys, tmp_path, argv, flag):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("hbar = 2\n")
        for extra in ([], ["--config", str(cfg)]):
            code = main([*argv, *extra])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: {argv[0]} requires {flag}\n"

    @pytest.mark.parametrize("flags, lines", [
        (["--delta", "0.3", "--flux", "3.141592653589793"], ""),
        (["--flux", "3.141592653589793"], "delta = 0.3\n"),
        (["--delta", "0.3"], "flux = 3.141592653589793\n"),
        ([], "delta = 0.3\nflux = 3.141592653589793\n"),
    ], ids=["flags", "delta-in-config", "flux-in-config", "config"])
    def test_delta_with_flux_is_usage_error(self, capsys, tmp_path, flags, lines):
        # flux would set delta; given both, neither is dropped silently
        cfg = tmp_path / "flow.cfg"
        cfg.write_text(lines)
        code = main(["eval", "--at", "1,1", *flags, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--delta" in captured.err and "--flux" in captured.err

    def test_flags_alone_read_no_file(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a file was read")

        monkeypatch.setattr(cli.Path, "read_text", refuse)
        s = cli._settings(["portrait", "--delta", "0.3", "--bbox", "-4,4,-3,3",
                           "--grid", "120x90", "--n-levels", "12", "--out", "figs"])
        assert (s.delta, s.bbox, s.grid, s.n_levels) == (0.3, (-4.0, 4.0, -3.0, 3.0), (120, 90), 12)

    def test_config_then_flag(self, capsys, tmp_path):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("delta = 0.25\nk = 2.0  # comment\n")
        doc = run_json(capsys, "eval", "--config", str(cfg), "--at", "1,1")
        assert doc["params"]["delta"] == 0.25
        assert doc["params"]["k"] == 2.0
        doc = run_json(capsys, "eval", "--config", str(cfg), "--delta", "0.1",
                       "--at", "1,1")
        assert doc["params"]["delta"] == 0.1  # flag wins
        assert doc["params"]["k"] == 2.0

    def test_missing_config_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "eval", "--config", "/nonexistent.cfg", "--at", "1,1")
        assert code == 2

    @pytest.mark.parametrize("content", [None, b"k = 2  # \xe9t\xe9 in Latin-1\n"],
                             ids=["directory", "not-utf8"])
    def test_unreadable_config_is_usage_error(self, capsys, tmp_path, content):
        cfg = tmp_path
        if content is not None:
            cfg = tmp_path / "flow.cfg"
            cfg.write_bytes(content)
        code = main(["eval", "--at", "1,1", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert str(cfg) in captured.err

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("detla = 0.3\n")
        code = main(["eval", "--config", str(cfg), "--at", "1,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "detla" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, line", [
        (["portrait"], "rtol = 1e-3"),
        (["portrait"], "deltas = 0.5"),
        (["eval", "--at", "1,1"], "seed = 3"),
        (["circulation"], "start = 1,1"),
        (["eval", "--at", "1,1"], "format = pdf"),
        (["portrait"], "separatrix = ture"),
    ])
    def test_config_line_the_command_cannot_take_is_usage_error(
        self, capsys, tmp_path, argv, line
    ):
        # a setting the command does not read, or a value its setting rejects
        cfg = tmp_path / "flow.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert line.split()[0] in captured.err
        assert not out.exists()

    def test_negated_flag_overrides_config_boolean(self, capsys, tmp_path):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("detect_closure = true\n")
        argv = ["trajectory", "--start", "0,0.25", "--tmax", "2", "--config", str(cfg)]
        assert run_json(capsys, *argv)["status"] == "closed_orbit_detected"
        assert run_json(capsys, *argv, "--no-detect-closure")["status"] == "completed"


class TestPortrait:
    def test_levels_where_psi_overflows_are_quiet(self, capsys):
        # psi overflows on most of this bbox's nodes: the automatic levels
        # come from the finite ones, without a warning
        code = main(["portrait", "--hbar", "1e300", "--bbox", "-1e10,1e10,-1e10,1e10",
                     "--grid", "20x20"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""

    def test_uniform_topology_and_files(self, capsys, tmp_path):
        out = tmp_path / "fig1"
        doc = run_json(
            capsys, "portrait", "--delta", "0", "--bbox", "-4,4,-3,3",
            "--grid", "200x150", "--out", str(out), "--format", "all",
        )
        assert doc["closed_polylines"] == 0
        for name in doc["files"]:
            assert (out / name).exists()
        csvs = [f for f in doc["files"] if f.endswith(".csv")]
        assert csvs
        rows = np.loadtxt(out / csvs[0], delimiter=",", skiprows=1)
        assert np.ptp(rows[:, 1]) <= 1e-9  # constant y

    def test_vortex_topology(self, capsys, tmp_path):
        out = tmp_path / "fig4"
        doc = run_json(
            capsys, "portrait", "--delta", "0.5", "--separatrix",
            "--grid", "200x150", "--out", str(out), "--format", "all",
        )
        assert doc["closed_polylines"] >= 1
        assert doc["separatrix_level"] == pytest.approx(0.5 * (math.log(0.5) - 1))
        assert doc["separatrix_level"] in doc["levels"]
        svg = (out / "portrait.svg").read_text()
        assert 'class="sep"' in svg  # dashed separatrix
        assert 'class="saddle"' in svg
        assert 'class="vortex"' in svg

    @pytest.mark.parametrize("hbar", ["1", "1e-12", "1e6"])
    def test_separatrix_dashed_in_any_units(self, capsys, tmp_path, hbar):
        # the homoclinic loop and its two arms, and no other level
        out = tmp_path / "fig"
        run_json(capsys, "portrait", "--hbar", hbar, "--grid", "200x150",
                 "--out", str(out), "--format", "svg")
        assert (out / "portrait.svg").read_text().count('class="sep"') == 3

    @pytest.mark.parametrize("bbox", ["-inf,4,-3,3", "0,1e308,-1e308,1e308", "0,1e200,0,1e200"])
    def test_bbox_where_x2_plus_y2_overflows_is_usage_error(self, capsys, tmp_path, bbox):
        out = tmp_path / "p"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout = run_cli(capsys, "portrait", f"--bbox={bbox}",
                                   "--out", str(out), "--format", "all")
        assert code == 2 and stdout == "" and not out.exists()

    def test_explicit_levels(self, capsys):
        doc = run_json(capsys, "portrait", "--levels", "-0.8465735902799727",
                       "--no-separatrix", "--grid", "150x120")
        assert doc["levels"] == [-0.8465735902799727]


class TestSubcommands:
    def test_circulation(self, capsys):
        doc = run_json(capsys, "circulation", "--delta", "0.5", "--radius", "1",
                       "--samples", "512")
        assert doc["circulation"] == pytest.approx(-math.pi, rel=1e-12)

    def test_stagnation(self, capsys):
        doc = run_json(capsys, "stagnation")
        assert doc["stagnation_point"]["location"] == [0.0, 0.5]
        doc = run_json(capsys, "stagnation", "--delta", "0")
        assert doc["stagnation_point"] is None

    def test_stagnation_rate_below_the_double_range(self, capsys):
        # a = 1e-250 and l = 5e99: tau = l/a and the rates 1/tau are no double
        code = main(["stagnation", "--hbar", "1e-150", "--k", "1e-100"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "tau = l/a is inf, outside the range" in captured.err

    def test_separatrix(self, capsys, tmp_path):
        out = tmp_path / "sep"
        doc = run_json(capsys, "separatrix", "--out", str(out), "--format", "csv")
        assert doc["loop_max_radius"] == pytest.approx(0.5, abs=1e-3)
        assert doc["lower_axis_crossing"] == pytest.approx(-0.139232, abs=1e-4)
        assert (out / "separatrix_loop.csv").exists()

    def test_trajectory(self, capsys, tmp_path):
        out = tmp_path / "traj"
        doc = run_json(capsys, "trajectory", "--start", "0,0.25",
                       "--detect-closure", "--out", str(out))
        assert doc["status"] == "closed_orbit_detected"
        assert doc["period"] > 0
        assert doc["max_h_drift"] <= 1e-15  # roundoff: the orbit is held on its level
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows.shape[1] == 4
        # a closed level's last vertex is its start
        assert rows[-1, 1:3].tolist() == rows[0, 1:3].tolist() == doc["final_point"]

    def test_trajectory_prints_and_writes_its_summary(self, capsys, tmp_path):
        out = tmp_path / "traj"
        code, stdout = run_cli(capsys, "trajectory", "--start", "0,0.25", "--hbar", "2",
                               "--out", str(out), "--format", "all")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["command"] == "trajectory" and doc["status"] == "completed"
        assert doc["params"]["hbar"] == 2.0 and doc["units"]["hbar"] == 2.0
        assert doc["files"] == ["trajectory.csv"]
        assert json.loads((out / "summary.json").read_text()) == doc

    def test_largest_start_with_a_finite_square_runs(self, capsys, tmp_path):
        # l = delta/k = 1/6 is no power of two, so l*(y/l) would round one
        # ulp past the start, where x*x + y*y overflows; the samples are
        # mapped back relative to the start, which is the first of them
        out = tmp_path / "traj"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["trajectory", "--hbar", "0.25", "--mass", "4", "--k", "3",
                         "--start", "0,1.3407807929942596e154", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        doc = json.loads(captured.out)
        assert doc["status"] == "completed" and math.isfinite(doc["max_h_drift"])
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.isfinite(rows).all()
        assert rows[0, 1:3].tolist() == [0.0, 1.3407807929942596e154]

    @pytest.mark.parametrize("existed", [False, True])
    def test_nonfinite_trajectory_leaves_no_artifacts(self, capsys, tmp_path, monkeypatch,
                                                      existed):
        # the summary is not finite, and the CSV written before it is
        # removed, with the --out directories the command made; one that
        # was there before stays, with what it held.  Two real inputs run
        # to where x*x + y*y or psi overflows, which warns nowhere; a
        # stand-in gives a third a drift that is not finite
        integrate = dynamics.integrate

        def overflowing(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            return dataclasses.replace(traj, max_h_drift=math.inf)

        for i, (argv, integrator) in enumerate([
            (["--hbar", "0.25", "--mass", "4", "--k", "3",
              "--start", "0,1.3407807929942596e154", "--tmax", "1e308"], integrate),
            (["--hbar", "1e300", "--start", "0,1e10"], integrate),
            (["--start", "0,0.25"], overflowing),
        ]):
            monkeypatch.setattr(dynamics, "integrate", integrator)
            root = tmp_path / str(i)
            out = root / "runs" / "traj"
            root.mkdir()
            if existed:
                out.mkdir(parents=True)
                (out / "notes.txt").write_text("kept\n")
            code = main(["trajectory", *argv, "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 4 and captured.out == "", argv
            assert captured.err == "error: a trajectory result is not finite in doubles\n"
            assert not (out / "trajectory.csv").exists()
            if existed:
                assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
            else:
                assert list(root.iterdir()) == []

    def test_nonfinite_trajectory_keeps_a_previous_run(self, capsys, tmp_path, monkeypatch):
        # a run that exits 4 writes nothing: the files of the run before it
        # in the same --out directory stay, byte for byte
        integrate = dynamics.integrate

        def overflowing(*args, **kwargs):
            return dataclasses.replace(integrate(*args, **kwargs), max_h_drift=math.inf)

        for i, (argv, integrator) in enumerate([
            (["--hbar", "0.25", "--mass", "4", "--k", "3",
              "--start", "0,1.3407807929942596e154", "--tmax", "1e308"], integrate),
            (["--hbar", "1e300", "--start", "0,1e10"], integrate),
            (["--start", "0,0.25"], overflowing),
        ]):
            out = tmp_path / str(i)
            monkeypatch.setattr(dynamics, "integrate", integrate)
            assert main(["trajectory", "--start", "0,0.25", "--out", str(out),
                         "--format", "all"]) == 0
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            assert sorted(before) == ["summary.json", "trajectory.csv"]
            capsys.readouterr()
            monkeypatch.setattr(dynamics, "integrate", integrator)
            code = main(["trajectory", *argv, "--out", str(out), "--format", "all"])
            captured = capsys.readouterr()
            assert code == 4 and captured.out == "", argv
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before, argv

    def test_trajectory_past_the_sample_cap_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamics, "SAMPLES_MAX", 100)
        out = tmp_path / "traj"
        code = main(["trajectory", "--start", "0,0.25", "--out", str(out), "--format", "all"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "SAMPLES_MAX = 100 samples" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("start", ["0,3", "0,0.25"])
    def test_trajectory_reports_no_return_distance(self, capsys, start):
        # final_point - start is the miss; a closed orbit's is 0 by construction
        argv = ["trajectory", "--start", start, "--tmax", "1"]
        for closure in ([], ["--detect-closure"]):
            doc = run_json(capsys, *argv, *closure)
            assert "return_distance" not in doc
            assert ("period" in doc) == (doc["status"] == "closed_orbit_detected")

    @pytest.mark.parametrize("tmax", ["0", "-1", "inf", "nan"])
    def test_trajectory_tmax_not_finite_and_positive_is_usage_error(self, capsys, tmax):
        code = main(["trajectory", "--start", "0,0.25", "--tmax", tmax])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "max_time must be positive" in captured.err

    def test_trajectory_on_zero_field(self, capsys):
        doc = run_json(capsys, "trajectory", "--k", "0", "--delta", "0", "--start", "0,1",
                       "--tmax", "1e4")
        assert doc["samples"] == 2 and doc["status"] == "completed"

    @pytest.mark.parametrize("flags, closed_form", [
        (["--delta", "0"], 0.0),
        (["--k", "0"], -math.pi),
        ([], -math.pi),
    ])
    def test_circulation_on_small_circles(self, capsys, flags, closed_form):
        # a circle of radius 1e-7 around the vortex (or around nothing, with
        # delta = 0) touches no vortex; the trapezoid sum is exact there
        doc = run_json(capsys, "circulation", "--radius", "1e-7", *flags)
        assert doc["circulation"] == pytest.approx(closed_form, rel=1e-12, abs=1e-300)

    def test_circulation_near_the_top_of_the_double_range(self, capsys):
        # a rotation's b = 1.5e305 is in the range, the regular flow's a = 1e307 is not
        doc = run_json(capsys, "circulation", "--hbar", "3e305", "--k", "0")
        assert doc["circulation"] == pytest.approx(-math.pi * 3e305, rel=1e-12)
        assert math.isfinite(doc["richardson_error_estimate"])
        code = main(["circulation", "--hbar", "1e307"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "a = hbar*k/mass is 1e+307, outside the range" in captured.err

    def test_circulation_through_the_vortex_is_refused(self, capsys):
        code, _ = run_cli(capsys, "circulation", "--center", "1,0", "--radius", "1")
        assert code == 2

    @pytest.mark.parametrize("l", [1e-12, 1e6])
    def test_separatrix_svg_margin_is_five_percent(self, capsys, tmp_path, l):
        # the arms span 20*l in x, the widest extent: with 5% margins the
        # drawing spans 800*[0.05, 1.05]/1.1 pixels of the 800 wide image
        out = tmp_path / "sep"
        run_json(capsys, "separatrix", "--delta", repr(0.5 * l), "--k", "0.5",
                 "--allow-any-delta", "--out", str(out), "--format", "svg")
        svg = (out / "separatrix.svg").read_text()
        xs = [float(pair.split(",")[0]) for points in re.findall(r'points="([^"]*)"', svg)
              for pair in points.split()]
        assert min(xs) == pytest.approx(800 * 0.05 / 1.1, abs=2e-3)
        assert max(xs) == pytest.approx(800 * 1.05 / 1.1, abs=2e-3)

    def test_trajectory_singular_start(self, capsys):
        code, _ = run_cli(capsys, "trajectory", "--start", "0,0")
        assert code == 3

    @pytest.mark.parametrize("start", ["nan,0", "inf,0", "0,-inf"])
    def test_trajectory_nonfinite_start(self, capsys, start):
        code, _ = run_cli(capsys, "trajectory", "--start", start)
        assert code == 3

    def test_trajectory_start_whose_square_overflows(self, capsys, tmp_path):
        out = tmp_path / "t"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout = run_cli(capsys, "trajectory", "--start", "0,1e160", "--out", str(out))
            assert code == 3 and stdout == "" and not out.exists()
            assert run_json(capsys, "trajectory", "--start", "1e150,0")["status"] == "completed"

    def test_trajectory_takes_no_tolerance_flags(self, capsys):
        # trajectories have no error control left to set
        for flag, value in (("--rtol", "1e-8"), ("--atol", "1e-12")):
            code = main(["trajectory", "--start", "0,0.25", flag, value])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert f"unrecognized arguments: {flag} {value}" in captured.err

    def test_separatrix_takes_no_tolerance_flags(self, capsys):
        for flag in ("--rtol", "--atol", "--tmax"):
            code, _ = run_cli(capsys, "separatrix", flag, "1e-8")
            assert code == 2

    @pytest.mark.parametrize("argv", [
        ["portrait", "--grid", "60x45"],
        ["eval", "--at", "1,1"],
        ["stagnation"],
        ["separatrix"],
        ["circulation"],
        ["trajectory", "--start", "0,0.25"],
        ["sweep", "--deltas", "0.5"],
    ])
    def test_only_verify_takes_seed(self, capsys, argv):
        code = main([*argv, "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--seed" in captured.err

    def test_point_values_may_start_with_minus(self, capsys):
        assert run_json(capsys, "eval", "--at", "-1,-2")["point"] == [-1.0, -2.0]
        doc = run_json(capsys, "circulation", "--center", "-3,-0.5")
        assert doc["contour"]["center"] == [-3.0, -0.5]
        doc = run_json(capsys, "trajectory", "--start", "-0.1,-0.3", "--tmax", "0.5")
        assert doc["start"] == [-0.1, -0.3]

    def test_verify_exit_codes(self, capsys, tmp_path):
        code, out = run_cli(capsys, "verify", "--k", "1", "--delta", "0.5",
                            "--seed", "42")
        assert code == 0
        assert "suite: PASS" in out

    @pytest.mark.parametrize("hbar, exit_code", [("1e304", 0), ("1e307", 2), ("1e-315", 2)])
    def test_verify_at_the_edges_of_the_double_range(self, capsys, hbar, exit_code):
        # a = 1e304 is a valid flow; a = 1e307 is past SCALE_MAX and a =
        # 1e-315 below SCALE_MIN, and both are refused
        code, out = run_cli(capsys, "verify", "--hbar", hbar)
        assert code == exit_code
        assert ("suite: PASS" in out) == (exit_code == 0)

    def test_verify_zero_field(self, capsys):
        code, out = run_cli(capsys, "verify", "--k", "0", "--delta", "0")
        assert code == 0
        assert "suite: PASS" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("gradient_orthogonality"))
        assert row.split()[-1] == "not_applicable"

    @pytest.mark.parametrize("flags, line", [(["--seed", "-1"], None), ([], "seed = -1")])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, flags, line):
        if line is not None:
            cfg = tmp_path / "flow.cfg"
            cfg.write_text(line + "\n")
            flags = ["--config", str(cfg)]
        code = main(["verify", *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "seed" in captured.err and "-1" in captured.err

    @pytest.mark.parametrize("flags, line", [
        (["--seed", "18446744073709551616"], None),
        ([], "seed = 18446744073709551616"),
    ])
    def test_seed_past_uint64_is_usage_error(self, capsys, tmp_path, flags, line):
        if line is not None:
            cfg = tmp_path / "flow.cfg"
            cfg.write_text(line + "\n")
            flags = ["--config", str(cfg)]
        code = main(["verify", *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "seed" in captured.err and "18446744073709551616" in captured.err

    def test_verify_writes_report(self, capsys, tmp_path):
        out = tmp_path / "rep"
        code, _ = run_cli(capsys, "verify", "--seed", "42", "--out", str(out),
                          "--format", "all")
        assert code == 0
        assert (out / "verify_report.txt").exists()
        json.loads((out / "verify_report.json").read_text())

    def test_verify_report_json_is_strict_json(self, capsys, tmp_path):
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        # a rotation's saddle checks do not apply: their NaN residuals are null
        out = tmp_path / "rep"
        code, _ = run_cli(capsys, "verify", "--k", "0", "--out", str(out),
                          "--format", "json")
        assert code == 0
        rows = json.loads((out / "verify_report.json").read_text(), parse_constant=refuse)
        assert {row["name"] for row in rows if row["residual"] is None} == {
            "saddle_eigenvalues", "stagnation_zero_velocity"}

    @pytest.mark.parametrize("k", ["1e-200", "1e200"])
    def test_verify_beyond_the_kernels_warns_nothing(self, capsys, tmp_path, k):
        # at l = 5e199 and 5e-201, l*l is out of range: one error line, no
        # warning, no report
        out = tmp_path / "rep"
        code = main(["verify", "--k", k, "--out", str(out), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: l*l = (delta/k)**2 is ")
        assert captured.err.count("\n") == 1

    def test_sweep(self, capsys, tmp_path):
        out = tmp_path / "sweep"
        doc = run_json(capsys, "sweep", "--deltas", "0.5,0.4,0.3",
                       "--out", str(out))
        areas = [row["loop_area"] for row in doc["rows"]]
        assert areas == sorted(areas, reverse=True)
        assert doc["strictly_decreasing_area"] is True
        assert (out / "sweep.csv").exists()

    @pytest.mark.parametrize("units, deltas", [
        (["--hbar", "1e-6", "--mass", "1e-6"], "0.5,0.25"),
        (["--hbar", "1e-6", "--mass", "1e6"], "0.5,0.25"),
        (["--hbar", "1e6", "--mass", "1e-6"], "0.5,0.25"),
        (["--hbar", "1e6", "--mass", "1e6"], "0.5,0.25"),
        (["--allow-any-delta"], "50,1e-9"),
    ])
    def test_sweep_in_scaled_units(self, capsys, units, deltas):
        doc = run_json(capsys, "sweep", *units, "--deltas", deltas)
        assert doc["strictly_decreasing_area"] is True
        for row in doc["rows"]:
            assert row["loop_max_radius"] == pytest.approx(row["delta"], rel=1e-12)

    def test_sweep_requires_deltas(self, capsys):
        code, _ = run_cli(capsys, "sweep")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--flux", "--charge", "--light-speed"])
    def test_sweep_rejects_flux_flags(self, capsys, flag):
        # sweep takes delta from --deltas only; a flux flag would be ignored
        code, out = run_cli(capsys, "sweep", "--deltas", "0.5", flag, "1")
        assert code == 2 and out == ""

    def test_sweep_rejects_delta_flag(self, capsys):
        # not read as an abbreviation of --deltas, nor ignored
        code = main(["sweep", "--deltas", "0.5", "--delta", "0.3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--delta 0.3" in captured.err

    @pytest.mark.parametrize("line", ["flux = 1", "delta = 0.3", "charge = 2"])
    def test_sweep_rejects_delta_settings_in_config(self, capsys, tmp_path, line):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text(line + "\n")
        code = main(["sweep", "--deltas", "0.5", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert line.split()[0] in captured.err

    def test_sweep_takes_other_config_settings(self, capsys, tmp_path):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("hbar = 2\nradius = 0.5\n")
        doc = run_json(capsys, "sweep", "--deltas", "0.5", "--config", str(cfg))
        assert doc["units"]["hbar"] == 2.0

    @pytest.mark.parametrize("argv", [
        ["circulation", "--radius", "1e300"],
        ["circulation", "--samples", "100000000"],
        ["portrait", "--grid", "100000x100"],
    ])
    def test_out_of_bounds_sizes_are_usage_errors(self, capsys, argv):
        code, _ = run_cli(capsys, *argv)
        assert code == 2


class TestArtifacts:
    @pytest.mark.parametrize("argv", [["portrait", "--grid", "120x90"], ["separatrix"]])
    def test_svg_rendered_only_when_written(self, capsys, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("render_portrait called for an SVG nobody writes")

        monkeypatch.setattr(cli, "render_portrait", refuse)
        assert run_cli(capsys, *argv)[0] == 0
        for fmt in ("csv", "json"):
            assert run_cli(capsys, *argv, "--out", str(tmp_path / fmt), "--format", fmt)[0] == 0
        monkeypatch.undo()
        for fmt in ("svg", "all"):
            doc = run_json(capsys, *argv, "--out", str(tmp_path / fmt), "--format", fmt)
            svgs = [name for name in doc["files"] if name.endswith(".svg")]
            assert len(svgs) == 1
            assert (tmp_path / fmt / svgs[0]).read_text().startswith("<svg")

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--start", "0,0.25", "--detect-closure"],
        ["separatrix"],
        ["portrait", "--grid", "120x90"],
        ["sweep", "--deltas", "0.5,0.25"],
    ])
    def test_csv_cells_are_float_literals(self, capsys, tmp_path, argv):
        # under numpy 2, repr(np.float64(x)) is "np.float64(x)"
        doc = run_json(capsys, *argv, "--out", str(tmp_path), "--format", "csv")
        csvs = [name for name in doc["files"] if name.endswith(".csv")]
        assert csvs
        for name in csvs:
            _, *rows = (tmp_path / name).read_text().splitlines()
            assert rows
            for row in rows:
                for cell in row.split(","):
                    assert repr(float(cell)) == cell


    @pytest.mark.parametrize("columns", [1, 2, 4])
    def test_csv_table_matches_per_cell_repr(self, columns):
        cells = [-0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16, -1e300, 123456.789]
        rows = [[cells[(i + j) % len(cells)] for j in range(columns)] for i in range(len(cells))]
        header = ",".join(f"c{j}" for j in range(columns))
        em = cli._Emitter(SimpleNamespace(format="csv", out="unused"))
        em.write_csv("t.csv", header, rows)
        expected = "\n".join([header, *(",".join(map(repr, r)) for r in rows)]) + "\n"
        assert em.texts == {"t.csv": expected}

    @given(tables=point_tables())
    @settings(max_examples=100, deadline=None)
    def test_point_tables_match_per_table_format(self, tables):
        em = cli._Emitter(SimpleNamespace(format="csv", out="unused"))
        written = []
        em.write = lambda name, text, kind: written.append((name, text, kind))
        em.write_points([(f"t{i}.csv", t) for i, t in enumerate(tables)])
        assert written == [(f"t{i}.csv", xy_csv(t), "csv") for i, t in enumerate(tables)]

    @given(value=json_value)
    @settings(max_examples=200, deadline=None)
    def test_summary_encoder_matches_json_dumps(self, value):
        # the same text as json.dumps, or the same exception type (a NaN or
        # an infinity is a ValueError)
        try:
            want = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:
            with pytest.raises(ValueError):
                cli._json(value)
        else:
            assert cli._json(value) == want

    def test_portrait_without_curves_writes_no_csv(self, capsys, tmp_path):
        # at -50 the one piece is a loop about 1e-44 l across, dropped as a point
        for level in ("50", "-50"):
            doc = run_json(capsys, "portrait", "--levels", level, "--no-separatrix",
                           "--grid", "40x30", "--out", str(tmp_path / "none"), "--format", "csv")
            assert doc["polylines"] == 0 and doc["files"] == []
            assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("units", UNITS)
    def test_point_csvs_match_the_library_points(self, capsys, tmp_path, units):
        params = FlowParams(**units)
        flags = [arg for key, v in units.items() for arg in (f"--{key}", repr(v))]
        doc = run_json(capsys, "separatrix", *flags, "--out", str(tmp_path / "sep"),
                       "--format", "csv")
        result = trace_separatrix(params)
        tables = {"separatrix_loop.csv": result.loop.points}
        for i, branch in enumerate(result.unbounded_branches):
            tables[f"separatrix_branch_{i}.csv"] = branch.points
        assert doc["files"] == sorted(tables)
        for name, points in tables.items():
            assert (tmp_path / "sep" / name).read_text() == xy_csv(points)

        doc = run_json(capsys, "portrait", *flags, "--grid", "160x120",
                       "--out", str(tmp_path / "fig"), "--format", "csv")
        counters = {}
        tables = {}
        for poly in portrait(params, PortraitSpec(grid=(160, 120))):
            idx = counters[poly.level] = counters.get(poly.level, -1) + 1
            tables[f"level_{float(poly.level)!r}_{idx}.csv"] = poly.points
        assert doc["files"] == sorted(tables)
        for name, points in tables.items():
            assert (tmp_path / "fig" / name).read_text() == xy_csv(points)

    @pytest.mark.parametrize("argv", [["eval", "--at", "1,1"], ["separatrix"]])
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_cannot_be_made_is_usage_error(self, capsys, tmp_path, argv, out):
        (tmp_path / "file").write_text("")
        target = tmp_path / out
        code = main([*argv, "--out", str(target), "--format", "all"])
        assert code == 2
        assert str(target) in capsys.readouterr().err


def test_no_command_loads_numpy_random(tmp_path):
    # numpy imports numpy.random (19 modules) and numpy.ma (3) only on first
    # use, and no command needs them, nor argparse; a fresh interpreter runs
    # every command, since this session may have imported them already
    commands = [
        ["eval", "--at", "1,1"],
        ["stagnation"],
        ["portrait", "--grid", "60x45"],
        ["separatrix"],
        ["circulation"],
        ["trajectory", "--start", "0,0.25", "--tmax", "1"],
        ["verify"],
        ["sweep", "--deltas", "0.5,0.4"],
    ]
    assert {argv[0] for argv in commands} == cli._ALL
    script = (
        "import contextlib, io, json, sys\n"
        "from abflow.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main([*argv, '--out', f'{sys.argv[1]}/{i}', '--format', 'all'])\n"
        "             for i, argv in enumerate(json.loads(sys.argv[2]))]\n"
        "loaded = [m in sys.modules for m in ('numpy.random', 'numpy.ma', 'argparse')]\n"
        "print(json.dumps([codes, *loaded]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), json.dumps(commands)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert json.loads(proc.stdout) == [[0] * len(commands), False, False, False]


@pytest.mark.parametrize("argv, artifact", [
    (["portrait", "--grid", "20x20"], "summary.json"),
    (["verify"], "verify_report.txt"),
])
def test_closed_stdout_exits_quietly(tmp_path, argv, artifact):
    # a reader that has gone away, as in `abflow portrait | head -c 10`:
    # the read end of stdout is closed before the command prints, which
    # prints nothing on stderr, still writes its artifacts, and exits with
    # its own code
    read, write = os.pipe()
    os.close(read)
    out = tmp_path / "out"
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "abflow", *argv, "--out", str(out), "--format", "all"],
            stdout=write, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 0
    assert (out / artifact).is_file()


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path):
        commands = [
            ["portrait", "--grid", "150x120", "--separatrix"],
            ["separatrix"],
            ["trajectory", "--start", "0,0.25", "--detect-closure"],
            ["sweep", "--deltas", "0.5,0.25"],
        ]
        runs = []
        for run in range(3):
            outputs = []
            for i, argv in enumerate(commands):
                out = tmp_path / f"run{run}" / str(i)
                code, text = run_cli(capsys, *argv, "--out", str(out), "--format", "all")
                assert code == 0
                files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
                assert any(name.endswith(".csv") for name in files)
                outputs.append((text, files))
            code, vtext = run_cli(capsys, "verify", "--seed", "42")
            assert code == 0
            outputs.append(vtext)
            runs.append(outputs)
        assert runs[0] == runs[1] == runs[2]
