import json
import math

import numpy as np
import pytest

from abflow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestEval:
    def test_current_at_point(self, capsys):
        doc = run_json(capsys, "eval", "--k", "1", "--delta", "0.5", "--at", "1,1")
        assert doc["current"] == [-0.75, -0.25]
        assert doc["units"]["hbar"] == 1.0

    def test_uniform_flow(self, capsys):
        doc = run_json(capsys, "eval", "--k", "1", "--delta", "0", "--at", "7,3")
        assert doc["current"] == [-1.0, 0.0]

    def test_singular_point_exit_code(self, capsys):
        code, _ = run_cli(capsys, "eval", "--at", "0,0", "--delta", "0.5")
        assert code == 3

    def test_missing_point_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "eval")
        assert code == 2

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["eval", "--at", "banana"]) == 2
        assert main(["nonsense"]) == 2

    def test_flux_sets_delta(self, capsys):
        doc = run_json(capsys, "eval", "--flux", str(math.pi), "--at", "1,1")
        assert doc["params"]["delta"] == pytest.approx(0.5, rel=1e-15)

    def test_relaxed_delta_flag(self, capsys):
        code, _ = run_cli(capsys, "eval", "--delta", "0.8", "--at", "1,1")
        assert code == 2
        doc = run_json(capsys, "eval", "--delta", "0.8", "--allow-any-delta",
                       "--at", "1,1")
        assert doc["params"]["delta"] == 0.8


class TestConfigPrecedence:
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

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("detla = 0.3\n")
        code = main(["eval", "--config", str(cfg), "--at", "1,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "detla" in captured.err
        assert captured.out == ""


class TestPortrait:
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
        assert doc["max_h_drift"] <= 1e-8
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows.shape[1] == 4

    def test_trajectory_singular_start(self, capsys):
        code, _ = run_cli(capsys, "trajectory", "--start", "0,0")
        assert code == 3

    @pytest.mark.parametrize("start", ["nan,0", "inf,0", "0,-inf"])
    def test_trajectory_nonfinite_start(self, capsys, start):
        code, _ = run_cli(capsys, "trajectory", "--start", start)
        assert code == 3

    def test_separatrix_takes_no_tolerance_flags(self, capsys):
        for flag in ("--rtol", "--atol", "--tmax"):
            code, _ = run_cli(capsys, "separatrix", flag, "1e-8")
            assert code == 2

    def test_verify_exit_codes(self, capsys, tmp_path):
        code, out = run_cli(capsys, "verify", "--k", "1", "--delta", "0.5",
                            "--seed", "42")
        assert code == 0
        assert "suite: PASS" in out

    def test_verify_zero_field(self, capsys):
        code, out = run_cli(capsys, "verify", "--k", "0", "--delta", "0")
        assert code == 0
        assert "suite: PASS" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("gradient_orthogonality"))
        assert row.split()[-1] == "not_applicable"

    def test_verify_writes_report(self, capsys, tmp_path):
        out = tmp_path / "rep"
        code, _ = run_cli(capsys, "verify", "--seed", "42", "--out", str(out),
                          "--format", "all")
        assert code == 0
        assert (out / "verify_report.txt").exists()
        json.loads((out / "verify_report.json").read_text())

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


class TestWorkerDeterminism:
    def test_portrait_and_verify_identical_across_workers(self, capsys, tmp_path):
        outputs = {}
        files = {}
        for run in ("1", "2", "8"):
            out = tmp_path / f"run{run}"
            code, text = run_cli(
                capsys, "portrait", "--grid", "150x120", "--separatrix",
                "--out", str(out), "--format", "all",
            )
            assert code == 0
            code2, vtext = run_cli(capsys, "verify", "--seed", "42")
            assert code2 == 0
            outputs[run] = (text, vtext)
            files[run] = {
                f.name: f.read_bytes() for f in sorted(out.iterdir())
            }
        assert outputs["1"] == outputs["2"] == outputs["8"]
        assert files["1"] == files["2"] == files["8"]
