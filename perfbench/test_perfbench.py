"""Tests of the benchmark itself: op generation, output checks, tracing."""

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import abflow.cli  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("band", workloads.BANDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_op_list(workload, band):
    first = workloads.make_ops(workload, 7, band)
    assert first == workloads.make_ops(workload, 7, band)
    assert [op.argv for op in first] != [op.argv for op in workloads.make_ops(workload, 8, band)]
    assert len(first) == workloads.N_OPS[workload]


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in tracing.PER_LAYER.items()
    }
    census = [f"failed_frac.{cmd}" for cmd in oracles._CHECKS] + ["failed_frac"]
    for name in [*run.UNITS, *tracing.PER_LAYER, *census]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def _execute(op, tmp_path):
    out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = abflow.cli.main([*op.argv, "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out


def _first(workload, command, key=lambda op: 0):
    ops = [op for op in workloads.make_ops(workload, 3) if op.command == command]
    return min(ops, key=key)


def _scaled(text, key, factor):
    doc = json.loads(text)
    target = doc["rows"][-1] if key.startswith("rows.") else doc
    key = key.removeprefix("rows.")
    if isinstance(target[key], list):
        target[key] = [v * factor for v in target[key]]
    else:
        target[key] *= factor
    return json.dumps(doc)


@pytest.mark.parametrize(
    "workload,command,key",
    [
        ("separatrix_orbits", "separatrix", "lower_axis_crossing"),
        ("separatrix_orbits", "separatrix", "loop_area"),
        ("separatrix_orbits", "separatrix", "loop_max_radius"),
        ("separatrix_orbits", "separatrix", "separatrix_level"),
        ("separatrix_orbits", "sweep", "rows.circulation"),
        ("separatrix_orbits", "sweep", "rows.loop_area"),
        ("verify_queries", "eval", "current"),
        ("verify_queries", "circulation", "circulation"),
    ],
)
def test_check_rejects_perturbed_summary(workload, command, key, tmp_path):
    # a regular flow, and a circle round the origin, so no checked value is 0
    op = _first(workload, command,
                key=lambda op: (op.flow.kind != "regular", not op.expect.get("encloses", True)))
    code, stdout, stderr, out = _execute(op, tmp_path)
    assert oracles.check(op, code, stdout, stderr, out) is None
    assert oracles.check(op, code, _scaled(stdout, key, 1 + 1e-4), stderr, out)


def test_check_rejects_wrong_stagnation_and_trajectory_status(tmp_path):
    op = _first("verify_queries", "stagnation", key=lambda op: op.flow.kind != "regular")
    code, stdout, stderr, out = _execute(op, tmp_path)
    assert oracles.check(op, code, stdout, stderr, out) is None
    doc = json.loads(stdout)
    doc["stagnation_point"]["eigenvalues"][0] *= 1 + 1e-9
    assert oracles.check(op, code, json.dumps(doc), stderr, out)

    op = _first("separatrix_orbits", "trajectory", key=lambda op: op.expect["closed"])
    code, stdout, stderr, out = _execute(op, tmp_path)
    assert oracles.check(op, code, stdout, stderr, out) is None
    closed = stdout.replace(json.loads(stdout)["status"], "closed_orbit_detected")
    assert oracles.check(op, code, closed, stderr, out)


def test_check_rejects_failed_verify_and_nonzero_exit(tmp_path):
    op = _first("verify_queries", "verify")
    code, stdout, stderr, out = _execute(op, tmp_path)
    assert oracles.check(op, code, stdout, stderr, out) is None
    assert oracles.check(op, code, stdout.replace("suite: PASS", "suite: FAIL"), stderr, out)
    assert oracles.check(op, 4, stdout, "error: numerical failure", out).startswith("exit 4")


def test_check_rejects_perturbed_portrait_csv(tmp_path):
    op = _first("portraits", "portrait", key=lambda op: op.expect["grid"][0])
    code, stdout, stderr, out = _execute(op, tmp_path)
    assert oracles.check(op, code, stdout, stderr, out) is None
    path = sorted(out.glob("level_*.csv"))[0]
    lines = path.read_text().splitlines()
    x, y = (float(v) for v in lines[1].split(","))
    xmin, xmax, ymin, ymax = op.expect["bbox"]
    lines[1] = f"{x!r},{y + 0.05 * (ymax - ymin)!r}"
    path.write_text("\n".join(lines) + "\n")
    assert "psi - level" in oracles.check(op, code, stdout, stderr, out)


def test_reference_kernel_does_fixed_work():
    assert reference.kernel() == reference.kernel()
    assert run.gauge(3) > 0


def test_op_metrics_scale_with_the_reference_time():
    per_op = [1e-3 * (i + 1) for i in range(100)]
    plain, doubled = run._op_metrics(per_op, 1.0), run._op_metrics(per_op, 2.0)
    assert plain["op_p50_ms"] == pytest.approx(50.5)
    assert plain["op_p90_ms"] == pytest.approx(90.1)
    assert doubled["ops_per_s"] == pytest.approx(plain["ops_per_s"] / 2)
    assert doubled["op_p90_ms"] == pytest.approx(2 * plain["op_p90_ms"])


def test_loop_constants_match_known_values():
    assert oracles.W1E == pytest.approx(0.27846454276107380, abs=1e-15)
    assert oracles.A1 == pytest.approx(0.73144, abs=1e-5)


def test_traced_self_times_sum_to_op_wall_time(tmp_path):
    ops = workloads.make_ops("verify_queries", 5)
    ops = [next(op for op in ops if op.command == c)
           for c in ("verify", "eval", "circulation", "stagnation")]
    ops.append(_first("separatrix_orbits", "trajectory"))
    ops.append(_first("portraits", "portrait",
                      key=lambda op: (op.flow.kind != "regular", op.expect["grid"][0])))
    session = run.Session(abflow.cli.main, oracles.check, tmp_path)
    original = abflow.cli.portrait
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall = sum(session.execute(op, tracer) for op in ops)
    finally:
        tracer.uninstall()
    assert abflow.cli.portrait is original
    assert sum(session.failed.values()) == 0
    assert set(tracer.self_ns) <= set(tracing.LAYERS)
    assert all(v >= 0 for v in tracer.self_ns.values())
    assert sum(tracer.self_ns.values()) == tracer.counts["cli.op_ns"]
    assert tracer.counts["cli.op_ns"] <= wall * 1e9
    metrics = tracer.metrics(1, 0.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["verify.suite_calls"] == 1 and metrics["contour.portrait_calls"] == 1
    assert metrics["field.scalar_calls"] > 0 and metrics["field.vector_points"] > 0
    assert 0 < metrics["contour.max_level_residual"] < 1e-3
    spans = {s["id"]: s for s in tracer.spans}
    for s in spans.values():
        parent = spans.get(s["parent"])
        assert parent is None or parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
