"""Benchmark for abflow: seeded CLI workloads with closed-form output checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload portraits --seed 1 --seconds 40 --trace 0

Each op is one in-process ``abflow.cli.main(argv)`` call, timed alone; its
output is checked against the closed forms in ``oracles.py`` after the
timing stops.  The op list comes from ``--seed`` (see ``workloads.py``) and
is run in passes until ``--seconds`` have gone by.  Between ops the run
times a fixed reference kernel (``reference.py``) and divides each op's time
by the kernel's time measured next to it, so that the host's drifting speed
cancels; ``REF_MS`` turns the ratio back into milliseconds.  Each op's
median over passes stands for it.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of ``tracing.py``, and
``--census`` runs one untimed pass over the full unit band and prints the
failure fraction per command.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 11
# the reference kernel's time on an idle core of the 2-core VM the baseline
# was taken on; times are reported as if the machine ran at that speed
REF_MS = 2.0
# between ops the kernel runs for this share of the last op's time, at least
# once; around a spawn it runs for SPAWN_GAUGE_S
GAUGE_SHARE = 0.1
SPAWN_GAUGE_S = 0.02
HARD_STOP_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fix_mmap_threshold() -> None:
    """Serve every block over 128 KiB by mmap, as glibc does before its first
    free of such a block: freed arrays then go back to the system at once
    instead of staying in the heap, so the peak resident size tracks the
    largest op rather than the order earlier ops freed their memory in."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def gauge(seconds: float = 0.0) -> float:
    """Seconds per run of the reference kernel now: the mean over
    back-to-back runs that last at least ``seconds``, and at least one.  An
    untimed run first brings the kernel back into the caches, so that what
    the op before left there does not move the gauge."""
    reference.kernel()
    runs, start = 0, time.perf_counter()
    while True:
        reference.kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / runs


def _load_program():
    """Import the program from ./src of this checkout, and nothing else."""
    sys.path.insert(0, str(SRC))
    import abflow.cli

    if not Path(abflow.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"abflow imported from {abflow.cli.__file__}, not {SRC}")
    return abflow.cli.main


class SetupTimer:
    """Wall time of ``import abflow.cli`` in fresh interpreters, over the
    reference kernel's time gauged just before and just after the spawn.
    Spawns are spread over the run, between ops, so that they meet the same
    machine states the ops do; the first spawn compiles bytecode and is not
    counted."""

    CODE = "import time; t = time.perf_counter(); import abflow.cli; print(time.perf_counter() - t)"

    def __init__(self, spawns: int, seconds: float):
        self.spawns = spawns
        self.interval = seconds / spawns
        self.times: list[float] = []
        self.ratios: list[float] = []
        self.last = -self.interval
        self.spawn(count=False)

    def spawn(self, count: bool = True) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        before = gauge(SPAWN_GAUGE_S)
        done = subprocess.run([sys.executable, "-c", self.CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        after = gauge(SPAWN_GAUGE_S)
        if count:
            self.times.append(float(done.stdout))
            self.ratios.append(self.times[-1] / (0.5 * (before + after)))

    def tick(self, elapsed: float) -> bool:
        """Spawn if the next one is due at ``elapsed`` seconds into the run;
        returns whether it did."""
        if len(self.times) < self.spawns and elapsed - self.last >= self.interval:
            self.last = elapsed
            self.spawn()
            return True
        return False

    def finish(self) -> None:
        while len(self.times) < self.spawns:
            self.spawn()


def _dir_usage(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Session:
    """Runs ops in fresh --out dirs under ``scratch``, checks each with
    ``check(op, code, stdout, stderr, out)`` and tallies the outcomes."""

    def __init__(self, main, check, scratch: Path):
        self.main = main
        self.check = check
        self.scratch = scratch
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.reasons: dict[str, str] = {}

    def execute(self, op, tracer=None, count=True) -> float:
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        argv = [*op.argv, "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        code, failure = None, None
        gc.collect()  # garbage of earlier ops is not this op's cost
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = tracer.op(self.main, argv) if tracer else self.main(argv)
            except Exception as exc:  # a crash is a failed op, not a crashed benchmark
                failure = f"raised {type(exc).__name__}: {exc}"[:200]
            elapsed = time.perf_counter() - start
        if failure is None:
            failure = self.check(op, code, stdout.getvalue(), stderr.getvalue(), out)
        if tracer:
            tracer.add_files(*_dir_usage(out))
        shutil.rmtree(out)
        if count:
            self.attempted[op.command] += 1
            if failure:
                self.failed[op.command] += 1
                self.reasons.setdefault(f"{op.command}: {failure[:60]}", " ".join(op.argv))
        return elapsed

    def warm_up(self, ops) -> None:
        """One untimed, uncounted call of each command in the list."""
        first = {}
        for op in ops:
            first.setdefault(op.command, op)
        for op in first.values():
            self.execute(op, count=False)
        # what is alive now (interpreter, numpy, abflow, the benchmark) lives
        # for the whole run; keep it out of every later collection
        gc.collect()
        gc.freeze()

    def run_passes(self, ops, seconds: float, setup=None, new_tracer=None, gauged=False):
        """Passes over the op list until ``seconds`` are up, stopping between
        ops once each op has run.  Returns the per-op samples, and the tracer
        of the first pass.  With ``gauged`` the reference kernel runs between
        ops and each sample is a (wall time, wall time over the mean of the
        kernel's times just before and just after the op) pair.  With
        ``new_tracer`` each op runs untraced and then traced, and the samples
        are (untraced, traced) pairs."""
        samples = [[] for _ in ops]
        first = new_tracer() if new_tracer else None
        before = gauge() if gauged else None
        start = time.perf_counter()
        while True:
            for i, op in enumerate(ops):
                elapsed = time.perf_counter() - start
                if elapsed > HARD_STOP_S or (elapsed > seconds and samples[-1]):
                    return samples, first
                if setup and setup.tick(elapsed) and gauged:
                    before = gauge()
                tracer = (first if not samples[-1] else new_tracer()) if new_tracer else None
                sample = self.execute(op)
                if gauged:
                    after = gauge(GAUGE_SHARE * sample)
                    sample = (sample, sample / (0.5 * (before + after)))
                    before = after
                if tracer:
                    tracer.install()
                    try:
                        sample = (sample, self.execute(op, tracer))
                    finally:
                        tracer.uninstall()
                samples[i].append(sample)

    def summary_lines(self) -> list[str]:
        lines = []
        for cmd in sorted(self.attempted):
            a, f = self.attempted[cmd], self.failed[cmd]
            lines.append(f"  failed_frac[{cmd}] = {f}/{a} = {f / a:.4f}")
        for reason, argv in sorted(self.reasons.items()):
            lines.append(f"  FAILED {reason}  (e.g. {argv})")
        return lines

    def result(self, metrics: dict[str, tuple[float, str]]) -> str:
        failed = sum(self.failed.values())
        return json.dumps({
            "correct": failed == 0,
            "attempted": sum(self.attempted.values()),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        })


def _best(samples: list[list[float]]) -> list[float]:
    """Each op's fastest run, for the traced run's overhead ratio."""
    return [min(s) for s in samples if s]


def _op_metrics(per_op: list[float], scale: float) -> dict[str, float]:
    """Throughput and latency quantiles over per-op times in seconds, each
    multiplied by ``scale``."""
    times = [t * scale for t in per_op]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
    }


def timed(session: Session, ops, seconds: float) -> dict[str, tuple[float, str]]:
    setup = SetupTimer(SETUP_SPAWNS, seconds)
    session.warm_up(ops)
    samples, _ = session.run_passes(ops, seconds, setup, gauged=True)
    setup.finish()
    # each op's median over passes; the gauged ratios are in kernel runs, and
    # REF_MS makes them milliseconds at the reference speed
    wall = [statistics.median(w for w, _ in s) for s in samples]
    ratio = [statistics.median(r for _, r in s) for s in samples]
    ref_s = REF_MS * 1e-3
    values = {
        "setup_s": statistics.median(setup.ratios) * ref_s,
        **_op_metrics(ratio, ref_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"setup_s": statistics.median(setup.times), **_op_metrics(wall, 1.0)}
    lens = sorted(map(len, samples))
    per_op = f"{len(ratio)} ops, each the median of {lens[0]} to {lens[-1]} passes"
    notes = {"setup_s": f"median of {SETUP_SPAWNS} fresh interpreters",
             "peak_rss_mb": "this process"}
    print(f"  {'metric':12} {'reported':>12} {'wall clock':>12}")
    for k, v in values.items():
        print(f"  {k:12} {v:12.4f} {raw.get(k, v):12.4f} {UNITS[k]:4} ({notes.get(k, per_op)})")
    return {k: (v, UNITS[k]) for k, v in values.items()}


def traced(session: Session, ops, seconds: float, spans_file: Path) -> dict[str, tuple[float, str]]:
    import tracing

    session.warm_up(ops)
    samples, tracer = session.run_passes(ops, seconds, new_tracer=tracing.Tracer)
    plain = _best([[p for p, _ in s] for s in samples])
    with_trace = _best([[t for _, t in s] for s in samples])
    values = tracer.metrics(1, sum(with_trace) / sum(plain) - 1.0)
    spans_file.write_text(json.dumps(tracer.spans))
    print(f"  {len(tracer.spans)} spans of the first pass in {spans_file.relative_to(ROOT)}")
    for k, v in values.items():
        print(f"  {k:32} {v:16.6g} {tracing.PER_LAYER[k][0]}")
    return {k: (v, tracing.PER_LAYER[k][0]) for k, v in values.items()}


def census(session: Session, ops) -> dict[str, tuple[float, str]]:
    for op in ops:
        session.execute(op)
    metrics = {"failed_frac": (sum(session.failed.values()) / len(ops), "ratio")}
    for cmd in sorted(session.attempted):
        metrics[f"failed_frac.{cmd}"] = (session.failed[cmd] / session.attempted[cmd], "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--census", action="store_true",
                    help="one untimed pass over the full unit band; report failures")
    args = ap.parse_args(argv)

    os.environ.pop("ABFLOW_WORKERS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _fix_mmap_threshold()
    try:
        main_fn = _load_program()
    except ImportError as exc:
        print(f"error: cannot import abflow from {SRC}: {exc}", file=sys.stderr)
        return 2
    import oracles

    band = "full" if args.census else "timed"
    ops = workloads.make_ops(args.workload, args.seed, band)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="ops-"))
    session = Session(main_fn, oracles.check, scratch)
    try:
        print(f"workload {args.workload} seed {args.seed} band {band}: {len(ops)} ops")
        if args.census:
            metrics = census(session, ops)
        elif args.trace:
            metrics = traced(session, ops, args.seconds,
                             OUT / f"trace-{args.workload}-{args.seed}.json")
        else:
            metrics = timed(session, ops, args.seconds)
        print("\n".join(session.summary_lines()))
        print(session.result(metrics))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
