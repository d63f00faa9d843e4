#!/usr/bin/env python3
"""Print a sha256 of every output of a fixed list of CLI calls.

Each call is one in-process ``abflow.cli.main`` run with ``--format all``
into a fresh directory.  Its digest covers the exit code, stdout and the
name and bytes of every artifact.  The calls cover every command at natural
units and in two scaled unit systems, plus portraits that reach every
branch of the level-curve pass, point tables that mirror only in part
about the y axis or not at all, the largest grid whose automatic levels
sample every node, a closed orbit next to the saddle, an orbit run for
about ten laps without --detect-closure that stops mid-lap, verify on a
rotation, a line flow, the zero flow and a second seed, circulation at 16
samples (where the Richardson estimate's rule is the rule itself) and at
33 (where it has nodes of its own), an eval and a trajectory whose
summary is not finite (exit 4, nothing printed or kept), and four calls at
the vortex core's boundary: an eval within its double resolution (exit 3),
an eval at the origin of a line flow, which has no core, verify on a flow
whose saddle would lie within it, which FlowParams refuses as l*l is out
of range (exit 2), and a circulation circle that passes within it (exit 2).  One line per call, then one
overall digest; the exit status is 1 if a call's exit code is not the one
EXIT gives it (0 if none).  Two checkouts whose lines match wrote the same
bytes, so a change that should not move any output can be checked by
running this on both:

    PYTHONPATH=src python3 scripts/artifact_digest.py
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from abflow.cli import main as cli_main

UNITS = {
    "natural": [],
    "hbar2-mass0.5": ["--hbar", "2", "--mass", "0.5"],
    "hbar0.25-mass4-k3": ["--hbar", "0.25", "--mass", "4", "--k", "3"],
}

COMMANDS = {
    "eval": ["eval", "--at", "1,-0.5"],
    "stagnation": ["stagnation"],
    "portrait": ["portrait", "--grid", "160x120"],
    "separatrix": ["separatrix"],
    "circulation": ["circulation", "--center", "0.2,0.1", "--radius", "0.7"],
    "trajectory": ["trajectory", "--start", "0,0.1", "--detect-closure"],
    "verify": ["verify"],
    "sweep": ["sweep", "--deltas", "0.5,0.25,0.1"],
}

# portraits at natural units that reach every branch of the level-curve
# pass: a rotation and a line flow, a bbox that cuts the separatrix loop and
# one that clips its arms, no separatrix, explicit levels (50 has no curve
# in the bbox), the smallest grid, and a flow whose vertices need bisection;
# then a bbox with no left half and a line flow's off-center bbox, and the
# largest grid whose automatic levels are quantiles over every node
PORTRAITS = {
    "rotation": ["--k", "0", "--grid", "160x120"],
    "line-flow": ["--delta", "0", "--grid", "160x120"],
    "cut-loop": ["--bbox", "-0.2,0.4,-0.1,0.3", "--grid", "160x120"],
    "clipped-arms": ["--bbox", "-1,1,-0.5,1", "--grid", "160x120"],
    "no-separatrix": ["--no-separatrix", "--grid", "160x120"],
    "levels": ["--levels", "-2,-0.5,0.2,50", "--grid", "160x120"],
    "grid-8x8": ["--grid", "8x8"],
    "bisected": ["--delta", "1e-10", "--bbox", "-100,100,-150,50"],
    # point tables whose mirror about the y axis is absent or partial
    "right-half": ["--bbox", "0.1,4,-3,3", "--grid", "160x120"],
    "lines-off-center": ["--delta", "0", "--allow-any-delta", "--bbox", "-1,3,-3,3",
                         "--grid", "160x120"],
    "grid-128x96": ["--grid", "128x96"],
}

# verify on every canonical flow class: the regular flows above, then a
# rotation, a line flow, the zero flow and one more seed
VERIFY = {
    "rotation": ["--k", "0"],
    "line-flow": ["--delta", "0"],
    "zero-flow": ["--k", "0", "--delta", "0"],
    "seed-7": ["--seed", "7"],
}

CALLS = [
    (f"{command}/{units}", [*argv, *flags])
    for units, flags in UNITS.items()
    for command, argv in COMMANDS.items()
] + [(f"portrait/{name}", ["portrait", *flags]) for name, flags in PORTRAITS.items()] + [
    ("separatrix/delta-1e-9", ["separatrix", "--delta", "1e-9"]),
    ("trajectory/near-saddle", ["trajectory", "--start", "0,0.499995", "--detect-closure"]),
    ("trajectory/laps", ["trajectory", "--start", "0,0.25", "--tmax", "5"]),
] + [(f"verify/{name}", ["verify", *flags]) for name, flags in VERIFY.items()] + [
    ("circulation/samples-16", [*COMMANDS["circulation"], "--samples", "16"]),
    ("circulation/samples-33", [*COMMANDS["circulation"], "--samples", "33"]),
    ("eval/nonfinite-summary", ["eval", "--hbar", "1e300", "--at", "0,1e10"]),
    ("trajectory/nonfinite-summary", ["trajectory", *UNITS["hbar0.25-mass4-k3"],
                                      "--start", "0,1.3407807929942596e154", "--tmax", "1e308"]),
    ("eval/near-core", ["eval", "--at", "1e-170,0"]),
    ("eval/origin-line-flow", ["eval", "--delta", "0", "--at", "0,0"]),
    ("verify/saddle-underflow", ["verify", "--k", "1e200"]),
    ("circulation/near-core", ["circulation", "--radius", "1e-160"]),
]

# the exit code of every call that should not exit 0
EXIT = {"eval/nonfinite-summary": 4, "trajectory/nonfinite-summary": 4, "eval/near-core": 3,
        "verify/saddle-underflow": 2, "circulation/near-core": 2}


def digest(argv: list[str], out: Path) -> tuple[int, str]:
    """Exit code of one call and the sha256 of what it printed and wrote."""
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = cli_main([*argv, "--out", str(out), "--format", "all"])
    h = hashlib.sha256(f"exit {code}\n{stdout.getvalue()}".encode())
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        data = path.read_bytes()
        h.update(f"\n{path.name} {len(data)}\n".encode() + data)
    return code, h.hexdigest()


def run() -> list[tuple[str, int, str]]:
    """(label, exit code, digest) of every call in CALLS."""
    with tempfile.TemporaryDirectory() as tmp:
        return [
            (label, *digest(argv, Path(tmp) / str(i)))
            for i, (label, argv) in enumerate(CALLS)
        ]


if __name__ == "__main__":
    rows = run()
    for label, code, sha in rows:
        print(f"{sha}  exit {code}  {label}")
    overall = hashlib.sha256("".join(sha for _, _, sha in rows).encode()).hexdigest()
    print(f"{overall}  overall")
    sys.exit(0 if all(code == EXIT.get(label, 0) for label, code, _ in rows) else 1)
