import re
from types import SimpleNamespace

import numpy as np
import pytest

from abflow.cli import main as cli_main
from abflow.svg import render_portrait


def test_points_match_per_point_format():
    # bbox (0, 800, 0, 600) at width 800 maps (x, y) to pixels (x, 600 - y)
    xs = [0.0625, -0.0004, 1.0625, 2.0005, -0.0, 1e20, float("inf"), float("nan")]
    ys = [599.9375, 600.0004, 598.9375, 0.0, 600.0, -1e20, 3.0, 4.0]
    poly = SimpleNamespace(points=np.column_stack([xs, ys]), level=0.0)
    svg = render_portrait([poly], (0.0, 800.0, 0.0, 600.0))
    (points,) = re.findall(r'<polyline points="([^"]*)"/>', svg)
    expected = " ".join(f"{x:.3f},{600.0 - y:.3f}" for x, y in zip(xs, ys))
    assert points == expected
    assert points.startswith("0.062,0.062 -0.000,-0.000 1.062,1.062 ")


def test_points_match_per_point_format_over_a_seeded_sweep():
    # pixels as "%.3f" writes them: uniform pixels, the ties (k + 0.5)/1000
    # and their neighbours one ulp either side, the exact binary ties k/16,
    # values in (-0.0005, 0] (written -0.000) and both zeros, and values
    # next to 1e11, from which a polyline keeps its own %-format; in
    # polylines of one row and of many rows
    rng = np.random.default_rng(34)
    ties = (rng.integers(-10**6, 10**6, 30_000) + 0.5) / 1000.0
    big = np.nextafter(1e11, 0.0) - rng.integers(0, 2**20, 2_000) * 2.0**-10
    values = np.concatenate([
        rng.uniform(-50.0, 850.0, 60_000), ties, np.nextafter(ties, np.inf),
        np.nextafter(ties, -np.inf), rng.integers(-10**6, 10**6, 30_000) / 16.0,
        -rng.uniform(0.0, 0.0005, 5_000), big, -big,
    ])
    rng.shuffle(values)
    # bbox (0, 800, 0, 600) maps x to the pixel x exactly (-0.0 too), and y
    # to 600 - y; the exact specials go in x
    half = len(values) // 2
    x = np.concatenate([[0.0, -0.0, -0.0005, 0.0005], values[:half], [1e11, -1e11]])
    y = 600.0 - rng.permutation(values)[: len(x)]
    cuts = np.cumsum(np.where(rng.random(len(x) // 4) < 0.5, 1, rng.integers(2, 40, len(x) // 4)))
    cuts = cuts[cuts < len(x)]
    polys = [SimpleNamespace(points=p, level=0.0)
             for p in np.split(np.column_stack([x, y]), cuts)]
    svg = render_portrait(polys, (0.0, 800.0, 0.0, 600.0))
    got = re.findall(r'<polyline points="([^"]*)"/>', svg)
    assert got == [" ".join("%.3f,%.3f" % (u, 600.0 - v) for u, v in p.points.tolist())
                   for p in polys]
    assert "-0.000" in svg and "100000000000.000" in svg
    assert {len(p.points) for p in polys} >= {1, 2, 39}


@pytest.mark.parametrize("flags", [
    ["--bbox=0,1e-300,0,1e10"],  # the height overflowed to inf
    ["--bbox=0,1e-300,0,1"],  # the height had 303 digits
    ["--bbox=0,1,0,1e-300"],  # the height rounded to 0
    ["--bbox=0,5e-324,0,1"],  # width / (xmax - xmin) overflows
    ["--bbox=0,1,0,5e-324"],  # height / (ymax - ymin) overflows
    ["--bbox=-1e-310,1e-310,-3,3"],  # subnormal sides about the markers
    ["--delta", "1e152", "--allow-any-delta"],  # a saddle 1e152 above the bbox
])
def test_every_accepted_bbox_gives_a_bounded_svg(tmp_path, capsys, flags):
    code = cli_main(["portrait", *flags, "--grid", "8x8", "--out", str(tmp_path),
                     "--format", "svg"])
    capsys.readouterr()
    assert code == 0
    svg = (tmp_path / "portrait.svg").read_text()
    head = re.match(r'<svg [^>]* width="(\d+)" height="(\d+)"', svg)
    width, height = int(head[1]), int(head[2])
    assert width == 800 and 1 <= height <= 16 * width
    attrs = re.findall(r'(\w+)="([^"]*)"', svg.split("</style>")[1])
    values = [float(v) for key, text in attrs if key not in ("class", "fill")
              for v in re.split("[ ,]", text)]
    assert values and all(abs(v) <= 3 * max(width, height) for v in values)
