import re
from types import SimpleNamespace

import numpy as np
import pytest

from abflow.cli import main as cli_main
from abflow.svg import render_portrait


# a polyline's points: integer x,y pairs, comma separated
POINTS = re.compile(r"-?[0-9]+,-?[0-9]+(,-?[0-9]+,-?[0-9]+)*")


def thousandths(pixels, size):
    """Each pixel as render_portrait writes it: np.rint(1000*pixel), brought
    to within one image size of the view [0, size]."""
    return np.rint(np.clip(1000.0 * np.asarray(pixels), -1000 * size, 2000 * size)).astype(int)


def check_points(svg: str, polys, height: int) -> None:
    """Each polyline's points are its vertices in thousandths of a pixel,
    for bbox (0, 800, 0, height), which maps (x, y) to the pixel (x, height
    - y) exactly; a coordinate in view is within one of "%.3f"'s text."""
    got = re.findall(r'<polyline points="([^"]*)"/>', svg)
    assert len(got) == len(polys) and all(POINTS.fullmatch(p) for p in got)
    got = np.array([v for p in got for v in p.split(",")], dtype=int).reshape(-1, 2)
    pts = np.concatenate([p.points for p in polys])
    px = np.column_stack([pts[:, 0], height - pts[:, 1]])
    assert np.array_equal(got, np.column_stack([thousandths(px[:, 0], 800),
                                                thousandths(px[:, 1], height)]))
    seen = (px >= [-800, -height]) & (px <= [1600, 2 * height])
    fixed3 = np.array([int(("%.3f" % v).replace(".", "")) for v in px[seen].tolist()])
    assert np.abs(got[seen] - fixed3).max() <= 1


def test_points_are_integer_thousandths_of_a_pixel():
    # bbox (0, 800, 0, 600) at width 800 maps (x, y) to pixels (x, 600 - y)
    xs = [0.0625, -0.0004, 1.0625, 2.0005, -0.0, 1e20, -900.0, 800.0]
    ys = [599.9375, 600.0004, 598.9375, 0.0, 600.0, -1e20, 3.0, -600.0]
    poly = SimpleNamespace(points=np.column_stack([xs, ys]), level=0.0)
    svg = render_portrait([poly], (0.0, 800.0, 0.0, 600.0), saddle=(1e9, 300.0),
                          vortex=(400.0, 300.0))
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600" '
                          'viewBox="0 0 800000 600000">')
    (points,) = re.findall(r'<polyline points="([^"]*)"/>', svg)
    assert points == ("62,62,0,0,1062,1062,2001,600000,0,0,1600000,1200000,"
                      "-800000,597000,800000,1200000")
    check_points(svg, [poly], 600)
    # a marker out of view stays within one image size of it too
    assert '<line class="saddle" x1="1594000" y1="294000" x2="1606000" y2="306000"/>' in svg
    assert '<circle class="vortex" cx="400000" cy="300000" r="3500"/>' in svg


def test_points_are_integer_thousandths_over_a_seeded_sweep():
    # uniform pixels, the ties (k + 0.5)/1000 and their neighbours one ulp
    # either side, the exact binary ties k/16, values in (-0.0005, 0] and
    # both zeros, the view's edges 0, 800 and 600 and those of the clamp,
    # -800, 1600, -600 and 1200, with their neighbours, and values past
    # them; in polylines of one row and of many rows
    rng = np.random.default_rng(34)
    ties = (rng.integers(-10**6, 10**6, 30_000) + 0.5) / 1000.0
    edges = np.array([0.0, -0.0, 800.0, 600.0, -800.0, 1600.0, -600.0, 1200.0])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    values = np.concatenate([
        rng.uniform(-50.0, 850.0, 60_000), ties, np.nextafter(ties, np.inf),
        np.nextafter(ties, -np.inf), rng.integers(-10**6, 10**6, 30_000) / 16.0,
        -rng.uniform(0.0, 0.0005, 5_000), np.tile(edges, 200),
        rng.choice([-1.0, 1.0], 2_000) * 10.0 ** rng.uniform(3.5, 20.0, 2_000),
    ])
    rng.shuffle(values)
    x, y = values, 600.0 - rng.permutation(values)
    cuts = np.cumsum(np.where(rng.random(len(x) // 4) < 0.5, 1, rng.integers(2, 40, len(x) // 4)))
    cuts = cuts[cuts < len(x)]
    polys = [SimpleNamespace(points=p, level=0.0)
             for p in np.split(np.column_stack([x, y]), cuts)]
    assert len(x) >= 100_000 and {len(p.points) for p in polys} >= {1, 2, 39}
    check_points(render_portrait(polys, (0.0, 800.0, 0.0, 600.0)), polys, 600)


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
    head = re.match(r'<svg [^>]* width="(\d+)" height="(\d+)" viewBox="0 0 (\d+) (\d+)"', svg)
    width, height = int(head[1]), int(head[2])
    assert width == 800 and 1 <= height <= 16 * width
    assert (int(head[3]), int(head[4])) == (1000 * width, 1000 * height)
    # every coordinate and size an integer of the viewBox, in thousandths of a pixel
    attrs = re.findall(r'(\w+)="([^"]*)"', svg.split("</style>")[1])
    values = [int(v) for key, text in attrs if key not in ("class", "fill")
              for v in re.split("[ ,]", text)]
    assert values and all(abs(v) <= 3000 * max(width, height) for v in values)
