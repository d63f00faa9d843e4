import re
from types import SimpleNamespace

import numpy as np

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
