import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abflow import (
    FlowParams,
    InvalidParamsError,
    PhysicalConstants,
    PortraitSpec,
    circulation,
    circulation_from_flux,
    flux_to_delta,
    integrate,
    portrait,
    separatrix_level,
    stream_values,
    trace_separatrix,
    velocity,
)
from abflow import contour
from abflow.contour import GRID_MAX, SAMPLES_MAX, _auto_levels
from helpers import (
    UNITS, check_well_formed, flow, hausdorff_distance, polygon_area, winding_number,
)

P = FlowParams()
SPECS = [
    PortraitSpec(),
    PortraitSpec(grid=(120, 90)),
    PortraitSpec(bbox=(-1.0, 3.0, -0.5, 2.5), grid=(300, 200)),
]


def check_vertices(params, polys, spec):
    """Every polyline well formed (`helpers.check_well_formed`), and every
    vertex on its level to roundoff, inside the bbox, and at most one cell
    diagonal from the next.

    psi at a vertex stored in doubles is off by up to ~1.5*b*eps even when
    the vertex is exact (rounding x, y and log r^2), a floor the relative
    part misses where r ~ 1 and the level ~ 0; 4*b*eps covers it and the
    rounding of the closed form and of its anchor on the y axis.
    """
    xmin, xmax, ymin, ymax = spec.bbox
    for poly in polys:
        check_well_formed(poly)
        x, y = poly.points[:, 0], poly.points[:, 1]
        resid = np.abs(stream_values(params, x, y) - poly.level)
        log_r = np.abs(np.log(np.hypot(x, y))) if params.b > 0.0 else 0.0
        bound = (1e-13 * (np.abs(params.a * y) + params.b * log_r + abs(poly.level))
                 + 4.0 * np.finfo(float).eps * params.b)
        assert np.all(resid <= bound), float(np.max(resid / bound))
        assert np.all((xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax))
        assert np.max(np.hypot(np.diff(x), np.diff(y))) <= spec.cell_diag


class TestGeometryHelpers:
    def test_polygon_area_square(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        assert polygon_area(sq) == pytest.approx(1.0)
        assert polygon_area(sq[::-1]) == pytest.approx(-1.0)

    def test_winding_number(self):
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        circle = np.column_stack([np.cos(theta), np.sin(theta)])
        assert winding_number(circle) == 1
        assert winding_number(circle[::-1]) == -1
        assert winding_number(circle + 5.0) == 0

    def test_hausdorff(self):
        a = np.array([[0, 0], [1, 0]], float)
        b = np.array([[0, 0.5], [1, 0.5]], float)
        assert hausdorff_distance(a, b) == pytest.approx(0.5)

    @pytest.mark.parametrize("n, m", [(3000, 50), (7, 70000), (1, 1)])
    def test_hausdorff_asymmetric_sizes_match_full_matrix(self, n, m):
        # the blocked pass returns the distance of the full n x m matrix
        rng = np.random.default_rng(n + m)
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(m, 2)) + [0.5, 0.0]
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        full = math.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max()))
        assert hausdorff_distance(a, b) == full
        assert hausdorff_distance(b, a) == full

    @pytest.mark.parametrize("l", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_loops_close_at_every_scale(self, l):
        params = FlowParams(delta=0.5 * l, k=0.5, allow_any_delta=True)
        # each closed polyline ends on its start, bit for bit
        loop = trace_separatrix(params).loop
        spec = PortraitSpec(bbox=(-4 * l, 4 * l, -3 * l, 3 * l), grid=(200, 150))
        loops = [p for p in portrait(params, spec) if p.closed]
        assert len(loops) >= 3
        for poly in [loop, *loops]:
            assert poly.closed and poly.points[-1].tobytes() == poly.points[0].tobytes()


class TestLevelCurves:
    def test_parallel_flow_gives_horizontal_line(self):
        p = FlowParams(delta=0.0)
        curves = contour._curves(p, [-2.0], PortraitSpec())
        assert len(curves) == 1
        pts = curves[0].points
        assert not curves[0].closed
        assert np.max(np.abs(pts[:, 1] - 2.0)) <= 1e-9
        assert pts[:, 0].min() <= -3.9 and pts[:, 0].max() >= 3.9

    def test_line_in_a_bbox_a_few_ulps_wide_keeps_each_x_once(self):
        # hundreds of vertices asked for between x values two ulps apart
        p = FlowParams(delta=0.0)
        spec = PortraitSpec(bbox=(1.0, 1.0000000000000004, -1e-16, 1e-16))
        (line,) = contour._curves(p, [0.0], spec)
        check_well_formed(line)
        assert line.points[:, 0].tolist() == [1.0000000000000004, 1.0000000000000002, 1.0]

    def test_pure_rotation_gives_circle(self):
        p = FlowParams(k=0.0, delta=0.5)
        r0 = 1.5
        level = p.b * math.log(r0)
        curves = contour._curves(p, [level], PortraitSpec())
        assert len(curves) == 1
        poly = curves[0]
        assert poly.closed
        assert winding_number(poly.points[:-1]) in (-1, 1)
        radii = np.hypot(poly.points[:, 0], poly.points[:, 1])
        assert np.max(np.abs(radii - r0)) <= 1e-3

    def test_separatrix_level_has_loop_and_open_branches(self):
        curves = contour._curves(P, [separatrix_level(P)], PortraitSpec())
        closed = [c for c in curves if c.closed]
        open_ = [c for c in curves if not c.closed]
        assert any(abs(winding_number(c.points[:-1])) == 1 for c in closed)
        assert open_

    @pytest.mark.parametrize("params", [
        P,
        FlowParams(delta=0.1),
        FlowParams(hbar=1e6, mass=1e-6, k=2.0, delta=0.3),
        FlowParams(delta=50.0, k=20.0, allow_any_delta=True),
    ])
    def test_separatrix_level_is_loop_through_saddle_and_two_arms(self, params):
        spec = PortraitSpec()
        saddle = np.array([0.0, params.saddle_height])
        curves = contour._curves(params, [separatrix_level(params)], spec)
        loops = [c for c in curves if c.closed]
        arms = [c for c in curves if not c.closed]
        assert len(loops) == 1 and len(arms) == 2
        loop = loops[0].points
        assert abs(winding_number(loop[:-1])) == 1
        assert np.any(np.all(loop == saddle, axis=1))
        for arm in arms:
            assert np.array_equal(arm.points[0], saddle) or np.array_equal(arm.points[-1], saddle)
        assert hausdorff_distance(loop, trace_separatrix(params).loop.points) <= spec.cell_diag
        check_vertices(params, curves, spec)

    def test_missing_level_gives_empty_list(self):
        assert contour._curves(P, [1e6], PortraitSpec()) == []

    def test_level_below_grid_resolution_gives_empty_list(self):
        # a circle of radius 1e-12 is shorter than 1e-9 cell diagonals
        rotation = FlowParams(k=0.0)
        assert contour._curves(rotation, [rotation.b * math.log(1e-12)], PortraitSpec()) == []

    @pytest.mark.parametrize("bbox", [
        (-1.0, 1.0, 1e6, 1e6 + 1.0),  # far up the y axis
        (1e9, 1e9 + 1.0, 1e9, 1e9 + 1.0),
        (-10.0, 10.0, 1.0, 1.01),  # thinner than a cell diagonal
        (1.0, 2.0, -1e3, 1e3),
    ])
    def test_rotation_samples_only_the_arcs_in_the_bbox(self, bbox):
        # the arcs of a circle inside a convex bbox are no longer than its
        # perimeter, so each level has at most that many 0.9 cell diagonals
        # of vertices, and a few more at the ends of its arcs
        params = FlowParams(k=0.0)
        spec = PortraitSpec(bbox=bbox, grid=(160, 120))
        polys = portrait(params, spec)
        check_vertices(params, polys, spec)
        levels = {p.level for p in polys}
        assert len(levels) == spec.n_levels
        perimeter = 2.0 * (bbox[1] - bbox[0] + bbox[3] - bbox[2])
        for level in levels:
            n = sum(len(p) for p in polys if p.level == level)
            assert n <= perimeter / (0.9 * spec.cell_diag) + 20

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_nonfinite_level_rejected(self, level):
        with pytest.raises(InvalidParamsError):
            contour._curves(P, [level], PortraitSpec())

    def test_unbounded_level_yields_only_open_curves(self):
        # the level through (0, 5) carries no cycle: its curve family is open,
        # which is why the trajectory from that point never closes
        level = float(stream_values(P, 0.0, 5.0))
        spec = PortraitSpec(bbox=(-8.0, 8.0, -6.0, 6.0), grid=(240, 180))
        curves = contour._curves(P, [level], spec)
        assert curves
        assert all(not c.closed for c in curves)

    @pytest.mark.parametrize("grid", [(60, 45), (200, 150), (400, 300), (900, 700)])
    def test_vertex_level_at_roundoff_for_several_grids(self, grid):
        spec = PortraitSpec(grid=grid)
        for level in (-1.2, separatrix_level(P), 0.3, 2.0):
            curves = contour._curves(P, [level], spec)
            assert curves
            check_vertices(P, curves, spec)

    @pytest.mark.parametrize("params", [
        FlowParams(k=0.0),
        FlowParams(hbar=1e6, mass=1e-6, k=0.0, delta=0.1),
        FlowParams(delta=0.0),
        FlowParams(hbar=1e-6, mass=1e6, delta=0.0),
    ])
    def test_degenerate_flows_at_roundoff(self, params):
        for spec in SPECS:
            polys = portrait(params, spec)
            assert polys
            check_vertices(params, polys, spec)

    @pytest.mark.parametrize("c", [-2.5, -1.5, -0.5, 1.0])
    @pytest.mark.parametrize("params", [
        P,
        FlowParams(k=2.0, delta=0.1),
        FlowParams(hbar=1e6, mass=1e-6, delta=50.0, allow_any_delta=True),
    ])
    def test_axis_crossings_match_lambert_w(self, params, c):
        # the level psi = b*(C + log l) meets the y axis at l*U with
        # U = -W0(e^C), and for C < -1 also U = -W0(-e^C), -W_{-1}(-e^C)
        l = params.saddle_height
        spec = PortraitSpec(bbox=(-6 * l, 6 * l, -3 * l, 6 * l))
        level = params.b * (c + math.log(l))
        ys = [p[1] for curve in contour._curves(params, [level], spec)
              for p in curve.points if p[0] == 0.0]
        with mpmath.workdps(30):
            big_c = mpmath.mpf(level) / params.b - mpmath.log(l)
            roots = [mpmath.lambertw(mpmath.exp(big_c))]
            if c < -1.0:
                roots += [mpmath.lambertw(-mpmath.exp(big_c)),
                          mpmath.lambertw(-mpmath.exp(big_c), -1)]
            want = sorted(-l * float(mpmath.re(w)) for w in roots)
        assert sorted(set(ys)) == pytest.approx(want, rel=1e-13)

    def test_spacing_where_float_heights_cannot_resolve_the_curve(self):
        # l = 1e-10 and |y| ~ 100: one ulp of y moves the curve near its axis
        # crossing by several cells in x
        params = FlowParams(delta=1e-10)
        spec = PortraitSpec(bbox=(-100.0, 100.0, -150.0, 50.0))
        polys = portrait(params, spec)
        assert polys
        check_vertices(params, polys, spec)

    @pytest.mark.parametrize("delta", [1e-20, 1e-150])
    def test_tiny_delta_draws_every_level(self, delta):
        # l = delta/k below the float resolution of y: every level is a line
        # across the bbox, dipping around the vortex below the grid's scale
        params = FlowParams(delta=delta)
        spec = PortraitSpec(include_separatrix=False)
        polys = portrait(params, spec)
        assert len({p.level for p in polys}) == spec.n_levels
        for p in polys:
            assert np.ptp(p.points[:, 0]) >= 7.9 and np.ptp(p.points[:, 1]) <= 1e-9
            assert np.max(np.hypot(*np.diff(p.points, axis=0).T)) <= spec.cell_diag

    def test_asymmetric_bbox_clips_to_edges(self):
        spec = PortraitSpec(bbox=(-1.0, 3.0, -0.5, 2.5), grid=(300, 200),
                            include_separatrix=False)
        xmin, xmax, ymin, ymax = spec.bbox
        polys = portrait(P, spec)
        assert any(not p.closed for p in polys)
        check_vertices(P, polys, spec)
        for p in polys:
            if not p.closed:
                for x, y in p.points[[0, -1]]:
                    assert min(x - xmin, xmax - x, y - ymin, ymax - y) <= spec.cell_diag


class TestPortraitAccuracy:
    @pytest.mark.parametrize("delta", [1e-9, 0.1, 0.5, 50.0])
    @pytest.mark.parametrize("hbar, mass", [
        (h, m) for h in (1e-6, 1.0, 1e6) for m in (1e-6, 1.0, 1e6)
    ])
    def test_vertices_at_roundoff_in_every_unit_system(self, hbar, mass, delta):
        params = FlowParams(hbar=hbar, mass=mass, delta=delta, allow_any_delta=True)
        for spec in SPECS:
            polys = portrait(params, spec)
            assert polys
            check_vertices(params, polys, spec)


class TestAutoLevels:
    @staticmethod
    def reference(params, spec, xs, ys):
        """The levels' quantiles of psi over the nodes xs x ys, away from the vortex."""
        xg, yg = np.meshgrid(xs, ys)
        psi = stream_values(params, xg, yg)
        vals = psi[np.isfinite(psi) & (np.hypot(xg, yg) >= 2.0 * spec.cell_diag)]
        qs = np.arange(1, spec.n_levels + 1) / (spec.n_levels + 1)
        return [float(q) for q in np.unique(np.quantile(vals, qs))]

    @pytest.mark.parametrize("params", [P, FlowParams(k=0.0), FlowParams(delta=1e-10)])
    @pytest.mark.parametrize("grid", [(8, 8), (120, 90), (128, 96)])
    @pytest.mark.parametrize("bbox", [(-4.0, 4.0, -3.0, 3.0), (-0.2, 0.4, -0.1, 0.3)])
    def test_grids_within_the_cap_use_every_node(self, params, grid, bbox):
        spec = PortraitSpec(bbox=bbox, grid=grid)
        xs, ys = np.linspace(*bbox[:2], grid[0]), np.linspace(*bbox[2:], grid[1])
        assert _auto_levels(params, spec) == self.reference(params, spec, xs, ys)

    @pytest.mark.parametrize("grid", [(GRID_MAX, GRID_MAX), (129, 97), (600, 450)])
    def test_larger_grids_use_a_strided_lattice_of_their_nodes(self, monkeypatch, grid):
        spec = PortraitSpec(grid=grid, n_levels=24)
        seen = []

        def recording(params, x, y):
            seen.append((np.array(x), np.array(y)))
            return stream_values(params, x, y)

        monkeypatch.setattr(contour, "stream_values", recording)
        levels = _auto_levels(P, spec)
        (xg, yg), = seen
        assert xg.size <= 128 * 96
        # every ceil(n/cap)-th node of the grid, from the first
        kx, ky = -(-grid[0] // 128), -(-grid[1] // 96)
        xs = np.linspace(*spec.bbox[:2], grid[0])[np.arange(0, grid[0], kx)]
        ys = np.linspace(*spec.bbox[2:], grid[1])[np.arange(0, grid[1], ky)]
        assert np.array_equal(xg, np.broadcast_to(xs, xg.shape))
        assert np.array_equal(yg, np.broadcast_to(ys[:, None], yg.shape))
        assert levels == self.reference(P, spec, xs, ys)


class TestPortrait:
    def test_default_portrait_structure(self):
        polys = portrait(P, PortraitSpec())
        levels = {p.level for p in polys}
        assert separatrix_level(P) in levels
        closed_enclosing = [
            p for p in polys if p.closed and abs(winding_number(p.points[:-1])) == 1
        ]
        assert closed_enclosing
        # deterministic ordering: levels ascending, then starting vertex
        keys = [(p.level, p.points[0, 0], p.points[0, 1]) for p in polys]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("params", [
        P, FlowParams(k=0.0), FlowParams(delta=0.0), FlowParams(delta=1e-10),
    ])
    @pytest.mark.parametrize("bbox", [(-4.0, 4.0, -3.0, 3.0), (-0.2, 0.4, -0.1, 0.3)])
    def test_portrait_is_level_curves_in_level_order(self, params, bbox):
        # the batched pass gives each level what its one-level call gives;
        # 1e6 has no curve in the bbox
        levels = tuple(float(stream_values(params, x, y))
                       for x, y in [(0.0, 0.25), (0.0, -1.0), (1.0, 1.0), (0.0, 2.5)])
        spec = PortraitSpec(bbox=bbox, grid=(160, 120), levels=levels + (1e6,))
        polys = portrait(params, spec)
        want = [p for level in sorted({p.level for p in polys} | set(spec.levels))
                for p in contour._curves(params, [level], spec)]
        assert polys and len(polys) == len(want)
        for got, ref in zip(polys, want):
            assert (got.level, got.closed) == (ref.level, ref.closed)
            assert np.array_equal(got.points, ref.points)

    @given(kind=st.sampled_from(["regular", "rotation", "line"]),
           bbox=st.sampled_from([(-4.0, 4.0, -3.0, 3.0), (-1.0, 3.0, 0.5, 2.5)]), **UNITS)
    @settings(max_examples=60, deadline=None)
    def test_polylines_run_the_way_the_flow_runs(self, kind, bbox, log_l, log_tau, log_delta):
        # down the side x > 0, up the side x < 0, a line toward -x and a
        # circle clockwise: every segment has a nonnegative dot product with
        # the velocity at its midpoint; the second bbox leaves out the vortex
        l, delta = 10.0**log_l, 10.0**log_delta
        params = flow(l, 10.0**log_tau, delta)
        if kind == "rotation":
            params = FlowParams(hbar=params.hbar, k=0.0, delta=delta)
        elif kind == "line":
            params = FlowParams(hbar=params.hbar, k=params.k, delta=0.0)
        polys = portrait(params, PortraitSpec(bbox=tuple(l * v for v in bbox), grid=(160, 120)))
        assert polys
        for p in polys:
            mid = 0.5 * (p.points[1:] + p.points[:-1])
            u, v = velocity(params, mid[:, 0], mid[:, 1])
            dx, dy = np.diff(p.points, axis=0).T
            assert np.all(dx * u + dy * v >= 0.0)

    @pytest.mark.parametrize("params", [P, FlowParams(delta=0.1), FlowParams(k=0.0)])
    def test_closed_polylines_end_on_their_first_vertex(self, params):
        for spec in SPECS:
            loops = [p for p in portrait(params, spec) if p.closed]
            assert loops
            for p in loops:
                assert p.points[-1].tobytes() == p.points[0].tobytes()

    def test_bisection_keeps_vertices_a_cell_apart(self, monkeypatch):
        # on this grid the arc-length resampling leaves segments longer than
        # a cell diagonal, which the bisection splits
        inserted = []
        insert = np.insert

        def spy(arr, index, values, *args, **kwargs):
            inserted.append(np.size(index))
            return insert(arr, index, values, *args, **kwargs)

        monkeypatch.setattr(np, "insert", spy)
        spec = PortraitSpec(grid=(900, 700))
        polys = portrait(P, spec)
        assert sum(inserted) > 0
        check_vertices(P, polys, spec)

    def test_explicit_levels(self):
        spec = PortraitSpec(levels=(-2.0, 0.0), include_separatrix=False)
        polys = portrait(P, spec)
        assert {p.level for p in polys} == {-2.0, 0.0}

    def test_parallel_flow_portrait_is_horizontal(self):
        polys = portrait(FlowParams(delta=0.0), PortraitSpec(include_separatrix=False))
        assert polys
        for p in polys:
            assert not p.closed
            assert np.ptp(p.points[:, 1]) <= 1e-9

    def test_mirror_symmetry(self):
        spec = PortraitSpec()
        polys = portrait(P, spec)
        pts = np.vstack([p.points for p in polys])
        mirrored = pts * np.array([-1.0, 1.0])
        assert hausdorff_distance(pts, mirrored) <= spec.cell_diag

    def test_matches_integrated_orbit(self):
        h0 = float(stream_values(P, 0.0, 0.25))
        spec = PortraitSpec(bbox=(-1, 1, -1, 1), grid=(200, 200))
        curves = [c for c in contour._curves(P, [h0], spec) if c.closed]
        assert curves
        traj = integrate(P, (0.0, 0.25), max_time=10.0, detect_closure=True)
        d = hausdorff_distance(curves[0].points, traj.points)
        assert d <= spec.cell_diag

    def test_spec_validation(self):
        with pytest.raises(Exception):
            PortraitSpec(bbox=(1, -1, 0, 1))
        with pytest.raises(Exception):
            PortraitSpec(grid=(4, 100))

    @pytest.mark.parametrize("bbox", [
        (-math.inf, 4.0, -3.0, 3.0),
        (-4.0, 4.0, -3.0, math.inf),
        (-4.0, math.nan, -3.0, 3.0),
        (0.0, 1e308, -1e308, 1e308),  # the cell diagonal overflows too
        (0.0, 1e200, 0.0, 1e200),
        # the corner nearest the largest square, one double past the edge
        (-1.0, math.nextafter(math.sqrt(sys.float_info.max), math.inf), 0.0, 1.0),
    ])
    def test_bbox_where_x2_plus_y2_is_not_finite_is_rejected(self, bbox):
        with pytest.raises(InvalidParamsError):
            PortraitSpec(bbox=bbox)

    def test_bbox_at_the_edge_of_the_double_range(self):
        # the largest square bbox on which x*x + y*y stays finite
        h = math.sqrt(0.5 * sys.float_info.max)
        spec = PortraitSpec(bbox=(-h, h, -h, h), grid=(40, 30))
        assert math.isfinite(h * h + h * h) and math.isfinite(spec.cell_diag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            polys = portrait(P, spec)
        assert polys and all(np.isfinite(p.points).all() for p in polys)

    @pytest.mark.parametrize("n_levels", [-1, GRID_MAX + 1])
    def test_n_levels_bounds(self, n_levels):
        # a bound on memory, like the grid's: only the constructor runs here
        assert PortraitSpec(n_levels=0).n_levels == 0
        assert PortraitSpec(n_levels=GRID_MAX).n_levels == GRID_MAX
        with pytest.raises(InvalidParamsError):
            PortraitSpec(n_levels=n_levels)

    @pytest.mark.parametrize("grid", [(GRID_MAX + 1, 100), (100, 10**12)])
    def test_grid_upper_bound(self, grid):
        # rejected in the constructor, before any grid is allocated
        assert PortraitSpec(grid=(GRID_MAX, GRID_MAX)).grid == (GRID_MAX, GRID_MAX)
        with pytest.raises(InvalidParamsError):
            PortraitSpec(grid=grid)


class TestCirculation:
    def test_unit_circle_value(self):
        res = circulation(P, (0.0, 0.0), 1.0, 512)
        assert res.value == pytest.approx(-math.pi, rel=1e-12)
        assert res.richardson_error_estimate >= 0.0
        assert res.contour["radius"] == 1.0

    def test_origin_outside_gives_zero(self):
        res = circulation(P, (5.0, 0.0), 1.0, 512)
        assert abs(res.value) <= 1e-10

    def test_uniform_flow_gives_zero(self):
        res = circulation(FlowParams(delta=0.0), (0.0, 0.0), 2.0, 64)
        assert abs(res.value) <= 1e-12

    def test_contour_independence(self):
        values = [circulation(P, (0.0, 0.0), r, 512).value for r in (0.3, 1.0, 3.0, 7.0)]
        for v1 in values:
            for v2 in values:
                assert abs(v1 - v2) <= 1e-10

    def test_offcenter_circle_enclosing_origin(self):
        res = circulation(P, (0.2, -0.1), 1.0, 512)
        assert res.value == pytest.approx(-math.pi, rel=1e-10)

    @pytest.mark.parametrize("center, enclosed", [
        ((0.0, 0.0), True),
        ((3e9, -2e9), True),
        ((3e10, 0.0), False),
        ((-2e10, 1e10), False),
    ])
    def test_large_radius(self, center, enclosed):
        # the uniform stream's roundoff, ~eps*a*R, must not swamp the vortex
        value = circulation(P, center, 1e10, 512).value
        want = -2.0 * math.pi * P.b if enclosed else 0.0
        assert abs(value - want) <= 1e-10 * 2.0 * math.pi * P.b

    def test_smallest_radius_off_the_core(self):
        # d*d = 1e-300 is a normal double: the quadrature is exact there
        assert circulation(P, (0.0, 0.0), 1e-150, 512).value == -math.pi

    def test_sample_doubling_converged(self):
        v256 = circulation(P, (0.0, 0.0), 1.0, 256).value
        v512 = circulation(P, (0.0, 0.0), 1.0, 512).value
        assert abs(v512 - v256) <= 1e-12

    def test_invalid_contours(self):
        with pytest.raises(InvalidParamsError):
            circulation(P, (1.0, 0.0), 1.0, 64)  # passes through the origin
        with pytest.raises(InvalidParamsError):
            circulation(P, (0.0, 0.0), 1.0, 8)  # too few samples
        with pytest.raises(InvalidParamsError):
            circulation(P, (0.0, 0.0), -1.0, 64)

    @pytest.mark.parametrize("samples", [SAMPLES_MAX + 1, 10**15])
    def test_sample_upper_bound(self, samples):
        # rejected before the quadrature allocates its nodes
        with pytest.raises(InvalidParamsError):
            circulation(P, (0.0, 0.0), 1.0, samples)

    @pytest.mark.parametrize("center, radius", [
        ((0.0, 0.0), 1e300),
        ((1e155, 0.0), 1.0),
        # the mirror image: the squared distance to the vortex underflows
        ((0.0, 0.0), 1e-160),
        ((0.0, 3e-160), 1e-160),
        ((0.0, 0.0), 1e-170),
    ])
    def test_overflowing_circle_rejected(self, center, radius):
        with pytest.raises(InvalidParamsError):
            circulation(P, center, radius, 64)

    @pytest.mark.parametrize("center, radius", [
        ((math.inf, 0.0), 1.0),
        ((0.0, math.nan), 1.0),
        ((0.0, 0.0), math.inf),
        ((0.0, 0.0), math.nan),
    ])
    def test_nonfinite_contour_rejected(self, center, radius):
        with pytest.raises(InvalidParamsError):
            circulation(P, center, radius, 64)

    @given(delta=st.floats(0.05, 0.5), radius=st.floats(0.2, 8.0))
    @settings(max_examples=50, deadline=None)
    def test_quadrature_matches_closed_form(self, delta, radius):
        params = FlowParams(delta=delta)
        value = circulation(params, (0.0, 0.0), radius, 512).value
        assert value == pytest.approx(-2.0 * math.pi * params.b, rel=1e-10)


    @given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0), r=st.floats(0.05, 6.0), **UNITS)
    @settings(max_examples=40, deadline=None)
    def test_one_node_set_matches_two_rules(self, x, y, r, log_l, log_tau, log_delta):
        # value and estimate to the bit as two separate trapezoid rules, at n
        # and at max(16, n//2) nodes, give them on circles of radius l*r
        l = 10.0**log_l
        params = flow(l, 10.0**log_tau, 10.0**log_delta)
        center, radius = (l * x, l * y), l * r
        assume(abs(math.hypot(*center) - radius) > 1e-9 * radius)
        for n in (16, 17, 31, 32, 33, 511, 512, 1000):
            res = circulation(params, center, radius, n)
            assert (res.value, res.richardson_error_estimate) == two_rules(
                params, center, radius, n)

    def test_one_field_evaluation(self, monkeypatch):
        # the coarse rule reads every other node of the 512-point rule
        kernel, points = contour._velocity, []

        def spy(a, b, x, y):
            points.append(np.size(x))
            return kernel(a, b, x, y)

        monkeypatch.setattr(contour, "_velocity", spy)
        circulation(P, (0.2, -0.1), 1.0, 512)
        assert points == [512]


def two_rules(params, center, radius, n):
    """circulation()'s value and Richardson estimate from two trapezoid
    rules, each on its own nodes: the n-point rule, and the estimate's
    distance to the max(16, n//2)-point rule."""
    cx, cy = center
    s = math.ldexp(1.0, math.frexp(params.b)[1] - 1)

    def quad(n):
        theta = 2.0 * np.pi * np.arange(n) / n
        ct, st = np.cos(theta), np.sin(theta)
        u, v = contour._velocity(0.0, params.b / s, cx + radius * ct, cy + radius * st)
        return s * float(np.sum(radius * (-st * u + ct * v)) * (2.0 * np.pi / n))

    value = quad(n)
    return value, abs(value - quad(max(16, n // 2)))


class TestCirculationFromFlux:
    def test_substitution(self):
        c = PhysicalConstants()
        assert circulation_from_flux(c, 1.0, math.pi) == pytest.approx(-math.pi)
        assert circulation_from_flux(c, 1.0, 0.0) == 0.0

    def test_linearity(self):
        c = PhysicalConstants()
        assert circulation_from_flux(c, 1.0, 2.0) == 2.0 * circulation_from_flux(c, 1.0, 1.0)

    @pytest.mark.parametrize("flux, mass", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1e308, 1e-300)])
    def test_nonfinite_flux_or_circulation_is_rejected(self, flux, mass):
        with pytest.raises(InvalidParamsError, match="not a finite number"):
            circulation_from_flux(PhysicalConstants(), mass, flux)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan])
    def test_mass_not_positive_is_rejected(self, mass):
        with pytest.raises(InvalidParamsError, match="mass must be positive"):
            circulation_from_flux(PhysicalConstants(), mass, 1.0)

    @given(
        charge=st.floats(0.1, 10), light_speed=st.floats(0.1, 10),
        hbar=st.floats(0.1, 10), mass=st.floats(0.1, 10),
        flux=st.floats(-10, 10),
    )
    @settings(max_examples=50)
    def test_agrees_with_flux_parameter_route(self, charge, light_speed, hbar, mass, flux):
        c = PhysicalConstants(charge=charge, light_speed=light_speed)
        via_delta = -2.0 * math.pi * hbar * flux_to_delta(c, flux, hbar=hbar) / mass
        direct = circulation_from_flux(c, mass, flux)
        assert direct == pytest.approx(via_delta, rel=1e-14, abs=1e-300)
