import math

import numpy as np
import pytest

from bernbound import (arc_endpoints, arc_point, boundary_point, circle,
                       circular_arc, curve_derivative, distance_to_curve,
                       ellipse, eval_curve, param_of_point, point_in_curve,
                       rq_eval, rq_solve, sample_grid, segment_arc,
                       solve_exterior_map, solve_interior_map, trig_curve,
                       unit_normals, validate_curve, validate_openup,
                       winding_number)
from bernbound import conformal
from bernbound.curves import _SCAN_BAND, _SCAN_CHUNK, _simplicity_margin
from bernbound.errors import ArcError, CurveError, MapError
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import roll_simplicity_margin


class TestConstructors:
    def test_unit_circle_locus(self):
        c = circle()
        _, pts = sample_grid(c, 256)
        assert np.max(np.abs(np.abs(pts) - 1.0)) < 1e-14

    def test_shifted_circle_locus(self):
        c = circle(radius=2.5, center=1.0 - 0.5j)
        _, pts = sample_grid(c, 256)
        assert np.max(np.abs(np.abs(pts - (1.0 - 0.5j)) - 2.5)) < 1e-13

    def test_ellipse_locus(self):
        e = ellipse(1.2, 0.8)
        _, pts = sample_grid(e, 256)
        vals = (pts.real / 1.2) ** 2 + (pts.imag / 0.8) ** 2
        assert np.max(np.abs(vals - 1.0)) < 1e-13

    def test_invalid_parameters(self):
        with pytest.raises(CurveError):
            circle(radius=0.0)
        with pytest.raises(CurveError):
            ellipse(1.0, -0.5)
        with pytest.raises(CurveError):
            trig_curve([])

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0),
                                     complex(0.0, math.nan),
                                     complex(math.inf, 0.0),
                                     complex(0.0, -math.inf)])
    def test_non_finite_coefficient_names_its_pair(self, bad):
        with pytest.raises(CurveError, match=r"coefficient pair \(2, "):
            trig_curve([(1, 1.0), (2, bad)])

    def test_trig_curve_matches_pairs(self):
        # gamma(t) = e^{it} + 0.1 e^{2it}
        c = trig_curve([(1, 1.0 + 0j), (2, 0.1 + 0j)])
        t = 0.7
        expected = np.exp(1j * t) + 0.1 * np.exp(2j * t)
        assert abs(eval_curve(c, t) - expected) < 1e-14


class TestGeometry:
    def test_derivative_matches_finite_differences(self):
        e = ellipse(1.2, 0.8)
        t, h = 0.9, 1e-6
        fd = (eval_curve(e, t + h) - eval_curve(e, t - h)) / (2 * h)
        assert abs(curve_derivative(e, t) - fd) < 1e-8

    def test_normals_point_inward_and_outward(self):
        # positively oriented unit circle: the bounded-side normal at
        # gamma(0)=1 points toward the center
        c = circle()
        bp = boundary_point(c, 0.0)
        assert abs(bp.point - 1.0) < 1e-14
        assert abs(bp.n1 - (-1.0)) < 1e-12
        assert abs(bp.n2 - 1.0) < 1e-12
        assert abs(bp.n1 + bp.n2) < 1e-14

    def test_normals_unit_length_on_ellipse(self):
        e = ellipse(1.2, 0.8)
        for t in np.linspace(0.0, 6.2, 17):
            n1, n2 = unit_normals(e, t)
            assert abs(abs(n1) - 1.0) < 1e-12
            assert abs(n1 + n2) < 1e-14
            # stepping along n1 stays inside, along n2 outside (step well
            # below the minimal curvature radius b^2/a ~ 0.53)
            z = eval_curve(e, t)
            assert point_in_curve(e, z + 1e-2 * n1)
            assert not point_in_curve(e, z + 1e-2 * n2)

    def test_winding_and_membership(self):
        e = ellipse(1.2, 0.8)
        assert winding_number(e, 0.0) == 1
        assert point_in_curve(e, 0.3 + 0.2j)
        assert not point_in_curve(e, 1.5 + 0.5j)
        with pytest.raises(CurveError):
            winding_number(e, 1.2 + 0j)  # on the curve

    def test_param_of_point_roundtrip(self):
        # circles take the same Newton and check as every other curve
        for curve in (ellipse(1.2, 0.8), circle(), circle(1.7, 0.3 + 0.2j)):
            for t in (0.0, 0.4, 2.2, 2.345, 5.9):
                u = eval_curve(curve, t)
                t_back = param_of_point(curve, u)
                assert abs(eval_curve(curve, t_back) - u) < 1e-10
            # a point outside and the centre are off the curve
            centre = curve.coeffs[curve.order]
            for u in (centre + 2.5 * (eval_curve(curve, 0.0) - centre),
                      centre):
                with pytest.raises(CurveError, match="does not lie on"):
                    param_of_point(curve, u)
        for c in (circle(), circle(1.7, 0.3 + 0.2j)):
            assert param_of_point(c, eval_curve(c, 2.345)) == 2.345

    def test_distance_to_curve(self):
        c = circle()
        assert abs(distance_to_curve(c, 0.0) - 1.0) < 1e-4
        assert abs(distance_to_curve(c, 3.0 + 0j) - 2.0) < 1e-4

    def test_validation_accepts_round_rejects_crossing(self):
        assert validate_curve(ellipse(1.2, 0.8)).ok
        # figure-eight-like curve: dominant second harmonic self-intersects
        bad = trig_curve([(1, 0.3 + 0j), (2, 1.0 + 0j)])
        report = validate_curve(bad)
        assert not report.ok


class TestSimplicityScan:
    """The windowed scan against the one-roll-per-offset loop, bit for bit."""

    @pytest.mark.parametrize("m", [7, 8, 9, 64, 100, 512, 1024])
    def test_matches_roll_loop(self, m, rng):
        ts = np.arange(m) * (2 * np.pi / m)
        rings = [
            rng.standard_normal(m) + 1j * rng.standard_normal(m),
            np.cumsum(rng.standard_normal(m) + 1j * rng.standard_normal(m)),
            np.cos(ts) + 1j * np.sin(ts) * np.cos(ts),  # figure-eight
            sample_grid(ellipse(1.2, 0.8), m)[1],
        ]
        for pts in rings:
            step = float(rng.uniform(0.01, 1.0))
            assert _simplicity_margin(pts, step) == \
                roll_simplicity_margin(pts, step)

    @settings(deadline=None, max_examples=60)
    @given(m=st.sampled_from([7, 9, 100, 511, 512, 1000, 1024]),
           kind=st.sampled_from(["crowded", "pinched", "walk"]),
           shape=st.floats(0.0, 0.9), seed=st.integers(0, 2 ** 32 - 1))
    @example(m=512, kind="crowded", shape=0.9, seed=0)
    @example(m=1000, kind="pinched", shape=0.0, seed=1)
    @example(m=1024, kind="walk", shape=0.0, seed=2)
    def test_pruned_scan_matches_roll_loop(self, m, kind, shape, seed):
        # rings the chunk bounds prune poorly: samples crowded by the
        # margin walk's Moebius prefix (s = shape), two lobes whose neck
        # (half-width 1e-6 .. 0.3) pairs samples m/2 apart, far beyond the
        # band, and random walks that fold back on themselves
        rng = np.random.default_rng(seed)
        ts = np.arange(m) * (2 * np.pi / m) + rng.uniform(0, 2 * np.pi)
        z = np.exp(1j * ts)
        if kind == "crowded":
            pts = (z + shape) / (1 + shape * z)
        elif kind == "pinched":
            neck = 1e-6 + shape / 3
            pts = np.cos(ts) + 1j * np.sin(ts) * (neck + np.cos(ts) ** 2)
        else:
            pts = np.cumsum(rng.standard_normal(m)
                            + 1j * rng.standard_normal(m))
        pts = pts * complex(*rng.uniform(0.5, 2.0, 2)) + rng.standard_normal()
        step = float(rng.uniform(0.01, 1.0))
        assert _simplicity_margin(pts, step) == \
            roll_simplicity_margin(pts, step)

    @pytest.mark.parametrize("m", [100, 103, 256, 511, 1024])
    def test_planted_pairs_at_the_scan_edges(self, m, rng):
        # a circle with one sample moved next to another, k samples on,
        # for each k where the scan changes hands: skip (the first far
        # offset), the band's last offset, the first past it, the half
        # ring.  Moved from the first and last sample of each chunk, where
        # a chunk pair's farthest pair lies, on the rings up to 256 (skip
        # 16 there, so the band's last offset joins the first sample of one
        # chunk to the last of another), from 8 random samples on the rest
        skip = max(4, m // 16)
        far = skip + _SCAN_BAND
        ring = np.exp(1j * np.arange(m) * (2 * np.pi / m))
        starts = ([i for i in range(m) if i % _SCAN_CHUNK in (0, 15)]
                  if m <= 256 else rng.integers(0, m, 8))
        for k in (skip - 1, skip, far - 1, far, far + 1, m // 2 - 1, m // 2):
            for i in starts:
                pts = ring.copy()
                pts[(i + k) % m] = pts[i] + 1e-6 * np.exp(2j * rng.random())
                assert _simplicity_margin(pts, 1.0) == \
                    roll_simplicity_margin(pts, 1.0)

    def test_walk_margins_match_the_roll_loop(self, monkeypatch):
        # the margin walk's delta with the roll loop as its scan, bit for
        # bit: seeded batch-shaped ellipses (b/a 0.5 .. 0.9, any anchor)
        # and the first trig curves of the census family
        rng = np.random.default_rng(21)
        curves = []
        for _ in range(8):
            a = rng.uniform(0.8, 1.6)
            curves.append((ellipse(a, a * rng.uniform(0.5, 0.9)),
                           rng.uniform(0, 2 * np.pi)))
        rng = np.random.default_rng(606)
        while len(curves) < 12:
            ks = rng.choice([-3, -2, -1, 2, 3], int(rng.integers(1, 4)),
                            replace=False)
            c = trig_curve([(1, 1.0 + 0j)] + [
                (int(k), complex(*rng.uniform(-0.2, 0.2, 2))) for k in ks])
            if validate_curve(c).ok:
                curves.append((c, 0.0))
        maps = []
        for c, t in curves:
            for solve in (solve_interior_map, solve_exterior_map):
                try:
                    cmap = solve(c, boundary_point(c, t))
                except MapError:
                    continue
                if not conformal._is_closed_form(cmap):
                    maps.append(cmap)
        assert len(maps) >= 12
        pruned = [conformal._measure_margin(cmap) for cmap in maps]
        assert pruned == [cmap.delta for cmap in maps]
        monkeypatch.setattr(conformal, "_simplicity_margin",
                            roll_simplicity_margin)
        assert [conformal._measure_margin(cmap) for cmap in maps] == pruned

    def test_map_margins_are_pinned(self, circle_pair, ellipse_pair):
        # each delta is a ladder step the scan accepted, halved; a scan
        # that moved by one bit could move a map's verified domain
        assert circle_pair[2].interior.delta == 1.0842021724855044
        assert circle_pair[2].exterior.delta == 0.4440892098500626
        assert ellipse_pair[2].interior.delta == 0.03814697265625
        assert ellipse_pair[2].exterior.delta == 0.22737367544323206


class TestArcs:
    def test_segment_endpoints_and_locus(self, segment):
        ends = sorted(arc_endpoints(segment), key=lambda z: z.real)
        assert abs(ends[0] - (-1.0)) < 1e-12
        assert abs(ends[1] - 1.0) < 1e-12
        _, zs = sample_grid(segment, 64)
        assert np.max(np.abs(zs.imag)) < 1e-12
        assert np.max(np.abs(zs.real)) <= 1.0 + 1e-12

    def test_segment_openup_is_joukowski(self, segment):
        # both preimages of z map through (u + 1/u)/2
        for u in (np.exp(0.7j), 1.3 * np.exp(0.4j), 0.5 * np.exp(2.2j)):
            z = 0.5 * (u + 1.0 / u)
            assert abs(rq_eval(segment.fmap, u) - z) < 1e-12

    def test_rq_solve_roundtrip(self, segment):
        for z in (0.3 + 0.8j, -1.7 + 0.2j, 0.1 - 2.0j):
            sols = rq_solve(segment.fmap, z)
            assert len(sols) == 2
            for u in sols:
                assert abs(rq_eval(segment.fmap, u) - z) < 1e-10

    def test_general_segment(self):
        za, zb = 1.0 + 1.0j, 3.0 - 1.0j
        arc = segment_arc(za, zb)
        ends = sorted(arc_endpoints(arc), key=lambda z: z.real)
        assert abs(ends[0] - za) < 1e-10
        assert abs(ends[1] - zb) < 1e-10
        _, zs = sample_grid(arc, 64)
        # locus is the straight segment: collinear with the endpoints
        cross = np.abs((zs - za) * np.conj(zb - za)
                       - np.conj(zs - za) * (zb - za))
        assert np.max(cross) < 1e-9

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ArcError):
            segment_arc(1.0 + 0j, 1.0 + 0j)

    def test_circular_arc(self):
        theta0 = 0.8
        arc = circular_arc(theta0)
        za, zb = arc_endpoints(arc)
        assert min(abs(za - np.exp(1j * theta0)),
                   abs(za - np.exp(-1j * theta0))) < 1e-12
        assert min(abs(zb - np.exp(1j * theta0)),
                   abs(zb - np.exp(-1j * theta0))) < 1e-12
        _, zs = sample_grid(arc, 64)
        assert np.max(np.abs(np.abs(zs) - 1.0)) < 1e-10
        with pytest.raises(ArcError):
            circular_arc(0.0)
        with pytest.raises(ArcError):
            circular_arc(np.pi)

    def test_arc_point_on_locus(self, segment):
        z = arc_point(segment, 0.25)
        assert abs(z.imag) < 1e-12 and abs(z.real) <= 1.0

    @pytest.mark.parametrize("m", [333, 4096, 8192])
    def test_arc_points_are_the_unit_circle_images(self, segment, m):
        # the open-up maps act on the unit circle, sampled as a curve
        ts = np.arange(m) * (2 * np.pi / m)
        ring = eval_curve(circle(), ts)
        for arc in (segment, segment_arc(1.0 + 1.0j, 3.0 - 1.0j),
                    circular_arc(0.8, 1.5, 0.2j, 0.3)):
            assert np.array_equal(arc_point(arc, ts), rq_eval(arc.fmap, ring))
            assert arc_point(arc, ts[7]) == rq_eval(arc.fmap, ring[7])

    def test_distance_to_arc(self, segment):
        assert abs(distance_to_curve(segment, 0.0 + 1.0j) - 1.0) < 1e-4
        assert abs(distance_to_curve(segment, 2.0 + 0j) - 1.0) < 1e-4

    def test_openup_validation(self, segment):
        assert validate_openup(segment).ok
        assert validate_openup(circular_arc(1.1)).ok
