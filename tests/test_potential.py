import math

import numpy as np
import pytest

from bernbound import (INFINITY, arc_bound, arc_normal_derivative,
                       bernstein_bound, blaschke_product, boundary_point,
                       classify_poles, disk_normal_derivative,
                       domain_normal_derivative, eval_curve, green_disk,
                       green_domain, is_infinite, make_rational, map_eval,
                       map_invert, point_in_curve, poles_of, potential,
                       rf_eval, sample_grid, sup_norm, verify_ratio)
from bernbound.errors import ArcError, DomainError, PoleError

from helpers import random_split_rational
from oracles import (ellipse_exterior_green, ellipse_interior_green,
                     richardson_directional)


class TestDiskFormulas:
    CLOSED_FORMS = [
        (0.0, "interior", 1.0),
        (0.5, "interior", 3.0),
        (-0.5, "interior", 1.0 / 3.0),
        (0.3 + 0.4j, "interior", 15.0 / 13.0),
        (2.0, "exterior", 3.0),
        (1.25j, "exterior", 9.0 / 41.0),
        (INFINITY, "exterior", 1.0),
    ]

    def test_closed_form_values(self):
        for pole, side, want in self.CLOSED_FORMS:
            assert abs(disk_normal_derivative(pole, side) - want) < 1e-12

    def test_against_finite_differences(self):
        # the normal derivative is the boundary growth rate of the Green's
        # function along the inward normal of its own domain
        for pole, side, _ in self.CLOSED_FORMS:
            sign = -1.0 if side == "interior" else 1.0

            def along_normal(h):
                return green_disk(1.0 + sign * h, pole, side)

            fd = richardson_directional(along_normal, 0.0, 1.0, h=1e-3)
            want = disk_normal_derivative(pole, side)
            assert abs(fd - want) < 1e-6 * max(1.0, want)

    def test_circle_pole_rejected(self):
        with pytest.raises(PoleError):
            disk_normal_derivative(np.exp(0.4j), "interior")
        with pytest.raises(PoleError):
            disk_normal_derivative(1.0, "exterior")

    def test_wrong_side_rejected(self):
        with pytest.raises(DomainError):
            disk_normal_derivative(2.0, "interior")
        with pytest.raises(DomainError):
            disk_normal_derivative(0.5, "exterior")
        with pytest.raises(DomainError):
            disk_normal_derivative(0.5, "both")


class TestGreenDisk:
    def test_boundary_values_vanish(self):
        ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 33))
        assert np.max(np.abs(green_disk(ring, 0.5, "interior"))) < 1e-12
        assert np.max(np.abs(green_disk(ring, 2.0, "exterior"))) < 1e-12
        assert np.max(np.abs(green_disk(ring, INFINITY, "exterior"))) < 1e-12

    def test_center_values(self):
        assert abs(green_disk(0.0, 0.5, "interior") - math.log(2.0)) < 1e-14
        assert abs(green_disk(2.0, INFINITY, "exterior") - math.log(2.0)) < 1e-14

    def test_finite_exterior_pole(self):
        v, b = 1.5 - 0.5j, 2.0 + 1.0j
        want = math.log(abs(1.0 - np.conj(b) * v)) - math.log(abs(v - b))
        assert abs(green_disk(v, b, "exterior") - want) < 1e-14

    def test_positive_inside_domain(self, rng):
        for _ in range(50):
            a = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            v = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            if abs(v - a) < 1e-3:
                continue
            assert green_disk(v, a, "interior") > 0.0
            assert green_disk(1.0 / np.conj(v), 1.0 / np.conj(a),
                              "exterior") > 0.0

    def test_domain_violations_rejected(self):
        with pytest.raises(DomainError):
            green_disk(1.5, 0.5, "interior")
        with pytest.raises(DomainError):
            green_disk(0.5, 2.0, "exterior")
        with pytest.raises(DomainError):
            green_disk(0.5, 2.0, "both")
        with pytest.raises(PoleError):
            green_disk(0.5, 0.5, "interior")


class TestDomainPullback:
    CIRCLE_POLES = [(0.3 + 0.2j, True), (-0.5j, True), (0.0, True),
                    (2.0 - 1.0j, False), (INFINITY, False)]

    def test_circle_identity_is_exact(self, circle_pair):
        c, u0, pair = circle_pair
        for pole, inn in self.CIRCLE_POLES:
            side = "interior" if inn else "exterior"
            assert classify_poles([(pole, 1)], c).inside == (inn,)
            got = domain_normal_derivative(u0, pole, pair, inside=inn)
            assert abs(got - disk_normal_derivative(pole, side)) < 1e-12

    def test_circle_green_identity(self, circle_pair):
        c, u0, pair = circle_pair
        vs = [0.3 + 0.1j, -0.55j, 0.7]
        for v in vs:
            got = green_domain(v, 0.4j, pair, inside=True)
            assert abs(got - green_disk(v, 0.4j, "interior")) < 1e-10
        got = green_domain(1.8 - 0.3j, INFINITY, pair, inside=False)
        assert abs(got - green_disk(1.8 - 0.3j, INFINITY, "exterior")) < 1e-10

    def test_anchor_mismatch_rejected(self, circle_pair):
        c, u0, pair = circle_pair
        other = boundary_point(c, 1.0)
        with pytest.raises(DomainError):
            domain_normal_derivative(other, 0.5, pair, inside=True)

    def test_ellipse_interior_against_dirichlet_oracle(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        pole = 0.3 + 0.1j
        probes = [0.5 - 0.2j, -0.6 + 0.3j]
        want = ellipse_interior_green(pole, probes)
        got = [green_domain(p, pole, pair, inside=True) for p in probes]
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-4

    def test_ellipse_exterior_against_dirichlet_oracle(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        probes = [2.0 - 1.5j, -3.0 + 0.4j]
        want = ellipse_exterior_green(None, probes)
        got = [green_domain(p, INFINITY, pair, inside=False) for p in probes]
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-4

    def test_ellipse_finite_exterior_pole_against_oracle(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        pole = 2.5 + 1.0j
        probes = [2.0 - 1.5j, -3.0 + 0.4j]
        want = ellipse_exterior_green(pole, probes, h=0.005)
        got = [green_domain(p, pole, pair, inside=False) for p in probes]
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-4


class TestBernsteinBound:
    def test_circle_interior_multiplicity(self, circle_pair):
        c, u0, pair = circle_pair
        for n in (1, 4):
            ps = classify_poles([(0.0, n)], c)
            report = bernstein_bound(u0, ps, pair)
            assert abs(report.inner_sum - n) < 1e-12
            assert report.outer_sum == 0.0
            assert abs(report.bound - n) < 1e-12
            assert len(report.contributions) == n

    def test_circle_poles_at_infinity(self, circle_pair):
        c, u0, pair = circle_pair
        for n in (1, 3):
            ps = classify_poles([(INFINITY, n)], c)
            report = bernstein_bound(u0, ps, pair)
            assert abs(report.bound - n) < 1e-12
            assert report.inner_sum == 0.0

    def test_circle_mixed_example(self, circle_pair):
        c, u0, pair = circle_pair
        ps = classify_poles([(0.5, 1), (2.0, 1)], c)
        report = bernstein_bound(u0, ps, pair)
        assert abs(report.inner_sum - 3.0) < 1e-12
        assert abs(report.outer_sum - 3.0) < 1e-12
        assert abs(report.bound - 3.0) < 1e-12

    def test_report_invariants_on_ellipse(self, ellipse_pair, rng):
        e, u0, pair = ellipse_pair
        for _ in range(20):
            poles = [(complex(rng.uniform(0.2, 0.7)
                              * eval_curve(e, rng.uniform(0, 2 * np.pi))),
                      int(rng.integers(1, 4))),
                     (complex(rng.uniform(1.3, 2.5)
                              * eval_curve(e, rng.uniform(0, 2 * np.pi))),
                      int(rng.integers(1, 4))),
                     (INFINITY, int(rng.integers(1, 3)))]
            ps = classify_poles(poles, e)
            report = bernstein_bound(u0, ps, pair)
            assert all(c.value > 0.0 for c in report.contributions)
            assert len(report.contributions) == sum(m for _, m in poles)
            inner = math.fsum(c.value for c in report.contributions
                              if c.side == "inner")
            outer = math.fsum(c.value for c in report.contributions
                              if c.side == "outer")
            assert abs(report.inner_sum - inner) < 1e-15
            assert abs(report.outer_sum - outer) < 1e-15
            assert report.bound == max(report.inner_sum, report.outer_sum)

    def test_each_distinct_pole_inverted_once(self, ellipse_pair,
                                              monkeypatch):
        e, u0, pair = ellipse_pair
        poles = [(0.3 + 0.1j, 3), (2.0 - 0.5j, 2), (-0.2j, 1), (INFINITY, 4),
                 (-1.5 + 1.0j, 1)]
        ps = classify_poles(poles, e)
        calls = []

        def counting(cmap, u, *args, **kwargs):
            calls.append((cmap.side, np.atleast_1d(u).tolist()))
            return map_invert(cmap, u, *args, **kwargs)

        monkeypatch.setattr(potential, "map_invert", counting)
        report = bernstein_bound(u0, ps, pair)
        # at most one call per side, and every distinct pole in exactly one
        sides = [side for side, _ in calls]
        assert len(sides) == len(set(sides)) <= 2
        inverted = [u for _, us in calls for u in us]
        assert sorted(map(str, inverted)) == sorted(str(complex(a))
                                                    for a, _ in poles)
        # contributions keep the order of the expanded pole set and equal
        # the disk formula on one array inversion per side
        assert [(c.pole, c.side) for c in report.contributions] == [
            (a, "inner" if inn else "outer") for a, inn in ps.expanded()]
        pre = {}
        for cmap, side in ((pair.interior, True), (pair.exterior, False)):
            locs = [a for (a, _), inn in zip(ps.poles, ps.inside)
                    if inn == side]
            pre.update(zip(locs, map_invert(cmap, np.array(locs))))
        want = [disk_normal_derivative(
                    pre[a], "interior" if inn else "exterior")
                for a, inn in ps.expanded()]
        assert [c.value for c in report.contributions] == want
        # the one-pole form inverts each pole on its own, which may round
        # the last bits differently (the TestArrayInversion contract)
        for c, (a, inn) in zip(report.contributions, ps.expanded()):
            one = domain_normal_derivative(u0, a, pair, inside=inn)
            assert abs(c.value - one) <= 1e-13 * (1.0 + abs(c.value))

    def test_anchor_mismatch_rejected(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        ps = classify_poles([(INFINITY, 1)], e)
        with pytest.raises(DomainError):
            bernstein_bound(boundary_point(e, 2.0), ps, pair)


class TestArcs:
    def test_classical_bernstein_recovered(self, segment):
        for n in (1, 5):
            for x in (0.0, 0.3, 0.9):
                report = arc_bound(x, [(INFINITY, n)], segment)
                want = n / math.sqrt(1.0 - x * x)
                assert abs(report.bound - want) < 1e-9

    def test_midpoint_sides_symmetric(self, segment):
        v1 = arc_normal_derivative(0.0, "n1", INFINITY, segment)
        v2 = arc_normal_derivative(0.0, "n2", INFINITY, segment)
        assert abs(v1 - 1.0) < 1e-12
        assert abs(v2 - 1.0) < 1e-12

    def test_off_axis_pole_sides_differ(self, segment):
        v1 = arc_normal_derivative(0.3, "n1", 1.0j, segment)
        v2 = arc_normal_derivative(0.3, "n2", 1.0j, segment)
        assert v1 > 0.0 and v2 > 0.0
        assert abs(v1 - v2) > 1e-3

    def test_endpoint_rejected(self, segment):
        with pytest.raises(ArcError):
            arc_bound(1.0, [(INFINITY, 2)], segment)

    def test_unknown_side_rejected(self, segment):
        with pytest.raises(DomainError):
            arc_normal_derivative(0.0, "left", INFINITY, segment)

    def test_nan_pole_is_not_infinity(self, segment):
        # the NaN used to count as infinity, giving a bound of 2.645
        with pytest.raises(PoleError, match=r"nan"):
            arc_bound(0.2, [(float("nan"), 1), (2j, 1)], segment)

    def test_pole_on_arc_rejected(self, segment):
        with pytest.raises(PoleError):
            arc_normal_derivative(0.3, "n1", 0.5, segment)


class TestVerifyRatio:
    def test_blaschke_equality_case(self, circle_pair):
        c, u0, pair = circle_pair
        f = blaschke_product([0.5, 0.5])
        rec = verify_ratio(f, c, u0, maps=pair)
        assert abs(rec.ratio - 1.0) < 1e-9
        assert rec.degree == 2
        assert abs(rec.bound - 6.0) < 1e-9
        assert abs(rec.deriv_mod - 6.0) < 1e-9
        assert abs(rec.sup - 1.0) < 1e-10
        assert abs(rec.rough_ratio - rec.deriv_mod
                   / (rec.degree * rec.sup)) < 1e-15

    def test_chebyshev_on_segment(self, segment):
        t5 = make_rational((), poly=(0.0, 5.0, 0.0, -20.0, 0.0, 16.0))
        x_eq = math.cos(math.pi / 10.0)
        rec = verify_ratio(t5, segment, x_eq)
        assert abs(rec.ratio - 1.0) < 1e-8
        rec = verify_ratio(t5, segment, 0.1)
        want = abs(math.sin(5.0 * math.acos(0.1)))
        assert abs(rec.ratio - want) < 1e-8

    def test_chebyshev_ratio_never_exceeds_one(self, segment, rng):
        t5 = make_rational((), poly=(0.0, 5.0, 0.0, -20.0, 0.0, 16.0))
        for _ in range(20):
            x = rng.uniform(-0.95, 0.95)
            rec = verify_ratio(t5, segment, x)
            assert rec.ratio <= 1.0 + 1e-9

    def test_curve_requires_maps(self, circle_pair):
        c, u0, pair = circle_pair
        f = blaschke_product([0.5])
        with pytest.raises(DomainError):
            verify_ratio(f, c, u0)

    def test_degenerate_degree_rejected(self, circle_pair):
        c, u0, pair = circle_pair
        f = make_rational((), poly=(5.0,))
        with pytest.raises(DomainError):
            verify_ratio(f, c, u0, maps=pair)


class TestGrowthMajorant:
    def test_majorant_inequality(self, ellipse_pair, rng):
        # |f(u)| <= ||f|| * exp(sum of same-side Green values) near the
        # curve, the poles counted with multiplicity
        e, u0, pair = ellipse_pair
        _, pts = sample_grid(e, 512)
        for k in range(30):
            f = random_split_rational(rng, pts)
            sup, _ = sup_norm(f, e)
            r = rng.uniform(0.8, 0.97) if k % 2 else rng.uniform(1.03, 1.25)
            u = complex(r * eval_curve(e, rng.uniform(0.0, 2.0 * np.pi)))
            u_inside = r < 1.0
            total = 0.0
            for pole, mult in poles_of(f):
                p_in = (not is_infinite(pole)) and point_in_curve(e, pole)
                if p_in == u_inside:
                    total += mult * green_domain(u, pole, pair, inside=p_in)
            slack = sup * math.exp(total) - abs(rf_eval(f, u))
            assert slack >= -1e-8

    def test_opposite_side_maximum_principle(self, ellipse_pair, rng):
        # with all poles inside, the exterior sum is empty and the
        # majorant collapses to |f(u)| <= ||f||
        e, u0, pair = ellipse_pair
        for _ in range(10):
            a = complex(rng.uniform(0.1, 0.6)
                        * eval_curve(e, rng.uniform(0.0, 2.0 * np.pi)))
            f = make_rational([(a, (1.0 + 0.5j, 0.3))])
            sup, _ = sup_norm(f, e)
            r = rng.uniform(1.05, 2.0)
            u = complex(r * eval_curve(e, rng.uniform(0.0, 2.0 * np.pi)))
            assert abs(rf_eval(f, u)) <= sup + 1e-9

    def test_near_boundary_growth_stable(self, ellipse_pair):
        # max of g(Phi1(v), beta)/(|v|-1) over the extension collar is
        # finite and refinement-stable
        e, u0, pair = ellipse_pair
        betas = [1.9 - 0.6j, 3.0 + 1.0j, INFINITY]

        def growth_max(m):
            ks = np.arange(m)
            angles = 2.0 * np.pi * ks / m
            radii = 1.0 + pair.delta1 * ((ks % 16) + 1) / 16.0
            us = map_eval(pair.interior, radii * np.exp(1j * angles))
            best = 0.0
            for beta in betas:
                g = green_domain(us, beta, pair, inside=False)
                best = max(best, float(np.max(g / (radii - 1.0))))
            return best

        g_coarse = growth_max(512)
        g_fine = growth_max(2048)
        assert np.isfinite(g_coarse) and np.isfinite(g_fine)
        assert abs(g_fine - g_coarse) <= 0.10 * g_coarse
