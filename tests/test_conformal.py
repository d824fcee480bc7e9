import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from bernbound import (AnalyticCurve, boundary_point, circle, ellipse, eval_curve,
                       map_derivative, map_eval, map_from_json, map_invert,
                       map_to_json, openup_preimages, param_of_point,
                       point_in_curve, roundtrip_residual, sample_grid,
                       segment_arc, solve_exterior_map, solve_interior_map,
                       solve_map_pair, trig_curve, validate_curve)
from bernbound import conformal
from bernbound.conformal import (_MARGIN_LADDER, _moebius, _poly_eval,
                                 exterior_pole)
from bernbound.errors import ArcError, MapError, MapInvertError, NumericsError
from bernbound.potential import (bernstein_bound, disk_normal_derivative,
                                 domain_normal_derivative)
from bernbound.ratfun import classify_poles
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from helpers import CORPUS_EXTERIOR, CORPUS_INTERIOR
from oracles import (horner_eval, newton_map_invert, polar_theodorsen_core,
                     richardson_directional)


def true_curve_distances(curve, zs, m=4096):
    """Distances from each z to the curve, refined past sample resolution."""
    ts, pts = sample_grid(curve, m)
    step = 2 * np.pi / m
    out = []
    for z in np.asarray(zs).ravel():
        i = int(np.argmin(np.abs(pts - z)))
        res = minimize_scalar(lambda t: abs(eval_curve(curve, t) - z),
                              bounds=(ts[i] - step, ts[i] + step),
                              method="bounded", options={"xatol": 1e-14})
        out.append(res.fun)
    return np.array(out)


def star_points(curve, rng, n, r_lo, r_hi):
    """Random points r*gamma(theta); the curves here are star-shaped."""
    thetas = rng.uniform(0.0, 2 * np.pi, n)
    radii = rng.uniform(r_lo, r_hi, n)
    return [complex(r * eval_curve(curve, t))
            for r, t in zip(radii, thetas)]


class TestCircleClosedForms:
    def test_unit_circle_interior_identity(self, circle_pair):
        c, u0, pair = circle_pair
        for v in (0.0, 0.3 + 0.1j, -0.7j, 0.99):
            assert abs(map_eval(pair.interior, v) - v) < 1e-12
        assert abs(pair.interior.anchor - 1.0) < 1e-13
        assert abs(abs(pair.interior.anchor_deriv) - 1.0) < 1e-12

    def test_unit_circle_exterior_identity(self, circle_pair):
        c, u0, pair = circle_pair
        for v in (2.0, 1.5 + 0.5j, -3.0j):
            assert abs(map_eval(pair.exterior, v) - v) < 1e-12

    def test_radius_two_normalization(self):
        # raw map 2v; the anchor automorphism solves (1-s)/(1+s)*2 = 1,
        # s = 1/3, so the normalized map sends 0 to 2*(1/3) = 2/3
        c = circle(radius=2.0)
        u0 = boundary_point(c, 0.0)
        m = solve_interior_map(c, u0)
        assert abs(map_eval(m, 0.0) - 2.0 / 3.0) < 1e-12
        assert abs(map_eval(m, 1.0) - 2.0) < 1e-12
        assert abs(abs(map_derivative(m, 1.0)) - 1.0) < 1e-12

    def test_shifted_circle_exterior_translation(self):
        # unit circle shifted by 5: the exterior map becomes v + 5
        c = circle(center=5.0 + 0j)
        u0 = boundary_point(c, 0.0)  # the point 6
        m = solve_exterior_map(c, u0)
        for v in (1.5, 2.0 - 1.0j, 4.0j):
            assert abs(map_eval(m, v) - (v + 5.0)) < 1e-12

    def test_invert_examples(self, circle_pair):
        c, u0, pair = circle_pair
        v = map_invert(pair.interior, 0.3 + 0.1j)
        assert abs(v - (0.3 + 0.1j)) < 1e-12


class TestEllipseMaps:
    def test_roundtrip_interior(self, ellipse_pair, rng):
        e, u0, pair = ellipse_pair
        pts = star_points(e, rng, 100, 0.05, 0.95)
        worst = max(abs(map_eval(pair.interior,
                                 map_invert(pair.interior, z)) - z)
                    for z in pts)
        assert worst < 1e-8

    def test_roundtrip_exterior(self, ellipse_pair, rng):
        e, u0, pair = ellipse_pair
        pts = star_points(e, rng, 100, 1.05, 3.0)
        worst = max(abs(map_eval(pair.exterior,
                                 map_invert(pair.exterior, z)) - z)
                    for z in pts)
        assert worst < 1e-8

    def test_boundary_match(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        ring = np.exp(1j * np.linspace(0, 2 * np.pi, 257)[:-1])
        for cmap in (pair.interior, pair.exterior):
            img = map_eval(cmap, ring)
            assert np.max(true_curve_distances(e, img)) < 1e-6

    def test_anchor_invariants(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        for cmap in (pair.interior, pair.exterior):
            assert abs(cmap.anchor - u0.point) < 1e-8
            assert abs(abs(cmap.anchor_deriv) - 1.0) < 1e-8
        # both derivatives share their argument (the maps bend the two
        # normals onto each other), within 1e-6
        d1, d2 = pair.interior.anchor_deriv, pair.exterior.anchor_deriv
        assert abs(d1 / d2 - 1.0) < 1e-6
        # and the common direction is the outward normal
        assert abs(d1 / abs(d1) - u0.n2) < 1e-6

    def test_exterior_matches_joukowski_family(self, ellipse_pair):
        # classical exterior map J(w) = c*w + d/w, which fixes infinity;
        # the solved map uses the anchor normalization instead, so the two
        # differ by a Mobius automorphism of the exterior disk.  Fit that
        # automorphism from three correspondences and check it explains
        # the entire map, on the boundary and off it.
        e, u0, pair = ellipse_pair
        a, b = 1.2, 0.8
        c_val, d_val = (a + b) / 2.0, (a - b) / 2.0

        def joukowski(w):
            return c_val * w + d_val / w

        def family_invert(u):
            # the two quadratic roots multiply to d/c < 1, so the
            # exterior preimage is simply the larger one
            disc = np.sqrt((u / c_val) ** 2 - 4 * d_val / c_val + 0j)
            w_plus = (u / c_val + disc) / 2.0
            w_minus = (u / c_val - disc) / 2.0
            return w_plus if abs(w_plus) >= abs(w_minus) else w_minus

        def mobius_through(vs, ws):
            # matrix of the map sending vs -> ws, via z1,z2,z3 -> 0,1,inf
            def std(z1, z2, z3):
                return np.array([[z2 - z3, -z1 * (z2 - z3)],
                                 [z2 - z1, -z3 * (z2 - z1)]])
            mat_v, mat_w = std(*vs), std(*ws)
            w_inv = np.array([[mat_w[1, 1], -mat_w[0, 1]],
                              [-mat_w[1, 0], mat_w[0, 0]]])
            return w_inv @ mat_v

        ts = np.linspace(0.1, 2 * np.pi, 64)
        vs, ws = [], []
        for t in ts:
            u = eval_curve(e, t)
            vs.append(map_invert(pair.exterior, u))
            ws.append(family_invert(u))
        assert max(abs(abs(w) - 1.0) for w in ws) < 1e-12
        assert max(abs(abs(v) - 1.0) for v in vs) < 1e-9

        m = mobius_through(vs[0:48:21], ws[0:48:21])

        def reparam(v):
            return (m[0, 0] * v + m[0, 1]) / (m[1, 0] * v + m[1, 1])

        # the fitted reparametrization explains every boundary pair
        assert max(abs(reparam(v) - w) for v, w in zip(vs, ws)) < 1e-8
        # it is an automorphism of the exterior: its pole (the preimage
        # of infinity under the solved map) lies outside the unit circle
        assert abs(-m[1, 1] / m[1, 0]) > 1.0
        # and the composed classical map reproduces the solved one on a
        # ring strictly outside the unit circle
        ring = 1.4 * np.exp(1j * np.linspace(0.05, 2 * np.pi, 40))
        worst = max(abs(joukowski(reparam(v)) - map_eval(pair.exterior, v))
                    for v in ring)
        assert worst < 1e-8

    def test_anchor_derivative_by_finite_differences(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        for cmap in (pair.interior, pair.exterior):
            fd = richardson_directional(lambda v: map_eval(cmap, v),
                                        1.0 + 0j, 1.0 + 0j, h=1e-5)
            assert abs(fd - cmap.anchor_deriv) < 1e-7

    def test_extension_margin_positive(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        assert pair.delta1 > 0.0
        # evaluation on the extended annulus stays injective enough to
        # round-trip boundary-adjacent points
        v = (1.0 + pair.delta1 / 2) * np.exp(0.7j)
        u = map_eval(pair.interior, v)
        assert not point_in_curve(e, u)

    def test_serialization_roundtrip(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        clone = map_from_json(map_to_json(pair.interior))
        ring = 0.7 * np.exp(1j * np.linspace(0, 6.2, 23))
        assert np.max(np.abs(map_eval(clone, ring)
                             - map_eval(pair.interior, ring))) == 0.0


class TestTheodorsen:
    """Series maps of a general curve through the public solves (named for
    the solver the Szego solve replaced): a solved pair, the refusals of a
    bad argument and of a far point, the roundtrip helper and an
    overflowing margin rung."""

    def test_perturbed_circle(self):
        # three-lobed analytic perturbation, solved numerically
        c = trig_curve([(1, 1.0 + 0j), (4, 0.06 + 0j)])
        u0 = boundary_point(c, 0.3)
        pair = solve_map_pair(c, u0)
        ring = np.exp(1j * np.linspace(0, 2 * np.pi, 129)[:-1])
        for cmap in (pair.interior, pair.exterior):
            img = map_eval(cmap, ring)
            assert np.max(true_curve_distances(c, img)) < 1e-6
            assert abs(cmap.anchor - u0.point) < 1e-8

    def test_interior_map_rejects_bad_argument(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        with pytest.raises(NumericsError):
            map_eval(pair.interior, 5.0 + 0j)  # far outside the disk

    def test_invert_rejects_far_point(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        with pytest.raises(MapError):
            map_invert(pair.interior, 40.0 + 3.0j)

    def test_roundtrip_residual_helper(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        pts = [0.2 + 0.1j, -0.4 - 0.2j, 0.6j]
        assert roundtrip_residual(pair.interior, pts) < 1e-9

    def test_overflowing_margin_rung_warns_nothing(self):
        # the 4,096-term interior series overflows _poly_eval on the first
        # rung, which then fails on its non-finite points
        e = ellipse(1.0, 0.35)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = solve_map_pair(e, boundary_point(e, 0.0))
        assert len(pair.interior.series) == 4096
        assert pair.interior.delta == 0.0
        assert pair.exterior.delta == 0.0476837158203125


def _side_core(side, curve, z_c, m):
    """(series, tail) of one side's raw core on grid m, from the side's one
    correspondence, as _resolved_core hands it to each grid."""
    core, sign = ((conformal._interior_core, 1) if side == "interior"
                  else (conformal._exterior_core, -1))
    return core(curve, z_c, conformal._correspondence(curve, z_c, sign), m)


# (curve, anchor t) solved both ways: the Szego solve on the curve parameter
# against Theodorsen's polar iteration, oracles.polar_theodorsen_core
_ORACLE_CASES = [(ellipse(1.0, b), 6.3)
                 for b in (0.5, 0.6, 0.7, 0.742654, 0.8, 0.9)] + [
    (ellipse(1.2, 0.8), 0.4),
    (trig_curve([(1, 1.0 + 0j), (4, 0.06 + 0j)]), 0.3)]


class TestTheodorsenOracle:
    """The Szego solve's series on grid 1024 against Theodorsen's polar
    iteration (oracles.polar_theodorsen_core, the oracle the name refers
    to): coefficients, delta and tail, on both sides."""

    @pytest.mark.parametrize("curve,t", _ORACLE_CASES)
    def test_matches_polar_reinversion(self, curve, t):
        # both sides of every case, the ellipse exteriors included (their
        # solve takes the closed form, but the core solves them as curves);
        # the normalized maps share the anchor, so delta and tail compare
        u0 = boundary_point(curve, t)
        z_c = conformal._interior_center(curve)
        for side in ("interior", "exterior"):
            series, tail = _side_core(side, curve, z_c, 1024)
            want, want_tail = polar_theodorsen_core(curve, z_c, 1024, 1e-11,
                                                    side)
            assert len(series) == len(want)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(series - want)) <= 1e-13 * scale
            got, ref = (conformal._with_margin(conformal.normalize_at_anchor(
                conformal._raw_map(side, c, tl, 1024), u0))
                for c, tl in ((series, tail), (want, want_tail)))
            assert got.delta == ref.delta
            # at the trim floor the tails are equal; above it (ellipse(1,
            # 0.5) interior, 4.9e-14) both read a genuine truncation that
            # the two converged iterates sample a rounding apart
            assert (got.tail == ref.tail if ref.tail == conformal._TRIM_REL
                    else got.tail == pytest.approx(ref.tail, rel=1e-6))

    def test_no_per_step_curve_evaluation(self, monkeypatch):
        # each step reads gamma and gamma' from its own jet; eval_curve
        # runs once, at the converged correspondence
        calls = []
        real = conformal.eval_curve

        def counting(curve, t):
            calls.append(np.size(t))
            return real(curve, t)

        monkeypatch.setattr(conformal, "eval_curve", counting)
        e = ellipse(1.2, 0.8)
        _side_core("interior", e, conformal._interior_center(e), 1024)
        assert calls == [1024]


class TestDerivedGrid:
    """Each series side is solved on the grids 1024, 2048, ... in turn and
    keeps the first whose tail is at most _TAIL_TOL."""

    def test_golden_ellipse_stays_on_the_first_grid(self, ellipse_pair):
        _, _, pair = ellipse_pair
        assert pair.interior.grid == pair.exterior.grid == 1024
        assert pair.interior.tail <= conformal._TAIL_TOL

    def test_thin_ellipse_resolves_on_a_larger_grid(self, monkeypatch):
        grids = []
        real = conformal._interior_core

        def recording(curve, z_c, corr, m):
            series, tail = real(curve, z_c, corr, m)
            grids.append((m, tail))
            return series, tail

        monkeypatch.setattr(conformal, "_interior_core", recording)
        e = ellipse(1.0, 0.4)
        pair = solve_map_pair(e, boundary_point(e, 0.0))
        assert [m for m, _ in grids] == [1024, 2048, 4096]
        assert all(tail > conformal._TAIL_TOL for _, tail in grids[:-1])
        assert pair.interior.grid == 4096
        assert pair.interior.tail == grids[-1][1] <= conformal._TAIL_TOL
        assert pair.exterior.grid == 1024  # the closed form
        # the round trip of acceptance 4 at its tolerance
        rng = np.random.default_rng(1729)
        worst = 0.0
        for cmap, lo, hi in ((pair.interior, 0.05, 0.95),
                             (pair.exterior, 1.05, 3.0)):
            for _ in range(50):
                u = complex(rng.uniform(lo, hi)
                            * eval_curve(e, rng.uniform(0.0, 2 * np.pi)))
                worst = max(worst, abs(map_eval(cmap, map_invert(cmap, u))
                                       - u))
        assert worst < 1e-8

    def test_unresolved_series_names_the_cap(self):
        e = ellipse(1.0, 0.3)
        with pytest.raises(MapError, match="series unresolved at m=8192"):
            solve_map_pair(e, boundary_point(e, 0.0))


# x = cos t, y = 0.2 sin t + cos^2 t: a simple, positively oriented crescent
# whose mean point c_0 = 0.5i lies outside it
_CRESCENT = trig_curve([(1, 0.6), (-1, 0.4), (0, 0.5j), (2, 0.25j),
                        (-2, 0.25j)])
# the damping case of the former Wegmann iteration: its full first step from
# S = theta folded S
_DAMPED = trig_curve([(1, 1), (-2, 0.0068 + 0.1549j),
                      (-1, -0.177 - 0.106j)])


def _s_tail(s):
    """The Fourier tail of the n samples s that ends the ladder of Nystrom
    sizes: max |s_k| over n/4 <= |k| <= n/2, over max |s_k|."""
    n = len(s)
    spec = np.abs(np.fft.fft(s))
    return float(np.max(spec[n // 4:n - n // 4 + 1]) / np.max(spec))


class TestWegmann:
    """The series solve (named for the iteration it replaced): one
    Kerzman-Stein solve for the Szego kernel per side and solve, its
    Nystrom size doubling over _SZEGO_GRIDS, and the correspondence it
    gives handed to every grid of _GRIDS."""

    @staticmethod
    def recorded(monkeypatch):
        """(sign, n, Fourier tail of S) of every _szego call, in call
        order."""
        log = []
        real = conformal._szego

        def recording(curve, center, sign, n):
            out = real(curve, center, sign, n)
            log.append((sign, n, _s_tail(out[0])))
            return out

        monkeypatch.setattr(conformal, "_szego", recording)
        return log

    def test_golden_interior_takes_one_solve(self, monkeypatch):
        # S is resolved at the first Nystrom size (tail 9.4e-12 measured);
        # the exterior is the closed form, with no solve
        log = self.recorded(monkeypatch)
        e = ellipse(1.2, 0.8)
        solve_map_pair(e, boundary_point(e, 0.4))
        assert [(sign, n) for sign, n, _ in log] == [(1, 128)]
        assert log[0][2] < 1e-10

    def test_each_pair_solve_runs_one_ladder_per_series_side(
            self, monkeypatch):
        # both sides of the trig curve are series, each from one ladder of
        # Nystrom sizes; nothing is kept between two solves of one curve
        log = self.recorded(monkeypatch)
        c = trig_curve([(1, 1.0), (4, 0.06)])
        u0 = boundary_point(c, 0.3)
        first = solve_map_pair(c, u0)
        ladder = [(sign, n) for sign, n, _ in log]
        assert [sign for sign, _ in ladder] == sorted(
            (sign for sign, _ in ladder), reverse=True)
        for side in (1, -1):
            sizes = [n for sign, n in ladder if sign == side]
            assert sizes == list(conformal._SZEGO_GRIDS[:len(sizes)])
        second = solve_map_pair(c, u0)
        assert [(sign, n) for sign, n, _ in log] == ladder + ladder
        assert second == first

    @pytest.mark.parametrize("a,b", [(1.2, 0.8), (1.0, 0.4)])
    def test_ellipse_exterior_is_the_closed_form(self, a, b):
        # the ellipse's own parametrization is its exterior correspondence:
        # the Szego solve reads theta' = |S|^2 |g'| / mean = 1, and the core
        # (which takes theta(t) = t from the curve's coefficients) is the
        # closed form
        e = ellipse(a, b)
        s, _, speed = conformal._szego(e, 0j, -1, 128)
        dtheta = np.abs(s) ** 2 * speed
        assert np.max(np.abs(dtheta / np.mean(dtheta) - 1.0)) < 1e-13
        series, tail = _side_core("exterior", e, 0j, 1024)
        closed = conformal._closed_exterior_ellipse(a, b)
        assert tail == conformal._TRIM_REL
        assert np.max(np.abs(series - np.pad(closed, (0, len(series) - 3)))
                      ) < 1e-15

    def test_damped_resolves_on_grid_4096(self, monkeypatch):
        # the curve whose first full Wegmann step folded the correspondence:
        # one ladder of Nystrom sizes inside, the series on grid 4096
        # (Theodorsen's iteration needed 8192); no k >= 2 term, so the
        # exterior takes theta(t) = t with no solve
        log = self.recorded(monkeypatch)
        pair = solve_map_pair(_DAMPED, boundary_point(_DAMPED, 0.0))
        assert pair.interior.grid == 4096 and pair.exterior.grid == 1024
        assert max(pair.interior.tail,
                   pair.exterior.tail) <= conformal._TAIL_TOL
        sizes = [n for _, n, _ in log]
        assert sizes == list(conformal._SZEGO_GRIDS[:len(sizes)])
        assert {sign for sign, _, _ in log} == {1}
        assert log[-1][2] <= conformal._SZEGO_TOL

    def test_thin_ellipse_walks_the_grids_with_one_solve(self, monkeypatch):
        # ellipse(1, 0.4)'s interior series resolves only on grid 4096; the
        # three grids share the one Szego solve (sizes 128 and 256)
        log = self.recorded(monkeypatch)
        grids = []
        real = conformal._interior_core

        def recording(curve, z_c, corr, m):
            grids.append(m)
            return real(curve, z_c, corr, m)

        monkeypatch.setattr(conformal, "_interior_core", recording)
        e = ellipse(1.0, 0.4)
        pair = solve_map_pair(e, boundary_point(e, 0.0))
        assert grids == [1024, 2048, 4096] and pair.interior.grid == 4096
        assert [(sign, n) for sign, n, _ in log] == [(1, 128), (1, 256)]
        assert log[-1][2] <= conformal._SZEGO_TOL

    def test_trig166_refuses_with_s_resolved(self, monkeypatch):
        # the refusal is the series' truncation (tail 4.4e-6 on grid 8192),
        # not the correspondence: S is resolved below the largest size
        log = self.recorded(monkeypatch)
        c = trig_curve([(1, 1), (-3, 0.13913 + 0.18653j)])
        assert validate_curve(c).ok
        with pytest.raises(MapError, match="series unresolved at m=8192"):
            solve_interior_map(c, boundary_point(c, 0.0))
        sign, n, tail = log[-1]
        assert len(log) == 3 and n < conformal._SZEGO_GRIDS[-1]
        assert tail <= conformal._SZEGO_TOL

    def test_near_cusp_polynomial_is_its_own_map(self, monkeypatch):
        # gamma = P(e^(it)) with |P'| down to 0.0046 on the circle: S is
        # nearly singular in t (Fourier tail 1.4e-2 at n = 1024), but P is
        # the interior map, taken with no solve
        log = self.recorded(monkeypatch)
        c = trig_curve([(1, 1), (2, 0.16284 + 0.06433j),
                        (3, -0.1595 - 0.14429j)])
        assert validate_curve(c).ok
        cmap = solve_interior_map(c, boundary_point(c, 0.0))
        assert log == [] and cmap.grid == 1024
        want = np.pad(np.array(c.coeffs[3:]), (0, 4))
        assert np.max(np.abs(np.subtract(cmap.series, want))) < 1e-15
        assert _s_tail(conformal._szego(c, 0j, 1, 1024)[0]) > 1e-3

    @settings(max_examples=20, deadline=None)
    @example(terms=[(-2, 0.03 + 0.02j)])
    @example(terms=[(3, 0.04j), (-1, 0.01)])
    @given(st.lists(st.tuples(st.sampled_from([-3, -2, -1, 2, 3]),
                              st.complex_numbers(max_magnitude=0.2)),
                    min_size=1, max_size=2, unique_by=lambda term: term[0]))
    def test_solved_boundary_lies_on_the_curve(self, terms):
        # wherever the solve succeeds, both maps send the unit circle (off
        # the solve grid) onto the curve; within 0.05 of the unit circle it
        # always succeeds
        curve = trig_curve([(1, 1.0)] + terms)
        assume(validate_curve(curve).ok)
        try:
            pair = solve_map_pair(curve, boundary_point(curve, 0.0))
        except MapError:
            assert sum(abs(c) for _, c in terms) > 0.05
            return
        ring = np.exp(1j * (np.arange(64) + 0.5) * (2 * np.pi / 64))
        for cmap in (pair.interior, pair.exterior):
            for u in map_eval(cmap, ring):
                t = param_of_point(curve, u)
                assert abs(eval_curve(curve, t) - u) <= 1e-10

    @pytest.mark.parametrize("side,k", [("interior", 0), ("exterior", 1)])
    def test_translation_moves_only_the_constant(self, side, k):
        # both sides are solved about c_0, so a shifted curve's core is the
        # centred one's with the shift added to the constant term
        pairs = [(1, 1.0), (-2, 0.0068 + 0.1549j), (-1, -0.177 - 0.106j)]
        shift = 0.3 + 0.2j
        moved = trig_curve(pairs + [(0, shift)])
        want, want_tail = _side_core(side, trig_curve(pairs), 0j, 1024)
        got, tail = _side_core(side, moved, conformal._interior_center(moved),
                               1024)
        got[k] -= shift
        assert len(got) == len(want)
        assert np.max(np.abs(got - want)) < 1e-15
        assert tail == pytest.approx(want_tail, rel=1e-6)

    @pytest.mark.parametrize("b", [0.25, 0.2])
    def test_thin_ellipses_are_unresolved(self, b):
        e = ellipse(1.0, b)
        with pytest.raises(MapError, match="series unresolved at m=8192"):
            solve_map_pair(e, boundary_point(e, 0.0))

    def test_centre_outside_the_curve_is_refused(self):
        report = validate_curve(_CRESCENT)
        assert report.simple_ok and report.speed_ok and report.winding == 0
        u0 = boundary_point(_CRESCENT, 0.0)
        for solve in (solve_interior_map, solve_exterior_map):
            with pytest.raises(MapError, match=re.escape(
                    "does not wind once about its centre 0.5j")):
                solve(_CRESCENT, u0)

    def test_centre_is_the_mean_coefficient(self):
        c = trig_curve([(1, 1.0), (0, 0.1 + 0.05j), (-2, 0.1j)])
        assert conformal._interior_center(c) == 0.1 + 0.05j

    @pytest.mark.parametrize("t0", [math.pi / 2, 3 * math.pi / 4])
    @pytest.mark.parametrize("pairs", [[(1, 1.0), (-1, 0.2)],
                                       [(1, 1.0), (4, 0.06)]])
    def test_start_phase_does_not_matter(self, pairs, t0):
        # gamma(t + t0) traces the same curve from another start, so S =
        # theta starts from a turned disk: the golden ellipse at t0 = pi/2
        # puts gamma(0) - c_0 on the imaginary axis, where fixing f'(0) > 0
        # inside the step divides by zero.  Both sides solve as unshifted
        base = trig_curve(pairs)
        moved = trig_curve([(k, c * np.exp(1j * k * t0)) for k, c in pairs])
        want = solve_map_pair(base, boundary_point(base, 0.0))
        got = solve_map_pair(moved, boundary_point(moved, -t0))
        for a, b in ((want.interior, got.interior),
                     (want.exterior, got.exterior)):
            assert (b.grid, b.delta) == (a.grid, a.delta)
            assert max(a.tail, b.tail) <= conformal._TAIL_TOL
            assert np.max(np.abs(np.subtract(b.series, a.series))) < 1e-14

    def test_golden_interior_series_is_symmetric(self, ellipse_pair):
        # about c_0 = 0 the centred ellipse's interior core, turned so that
        # c_1 > 0, is odd with real coefficients.  The 512-point mean centre
        # with Theodorsen's iteration left c_0 = -2.8e-17 - 5.6e-17i, 8.3e-17
        # in the even k and 1.3e-16 in Im c_k, odd k.  Now c_0 is exact; the
        # Szego solve's rounding in the odd modes of theta' (1.9e-16) left
        # 6.3e-17 in the even k until _SZEGO_FLOOR dropped them.  Rounding
        # leaves 2.5e-17 in the even k (bound 4e-17, a margin of 1.6) and
        # 2.6e-17 in the odd k (bound 1e-16, a margin of 3.8)
        series = np.asarray(ellipse_pair[2].interior.series)
        assert series[0] == 0.0
        assert np.max(np.abs(series[0::2])) < 4e-17
        assert np.max(np.abs(series[1::2].imag)) < 1e-16


class TestPreimageOfInfinity:
    """With s != 0 the exterior map sends v = infinity to a finite point;
    map_invert finds it and the points near it (no cap on |v|)."""

    @pytest.fixture(scope="class", params=["shifted_circle_pair",
                                           "ellipse_pair", "trig"])
    def exterior(self, request):
        if request.param == "trig":
            c = trig_curve([(1, 1.0 + 0j), (4, 0.06 + 0j)])
            u0 = boundary_point(c, 0.3)
            return c, u0, solve_map_pair(c, u0)
        return request.getfixturevalue(request.param)

    def test_value_at_infinity_and_nearby_points(self, exterior):
        _, _, pair = exterior
        cmap = pair.exterior
        assert abs(cmap.s) > 1e-3
        u_inf = map_eval(cmap, complex(np.inf))
        assert np.isfinite(u_inf)
        u = u_inf + np.array([0.0, 1e-9, 1e-6, 1e-3]) * (1.0 + 1.0j)
        v = map_invert(cmap, u)
        assert not np.isfinite(v[0]) or abs(v[0]) > 1e12
        assert np.all(np.abs(map_eval(cmap, v) - u) < 1e-13 * (1 + np.abs(u)))
        assert np.all(np.abs(v[1:]) > 1e2)
        assert abs(v[1]) > abs(v[2]) > abs(v[3])
        scalar = map_invert(cmap, complex(u_inf))
        assert isinstance(scalar, complex)

    def test_outer_term_of_a_pole_at_phi2_infinity(self, exterior):
        # the disk sum term of v = infinity is 1
        _, u0, pair = exterior
        u_inf = map_eval(pair.exterior, complex(np.inf))
        val = domain_normal_derivative(u0, u_inf, pair, inside=False)
        assert val == pytest.approx(1.0, abs=1e-12)


class TestFarExteriorPoints:
    """Far finite points invert on closed-form exterior maps with s != 0.
    Their preimages crowd the pole v_p = -1/s, v - v_p ~ A/u; the residual
    is the core's at its exact root, not map_eval's at the rounded v."""

    @pytest.fixture(params=["shifted_circle_pair", "ellipse_pair"])
    def exterior(self, request):
        return request.getfixturevalue(request.param)

    def test_far_points_approach_the_pole(self, exterior):
        _, _, pair = exterior
        cmap = pair.exterior
        assert abs(cmap.s) > 1e-3
        u = 10.0 ** np.arange(4, 13) + 1j
        v = map_invert(cmap, u)
        for vk, uk in zip(v, u):
            assert map_invert(cmap, uk) == vk
        # the leading term A/u of v - v_p: |u| |v - v_p| settles to |A|
        scaled = np.abs(v - exterior_pole(cmap)) * np.abs(u)
        assert np.max(np.abs(scaled / scaled[-1] - 1.0)) < 5e-3
        # so the disk term of the pole tends to that of infinity
        limit = disk_normal_derivative(exterior_pole(cmap), "exterior")
        gap = np.array([disk_normal_derivative(vk, "exterior")
                        for vk in v]) - limit
        assert np.all(np.abs(gap) * np.abs(u) < 100.0)

    def test_bound_of_a_far_pole(self, shifted_circle_pair):
        c, u0, pair = shifted_circle_pair
        far = bernstein_bound(u0, classify_poles([(1e5 + 1j, 1)], c), pair)
        at_inf = bernstein_bound(u0, classify_poles([(np.inf, 1)], c), pair)
        assert far.outer_sum == pytest.approx(0.58826, abs=1e-5)
        assert abs(far.bound - at_inf.bound) < 1e-4

    @pytest.mark.parametrize("u", [1e6, -3e7j])
    def test_series_roundtrip_residual_is_the_checked_one(self, u):
        # map_eval at the returned v reads 31x and 1,050x the tolerance
        c = trig_curve([(1, 1.0 + 0j), (4, 0.06 + 0j)])
        cmap = solve_map_pair(c, boundary_point(c, 0.3)).exterior
        assert len(cmap.series) >= 8 and cmap.s != 0.0
        map_invert(cmap, u)  # accepted
        atol = conformal._INVERT_TOL * (1.0 + abs(u))
        assert roundtrip_residual(cmap, [u]) < atol


@pytest.fixture(scope="session",
                params=["circle_pair", "shifted_circle_pair", "ellipse_pair"])
def any_pair(request):
    return request.getfixturevalue(request.param)


class TestSerialization:
    def test_dict_holds_exactly_the_fields(self, any_pair):
        _, _, pair = any_pair
        names = {f.name for f in dataclasses.fields(conformal.ConformalMap)}
        for cmap in (pair.interior, pair.exterior):
            assert set(conformal.map_to_dict(cmap)) == names

    def test_json_roundtrip_is_exact(self, any_pair):
        curve, _, pair = any_pair
        ts = np.arange(8) * (2 * np.pi / 8)
        for cmap, scale in ((pair.interior, 0.5), (pair.exterior, 1.6)):
            clone = map_from_json(map_to_json(cmap))
            assert clone == cmap
            u = scale * eval_curve(curve, ts)
            assert np.array_equal(map_invert(clone, u), map_invert(cmap, u))


# (scale, angle) pairs: the point scale * gamma(angle) lies inside the curve
# for scale < 1 and outside for scale > 1 on these star-shaped curves
_SCALED = st.tuples(st.floats(0.05, 0.95) | st.floats(1.05, 3.0),
                    st.floats(0.0, 2 * np.pi, exclude_max=True))


class TestArrayInversion:
    @settings(deadline=None, max_examples=12)
    @given(draws=st.lists(_SCALED, min_size=1, max_size=6),
           column=st.booleans())
    def test_array_matches_scalar_calls(self, any_pair, draws, column):
        curve, _, pair = any_pair
        for cmap, inside in ((pair.interior, True), (pair.exterior, False)):
            u = np.array([r * eval_curve(curve, t) for r, t in draws
                          if (r < 1.0) == inside], dtype=complex)
            if not len(u):
                continue
            if column:
                u = u.reshape(-1, 1)
            v = map_invert(cmap, u)
            assert v.shape == u.shape
            assert np.max(np.abs(map_eval(cmap, v) - u)) <= 1e-9
            for vk, uk in zip(v.ravel(), u.ravel()):
                one = map_invert(cmap, complex(uk))
                assert isinstance(one, complex)
                assert abs(one - vk) <= 1e-13 * (1.0 + abs(uk))

    def test_infinity_maps_to_the_exterior_pole(self, any_pair):
        curve, _, pair = any_pair
        u = np.array([np.inf, 2.5 * eval_curve(curve, 1.0), np.inf])
        v = map_invert(pair.exterior, u)
        pole = exterior_pole(pair.exterior)
        assert v[0] == pole and v[2] == pole
        assert abs(map_eval(pair.exterior, v[1]) - u[1]) <= 1e-9
        assert map_invert(pair.exterior, complex(np.inf)) == pole

    def test_far_point_in_an_array_raises(self, any_pair):
        curve, _, pair = any_pair
        u = np.array([0.5 * eval_curve(curve, 0.2), 40.0 + 3.0j])
        with pytest.raises(MapInvertError, match=r"\(40\+3j\)"):
            map_invert(pair.interior, u)

    def test_nan_is_not_infinity(self, ellipse_pair):
        # both used to read the NaN as infinity: the exterior map returned
        # its pole, the interior map refused "infinity"
        _, _, pair = ellipse_pair
        with pytest.raises(MapInvertError, match=r"nan.*not a number"):
            map_invert(pair.exterior, complex(math.nan, 0.0))
        with pytest.raises(MapInvertError, match=r"nan.*not a number"):
            map_invert(pair.interior, math.nan)
        u = np.array([2.5, complex(math.nan, 1.0), np.inf])
        with pytest.raises(MapInvertError, match=r"nan\+1j"):
            map_invert(pair.exterior, u)


_CLOSED_MAPS = [("circle_pair", "interior"), ("circle_pair", "exterior"),
                ("shifted_circle_pair", "interior"),
                ("shifted_circle_pair", "exterior"),
                ("ellipse_pair", "exterior")]
_SERIES_MAPS = [("ellipse_pair", "interior"), ("trig_pair", "interior"),
                ("trig_pair", "exterior")]


@pytest.fixture(scope="session", params=_CLOSED_MAPS)
def closed_map(request):
    """(curve, map) for each closed-form core: circle interior c0 + c1 w,
    circle exterior c0 w + c1, ellipse exterior c0 w + c1 + c2/w.  A test
    may pass it other (pair fixture, side) params indirectly."""
    name, side = request.param
    curve, _, pair = request.getfixturevalue(name)
    return curve, getattr(pair, side)


class TestClosedFormInversion:
    """The exact inverse of the closed-form cores against damped Newton in
    v (oracles.newton_map_invert); test_matches_newton also pins series
    maps, which map_invert solves by the argument principle in the core
    variable w."""

    @pytest.mark.parametrize("closed_map", _CLOSED_MAPS + _SERIES_MAPS,
                             indirect=True)
    @settings(deadline=None, max_examples=25)
    @given(draws=st.lists(_SCALED, min_size=1, max_size=6))
    def test_matches_newton(self, closed_map, draws):
        curve, cmap = closed_map
        inside = cmap.side == "interior"
        u = np.array([r * eval_curve(curve, t) for r, t in draws
                      if (r < 1.0) == inside], dtype=complex)
        if not inside:
            u = np.append(u, np.inf)
        v = map_invert(cmap, u)
        want = newton_map_invert(cmap, u)
        # both routes stop at |Phi(v) - u| < 1e-13 (1 + |u|), so their
        # preimages may differ by up to twice that over |Phi'(v)|: Newton
        # stops as soon as it is inside, the exact route lands on the root
        fin = np.isfinite(u)
        slack = 2e-13 * (1.0 + np.abs(u[fin]))
        assert np.all(np.abs(v[fin] - want[fin])
                      <= slack / np.abs(map_derivative(cmap, v[fin])))
        if not inside:
            assert v[-1] == want[-1] == exterior_pole(cmap)

    @settings(deadline=None, max_examples=25)
    @given(angles=st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True),
                           min_size=1, max_size=4),
           beyond=st.floats(0.05, 0.5))
    def test_points_beyond_the_verified_domain_raise(self, closed_map,
                                                     angles, beyond):
        # u = core(prefix(v)) for v past the verified domain |v| <= 1 + delta
        # (interior) or |v| >= 1 - delta (exterior), where the core is still
        # univalent: |w| > rho_c = sqrt(|c2/c0|)
        curve, cmap = closed_map
        if cmap.side == "interior":
            radius = (1.0 + cmap.delta) * (1.0 + beyond)
        else:
            radius = (1.0 - cmap.delta) * (1.0 - beyond)
        c = np.array(cmap.series)
        rho_c = math.sqrt(abs(c[2] / c[0])) if len(c) == 3 else 0.0
        w = _moebius(cmap, radius * np.exp(1j * np.array(angles)))
        w = w[np.isfinite(w) & (np.abs(w) > 1.01 * rho_c)]
        assume(len(w))
        far = conformal._core_eval(cmap, w)
        near = 0.5 * eval_curve(curve, 0.3) if cmap.side == "interior" \
            else 2.0 * eval_curve(curve, 0.3)
        with pytest.raises(MapInvertError, match=re.escape(str(far[0]))):
            map_invert(cmap, np.concatenate([[near], far]))

    def test_one_map_eval_and_no_derivative(self, closed_map, monkeypatch):
        # the one evaluation is the core's at its exact root, not map_eval
        # at the preimage; no derivative and no contour sum.  The second
        # call of the same batch is a memo hit, whose one evaluation is the
        # core's too
        curve, cmap = closed_map
        cmap = dataclasses.replace(cmap)  # an empty inversion memo
        calls = []
        for name in ("_core_eval", "_core_deriv", "map_eval",
                     "map_derivative", "_argument_inverse"):
            def counting(*args, fn=getattr(conformal, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(conformal, name, counting)
        scale = 0.5 if cmap.side == "interior" else 1.6
        u = scale * eval_curve(curve, np.arange(8) * (2 * np.pi / 8))
        for _ in range(2):
            del calls[:]
            map_invert(cmap, u)
            assert calls == ["_core_eval"]

    def test_series_kernel_calls_on_the_corpus_poles(self, ellipse_pair,
                                                     monkeypatch):
        # the exterior pole is one closed-form map_eval; the interior pair
        # (s = 0.293) takes the core and its derivative once on the m-node
        # contour and the core once at its roots, whatever the targets.  A
        # copy of the shared map has an empty inversion memo.
        _, _, pair = ellipse_pair
        interior = dataclasses.replace(pair.interior)
        calls = []

        def counting(c, x, fn=conformal._poly_eval):
            calls.append(np.size(x))
            return fn(c, x)

        monkeypatch.setattr(conformal, "_poly_eval", counting)
        map_invert(pair.exterior, np.array(CORPUS_EXTERIOR))
        assert calls == [1]
        del calls[:]
        map_invert(interior, np.array(CORPUS_INTERIOR))
        m = interior.grid
        assert calls == [m, m, len(CORPUS_INTERIOR)]


@pytest.fixture(scope="module")
def thin_ellipse_pair():
    """ellipse(1, 0.4) at t = 0: an interior series of 1,876 terms on
    grid 4096, s = 0.80 and delta = 0."""
    e = ellipse(1.0, 0.4)
    u0 = boundary_point(e, 0.0)
    return e, u0, solve_map_pair(e, u0)


def _spied_contour(cmap, target, monkeypatch):
    """The (c, r, f) that map_invert hands _argument_inverse for a fresh
    copy of a series map: the contour's centre, radius and core values."""
    seen = []

    def spy(side, c, r, zeta, f, wdf, t, fn=conformal._argument_inverse):
        seen.append((c, r, f))
        return fn(side, c, r, zeta, f, wdf, t)

    monkeypatch.setattr(conformal, "_argument_inverse", spy)
    map_invert(dataclasses.replace(cmap), target)
    monkeypatch.undo()
    (contour,) = seen
    return contour


class TestArgumentInverse:
    """map_invert against damped Newton in v (oracles.newton_map_invert)
    on closed-form and series maps, both sides: from depth 0.3 to the
    unit circle and the verified boundary |v| = 1 +- delta; far exterior
    points; a target equal to a node value of the series contour; targets
    past the verified domain; and the anchor preimage of series cores."""

    @pytest.mark.parametrize("closed_map", _CLOSED_MAPS + _SERIES_MAPS,
                             indirect=True)
    def test_matches_newton_from_depth_to_the_verified_boundary(
            self, closed_map):
        _, cmap = closed_map
        big = 1.0 + cmap.delta if cmap.side == "interior" else 1.0 - cmap.delta
        depths = np.array([0.3, 0.6, 0.9])
        radii = np.concatenate([depths if cmap.side == "interior"
                                else 1.0 / depths, [1.0, big]])
        angles = np.arange(16) * (2 * np.pi / 16) + 0.1
        v_true = np.outer(radii, np.exp(1j * angles)).ravel()
        u = map_eval(cmap, v_true)
        v = map_invert(dataclasses.replace(cmap), u)
        want = newton_map_invert(cmap, u)
        slack = 2e-13 * (1.0 + np.abs(u)) / np.abs(map_derivative(cmap, v))
        assert np.all(np.abs(v - want) <= slack)
        assert np.all(np.abs(v - v_true) <= slack)

    @pytest.mark.parametrize("closed_map", [("trig_pair", "exterior")],
                             indirect=True)
    def test_far_exterior_points(self, closed_map):
        # Newton in v finds the preimages of 1e3 and 1e4 only; Newton on
        # the core in w from its leading term (u - c1)/c0 finds them all
        _, cmap = closed_map
        assert cmap.s != 0.0
        u = 10.0 ** np.arange(3, 10) * np.exp(0.7j)
        fresh = dataclasses.replace(cmap)
        v = map_invert(fresh, u)
        ((w, _),) = fresh._preimages.values()
        c = np.array(cmap.series)
        w_ref = (u - c[1]) / c[0]
        for _ in range(8):
            w_ref = w_ref - ((conformal._core_eval(cmap, w_ref) - u)
                             / conformal._core_deriv(cmap, w_ref))
        assert np.all(np.abs(w - w_ref) <= 1e-14 * np.abs(w_ref))
        atol = conformal._INVERT_TOL * (1.0 + np.abs(u))
        assert np.all(np.abs(conformal._core_eval(cmap, w) - u) < atol)
        want = newton_map_invert(cmap, u[:2])
        slack = 2e-13 * (1.0 + np.abs(u[:2])) / np.abs(
            map_derivative(cmap, v[:2]))
        assert np.all(np.abs(v[:2] - want) <= slack)

    @pytest.mark.parametrize("closed_map", _SERIES_MAPS, indirect=True)
    def test_a_node_value_takes_its_node(self, closed_map, monkeypatch):
        # d_k = wdf_k / (f_k - u) is infinite there, so the sums are not
        # finite; the node itself is the root
        curve, cmap = closed_map
        scale = 0.5 if cmap.side == "interior" else 1.6
        probe = np.array([scale * eval_curve(curve, 0.2)])
        c, r, f = _spied_contour(cmap, probe, monkeypatch)
        m = cmap.grid
        ks = np.array([0, 5, m // 3, m - 1])
        target = np.append(f[ks], scale * eval_curve(curve, 1.1))
        fresh = dataclasses.replace(cmap)
        v = map_invert(fresh, target)
        ((w, _),) = fresh._preimages.values()
        nodes = c + r * np.exp(1j * (2 * np.pi / m) * np.arange(m))
        assert w[:-1].tobytes() == nodes[ks].tobytes()
        big = 1.0 + cmap.delta if cmap.side == "interior" else 1.0 - cmap.delta
        assert np.all(np.abs(np.abs(v[:-1]) - big) <= 1e-14)
        want = newton_map_invert(cmap, target)
        slack = 2e-13 * (1.0 + np.abs(target)) / np.abs(
            map_derivative(cmap, v))
        assert np.all(np.abs(v - want) <= slack)

    @pytest.mark.parametrize("closed_map", _SERIES_MAPS, indirect=True)
    @settings(deadline=None, max_examples=10)
    @given(angles=st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True),
                           min_size=1, max_size=3),
           beyond=st.floats(1.2, 3.0))
    def test_targets_past_the_verified_domain_raise(self, closed_map, angles,
                                                    beyond):
        # the verified domain's image is bounded by that of |v| = 1 +- delta:
        # inside, within max |Phi - z_c| on it; outside, beyond its min.
        # Targets past those radii are named, the good one before them passes
        curve, cmap = closed_map
        z_c = complex(curve.coeffs[curve.order])
        big = 1.0 + cmap.delta if cmap.side == "interior" else 1.0 - cmap.delta
        edge = np.abs(map_eval(cmap, big * np.exp(
            1j * np.arange(512) * (2 * np.pi / 512))) - z_c)
        if cmap.side == "interior":
            good, radius = 0.5, beyond * np.max(edge)
        else:
            good, radius = 1.6, np.min(edge) / beyond
        good = good * eval_curve(curve, 0.2)
        far = z_c + radius * np.exp(1j * np.array(angles))
        with pytest.raises(MapInvertError, match=re.escape(str(far[0]))):
            map_invert(dataclasses.replace(cmap),
                       np.concatenate([[good], far]))

    @pytest.mark.parametrize("name", ["ellipse_pair", "thin_ellipse_pair",
                                      "trig_pair"])
    def test_anchor_preimage_matches_newton(self, name, request):
        # the normalization's rotation is the core preimage of u0 on the
        # unit circle: Newton in v on the raw core (no prefix) agrees
        _, u0, pair = request.getfixturevalue(name)
        series = [m for m in (pair.interior, pair.exterior)
                  if len(m.series) >= 8]
        assert series
        for cmap in series:
            raw = conformal._raw_map(cmap.side, cmap.series, cmap.tail,
                                     cmap.grid)
            want = newton_map_invert(raw, u0.point)
            deriv = abs(conformal._core_deriv(raw, np.array([want]))[0])
            slack = 2e-13 * (1.0 + abs(u0.point)) / deriv
            assert abs(cmap.rot - want / abs(want)) <= slack
            assert abs(abs(cmap.rot) - 1.0) <= 4e-16
            resid = abs(conformal._core_eval(raw, np.array([cmap.rot]))[0]
                        - u0.point)
            assert resid < 1e-12 * (1.0 + abs(u0.point))
            assert abs(abs(cmap.anchor_deriv) - 1.0) <= 1e-14


class TestCauchySums:
    """The blocked sum of _argument_inverse: a row of at most 2^20
    reciprocal offsets a block, one matrix product each."""

    def test_three_blocks_equal_their_block_products(self):
        # 1,024 rows a block at m = 1,024: two full blocks and 452 rows.
        # Each block is the one-block product of its own targets, bit for
        # bit, whatever blocks come before it; a single-row product rounds
        # by another shape, so it agrees to rounding only
        rng = np.random.default_rng(26)
        m, count = 1024, 2500
        values = np.exp(2j * np.pi * np.arange(m) / m) * (
            1.0 + 0.1 * rng.random(m))
        weights = (rng.standard_normal((m, 2))
                   + 1j * rng.standard_normal((m, 2)))
        targets = 0.5 * (rng.random(count) + 1j * rng.random(count))
        got = conformal._cauchy_sums(values, weights, targets)
        assert got.shape == (count, 2)
        starts = range(0, count, (1 << 20) // m)
        assert len(starts) == 3
        for i in starts:
            block = targets[i:i + m]
            want = np.reciprocal(values - block[:, None]) @ weights
            assert got[i:i + m].tobytes() == want.tobytes()
            alone = conformal._cauchy_sums(values, weights, block)
            assert alone.tobytes() == want.tobytes()
        for j in (0, 1500, count - 1):
            one = np.reciprocal(values - targets[j]) @ weights
            assert np.allclose(got[j], one, rtol=1e-12, atol=0.0)


CENSUS = Path(__file__).resolve().parent / "golden" / "census_606.json"
# a fixed subset of tools/census.py's family: trig curves refused inside
# (trig6, trig21), outside (trig24, trig133) and on both sides (trig75);
# thin ellipses refused inside or resolved on grids 2048 to 8192; and
# phase-shifted copies, one of them of trig133
CENSUS_SUBSET = ("trig0", "trig1", "trig6", "trig21", "trig24", "trig75",
                 "trig133", "ellipse(1, 0.3)@0.0", "ellipse(1, 0.35)@0.0",
                 "ellipse(1, 0.4)@1.0", "ellipse(1, 0.45)@1.5",
                 "trig10+1.0", "trig92+1.0", "trig133+1.0")


@pytest.fixture(scope="module")
def census_rows():
    golden = json.loads(CENSUS.read_text())
    assert golden["config"]["seed"] == 606
    return {row["name"]: row for row in golden["curves"]}


class TestCensus:
    """Curves of the seed-606 census (tools/gen_golden.py) solve as
    recorded: the refusal message, or the grid and delta exactly and the
    first series coefficients within 1e-12 of max |c_k|."""

    @pytest.mark.parametrize("name", CENSUS_SUBSET)
    def test_solves_as_recorded(self, census_rows, name):
        row = census_rows[name]
        curve = AnalyticCurve(tuple(complex(*c) for c in row["coeffs"]),
                              row["kind"], tuple(row["params"]))
        u0 = boundary_point(curve, row["t"])
        for side, solve in (("interior", solve_interior_map),
                            ("exterior", solve_exterior_map)):
            want = row[side]
            if "refusal" in want:
                with pytest.raises(MapError) as refused:
                    solve(curve, u0)
                assert str(refused.value) == want["refusal"]
                continue
            cmap = solve(curve, u0)
            assert (cmap.grid, cmap.delta) == (want["grid"], want["delta"])
            ref = np.array([complex(*c) for c in want["series"]])
            diff = np.abs(np.array(cmap.series[:len(ref)]) - ref)
            assert np.max(diff) <= 1e-12 * np.max(np.abs(cmap.series))


class TestSeriesKernel:
    """The baby-step giant-step kernel against Horner's rule."""

    @settings(deadline=None, max_examples=40)
    @given(length=st.integers(1, 300),
           size=st.sampled_from([0, 1, 7, 33, 4096]),
           exterior=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(length=2, size=1, exterior=False, seed=0)   # circle series
    @example(length=3, size=7, exterior=True, seed=1)    # ellipse exterior
    @example(length=300, size=4096, exterior=False, seed=2)
    def test_matches_horner(self, length, size, exterior, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        angles = np.exp(2j * np.pi * rng.random(size))
        if exterior:
            # the exterior cores evaluate their series at 1/w, |w| >= 1
            x = 1.0 / (rng.uniform(1.0, 10.0, size) * angles)
        else:
            x = 1.1 * np.sqrt(rng.random(size)) * angles
        got = _poly_eval(c, x)
        assert got.shape == x.shape and got.dtype == complex
        ref = horner_eval(c, x)
        scale = horner_eval(np.abs(c), np.abs(x)).real
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - ref) <= 64 * eps * scale)

    def test_keeps_the_shape_of_x(self):
        c = np.array([1.0, 2.0 - 1j, 0.5j, 0.25])
        x = np.array([[0.3 + 0.1j, -0.7], [1j, 0.0]])
        assert _poly_eval(c, x).shape == (2, 2)
        assert np.allclose(_poly_eval(c, x), horner_eval(c, x), rtol=1e-15)
        assert np.array_equal(_poly_eval([], x), np.zeros((2, 2)))

    @settings(deadline=None, max_examples=40)
    @given(side=st.sampled_from(["interior", "exterior"]),
           size=st.integers(1, 200), start=st.floats(0, 1),
           count=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
    @example(side="interior", size=33, start=0.0, count=3, seed=0)
    def test_a_sub_batch_gives_the_full_batch_bits(self, ellipse_pair,
                                                  trig_pair, side, size,
                                                  start, count, seed):
        # the series maps of the golden ellipse (inside) and of the trig
        # curve (both sides) evaluate a point to the same bits in any batch
        rng = np.random.default_rng(seed)
        angles = np.exp(2j * np.pi * rng.random(size))
        if side == "interior":
            maps = (ellipse_pair[2].interior, trig_pair[2].interior)
            v = 0.99 * np.sqrt(rng.random(size)) * angles
        else:
            maps = (trig_pair[2].exterior,)
            v = rng.uniform(1.01, 4.0, size) * angles
        lo = int(start * (size - 1))
        hi = min(lo + count, size)
        for cmap in maps:
            for fn in (map_eval, map_derivative):
                assert fn(cmap, v[lo:hi]).tobytes() == \
                    fn(cmap, v)[lo:hi].tobytes()


def _rung_is_univalent(cmap, d, rho_c):
    """The exact univalence test of a closed-form map on the rung |v| = 1 +- d.

    Interior (Moebius): the pole v = -1/s lies beyond |v| = 1 + d.  Exterior:
    the prefix image of |v| = R = 1 - d must stay off w = 0 (R > |s|) and,
    sampled densely through its nearest point v = -R sign(s), clear the
    critical circle |w| = rho_c of c0 w + c2/w (a linear core when 0).
    Returns the verdict and the distance of its deciding value to the
    threshold, so that a test can skip knife-edge draws."""
    s = abs(cmap.s)
    if cmap.side == "interior":
        gap = 1.0 - (1.0 + d) * s
        return gap > 0.0, abs(gap)
    if rho_c == 0.0:
        return True, math.inf
    r = 1.0 - d
    if r <= s:
        return False, s - r
    ring = r * np.exp(2j * np.pi * np.arange(4096) / 4096)
    gap = float(np.min(np.abs(_moebius(cmap, ring)))) - rho_c
    return gap > 0.0, abs(gap)


def _check_ladder_margin(cmap, rho_c):
    """delta is half a ladder rung that passes the exact test, and the next
    rung fails it, or the ladder (capped below 0.9 outside) is exhausted."""
    rungs = [d for d in _MARGIN_LADDER if cmap.side == "interior" or d < 0.9]
    passed = [d for d in rungs if d == 2.0 * cmap.delta]
    if cmap.delta == 0.0:
        nxt = rungs[0]
    else:
        assert len(passed) == 1, cmap.delta
        ok, gap = _rung_is_univalent(cmap, passed[0], rho_c)
        assume(gap > 1e-9)
        assert ok
        idx = rungs.index(passed[0])
        if idx + 1 == len(rungs):
            return
        nxt = rungs[idx + 1]
    ok, gap = _rung_is_univalent(cmap, nxt, rho_c)
    assume(gap > 1e-9)
    assert not ok


class TestClosedFormMargins:
    """Circles and the ellipse exterior take delta from exact rung tests."""

    @settings(deadline=None, max_examples=40)
    @given(radius=st.floats(0.1, 10.0),
           cx=st.floats(-5.0, 5.0), cy=st.floats(-5.0, 5.0),
           t=st.floats(0.0, 2 * np.pi, exclude_max=True))
    @example(radius=5.0, cx=0.0, cy=0.0, t=0.0)
    @example(radius=0.2, cx=0.0, cy=0.0, t=0.0)
    def test_circle_margins_are_the_exact_rungs(self, radius, cx, cy, t):
        c = circle(radius, complex(cx, cy))
        pair = solve_map_pair(c, boundary_point(c, t))
        for cmap in (pair.interior, pair.exterior):
            _check_ladder_margin(cmap, 0.0)

    @settings(deadline=None, max_examples=40)
    @given(ratio=st.floats(0.1, 0.99), reciprocal=st.booleans(),
           t=st.floats(0.0, 2 * np.pi, exclude_max=True))
    @example(ratio=0.5, reciprocal=False, t=1.5)
    def test_ellipse_exterior_margin_is_the_exact_rung(self, ratio,
                                                       reciprocal, t):
        b = 1.0 / ratio if reciprocal else ratio
        e = ellipse(1.0, b)
        cmap = solve_exterior_map(e, boundary_point(e, t))
        _check_ladder_margin(cmap, math.sqrt(abs(1.0 - b) / (1.0 + b)))

    @settings(deadline=None, max_examples=60)
    @given(a=st.floats(0.01, 100.0), b=st.floats(0.01, 100.0),
           t=st.floats(0.0, 2 * np.pi, exclude_max=True))
    @example(a=1.2, b=0.8, t=0.4)
    @example(a=1.0, b=1.0, t=0.0)
    def test_critical_radius_read_from_the_core(self, a, b, t):
        # sqrt(|c2/c0|) of the solved core is sqrt(|a - b|/(a + b)) to the
        # bit, so the rung tests read the same critical circle
        e = ellipse(a, b)
        c = solve_exterior_map(e, boundary_point(e, t)).series
        assert conformal._critical_radius(c) == math.sqrt(abs(a - b) / (a + b))

    def test_radius_five_and_radius_fifth_circles_have_margins(self):
        # the sampled ladder read 0 on both sides of both circles
        for radius in (5.0, 0.2):
            c = circle(radius)
            pair = solve_map_pair(c, boundary_point(c, 0.0))
            assert pair.interior.delta > 0.0
            assert pair.exterior.delta > 0.0

    def test_ellipse_exterior_domain_clears_the_critical_circle(self):
        # the sampled ladder gave delta2 = 0.444 here, although the closed
        # circle |v| = 1 - delta2 reached |w| = 0.555 < rho_c = 0.577,
        # where the Joukowski core's derivative vanishes
        e = ellipse(1.0, 0.5)
        cmap = solve_exterior_map(e, boundary_point(e, 1.5))
        rho_c = math.sqrt(0.5 / 1.5)
        r = 1.0 - cmap.delta
        ring = r * np.exp(2j * np.pi * np.arange(4096) / 4096)
        w = _moebius(cmap, np.concatenate([ring, [-r * np.sign(cmap.s)]]))
        assert np.min(np.abs(w)) > rho_c

    def test_closed_forms_make_no_sampled_scans(self, monkeypatch):
        calls = []

        def counting(pts, step_scale, fn=conformal._simplicity_margin):
            calls.append(len(pts))
            return fn(pts, step_scale)

        monkeypatch.setattr(conformal, "_simplicity_margin", counting)
        c = circle(1.7, 0.3 + 0.2j)
        solve_map_pair(c, boundary_point(c, 0.15))
        assert calls == []
        e = ellipse(1.2, 0.8)
        u0 = boundary_point(e, 0.4)
        solve_exterior_map(e, u0)
        assert calls == []
        solve_interior_map(e, u0)
        interior = len(calls)
        assert interior > 0
        solve_map_pair(e, u0)
        assert len(calls) == 2 * interior


class TestOpenUpPreimages:
    def test_midpoint(self, segment):
        u1, u2 = openup_preimages(segment, 0.0)
        assert {round(u.imag) for u in (u1, u2)} == {1, -1}
        assert all(abs(u.real) < 1e-9 for u in (u1, u2))

    def test_cosine_points(self, segment):
        theta = 1.1
        u1, u2 = openup_preimages(segment, np.cos(theta))
        got = sorted((u1, u2), key=lambda u: u.imag)
        want = sorted((np.exp(1j * theta), np.exp(-1j * theta)),
                      key=lambda u: u.imag)
        assert abs(got[0] - want[0]) < 1e-9
        assert abs(got[1] - want[1]) < 1e-9

    def test_endpoint_rejected(self, segment):
        with pytest.raises(ArcError):
            openup_preimages(segment, 1.0)
