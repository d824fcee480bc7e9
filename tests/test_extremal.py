import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from bernbound import (blaschke_derivative, blaschke_eval, boundary_point,
                       build_circle_extremal, build_transferred_extremal,
                       circle, conformal, extremal, leja_points,
                       map_eval, map_invert, potential, principal_parts,
                       rf_derivative, rf_eval, sample_grid, sharpness_sweep,
                       solve_map_pair, sup_norm)
from bernbound.errors import ExtremalError, MapInvertError, PoleError
from bernbound.extremal import _blaschke_jet, _terms_jet
from bernbound.ratfun import POLE_FLOOR, cluster_points, make_rational
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sweep_interior_poles
from oracles import loop_sup_norm

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sweep_config():
    return load_golden("ellipse_sweep.json")["config"]


@pytest.fixture(scope="module")
def golden_n20_run(sweep_config, ellipse_pair):
    cfg = sweep_config
    e, u0, pair = ellipse_pair
    # the session fixture must match the frozen config, else the golden
    # file and the fixtures have drifted apart
    assert (cfg["a"], cfg["b"], cfg["t"]) == (1.2, 0.8, 0.4)
    base = [map_invert(pair.interior, z) for z in sweep_interior_poles(cfg)]
    picks = [base[i % len(base)] for i in range(20)]
    return build_transferred_extremal(e, pair, picks, complex(*cfg["zeta0"]),
                                      u0=u0)


def circle_candidates():
    """2,048 samples of the unit circle, as Leja candidates."""
    return sample_grid(circle(), 2048)[1]


class TestLejaPoints:
    def test_two_points_on_circle(self):
        got = leja_points(circle_candidates(), 2, seed=1.0)
        assert abs(got.nodes[0] - 1.0) < 1e-9
        assert abs(got.nodes[1] + 1.0) < 1e-9

    def test_four_points_on_circle(self):
        got = leja_points(circle_candidates(), 4, seed=1.0)
        want = [1.0, -1.0, 1.0j, -1.0j]
        for w in want:
            assert min(abs(w - x) for x in got.nodes) < 1e-9

    def test_monic_polynomial_matches_nodes(self):
        got = leja_points(circle_candidates(), 5, seed=1.0)
        vals = np.polyval(got.monic, np.array(got.nodes))
        assert np.max(np.abs(vals)) < 1e-12
        assert got.monic[0] == 1.0 + 0j

    def test_greedy_optimality(self, rng):
        cand = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        got = leja_points(cand, 6)
        for k in range(1, 6):
            prior = np.array(got.nodes[:k])
            obj = np.prod(np.abs(cand[:, None] - prior[None, :]), axis=1)
            assert obj[got.indices[k]] >= np.max(obj) * (1.0 - 1e-12)

    def test_seed_snaps_to_nearest_candidate(self):
        cand = np.array([0.0, 1.0, 2.0, 3.0], dtype=complex)
        got = leja_points(cand, 2, seed=2.2)
        assert got.nodes[0] == 2.0

    def test_default_seed_farthest_from_centroid(self):
        cand = np.array([0.0, 0.1, 0.2, 5.0], dtype=complex)
        got = leja_points(cand, 1)
        assert got.nodes[0] == 5.0

    def test_count_errors(self):
        with pytest.raises(ExtremalError):
            leja_points(circle_candidates(), 0)
        with pytest.raises(ExtremalError):
            leja_points(np.array([1.0, 2.0], dtype=complex), 3)

    @pytest.mark.parametrize("cand, count, distinct", [
        ([0, 0, 1], 3, 2), ([1, 1, 1], 2, 1)])
    def test_too_few_distinct_candidates_raise(self, cand, count, distinct):
        # the greedy step would pick an already chosen node again, which
        # the Hermite step would read as the confluent anchor pair
        with pytest.raises(ExtremalError,
                           match=f"hold {distinct} distinct points, fewer "
                                 f"than the {count} requested"):
            leja_points(np.array(cand, dtype=complex), count)

    def test_distinct_candidates_suffice(self):
        got = leja_points(np.array([0, 0, 1, 1, 2], dtype=complex), 3)
        assert sorted(got.nodes, key=abs) == [0, 1, 2]

    def test_capacity_convergence_on_circle(self):
        # the product of distances from the newest node to its
        # predecessors, to the power 1/N, approaches the circle capacity 1
        cand = circle_candidates()
        caps = {}
        for n in (64, 128):
            nodes = np.array(leja_points(cand, n + 1, seed=1.0).nodes)
            caps[n] = float(np.prod(np.abs(nodes[-1] - nodes[:-1]))
                            ** (1.0 / n))
        assert abs(caps[64] - 1.0) < 0.07
        assert abs(caps[128] - 1.0) < 0.05
        assert abs(caps[128] - 1.0) < abs(caps[64] - 1.0)
        # the sup norm of the monic node polynomial converges faster
        _, samples = sample_grid(circle(), 4096)
        monic = leja_points(cand, 64, seed=1.0).monic
        sup = float(np.max(np.abs(np.polyval(monic, samples))))
        assert abs(sup ** (1.0 / 64) - 1.0) < 0.05


# 1-5 distinct picks r e^{it}, r in 0.1..0.8 and t on 12 angles, each with
# its multiplicity 1-5
_PICKS = st.lists(st.tuples(st.integers(1, 8), st.integers(0, 11),
                            st.integers(1, 5)),
                  min_size=1, max_size=5, unique_by=lambda d: d[:2])


def _rel(got, want):
    return abs(got - want) / abs(want)


def _magnitude(terms, u, deriv):
    """sum_k k^deriv |c_k| |u - a|^-(k + deriv) over the pole terms: the
    size of the Horner sums of f(u) (deriv 0) or f'(u) (deriv 1).  Close
    picks give principal parts that cancel at u, so the two evaluations,
    whose complex products may round an ulp apart, are compared on it."""
    return sum(k ** deriv * abs(c) * abs(u - t.location) ** -(k + deriv)
               for t in terms for k, c in enumerate(t.coeffs, 1))


class TestAnchorPass:
    """The scalar anchor values of build_transferred_extremal against the
    array routines they replace."""

    @pytest.mark.parametrize("pair_name", ["circle_pair", "ellipse_pair"])
    @settings(deadline=None, max_examples=40)
    @given(draws=_PICKS, tail=st.lists(st.complex_numbers(max_magnitude=2.0,
                                                          allow_nan=False),
                                       min_size=1, max_size=4))
    def test_matches_the_array_routines(self, request, pair_name, draws,
                                        tail):
        _, u0, pair = request.getfixturevalue(pair_name)
        picks = [complex(0.1 * r * np.exp(1j * np.pi * t / 6))
                 for r, t, m in draws for _ in range(m)]
        h1, dh1 = _blaschke_jet(picks, 1.0 + 0j)
        assert _rel(h1, blaschke_eval(picks, 1.0 + 0j)) <= 1e-13
        assert _rel(dh1, blaschke_derivative(picks, 1.0 + 0j)) <= 1e-13
        f1 = principal_parts(lambda v: blaschke_eval(picks, v),
                             cluster_points(picks), pair.interior)
        u = u0.point
        val, der = _terms_jet(f1.terms, u)
        assert abs(val - rf_eval(f1, u)) <= 1e-13 * _magnitude(f1.terms, u, 0)
        assert abs(der - rf_derivative(f1, u)) <= \
            1e-13 * _magnitude(f1.terms, u, 1)
        # fn: f1 and a correction term at an exterior zeta0, plus a constant
        fn = make_rational(list(f1.terms) + [(-3.0 + 1.2j, tuple(tail))],
                           (0.25 + 0j,))
        _, dfn = _terms_jet(fn.terms[len(f1.terms):], u, val, der)
        assert abs(dfn - rf_derivative(fn, u)) <= \
            1e-13 * _magnitude(fn.terms, u, 1)

    @pytest.mark.parametrize("offset", [0.0, 0.5 * POLE_FLOOR])
    def test_pole_floor_error_is_rf_eval_s(self, ellipse_pair, offset):
        _, u0, _ = ellipse_pair
        f = make_rational([(u0.point + 0.5, (1.0,)),
                           (u0.point + offset, (2.0, 1.0))])
        with pytest.raises(PoleError) as want:
            rf_eval(f, u0.point)
        with pytest.raises(PoleError) as got:
            _terms_jet(f.terms, u0.point)
        assert str(got.value) == str(want.value)


class TestCircleExtremal:
    def test_origin_multiplicity(self):
        for n in (1, 3):
            h, residual = build_circle_extremal([0.0] * n)
            assert residual < 1e-9
            assert abs(rf_eval(h, 0.5j) - (0.5j) ** (-n)) < 1e-12
            assert abs(abs(blaschke_derivative([0.0] * n, 1.0 + 0j)) - n) < 1e-12

    def test_double_interior_pole(self):
        h, residual = build_circle_extremal([0.5, 0.5])
        assert residual < 1e-9
        assert abs(abs(rf_derivative(h, 1.0)) - 6.0) < 1e-9

    def test_single_exterior_pole(self):
        h, residual = build_circle_extremal([2.0])
        assert residual < 1e-9
        assert abs(abs(blaschke_derivative([2.0], 1.0 + 0j)) - 3.0) < 1e-12

    def test_fifty_random_one_sided(self, rng):
        ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2049)[:-1])
        for k in range(50):
            n = int(rng.integers(1, 21))
            radii = 0.1 + 0.75 * rng.random(n)
            angles = 2.0 * np.pi * rng.random(n)
            pts = radii * np.exp(1j * angles)
            if k % 2:
                pts = 1.0 / np.conj(pts)
            _, residual = build_circle_extremal(pts)
            assert residual < 1e-9
            sup = float(np.max(np.abs(blaschke_eval(pts, ring))))
            assert abs(sup - 1.0) <= 1e-10

    def test_mixed_sides_rejected(self):
        with pytest.raises(PoleError):
            build_circle_extremal([0.5, 2.0])


class TestTransferredExtremal:
    def test_identity_single_origin_pick(self, circle_pair):
        c, u0, pair = circle_pair
        run = build_transferred_extremal(c, pair, [0.0], 3.0, u0=u0)
        assert len(run.fn.terms) == 1
        assert abs(run.fn.terms[0].location) < 1e-9
        assert abs(run.fn.terms[0].coeffs[0] - 1.0) < 1e-9
        assert run.fn.poly == ()
        assert abs(run.ratio - 1.0) < 1e-12
        assert run.transfer_residual < 1e-12

    def test_identity_repeated_pick(self, circle_pair):
        c, u0, pair = circle_pair
        ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 513)[:-1])
        for n in (4, 10):
            run = build_transferred_extremal(c, pair, [0.5] * n, 3.0, u0=u0)
            gap = np.max(np.abs(rf_eval(run.fn, ring)
                                - blaschke_eval([0.5] * n, ring)))
            assert gap < 1e-6
            assert run.transfer_residual < 1e-6
            if n == 10:
                assert run.ratio > 0.999

    def test_run_bookkeeping(self, circle_pair):
        c, u0, pair = circle_pair
        run = build_transferred_extremal(c, pair, [0.5] * 10, 3.0, u0=u0)
        assert run.n == 10
        assert run.n_interp == math.floor(10 ** 0.8)
        assert len(run.nodes.nodes) == run.n_interp
        assert run.delta_prime > 0.0

    def test_hermite_conditions_on_ellipse(self, sweep_config, ellipse_pair):
        # the double interpolation node at w0 pins the value and first
        # derivative of fn at the anchor to those of the transplanted
        # Blaschke product
        e, u0, pair = ellipse_pair
        base = [map_invert(pair.interior, z)
                for z in sweep_interior_poles(sweep_config)]
        picks = [base[i % len(base)] for i in range(5)]
        run = build_transferred_extremal(e, pair, picks,
                                         complex(*sweep_config["zeta0"]),
                                         u0=u0)
        want_val = blaschke_eval(picks, 1.0 + 0j)
        want_der = (blaschke_derivative(picks, 1.0 + 0j)
                    / pair.interior.anchor_deriv)
        assert abs(rf_eval(run.fn, u0.point) - want_val) < 1e-8
        got_der = rf_derivative(run.fn, u0.point)
        assert abs(got_der - want_der) < 1e-8 * (1.0 + abs(want_der))

    def test_golden_config_n20(self, golden_n20_run, sweep_config):
        run = golden_n20_run
        assert 0.9 <= run.ratio <= 1.0 + 1e-6
        assert run.transfer_residual < 1e-4
        assert run.n_interp == math.floor(20 ** 0.8)

    def test_sup_matches_peak_loop(self, golden_n20_run, ellipse_pair):
        e, _, _ = ellipse_pair
        want = loop_sup_norm(golden_n20_run.fn, e)
        assert sup_norm(golden_n20_run.fn, e) == want
        assert golden_n20_run.sup == want[0]

    def test_pole_budget(self, golden_n20_run, sweep_config):
        run = golden_n20_run
        zeta0 = complex(*sweep_config["zeta0"])
        cap = run.n_interp + 2
        # order bookkeeping: the pick images carry exactly n poles with
        # multiplicity and the correction pole stays within its budget
        order_at_zeta0 = sum(t.order for t in run.fn.terms
                             if abs(t.location - zeta0) < 1e-9)
        order_elsewhere = sum(t.order for t in run.fn.terms
                              if abs(t.location - zeta0) >= 1e-9)
        assert order_elsewhere == run.n
        assert order_at_zeta0 <= cap

        outer = [c for c in run.report.contributions if c.side == "outer"]
        zeta0_sum = math.fsum(c.value for c in outer
                              if abs(c.pole - zeta0) < 1e-9)
        assert len(outer) == order_at_zeta0
        assert zeta0_sum <= cap * max(c.value for c in outer) + 1e-12
        # with the correction pole dominated, the bound is the inner sum
        assert run.report.inner_sum >= run.report.outer_sum
        assert run.report.bound == run.report.inner_sum

    def test_node_polynomial_separation(self, circle_pair):
        # |P| on the inflated curve dwarfs |P| on the base curve, and the
        # gap widens with the node count
        c, u0, pair = circle_pair
        zeta0 = 3.0
        delta_prime = pair.delta1 / 2.0
        _, base_pts = sample_grid(c, 2048)
        gw = 1.0 / (base_pts - zeta0)
        gw_plus = 1.0 / ((1.0 + delta_prime) * base_pts - zeta0)
        logs = []
        for n6 in (8, 16, 32):
            nodes = np.array(leja_points(gw, n6).nodes)
            # product form: the expanded monic loses ~n6 digits to
            # monomial cancellation on this small off-center curve
            lo = float(np.min(np.prod(np.abs(gw_plus[:, None] - nodes), 1)))
            hi = float(np.max(np.prod(np.abs(gw[:, None] - nodes), 1)))
            logs.append(math.log(lo / hi))
        assert logs[0] > 0.0
        assert logs[0] < logs[1] < logs[2]

    def test_empty_picks_rejected(self, circle_pair):
        c, u0, pair = circle_pair
        with pytest.raises(ExtremalError):
            build_transferred_extremal(c, pair, [], 3.0, u0=u0)

    def test_pick_outside_disk_rejected(self, circle_pair):
        c, u0, pair = circle_pair
        with pytest.raises(ExtremalError):
            build_transferred_extremal(c, pair, [1.2], 3.0, u0=u0)

    def test_infinite_anchor_rejected(self, circle_pair):
        c, u0, pair = circle_pair
        with pytest.raises(ExtremalError):
            build_transferred_extremal(c, pair, [0.5], float("inf"), u0=u0)

    def test_anchor_collision_rejected(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        with pytest.raises(ExtremalError):
            build_transferred_extremal(e, pair, [0.3], 0.5, u0=u0)

    def test_anchor_mismatch_rejected(self, ellipse_pair):
        e, u0, pair = ellipse_pair
        with pytest.raises(ExtremalError):
            build_transferred_extremal(e, pair, [0.3], -3.0 + 1.2j,
                                       u0=boundary_point(e, 2.0))


class TestClearance:
    """delta_prime from the radius of zeta0's preimage under Phi1: delta/2
    when that radius exceeds 1 + delta/2, else delta/4 when it exceeds
    1 + delta/4, else an ExtremalError; past the verified domain the
    radius is infinite.  The anchors 1e-5 inside an inflated curve (in
    |v|) sit halfway between two of 512 samples of it, next to the sample
    farthest from the origin, where the curve bends most: there the chord
    of a 512-sample polygon passes between the anchor and the curve."""

    @pytest.mark.parametrize("name", ["ellipse_pair", "circle_pair"])
    def test_offsets_follow_the_preimage_radius(self, name, request):
        _, _, pair = request.getfixturevalue(name)
        interior = dataclasses.replace(pair.interior)  # empty memos
        half, quarter = interior.delta / 2.0, interior.delta / 4.0
        assert half > 0.0
        ring = np.exp(1j * (2 * np.pi / 512) * np.arange(512))
        tip = np.argmax(np.abs(map_eval(interior, ring)))
        mid = np.exp(1j * (2 * np.pi / 512) * (tip + 0.5))

        def near(rad):
            return complex(map_eval(interior, (rad - 1e-5) * mid))

        far = 3.0 * complex(map_eval(interior, (1.0 + interior.delta) * mid))
        with pytest.raises(MapInvertError):
            map_invert(interior, far)
        attrs = set(vars(interior))
        for zeta0 in (near(1.0), near(1.0 + quarter)):
            with pytest.raises(ExtremalError, match="collides"):
                extremal._clearance(interior, zeta0)
        assert extremal._clearance(interior, near(1.0 + half)) == quarter
        for _ in range(2):
            assert extremal._clearance(interior, far) == half
        # the check keeps nothing of its own: map_invert's memo holds each
        # anchor's preimage, or its failure
        assert set(vars(interior)) == attrs
        message, _ = interior._preimages[np.complex128(far).tobytes()]
        assert message.startswith("inversion failed for ")
        assert abs(interior._preimages[
            np.complex128(near(1.0 + half)).tobytes()][1][0]) < 1.0 + half


class TestSharpnessSweep:
    def test_circle_identity_ratios(self, circle_pair):
        c, u0, pair = circle_pair
        rows = sharpness_sweep(c, pair, u0, [0.0 + 0j], 3.0, [1, 5, 10],
                               policy="repeat_single_pole")
        assert [r.n for r in rows] == [1, 5, 10]
        for row in rows:
            assert row.flags == ""
            assert abs(row.ratio - 1.0) <= 1e-6

    def test_radius_five_circle_identity_ratios(self):
        # the sampled ladder read delta1 = 0 on this circle, so every row
        # raised "interior map carries no verified extension margin"
        c = circle(5.0)
        u0 = boundary_point(c, 0.0)
        pair = solve_map_pair(c, u0)
        rows = sharpness_sweep(c, pair, u0, [0.0 + 0j], 15.0, [1, 5, 10],
                               policy="repeat_single_pole")
        assert [r.n for r in rows] == [1, 5, 10]
        for row in rows:
            assert row.flags == ""
            assert abs(row.ratio - 1.0) <= 1e-8

    @pytest.mark.parametrize("pole", [1.3, 2.0])
    def test_pole_outside_the_ellipse_is_named(self, ellipse_pair, pole):
        # past the interior map's domain, so map_invert itself fails
        e, u0, pair = ellipse_pair
        named = re.escape(f"interior pole {complex(pole)} does not")
        with pytest.raises(ExtremalError, match=named):
            sharpness_sweep(e, pair, u0, [0.1 + 0j, pole, 3.0], 3.0, [1, 3])

    def test_pole_outside_the_circle_is_named(self, circle_pair):
        # inside the interior map's margin: it inverts to |v| > 1
        c, u0, pair = circle_pair
        assert abs(map_invert(pair.interior, 1.05 + 0j)) > 1.0
        with pytest.raises(ExtremalError,
                           match=r"interior pole \(1\.05\+0j\) does not"):
            sharpness_sweep(c, pair, u0, [0.2 + 0j, 1.05, 1.5], 3.0, [1, 3],
                            policy="repeat_single_pole")

    def test_poles_are_classified_only_when_inversion_fails(
            self, ellipse_pair, monkeypatch):
        e, u0, pair = ellipse_pair
        calls = []

        def counting(*args, fn=extremal.classify_poles, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(extremal, "classify_poles", counting)
        assert sharpness_sweep(e, pair, u0, [0.1 + 0j, 0.3j], 3.0, []) == []
        assert calls == []
        with pytest.raises(ExtremalError):
            sharpness_sweep(e, pair, u0, [0.1 + 0j, 1.3], 3.0, [])
        assert len(calls) == 1

    def test_golden_row_inverts_per_pole_set(self, sweep_config,
                                             ellipse_pair, monkeypatch):
        # the base picks, the anchor's clearance, the Leja node values and
        # one call per side of the bound: no map_invert call per pole
        cfg = sweep_config
        e, u0, pair = ellipse_pair
        calls = []

        def counting(cmap, u, *args, fn=conformal.map_invert, **kwargs):
            calls.append(cmap.side)
            return fn(cmap, u, *args, **kwargs)

        for mod in (conformal, extremal, potential):
            monkeypatch.setattr(mod, "map_invert", counting)
        (row,) = sharpness_sweep(e, pair, u0, sweep_interior_poles(cfg),
                                 complex(*cfg["zeta0"]), [40],
                                 policy=cfg["policy"])
        assert row.flags == ""
        assert calls == ["interior"] * 4 + ["exterior"]

    def test_row_failures_are_flagged(self, ellipse_pair):
        # an anchor inside the curve fails every run but not the sweep
        e, u0, pair = ellipse_pair
        rows = sharpness_sweep(e, pair, u0, [0.3 + 0j], 0.5, [1, 2])
        assert len(rows) == 2
        for row in rows:
            assert "ExtremalError" in row.flags
            assert math.isnan(row.ratio)
            assert row.run is None

    def test_empty_n_list(self, circle_pair):
        c, u0, pair = circle_pair
        assert sharpness_sweep(c, pair, u0, [0.0 + 0j], 3.0, []) == []

    def test_no_interior_poles_rejected(self, circle_pair):
        c, u0, pair = circle_pair
        with pytest.raises(ExtremalError):
            sharpness_sweep(c, pair, u0, [], 3.0, [1])

    def test_unknown_policy_rejected(self, circle_pair):
        c, u0, pair = circle_pair
        with pytest.raises(ExtremalError):
            sharpness_sweep(c, pair, u0, [0.0 + 0j], 3.0, [1],
                            policy="fancy")
