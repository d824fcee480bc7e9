import cmath
import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernbound import (INFINITY, blaschke_derivative, blaschke_eval,
                       blaschke_product, circle, circular_arc,
                       classify_poles, cluster_points, curves, degree,
                       distance_to_curve, ellipse, eval_curve,
                       make_rational, map_derivative, map_eval, map_invert,
                       point_in_curve, poles_of, principal_parts,
                       rf_derivative, rf_eval, sample_grid,
                       sharpness_sweep, split_inside_outside, sup_norm,
                       trig_curve)
from bernbound.errors import NumericsError, PoleError, QuadratureError

from helpers import (DEFAULT_SEED, random_blaschke, random_complex,
                     random_corpus_function, random_split_rational,
                     sweep_interior_poles)
from oracles import (laurent_principal_lstsq, loop_blaschke_derivative,
                     loop_blaschke_eval, loop_classify_poles,
                     loop_principal_parts, loop_sup_norm,
                     rf_reference, richardson_directional)

GOLDEN_SWEEP = os.path.join(os.path.dirname(__file__), "golden",
                            "ellipse_sweep.json")
EPS = np.finfo(float).eps


class TestMakeRational:
    def test_duplicate_pole_rejected(self):
        with pytest.raises(PoleError):
            make_rational([(0.3, (1.0,)), (0.3 + 1e-13, (2.0,))])

    def test_zero_tail_trimmed(self):
        f = make_rational([(0.5, (2.0, 0.0))])
        assert f.terms[0].order == 1
        assert f.terms[0].coeffs == (2.0 + 0j,)

    def test_all_zero_term_dropped(self):
        f = make_rational([(0.5, (0.0, 0.0))], poly=(1.0,))
        assert f.terms == ()

    def test_poly_trimmed(self):
        f = make_rational((), poly=(1.0, 2.0, 0.0))
        assert f.poly == (1.0 + 0j, 2.0 + 0j)

    def test_degree_and_pole_listing(self):
        f = make_rational([(0.2 + 0.1j, (1.0, 2.0)), (-1.5, (3.0,))],
                          poly=(0.0, 0.0, 1.0))
        assert degree(f) == 5
        listed = dict(poles_of(f))
        assert listed[0.2 + 0.1j] == 2
        assert listed[-1.5 + 0j] == 1
        assert listed[INFINITY] == 2


@pytest.fixture(scope="module")
def sample_function():
    return make_rational([(0.2 + 0.1j, (1.0 + 2.0j, 0.5)), (-1.5, (2.0,))],
                         poly=(0.3, -0.25j, 0.1))


class TestEvaluation:

    def test_eval_matches_direct_formula(self, sample_function):
        f = sample_function
        u = 0.7 - 0.4j
        direct = ((1.0 + 2.0j) / (u - 0.2 - 0.1j)
                  + 0.5 / (u - 0.2 - 0.1j) ** 2
                  + 2.0 / (u + 1.5)
                  + 0.3 - 0.25j * u + 0.1 * u * u)
        assert abs(rf_eval(f, u) - direct) < 1e-14

    def test_eval_vectorized_matches_scalar(self, sample_function, rng):
        f = sample_function
        us = 2.0 * random_complex(rng, 17)
        vec = rf_eval(f, us)
        for u, v in zip(us, vec):
            assert abs(rf_eval(f, complex(u)) - v) < 1e-14

    def test_derivative_against_finite_differences(self, sample_function, rng):
        f = sample_function
        pole_locs = [t.location for t in f.terms]
        checked = 0
        while checked < 100:
            u = 2.0 * random_complex(rng)
            if min(abs(u - a) for a in pole_locs) < 0.05:
                continue
            fd = richardson_directional(lambda z: rf_eval(f, z), u,
                                        1.0 + 0j, h=1e-4)
            exact = rf_derivative(f, u)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
            checked += 1

    def test_pole_floor_guard(self, sample_function):
        with pytest.raises(PoleError):
            rf_eval(sample_function, 0.2 + 0.1j + 1e-10)
        with pytest.raises(PoleError):
            rf_derivative(sample_function, -1.5 + 1e-10j)

    def test_first_term_within_the_floor_is_named(self, sample_function):
        # both poles are within the floor of some point; the guard names
        # the first term in term order, whatever the point order
        u = np.array([-1.5 + 1e-10j, 0.0, 0.2 + 0.1j])
        for fn in (rf_eval, rf_derivative):
            with pytest.raises(PoleError, match=re.escape(
                    f"pole floor of {0.2 + 0.1j}")):
                fn(sample_function, u)

    def test_nan_point_does_not_hide_the_floor(self):
        f = make_rational([(0.5, (1.0,))])
        near, nan = 0.5 + 1e-12, complex(np.nan, 0.0)
        for fn in (rf_eval, rf_derivative):
            with pytest.raises(PoleError) as alone:
                fn(f, near)
            for u in ([near, nan], [nan, near]):
                with pytest.raises(PoleError) as got:
                    fn(f, np.array(u))
                assert str(got.value) == str(alone.value)
            assert cmath.isnan(fn(f, nan))
            assert np.isnan(fn(f, np.array([nan, 0.1]))[0])

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_empty_input_gives_empty_output(self, sample_function, shape):
        u = np.zeros(shape, dtype=complex)
        picks = [0.5, 0.5, -0.2j, INFINITY]
        for got in (rf_eval(sample_function, u),
                    rf_derivative(sample_function, u),
                    blaschke_eval(picks, u), blaschke_derivative(picks, u)):
            assert got.shape == shape
            assert got.dtype == complex


@pytest.fixture(scope="module")
def golden_f40_on_grid(ellipse_pair):
    """The golden sweep's n = 40 function and the 4,096-point curve grid
    its sup norm samples."""
    with open(GOLDEN_SWEEP, encoding="utf-8") as fh:
        cfg = json.load(fh)["config"]
    e, u0, pair = ellipse_pair
    row, = sharpness_sweep(e, pair, u0, sweep_interior_poles(cfg),
                           complex(*cfg["zeta0"]), [40], cfg["policy"])
    return row.run.fn, sample_grid(e, 4096)[1]


class TestEvaluationAccuracy:
    """Against the partial-fraction sum in extended precision: the error
    stays within 8 eps of the sum of the terms' moduli (the worst seen is
    about 4 eps, on the corpus derivatives)."""

    @pytest.mark.parametrize("derivative", [False, True])
    def test_golden_n40_on_the_sup_norm_grid(self, golden_f40_on_grid,
                                             derivative):
        f, pts = golden_f40_on_grid
        fn = rf_derivative if derivative else rf_eval
        ref, size = rf_reference(f, pts, derivative)
        assert np.all(np.abs(fn(f, pts) - ref) <= 8 * EPS * size)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_corpus_on_the_sup_norm_grid(self, golden_f40_on_grid,
                                         derivative):
        _, pts = golden_f40_on_grid
        fn = rf_derivative if derivative else rf_eval
        rng = np.random.default_rng(DEFAULT_SEED)
        for _ in range(200):
            f, _ = random_corpus_function(rng)
            ref, size = rf_reference(f, pts, derivative)
            assert np.all(np.abs(fn(f, pts) - ref) <= 8 * EPS * size)


_DISK_VALUE = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                 allow_infinity=False)
_BLASCHKE_POINT = st.one_of(st.just(INFINITY), _DISK_VALUE)


class TestBlaschke:
    def test_single_origin_pole(self):
        f = blaschke_product([0.0])
        assert f.poly == ()
        assert f.terms[0].location == 0.0
        assert abs(f.terms[0].coeffs[0] - 1.0) < 1e-12
        assert abs(rf_eval(f, 0.5j) - 1.0 / 0.5j) < 1e-12

    def test_double_pole_partial_fractions(self):
        # ((1 - v/2)/(v - 1/2))^2 = 1/4 - (3/4)/(v-1/2) + (9/16)/(v-1/2)^2
        f = blaschke_product([0.5, 0.5])
        assert abs(f.poly[0] - 0.25) < 1e-10
        assert abs(f.terms[0].location - 0.5) < 1e-12
        assert abs(f.terms[0].coeffs[0] + 0.75) < 1e-10
        assert abs(f.terms[0].coeffs[1] - 0.5625) < 1e-10
        assert abs(rf_eval(f, 1.0) - 1.0) < 1e-10
        assert abs(abs(rf_derivative(f, 1.0)) - 6.0) < 1e-9

    def test_exterior_pole_value(self):
        assert abs(blaschke_eval([2.0], 1.0) - 1.0) < 1e-14
        f = blaschke_product([2.0])
        assert abs(rf_eval(f, 1.0) - 1.0) < 1e-10

    def test_nan_pole_is_not_infinity(self):
        # the NaN used to count as infinity, giving the monomial v^2
        with pytest.raises(PoleError, match=r"nan"):
            blaschke_product([float("nan"), INFINITY])

    def test_pole_at_infinity_is_monomial(self):
        f = blaschke_product([INFINITY, INFINITY])
        assert f.terms == ()
        assert len(f.poly) == 3
        assert abs(f.poly[2] - 1.0) < 1e-12
        assert abs(rf_eval(f, 1.0 + 1.0j) - (1.0 + 1.0j) ** 2) < 1e-12

    def test_mixed_sides_rejected(self):
        with pytest.raises(PoleError):
            blaschke_product([0.5, 2.0])
        with pytest.raises(PoleError):
            blaschke_product([0.5, INFINITY])

    def test_circle_pole_rejected(self):
        with pytest.raises(PoleError):
            blaschke_product([np.exp(0.3j)])

    def test_empty_rejected(self):
        with pytest.raises(PoleError):
            blaschke_product([])

    def test_random_products_unimodular_on_circle(self, rng):
        ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 101)[:-1])
        for k in range(20):
            n = int(rng.integers(1, 21))
            radii = 0.1 + 0.75 * rng.random(n)
            angles = 2.0 * np.pi * rng.random(n)
            pts = radii * np.exp(1j * angles)
            if k % 2:
                pts = 1.0 / np.conj(pts)
            # the product form is exactly unimodular on the circle
            assert np.max(np.abs(np.abs(blaschke_eval(pts, ring)) - 1.0)) < 1e-12
            # the partial-fraction form agrees up to the cancellation its
            # coefficient sizes force (clustered poles inflate them)
            f = blaschke_product(pts)
            spread = sum(sum(abs(c) for c in t.coeffs) for t in f.terms)
            tol = 1e-12 * max(1.0, spread)
            assert np.max(np.abs(np.abs(rf_eval(f, ring)) - 1.0)) < tol

    def test_partial_fractions_match_product_form(self, rng):
        # the quadrature-built partial fractions and the direct product
        # evaluator are independent routes to the same function
        probes = np.concatenate([0.93 * np.exp(1j * np.linspace(0, 6, 7)),
                                 1.07 * np.exp(1j * np.linspace(0, 6, 7))])
        for k in range(10):
            n = int(rng.integers(1, 8))
            radii = 0.1 + 0.7 * rng.random(n)
            angles = 2.0 * np.pi * rng.random(n)
            pts = radii * np.exp(1j * angles)
            if k % 2:
                pts = 1.0 / np.conj(pts)
            f = blaschke_product(pts)
            direct = blaschke_eval(pts, probes)
            assert np.max(np.abs(rf_eval(f, probes) - direct)) < 1e-8

    @settings(deadline=None, max_examples=60)
    @given(draws=st.lists(st.tuples(_BLASCHKE_POINT, st.integers(1, 5)),
                          min_size=1, max_size=4),
           as_array=st.booleans(), data=st.data())
    def test_kernels_match_point_loop(self, draws, as_array, data):
        # one factor per distinct point, applied in point order: the same
        # bits as one factor per point
        picks = data.draw(st.permutations(
            [a for a, m in draws for _ in range(m)]))
        v = (np.array(data.draw(st.lists(_DISK_VALUE, max_size=9)),
                      dtype=complex)
             if as_array else data.draw(_DISK_VALUE))
        with np.errstate(all="ignore"):
            for fn, loop in ((blaschke_eval, loop_blaschke_eval),
                             (blaschke_derivative, loop_blaschke_derivative)):
                got, want = fn(picks, v), loop(picks, v)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_derivative_consistency(self, rng):
        pts = [0.4, 0.4, -0.3 + 0.2j]
        f = blaschke_product(pts)
        for v in (1.0, np.exp(0.7j), np.exp(-2.1j)):
            d_product = blaschke_derivative(pts, v)
            d_pf = rf_derivative(f, v)
            assert abs(d_product - d_pf) < 1e-9


class TestSupNorm:
    def test_simple_pole_closed_form(self, circle_pair):
        c, _, _ = circle_pair
        f = make_rational([(3.0, (1.0,))])
        val, arg = sup_norm(f, c)
        assert abs(val - 0.5) < 1e-10
        assert min(arg, 2.0 * np.pi - arg) < 1e-3

    def test_monomial_on_radius_two(self):
        from bernbound import circle
        c = circle(radius=2.0)
        for n in (1, 3, 6):
            f = make_rational((), poly=(0.0,) * n + (1.0,))
            val, _ = sup_norm(f, c)
            assert abs(val - 2.0 ** n) < 1e-9 * 2.0 ** n

    def test_blaschke_norm_is_one(self, circle_pair, rng):
        c, _, _ = circle_pair
        for _ in range(5):
            f = random_blaschke(rng, max_factors=8)
            val, _ = sup_norm(f, c)
            assert abs(val - 1.0) < 1e-9

    def test_chebyshev_on_segment(self, segment):
        f = make_rational((), poly=(0.0, 5.0, 0.0, -20.0, 0.0, 16.0))
        val, _ = sup_norm(f, segment)
        assert abs(val - 1.0) < 1e-8

    def test_boundary_pole_rejected(self, circle_pair):
        c, _, _ = circle_pair
        f = make_rational([(1.0, (1.0,))])
        with pytest.raises(PoleError):
            sup_norm(f, c)

    def test_matches_peak_loop_on_corpus(self, ellipse_pair, rng):
        e, _, _ = ellipse_pair
        for _ in range(12):
            f, _ = random_corpus_function(rng)
            assert sup_norm(f, e) == loop_sup_norm(f, e)

    def test_matches_peak_loop_on_arcs(self, segment):
        f = make_rational([(0.3 + 0.4j, (1.0, -0.5j)), (-2.0, (0.7,))],
                          poly=(0.1, 1.0 - 1j))
        for arc in (segment, circular_arc(1.1, radius=1.3, rotation=0.4)):
            assert sup_norm(f, arc) == loop_sup_norm(f, arc)
            assert sup_norm(f, arc, m=333) == loop_sup_norm(f, arc, m=333)

    def test_matches_peak_loop_on_ties(self, circle_pair):
        # every sample of a constant is a peak of the same height, and
        # z^6 on a circle ties up to rounding: the first peak must win
        c, _, _ = circle_pair
        for poly in ((2.0 - 1j,), (0.0,) * 6 + (1.0,)):
            f = make_rational((), poly=poly)
            assert sup_norm(f, c) == loop_sup_norm(f, c)
        assert sup_norm(make_rational((), poly=(3.0,)), c) == (3.0, 0.0)


class TestSplit:
    def test_split_reconstruction(self, ellipse_pair, rng):
        e, _, _ = ellipse_pair
        _, pts = sample_grid(e, 512)
        for _ in range(20):
            f = random_split_rational(rng, pts)
            f1, f2 = split_inside_outside(f, e)
            recon = rf_eval(f1, pts) + rf_eval(f2, pts)
            scale = max(1.0, float(np.max(np.abs(rf_eval(f, pts)))))
            assert np.max(np.abs(recon - rf_eval(f, pts))) < 1e-10 * scale
            assert all(point_in_curve(e, t.location) for t in f1.terms)
            assert not any(point_in_curve(e, t.location) for t in f2.terms)
            assert f1.poly == ()
            assert f2.poly == f.poly
            if f1.terms:
                tail = abs(rf_eval(f1, 1e6 + 0j))
                val, _ = sup_norm(f1, e)
                assert tail < 1e-4 * val

    def test_on_curve_pole_rejected(self, ellipse_pair):
        e, _, _ = ellipse_pair
        f = make_rational([(1.2, (1.0,))])
        with pytest.raises(PoleError):
            split_inside_outside(f, e)


class TestPrincipalParts:
    def test_simple_residue(self):
        f = principal_parts(lambda v: 1.0 / (v * (v - 2.0)), [(0.0, 1)])
        assert len(f.terms) == 1
        assert abs(f.terms[0].coeffs[0] + 0.5) < 1e-12

    def test_idempotent_on_rational(self):
        g = make_rational([(0.3, (1.0 + 1.0j, -2.0)), (-0.8j, (0.5,))])
        f = principal_parts(lambda v: rf_eval(g, v),
                            [(0.3, 2), (-0.8j, 1)])
        for want, got in zip(g.terms, f.terms):
            assert abs(want.location - got.location) < 1e-14
            for cw, cg in zip(want.coeffs, got.coeffs):
                assert abs(cw - cg) < 1e-12

    def test_transplanted_residue_against_least_squares(self, ellipse_pair,
                                                        rng):
        # push a one-pole disk function through the interior map inverse
        # and extract its principal part three independent ways
        e, _, pair = ellipse_pair
        a = 0.3
        ustar = complex(map_eval(pair.interior, a))

        def h_scalar(u):
            return complex(blaschke_eval([a], map_invert(pair.interior, u)))

        f = principal_parts(lambda v: blaschke_eval([a], v), [(a, 1)],
                            pair.interior)
        got = f.terms[0].coeffs[0]

        rho = 0.4 * distance_to_curve(e, ustar)
        (c1,) = laurent_principal_lstsq(h_scalar, ustar, 1, rho, rng)

        # chain rule: residue (1 - a^2) of the disk factor divided by the
        # inverse-map derivative at the transplanted pole
        expected = (1.0 - a * a) * map_derivative(pair.interior, a)
        assert abs(got - expected) < 1e-8
        assert abs(c1 - expected) < 1e-8

    def test_infeasible_radius_rejected(self):
        with pytest.raises(QuadratureError):
            principal_parts(lambda v: 1.0 / v, [(0.0, 1), (1e-9, 1)])

    def test_quadrature_disagreement_rejected(self):
        # singularity just outside the quadrature ring: the trapezoid
        # rule converges too slowly and the q vs 2q check must trip
        with pytest.raises(QuadratureError):
            principal_parts(lambda v: 1.0 / (v - 0.26), [(0.0, 1)])

    def test_bad_order_rejected(self):
        with pytest.raises(PoleError):
            principal_parts(lambda v: 1.0 / v, [(0.0, 0)])


class TestClassification:
    def test_classify_on_ellipse(self, ellipse_pair):
        e, _, _ = ellipse_pair
        ps = classify_poles([(-0.3 + 0.25j, 2), (1.9 - 0.6j, 1),
                             (INFINITY, 3)], e)
        assert ps.inside == (True, False, False)
        assert ps.inner_count == 2
        assert ps.outer_count == 4
        expanded = ps.expanded()
        assert len(expanded) == 6
        assert expanded[0] == (-0.3 + 0.25j, True)
        want = min(distance_to_curve(e, -0.3 + 0.25j),
                   distance_to_curve(e, 1.9 - 0.6j))
        assert abs(ps.separation - want) < 1e-12

    def test_on_curve_rejected(self, ellipse_pair):
        e, _, _ = ellipse_pair
        with pytest.raises(PoleError):
            classify_poles([(1.2, 1)], e)

    def test_nan_pole_is_not_infinity(self, ellipse_pair):
        e, _, _ = ellipse_pair
        with pytest.raises(PoleError, match=r"nan"):
            classify_poles([(float("nan"), 1)], e)
        # a part that is +-inf is infinity, whatever the other part holds
        ps = classify_poles([(complex(float("nan"), float("inf")), 1)], e)
        assert ps.poles == ((INFINITY, 1),)

    def test_bad_multiplicity_rejected(self, ellipse_pair):
        e, _, _ = ellipse_pair
        with pytest.raises(PoleError):
            classify_poles([(0.1, 0)], e)

    def test_cluster_points(self):
        got = cluster_points([0.3, 0.3 + 1e-13, 5.0, 0.3 - 1e-13])
        assert len(got) == 2
        assert got[0][1] == 3
        assert abs(got[0][0] - 0.3) < 1e-12
        assert got[1] == (5.0 + 0j, 1)

    def test_equal_points_keep_their_bits(self, ellipse_pair):
        # a cluster is centered on its first member, so k equal points give
        # that point bit for bit at every multiplicity: here the golden
        # sweep's picks (the disk preimages of its poles), k = 1 ... 40
        _, _, pair = ellipse_pair
        with open(GOLDEN_SWEEP, encoding="utf-8") as fh:
            config = json.load(fh)["config"]
        picks = map_invert(pair.interior,
                           np.array(sweep_interior_poles(config)))
        for a in map(complex, picks):
            for k in range(1, 41):
                ((center, count),) = cluster_points([a] * k)
                assert count == k
                assert repr(center) == repr(a)


# ---------------------------------------------------------------------------
# the one-pass pole-set routines against their one-pole-at-a-time loops
# ---------------------------------------------------------------------------

PARITY_CURVES = (circle(), circle(radius=1.7, center=0.3 + 0.2j),
                 ellipse(1.2, 0.8), trig_curve([(1, 1.0 + 0j), (4, 0.06 + 0j)]))

# a pole is INFINITY or scale * gamma(angle): inside these star-shaped curves
# for scale < 1, outside for scale > 1, and near the curve (where the winding
# test may refuse it) for scale close to 1
_POLE = st.one_of(
    st.just(None),
    st.tuples(st.floats(0.05, 0.95) | st.floats(0.999, 1.001)
              | st.floats(1.05, 3.0),
              st.floats(0.0, 2 * np.pi, exclude_max=True)))
_POLE_SET = st.lists(st.tuples(_POLE, st.integers(1, 4)), min_size=1,
                     max_size=9)


def _pole_list(curve, draws):
    return [(INFINITY if p is None else complex(p[0] * eval_curve(curve, p[1])),
             m) for p, m in draws]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericsError as exc:
        return type(exc), str(exc)


class TestPoleSetLoops:
    @settings(deadline=None, max_examples=40)
    @given(k=st.integers(0, len(PARITY_CURVES) - 1), draws=_POLE_SET)
    @example(k=2, draws=[((1.0, 0.0), 1)])  # on a sample: a PoleError
    @example(k=2, draws=[((0.9995, 1.0), 1), ((1.0, 0.0), 1)])
    def test_classify_matches_pole_loop(self, k, draws):
        curve = PARITY_CURVES[k]
        poles = _pole_list(curve, draws)
        got = _outcome(classify_poles, poles, curve)
        want = _outcome(loop_classify_poles, poles, curve)
        assert got == want  # entries, inside and separation, or the error

    def test_on_curve_pole_named_at_each_position(self, ellipse_pair):
        e, _, _ = ellipse_pair
        _, pts = sample_grid(e, 4096)
        on, also_on = complex(pts[100]), complex(pts[2000])
        others = [(0.3 + 0.1j, 2), (2.0 - 0.5j, 1), (INFINITY, 3)]
        for pos in range(len(others) + 1):
            poles = others[:pos] + [(on, 1)] + others[pos:] + [(also_on, 1)]
            with pytest.raises(PoleError) as got:
                classify_poles(poles, e)
            with pytest.raises(PoleError) as want:
                loop_classify_poles(poles, e)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith(f"pole {on} lies on the curve")

    def test_classify_samples_the_curve_once(self, monkeypatch):
        e = ellipse(1.2, 0.8)  # a fresh object: its sample memo is empty
        calls = []
        for name in ("eval_curve", "curve_derivative"):
            def counting(*args, fn=getattr(curves, name), name=name):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(curves, name, counting)
        counts = []
        for n in (1, 9, 1):
            del calls[:]
            poles = [(complex(0.1 * k + 0.2j), 1) for k in range(n)]
            classify_poles(poles, e)
            counts.append(sorted(calls))
        # the first call samples 4,096 points for the distances and 2,048
        # points with tangents for the windings; later calls sample nothing
        assert counts[0] == ["curve_derivative", "eval_curve", "eval_curve"]
        assert counts[1:] == [[], []]

    @settings(deadline=None, max_examples=25)
    @given(k=st.integers(0, 3),
           draws=st.lists(st.tuples(st.floats(0.0, 0.8),
                                    st.floats(0.0, 2 * np.pi,
                                              exclude_max=True),
                                    st.integers(1, 4)),
                          min_size=1, max_size=5))
    @example(k=3, draws=[(0.75, 0.0, 1), (0.0, 0.0, 2), (0.0, 0.0, 4),
                         (0.0, 0.0, 4)])
    def test_principal_parts_match_pole_loop(self, circle_pair, ellipse_pair,
                                             shifted_circle_pair, k, draws):
        cmap = (None, circle_pair[2].interior, ellipse_pair[2].interior,
                shifted_circle_pair[2].interior)[k]
        picks = [complex(r * np.exp(1j * t)) for r, t, m in draws
                 for _ in range(m)]
        poles = cluster_points(picks)

        def g(v):
            return blaschke_eval(picks, v)

        want = _outcome(loop_principal_parts, g, poles, cmap)
        got = _outcome(principal_parts, g, poles, cmap)
        if isinstance(want, tuple):
            assert got[0] is want[0]
            assert re.search(r"at pole \S+", got[1]).group() == \
                re.search(r"at pole \S+", want[1]).group()
            return
        # elementwise arithmetic throughout, and with a map Phi gives a
        # point the same bits on one stacked array as per ring: equal
        assert got == want

    def test_failing_second_of_three_is_named(self, ellipse_pair):
        # a singularity just outside the second pole's ring (rho = 0.25)
        # trips its q-vs-2q check; the first pole passes
        _, _, pair = ellipse_pair
        picks = [-0.4 + 0j, 0.1 + 0.3j, 0.4 - 0.3j]

        def g(v):
            return blaschke_eval(picks, v) + 1.0 / (v - (0.1 + 0.56j))

        poles = [(a, 1) for a in picks]
        # a later pole without a feasible radius does not preempt it
        crowded = poles + [(picks[2] + 1e-9, 1)]
        for fn in (principal_parts, loop_principal_parts):
            for pole_set in (poles, crowded):
                with pytest.raises(QuadratureError,
                                   match=re.escape(f"at pole {picks[1]} ")):
                    fn(g, pole_set, pair.interior)
