"""Per-object geometry memos: sample grids on curves and arcs, coefficient
arrays and inversion seeds on maps, and the bounded pole memos (pole sides
on a curve, series-map preimages per target batch).

The memo is computed on first use, read-only, and invisible to equality,
hashing, replace() and serialization; a call on a reused object gives the
same bits as the same call on a fresh one.  A failure is never memoized.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bernbound import (INFINITY, MapPair, boundary_point, circle,
                       circular_arc, classify_poles, conformal, ellipse,
                       make_rational, map_eval, map_from_json, map_invert,
                       map_to_dict, map_to_json, sample_grid, segment_arc,
                       sharpness_sweep, solve_map_pair, sup_norm,
                       trig_curve, verify_ratio)
from bernbound.curves import _MEMO_CAP
from bernbound.errors import CurveError, MapInvertError, PoleError

from helpers import (CORPUS_EXTERIOR, CORPUS_INTERIOR, CORPUS_SIZE,
                     DEFAULT_SEED, random_corpus_function,
                     sweep_interior_poles)
from oracles import loop_classify_poles

GOLDEN = Path(__file__).parent / "golden"

AB, T0 = (1.2, 0.8), 0.4
CORPUS_POLES = list(zip(CORPUS_INTERIOR + CORPUS_EXTERIOR + (INFINITY,),
                        (3, 2, 3, 2)))


@pytest.fixture(scope="module")
def entries():
    """The serialized ellipse pair: map_from_json gives fresh maps."""
    curve = ellipse(*AB)
    pair = solve_map_pair(curve, boundary_point(curve, T0))
    return map_to_json(pair.interior), map_to_json(pair.exterior)


def fresh_pair(entries):
    curve = ellipse(*AB)
    return curve, MapPair(curve, map_from_json(entries[0]),
                          map_from_json(entries[1]))


def corpus_functions(count=6):
    rng = np.random.default_rng(DEFAULT_SEED)
    return [random_corpus_function(rng)[0] for _ in range(count)]


def assert_fresh_equals_reused(call, make_args):
    """call(*make_args()) on fresh objects equals each of three calls on
    one reused set of objects, bit for bit."""
    reused = make_args()
    for _ in range(3):
        got, want = call(*reused), call(*make_args())
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        else:
            assert got == want and repr(got) == repr(want)


class TestReadOnly:
    def test_grids_cannot_be_written(self):
        for boundary in (ellipse(*AB), segment_arc()):
            for arr in sample_grid(boundary, 256):
                with pytest.raises(ValueError):
                    arr[0] = 0.0
        for arr in sample_grid(ellipse(*AB), 256, tangents=True):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        ts, pts = sample_grid(ellipse(*AB), 64)
        with pytest.raises(ValueError):
            pts += 1.0

    def test_map_arrays_cannot_be_written(self, entries):
        for text in entries:
            cmap = map_from_json(text)
            for arr in (*cmap._seed_ring, cmap._coeffs, cmap._deriv_coeffs):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_curves_and_arcs_share_one_readonly_t_array(self):
        ts = sample_grid(ellipse(*AB), 96)[0]
        for boundary in (ellipse(*AB), circle(), segment_arc()):
            assert sample_grid(boundary, 96)[0] is ts
            assert all(arr is not ts for arr in boundary._grids[96])
        assert sample_grid(circle(), 96, tangents=True)[0] is ts
        assert not ts.flags.writeable
        assert ts.tobytes() == (np.arange(96) * (2 * np.pi / 96)).tobytes()

    def test_grid_is_computed_once_per_m(self):
        e = ellipse(*AB)
        first = sample_grid(e, 128)
        again = sample_grid(e, 128, tangents=True)
        assert first[0] is again[0] and first[1] is again[1]
        assert sample_grid(e, 128, tangents=True)[2] is again[2]
        assert sample_grid(e, 64)[0] is not first[0]


class TestEmptyMemo:
    def test_replace_gives_an_empty_curve_memo(self):
        e = ellipse(*AB)
        sample_grid(e, 128, tangents=True)
        classify_poles(CORPUS_POLES, e)
        assert len(e._pole_sides) == 3
        copy = replace(e)
        assert copy == e and hash(copy) == hash(e)
        assert copy._grids == {} and copy._pole_sides == {}
        arc = segment_arc()
        sample_grid(arc, 64)
        assert replace(arc)._grids == {}

    def test_replace_and_parse_give_an_empty_map_memo(self, entries):
        cmap = map_from_json(entries[0])
        before = map_to_dict(cmap)
        map_invert(cmap, np.array([0.1 + 0.2j]))
        memo = {"_coeffs", "_deriv_coeffs", "_seed_ring", "_preimages"}
        assert memo <= set(vars(cmap)) and len(cmap._preimages) == 1
        assert map_to_dict(cmap) == before
        for other in (replace(cmap), map_from_json(entries[0])):
            assert other == cmap and hash(other) == hash(cmap)
            assert not memo & set(vars(other))


class TestFreshEqualsReused:
    def test_verify_ratio(self, entries):
        for f in corpus_functions():
            def args():
                curve, pair = fresh_pair(entries)
                return f, curve, boundary_point(curve, T0), pair

            assert_fresh_equals_reused(verify_ratio, args)

    def test_classify_poles(self):
        nine = [(0.3 + 0.1j, 2), (2.0 - 0.5j, 1), (INFINITY, 3),
                (-0.2j, 1), (1.5 + 1.0j, 2)]
        for poles in (CORPUS_POLES, nine):
            assert_fresh_equals_reused(classify_poles,
                                       lambda: (poles, ellipse(*AB)))

    def test_sup_norm_on_curve_and_arcs(self):
        for f in corpus_functions(3):
            assert_fresh_equals_reused(sup_norm, lambda: (f, ellipse(*AB)))
        cheb = make_rational((), (0.0, -3.0, 0.0, 4.0))
        for make in (segment_arc, lambda: circular_arc(1.0)):
            assert_fresh_equals_reused(sup_norm, lambda: (cheb, make()))
        f = make_rational([(0.1 + 0.05j, (1.0, 0.5j))], (0.0, 1.0))
        assert_fresh_equals_reused(sup_norm,
                                   lambda: (f, segment_arc(), 2048))

    def test_map_invert(self, entries):
        inner = np.array([0.3 + 0.1j, -0.5 + 0.2j, 0.0, 0.9 - 0.1j])
        outer = np.array([2.0 + 0.5j, -1.6j, 3.0, -1.5 + 1.5j])
        for text, pts in zip(entries, (inner, outer)):
            assert_fresh_equals_reused(map_invert,
                                       lambda: (map_from_json(text), pts))

    def test_map_invert_batches_of_1_2_3_7(self, entries):
        # each batch size rounds the series product differently, so the
        # memo key is the whole batch: a repeat gives the batch's own bits
        pts = np.array([0.3 + 0.1j, -0.5 + 0.2j, 0.0, 0.9 - 0.1j,
                        -0.2 - 0.6j, 0.75 + 0.25j, 0.1j])
        for size in (1, 2, 3, 7):
            assert_fresh_equals_reused(
                map_invert, lambda: (map_from_json(entries[0]), pts[:size]))

    def test_ratio_corpus_warm_equals_cold(self, entries):
        rng = np.random.default_rng(DEFAULT_SEED)
        functions = [random_corpus_function(rng)[0]
                     for _ in range(CORPUS_SIZE)]
        curve, pair = fresh_pair(entries)
        u0 = boundary_point(curve, T0)
        warm = [verify_ratio(f, curve, u0, pair) for f in functions]
        assert len(curve._pole_sides) == 3
        assert len(pair.interior._preimages) <= 3
        for f, got in zip(functions, warm):
            c, fresh = fresh_pair(entries)
            want = verify_ratio(f, c, boundary_point(c, T0), fresh)
            assert repr(got) == repr(want)

    def test_sharpness_sweep_rows(self, entries):
        cfg = json.loads((GOLDEN / "ellipse_sweep.json").read_text())["config"]
        ring, zeta0 = sweep_interior_poles(cfg), complex(*cfg["zeta0"])
        n_list = [5, 10, 5, 20]
        curve, pair = fresh_pair(entries)
        u0 = boundary_point(curve, T0)
        rounds = [sharpness_sweep(curve, pair, u0, ring, zeta0, n_list,
                                  policy=cfg["policy"]) for _ in range(2)]
        assert pair.interior._preimages
        for i, n in enumerate(n_list):
            c, fresh = fresh_pair(entries)
            want = sharpness_sweep(c, fresh, boundary_point(c, T0), ring,
                                   zeta0, [n], policy=cfg["policy"])[0]
            assert not want.flags
            for rows in rounds:
                assert repr(rows[i]) == repr(want)


class TestPoleMemos:
    """The bounded memos of classify_poles (per pole location on a curve)
    and of map_invert on series maps (per exact target batch)."""

    def test_failures_raise_on_every_repeat(self, entries):
        e = ellipse(*AB)
        bp = boundary_point(e, 0.7)
        on_curve = complex(sample_grid(e, 4096)[1][100])
        near = bp.point + 1e-4 * bp.n1  # between the floor and the winding
        _, pair = fresh_pair(entries)
        cases = [(PoleError, lambda: classify_poles([(on_curve, 1)], e)),
                 (CurveError, lambda: classify_poles([(near, 1)], e)),
                 (MapInvertError,
                  lambda: map_invert(pair.interior, np.array([0.1, 3.0])))]
        for error, call in cases:
            messages = set()
            for _ in range(3):
                with pytest.raises(error) as got:
                    call()
                messages.add(str(got.value))
            assert len(messages) == 1
        assert e._pole_sides == {} and pair.interior._preimages == {}

    def test_error_order_with_memoized_poles(self):
        e = ellipse(*AB)
        bp = boundary_point(e, 0.7)
        on_curve = complex(sample_grid(e, 4096)[1][100])
        near = bp.point + 1e-4 * bp.n1
        good = [(0.3 + 0.1j, 2), (2.0 - 0.5j, 1), (INFINITY, 3)]
        classify_poles(good, e)
        for bad in ([(on_curve, 1), (near, 1)], [(near, 1), (on_curve, 1)]):
            for pos in range(len(good) + 1):
                poles = good[:pos] + bad + good[pos:]
                for _ in range(2):
                    with pytest.raises((PoleError, CurveError)) as got:
                        classify_poles(poles, e)
                    with pytest.raises((PoleError, CurveError)) as want:
                        loop_classify_poles(poles, ellipse(*AB))
                    assert type(got.value) is type(want.value)
                    assert str(got.value) == str(want.value)

    def test_memos_stay_bounded(self, entries):
        e = ellipse(*AB)
        cmap = map_from_json(entries[0])
        for k in range(200):
            a = 0.5 * np.exp(0.03j * k)
            classify_poles([(a, 1), (3.0 * a, 1)], e)
            map_invert(cmap, np.array([a, 0.5 * a]))
            assert len(e._pole_sides) <= _MEMO_CAP
            assert len(cmap._preimages) <= _MEMO_CAP
        assert len(e._pole_sides) == len(cmap._preimages) == _MEMO_CAP
        # the oldest entries go first
        assert 0.5 * np.exp(0.03j * 199) in e._pole_sides
        assert 0.5 + 0j not in e._pole_sides
        # a batch longer than the cap is not kept
        cmap = map_from_json(entries[0])
        long = 0.5 * np.exp(1j * np.arange(_MEMO_CAP + 1))
        map_invert(cmap, long)
        assert cmap._preimages == {}

    def test_writing_a_result_leaves_the_memo_alone(self, entries):
        cmap = map_from_json(entries[0])
        pts = np.array([0.3 + 0.1j, -0.5 + 0.2j])
        first = map_invert(cmap, pts)
        want = first.copy()
        first[:] = 7.0
        assert map_invert(cmap, pts).tobytes() == want.tobytes()
        for pair in cmap._preimages.values():
            for arr in pair:  # the core points w and the preimages v
                with pytest.raises(ValueError):
                    arr[0] = 0.0
        e = ellipse(*AB)
        ps = classify_poles(CORPUS_POLES, e)
        assert classify_poles(CORPUS_POLES, e) == ps

    def test_hit_skips_newton_and_evaluates_once(self, entries, trig_pair,
                                                 monkeypatch):
        # a hit takes its residual again by one core evaluation, with no
        # Newton and no prefix inverse: at the stored v through map_eval
        # inside, at the stored core point w outside
        cases = ((map_from_json(entries[0]), np.array(CORPUS_INTERIOR),
                  ["map_eval", "_core_eval"]),
                 (trig_pair[2].exterior, 2.0 * np.array(CORPUS_EXTERIOR),
                  ["_core_eval"]))
        calls = []
        for name in ("_newton", "_pull", "map_eval", "_core_eval"):
            def counting(*args, fn=getattr(conformal, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(conformal, name, counting)
        for cmap, pts, hit_calls in cases:
            want = map_invert(cmap, pts)
            for _ in range(2):
                del calls[:]
                assert map_invert(cmap, pts).tobytes() == want.tobytes()
                assert calls == hit_calls

    def test_far_exterior_points_on_a_series_map(self):
        # with s != 0 a far point's preimage lies near the pole -1/s, where
        # v rounds by about 1e-16 |u|; a hit checks its residual in the
        # core variable, as Newton did, so it never raises where a cold
        # call passed
        c = trig_curve([(1, 1.0 + 0j), (4, 0.06 + 0j)])
        u0 = boundary_point(c, 0.3)
        text = map_to_json(solve_map_pair(c, u0).exterior)
        pts = np.array([1e3 + 1e3j, 1e6, -3e7j, 5.0])
        assert_fresh_equals_reused(map_invert,
                                   lambda: (map_from_json(text), pts))
        cmap = map_from_json(text)
        map_invert(cmap, pts)
        assert len(cmap._preimages) == 1
        assert np.all(np.isfinite(map_eval(cmap, map_invert(cmap, pts))))
