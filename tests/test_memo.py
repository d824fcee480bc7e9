"""Per-object geometry memos: sample grids on curves and arcs, coefficient
arrays and inversion seeds on maps.

The memo is computed on first use, read-only, and invisible to equality,
hashing, replace() and serialization; a call on a reused object gives the
same bits as the same call on a fresh one.
"""
from dataclasses import replace

import numpy as np
import pytest

from bernbound import (INFINITY, MapPair, boundary_point, circular_arc,
                       classify_poles, ellipse, make_rational,
                       map_from_json, map_invert, map_to_dict, map_to_json,
                       sample_grid, segment_arc, solve_map_pair, sup_norm,
                       verify_ratio)

from helpers import (CORPUS_EXTERIOR, CORPUS_INTERIOR, DEFAULT_SEED,
                     random_corpus_function)

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
        copy = replace(e)
        assert copy == e and hash(copy) == hash(e)
        assert copy._grids == {}
        arc = segment_arc()
        sample_grid(arc, 64)
        assert replace(arc)._grids == {}

    def test_replace_and_parse_give_an_empty_map_memo(self, entries):
        cmap = map_from_json(entries[0])
        before = map_to_dict(cmap)
        map_invert(cmap, np.array([0.1 + 0.2j]))
        memo = {"_coeffs", "_deriv_coeffs", "_seed_ring"}
        assert memo <= set(vars(cmap))
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
