"""Per-object geometry memos: sample grids on curves and arcs, coefficient
arrays on maps, the bounded pole memos (pole sides on a curve with their
grid reciprocal offsets, map preimages or their failure per target batch)
and the bounded memo of a sharpness row on a map (mapped principal-parts
rings per pole batch).

The memo is computed on first use, read-only, and invisible to equality,
hashing, replace() and serialization; a call on a reused object gives the
same bits as the same call on a fresh one.  A failed inversion is kept as
its error's message and residual; no other failure is memoized.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bernbound import (INFINITY, MapPair, blaschke_eval, boundary_point,
                       build_transferred_extremal, circle, circular_arc,
                       classify_poles, cluster_points, conformal, ellipse,
                       eval_curve, make_rational, map_derivative, map_eval,
                       map_from_json, map_invert, map_to_dict, map_to_json,
                       poles_of, principal_parts, ratfun, rf_eval, sample_grid,
                       segment_arc, sharpness_sweep, solve_map_pair, sup_norm,
                       trig_curve, verify_ratio)
import bernbound.cli as cli
from bernbound.curves import _MEMO_CAP
from bernbound.errors import (CurveError, ExtremalError, MapInvertError,
                              PoleError)
from bernbound.ratfun import _RING_POLES

from helpers import (CORPUS_EXTERIOR, CORPUS_INTERIOR, CORPUS_SIZE,
                     DEFAULT_SEED, random_corpus_function,
                     sweep_interior_poles)
from oracles import loop_classify_poles, loop_sup_norm

GOLDEN = Path(__file__).parent / "golden"
SPECS = Path(__file__).parent.parent / "specs"

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
            for arr in (cmap._coeffs, cmap._deriv_coeffs):
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
        curve, pair = fresh_pair(entries)
        cmap = pair.interior
        before = map_to_dict(cmap)
        map_invert(cmap, np.array([0.1 + 0.2j]))
        build_transferred_extremal(curve, pair, [0.3, -0.2j], -3.0 + 1.2j,
                                   boundary_point(curve, T0))
        memo = {"_coeffs", "_deriv_coeffs", "_preimages", "_rings"}
        fields = set(map_to_dict(cmap))
        assert set(vars(cmap)) - fields == memo
        assert len(cmap._rings) == 1
        assert np.complex128(-3.0 + 1.2j).tobytes() in cmap._preimages
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
        # a failed classification is never kept; a failed inversion is
        # kept as its message and residual
        assert e._pole_sides == {}
        (message, _), = pair.interior._preimages.values()
        assert message == "inversion failed for (3+0j)"

    def test_a_failing_series_batch_sums_once(self, entries, monkeypatch):
        # the repeats of a failing batch raise the first error, message and
        # residual, with no contour sum, pull or evaluation
        cmap = map_from_json(entries[0])
        batch = np.array([0.1 + 0.2j, -3.0 + 1.2j, 0.3j])
        calls = _counted(monkeypatch, "_cauchy_sums", "_pull", "map_eval")
        errors, counts = set(), []
        for _ in range(3):
            with pytest.raises(MapInvertError) as got:
                map_invert(cmap, batch)
            errors.add((str(got.value), got.value.residual))
            counts.append(len(calls))
        assert calls.count("_cauchy_sums") == 1
        assert counts == [len(calls)] * 3
        (message, residual), = errors
        assert message.startswith("inversion failed for (-3+1.2j) ")
        assert residual > 1e-13

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
        # nor past the cap of ring batches, or of the preimage batches a row
        # adds (its anchor zeta0's failure, its Leja nodes, its poles), the
        # oldest dropped first
        curve, pair = fresh_pair(entries)
        u0 = boundary_point(curve, T0)
        for k in range(_MEMO_CAP + 6):
            zeta0 = -3.0 + 0.01j * k
            build_transferred_extremal(curve, pair, [0.3 * np.exp(0.05j * k)],
                                       zeta0, u0)
            assert len(pair.interior._rings) <= _MEMO_CAP
            assert len(pair.interior._preimages) <= _MEMO_CAP
        assert len(pair.interior._rings) == len(pair.interior._preimages) \
            == _MEMO_CAP
        first, last = (np.complex128(-3.0 + 0.01j * k).tobytes()
                       for k in (0, _MEMO_CAP + 5))
        assert first not in pair.interior._preimages
        assert isinstance(pair.interior._preimages[last][0], str)
        assert pair.exterior._rings == {}

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
        # contour sum and no prefix inverse: at the stored v through
        # map_eval inside, at the stored core point w outside
        cases = ((map_from_json(entries[0]), np.array(CORPUS_INTERIOR),
                  ["map_eval", "_core_eval"]),
                 (trig_pair[2].exterior, 2.0 * np.array(CORPUS_EXTERIOR),
                  ["_core_eval"]))
        calls = []
        for name in ("_argument_inverse", "_core_deriv", "_pull", "map_eval",
                     "_core_eval"):
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
        # core variable, as the cold call does, so it never raises where a
        # cold call passed
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


_CLOSED_FORMS = [("circle_pair", "interior"), ("circle_pair", "exterior"),
                 ("shifted_circle_pair", "interior"),
                 ("shifted_circle_pair", "exterior"),
                 ("ellipse_pair", "exterior")]


@pytest.fixture(params=_CLOSED_FORMS, ids="-".join)
def closed_form(request):
    """(curve, serialized map) of each closed-form core: map_from_json
    gives a fresh map with an empty inversion memo."""
    name, side = request.param
    curve, _, pair = request.getfixturevalue(name)
    return curve, map_to_json(getattr(pair, side))


def _closed_form_targets(curve, side, scale=1.0):
    """8 points inside (0.5 gamma) or outside (1.6 gamma) the curve, times
    scale."""
    ring = eval_curve(curve, 0.1 + np.arange(8) * (2 * np.pi / 8))
    return scale * (0.5 if side == "interior" else 1.6) * ring


def _counted(monkeypatch, *names):
    """The list that names each call of conformal's functions names, in
    call order."""
    calls = []
    for name in names:
        def counting(*args, fn=getattr(conformal, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(conformal, name, counting)
    return calls


class TestClosedFormPreimageMemo:
    """map_invert's memo on the closed forms: the same bits as a cold call,
    a failure kept as its message and residual, bounded."""

    def test_a_hit_gives_the_bits_of_a_cold_call(self, closed_form):
        curve, text = closed_form
        cmap = map_from_json(text)
        for pts in (_closed_form_targets(curve, cmap.side),
                    _closed_form_targets(curve, cmap.side)[:1]):
            assert_fresh_equals_reused(map_invert,
                                       lambda: (map_from_json(text), pts))
        # the hit reads the one entry per batch that the cold call kept
        reused = map_from_json(text)
        pts = _closed_form_targets(curve, cmap.side)
        map_invert(reused, pts)
        map_invert(reused, pts)
        assert list(reused._preimages) == [pts.tobytes()]

    def test_a_failing_batch_keeps_its_failure(self, closed_form,
                                               monkeypatch):
        curve, text = closed_form
        cmap = map_from_json(text)
        good = _closed_form_targets(curve, cmap.side)
        # points well on the other side of the curve: the pull moves their
        # preimages into the verified domain, where the residual fails
        other, scale = (("exterior", 1.5) if cmap.side == "interior"
                        else ("interior", 0.2))
        bad = _closed_form_targets(curve, other, scale)
        batch = np.concatenate([good[:2], bad[:1], good[2:]])
        calls = _counted(monkeypatch, "_closed_core_inverse", "_pull",
                         "map_eval")
        errors = set()
        for _ in range(3):
            with pytest.raises(MapInvertError) as got:
                map_invert(cmap, batch)
            errors.add((str(got.value), got.value.residual))
        # the repeats raise the kept failure with no inverse, pull or check
        assert calls == ["_closed_core_inverse", "_pull", "map_eval"]
        (message, residual), = errors
        assert message.startswith(f"inversion failed for {bad[0]} ")
        assert list(cmap._preimages) == [batch.tobytes()]
        assert cmap._preimages[batch.tobytes()] == (
            f"inversion failed for {bad[0]}", residual)

    def test_the_memo_stays_within_its_cap(self, closed_form):
        curve, text = closed_form
        cmap = map_from_json(text)
        pts = _closed_form_targets(curve, cmap.side)
        for k in range(_MEMO_CAP + 10):
            map_invert(cmap, pts[:1] * (1.0 + 1e-3 * k))
            assert len(cmap._preimages) <= _MEMO_CAP
        assert len(cmap._preimages) == _MEMO_CAP
        assert (pts[:1] * 1.0).tobytes() not in cmap._preimages
        long = np.resize(pts, _MEMO_CAP + 1)
        fresh = map_from_json(text)
        map_invert(fresh, long)
        assert fresh._preimages == {}


SWEEP = json.loads((GOLDEN / "ellipse_sweep.json").read_text())["config"]


def _sweep(curve, pair, ring, n_list, policy=SWEEP["policy"],
           zeta0=complex(*SWEEP["zeta0"])):
    return sharpness_sweep(curve, pair, boundary_point(curve, T0), ring,
                           zeta0, n_list, policy=policy)


def _stacked_rings(cmap, centers, radii, nodes):
    """principal_parts' map geometry with no memo: Phi at the centers, and
    Phi(v) - Phi(a) and Phi'(v) on one stacked array of all the rings."""
    flat = nodes.ravel()
    images = map_eval(cmap, centers[:, 0])
    return (images,
            map_eval(cmap, flat).reshape(nodes.shape) - images[:, None],
            map_derivative(cmap, flat).reshape(nodes.shape))


def _unmemoized(monkeypatch):
    """principal_parts evaluates every batch by _stacked_rings and
    map_invert keeps no batch, so every call computes its map geometry
    afresh."""
    monkeypatch.setattr(ratfun, "_mapped_rings", _stacked_rings)
    monkeypatch.setattr(conformal, "_memo_put", lambda memo, key, value: value)


class TestSharpnessRowMemos:
    """The map geometry of a sharpness row, kept on the map: principal_parts'
    mapped rings per exact stacked pole batch (_rings), and the preimage of
    each exterior anchor zeta0, or its failure, with the row's other
    inversions (_preimages, on the interior map).  A row reads back the
    bits a cold row computes."""

    @pytest.mark.parametrize("policy", ["cycle_list", "repeat_single_pole"])
    @pytest.mark.parametrize("shift", [0.0, -0.02, 0.02])
    def test_primed_emptied_and_unmemoized_rows_agree(self, entries,
                                                      monkeypatch, policy,
                                                      shift):
        ring = sweep_interior_poles(
            dict(SWEEP, ring_phase=SWEEP["ring_phase"] + shift))
        n_list = list(range(1, 41))
        curve, pair = fresh_pair(entries)
        cold = _sweep(curve, pair, ring, n_list, policy)
        # repeat_single_pole's order-12 pole and above fail the quadrature
        # check, after a ring memo read, and stay flagged rows
        assert sum(not row.flags for row in cold) >= 11
        assert pair.interior._rings and pair.interior._preimages
        primed = _sweep(curve, pair, ring, n_list, policy)
        emptied = []
        for n in n_list:
            pair.interior._rings.clear()
            pair.interior._preimages.clear()
            emptied += _sweep(curve, pair, ring, [n], policy)
        _unmemoized(monkeypatch)
        curve, pair = fresh_pair(entries)
        unmemoized = _sweep(curve, pair, ring, n_list, policy)
        assert pair.interior._rings == pair.interior._preimages == {}
        want = [repr(row) for row in unmemoized]
        for rows in (cold, primed, emptied):
            assert [repr(row) for row in rows] == want

    def test_sharpness_spec_bundles_agree(self, tmp_path, monkeypatch):
        # bern calls of one process share the parsed map pair of a cache
        # entry (cli._PAIRS), so a hit's rows read its memos
        spec, cache = SPECS / "sharpness_circle.json", tmp_path / "cache"

        def bundle(out):
            argv = ["sharpness", "--config", str(spec), "--out",
                    str(tmp_path / out), "--cache", str(cache)]
            assert cli.main(argv) == 0
            return [(tmp_path / out / name).read_bytes()
                    for name in ("summary.csv", "items.csv")]

        cli._CURVES.clear()
        cli._PAIRS.clear()
        try:
            cold = bundle("cold")  # solves and writes the entry
            first_hit = bundle("first_hit")  # parses it and fills the memos
            (maps,) = cli._PAIRS.values()
            interior = maps[0]
            assert interior._rings and interior._preimages
            primed = [bundle(f"primed_{k}") for k in range(2)]
            assert list(cli._PAIRS.values()) == [maps]
            interior._rings.clear()
            interior._preimages.clear()
            emptied = bundle("emptied")
            _unmemoized(monkeypatch)
            cli._PAIRS.clear()
            unmemoized = bundle("unmemoized")
            (maps,) = cli._PAIRS.values()
            assert maps[0]._rings == maps[0]._preimages == {}
        finally:
            cli._CURVES.clear()
            cli._PAIRS.clear()
        assert primed == [unmemoized, unmemoized]
        assert cold == first_hit == emptied == unmemoized

    def test_a_row_repeat_reads_the_ring_batch(self, entries, monkeypatch):
        # a repeated row peels the same stacked batch, so it evaluates no
        # map on the rings; so does a row of another n with the same
        # distinct picks, since cluster_points keeps each pick's own bits
        # as its center at any multiplicity
        ring = sweep_interior_poles(SWEEP)
        curve, pair = fresh_pair(entries)
        _sweep(curve, pair, ring, [10])
        (key, value), = pair.interior._rings.items()
        # the bytes of 8 complex centers and of their 8 ring radii
        assert [len(part) for part in key] == [8 * 16, 8 * 8]
        images, w, dphi = value
        assert images.shape == (8,) and w.shape == dphi.shape == (8, 128)
        for arr in value:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        calls = []
        for name in ("map_eval", "map_derivative"):
            def counting(*args, fn=getattr(ratfun, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(ratfun, name, counting)
        _sweep(curve, pair, ring, [10, 10])
        assert calls == [] and len(pair.interior._rings) == 1
        _sweep(curve, pair, ring, [40, 40])
        assert calls == [] and len(pair.interior._rings) == 1

    def test_more_than_16_poles_are_never_kept(self, entries):
        cmap = map_from_json(entries[0])
        for count in (_RING_POLES + 1, _RING_POLES):
            picks = list(0.6 * np.exp(2j * np.pi * np.arange(count) / count))
            want = repr(principal_parts(lambda v: blaschke_eval(picks, v),
                                        cluster_points(picks),
                                        map_from_json(entries[0])))
            for _ in range(2):
                got = principal_parts(lambda v: blaschke_eval(picks, v),
                                      cluster_points(picks), cmap)
                assert repr(got) == want
            assert len(cmap._rings) == (count == _RING_POLES)
        assert _RING_POLES == 16

    def test_colliding_anchor_raises_on_every_call(self, entries):
        curve, pair = fresh_pair(entries)
        u0 = boundary_point(curve, T0)
        build_transferred_extremal(curve, pair, [0.3], -3.0 + 1.2j, u0)
        messages = set()
        for _ in range(3):
            with pytest.raises(ExtremalError, match="collides") as got:
                build_transferred_extremal(curve, pair, [0.3], 0.5, u0)
            messages.add(str(got.value))
        assert len(messages) == 1
        # the golden anchor's inversion failed (past the verified domain)
        # and the colliding one's passed: the memo keeps each as it came,
        # and the radius of the kept preimage raises again on every call
        anchors = pair.interior._preimages
        assert isinstance(anchors[np.complex128(-3.0 + 1.2j).tobytes()][0],
                          str)
        _, v = anchors[np.complex128(0.5).tobytes()]
        assert abs(v[0]) < 1.0

    @pytest.mark.parametrize("anchor", [(-3.0, 0.0), (0.0, 3.0)])
    def test_signed_zero_anchors_give_the_same_bits(self, entries, anchor):
        x, y = anchor
        signed = [complex(x, y), complex(-x if x == 0 else x,
                                         -y if y == 0 else y)]
        assert signed[0] == signed[1]
        assert np.complex128(signed[0]).tobytes() != \
            np.complex128(signed[1]).tobytes()
        ring = sweep_interior_poles(SWEEP)
        rows = []
        for order in (signed, signed[::-1]):
            curve, pair = fresh_pair(entries)
            for zeta0 in order + order:
                rows.append((zeta0, _sweep(curve, pair, ring, [12],
                                           zeta0=zeta0)[0]))
            # the memo keys bits, so the two anchors are two entries
            assert sum(np.complex128(z).tobytes() in pair.interior._preimages
                       for z in signed) == 2
        for zeta0, row in rows:
            c, fresh = fresh_pair(entries)
            want = _sweep(c, fresh, ring, [12], zeta0=zeta0)[0]
            assert not want.flags and repr(row) == repr(want)
            assert (row.ratio, row.run.delta_prime) == \
                (rows[0][1].ratio, rows[0][1].run.delta_prime)


def _without_memo(curve, call):
    """call() with curve's pole memo emptied, then refilled as it was."""
    saved = dict(curve._pole_sides)
    curve._pole_sides.clear()
    try:
        return call()
    finally:
        curve._pole_sides.update(saved)


class TestSupNormReadsPoleMemo:
    """sup_norm on a curve at M = 4096 reads each classified pole's
    reciprocal offsets 1/(u - a) from classify_poles' memo entry, which its
    first read fills; every other term, arcs and other M take rf_eval's
    offsets and store nothing."""

    @pytest.fixture(scope="class")
    def golden_functions(self, entries):
        """The 200 golden corpus functions and the golden sweep's n = 5,
        10, 20 and 40 functions."""
        rng = np.random.default_rng(DEFAULT_SEED)
        functions = [random_corpus_function(rng)[0]
                     for _ in range(CORPUS_SIZE)]
        cfg = json.loads((GOLDEN / "ellipse_sweep.json").read_text())["config"]
        curve, pair = fresh_pair(entries)
        rows = sharpness_sweep(curve, pair, boundary_point(curve, T0),
                               sweep_interior_poles(cfg),
                               complex(*cfg["zeta0"]), [5, 10, 20, 40],
                               policy=cfg["policy"])
        return functions + [row.run.fn for row in rows]

    def test_primed_equals_emptied_and_unmemoized(self, golden_functions):
        e = ellipse(*AB)
        for f in golden_functions:
            classify_poles(poles_of(f), e)
            assert all(t.location in e._pole_sides for t in f.terms)
            got = sup_norm(f, e)
            assert got == _without_memo(e, lambda: sup_norm(f, e))
            assert got == loop_sup_norm(f, e)

    def test_a_hit_reads_the_stored_offsets(self):
        # scaling the stored r by 2 doubles a simple pole's grid values,
        # so the sup norm (refined peaks are evaluated afresh) nearly so
        e = ellipse(*AB)
        f = make_rational([(CORPUS_INTERIOR[0], (1.0,))])
        want = sup_norm(f, e)[0]
        classify_poles(poles_of(f), e)
        assert sup_norm(f, e)[0] == want
        d, inside, r = e._pole_sides[CORPUS_INTERIOR[0]]
        e._pole_sides[CORPUS_INTERIOR[0]] = (d, inside, 2.0 * r)
        assert sup_norm(f, e)[0] == pytest.approx(2.0 * want, rel=1e-4)

    def test_classify_stores_no_offsets_and_a_first_read_does(self):
        # classify_poles alone (the bound, Green's function runs) pays no
        # reciprocal; sup_norm fills each entry it reads, in place
        e = ellipse(*AB)
        classify_poles(CORPUS_POLES, e)
        keys = list(e._pole_sides)
        assert all(r is None for _, _, r in e._pole_sides.values())
        f = make_rational([(a, (1.0, 0.5j)) for a in keys[:2]])
        sup_norm(f, e)
        assert list(e._pole_sides) == keys
        pts = sample_grid(e, 4096)[1]
        for a, (d, _, r) in e._pole_sides.items():
            if a not in keys[:2]:
                assert r is None
                continue
            assert d == float(np.min(np.abs(pts - a)))
            assert r.tobytes() == (1.0 / (pts - a)).tobytes()
            with pytest.raises(ValueError):
                r[0] = 0.0

    def test_unmemoized_term_within_the_floor_raises_its_error(self):
        e = ellipse(*AB)
        on_grid = complex(sample_grid(e, 4096)[1][100])
        good = (CORPUS_INTERIOR[0], (1.0, 0.5j))
        with pytest.raises(PoleError):
            classify_poles([(on_grid, 1)], e)
        classify_poles([(good[0], 2)], e)
        assert list(e._pole_sides) == [good[0]]
        for terms in ([good, (on_grid, (1.0,))], [(on_grid, (1.0,)), good]):
            f = make_rational(terms)
            with pytest.raises(PoleError) as want:
                rf_eval(f, sample_grid(e, 4096)[1])
            with pytest.raises(PoleError) as got:
                sup_norm(f, e)
            assert str(got.value) == str(want.value)
            assert f"pole floor of {on_grid}" in str(got.value)

    def test_signed_zero_locations_give_the_same_bits(self):
        x = CORPUS_INTERIOR[1].real
        plus, minus = complex(x, 0.0), complex(x, -0.0)
        fs = [make_rational([(a, (1.0, -0.5j))], (0.2,)) for a in (plus, minus)]
        for key in (plus, minus):
            e = ellipse(*AB)
            classify_poles([(key, 2)], e)
            want = loop_sup_norm(fs[0], e)
            for f in fs:
                assert sup_norm(f, e) == want

    def test_arcs_and_other_m_store_and_read_nothing(self):
        e = ellipse(*AB)
        a = CORPUS_INTERIOR[0]
        classify_poles([(a, 1)], e)
        before = dict(e._pole_sides)
        # degree 71: M = 64 * 71, so the stored 4,096-point r cannot serve
        big = make_rational([(a, (1.0,))], (0.0,) * 70 + (1e-3,))
        small = make_rational([(a, (1.0,)), (2.5, (0.3,))])
        cases = ((big, None), (small, 2048), (small, 4097))
        for f, m in cases:
            assert sup_norm(f, e, m) == loop_sup_norm(f, e, m)
        assert list(e._pole_sides) == list(before)
        assert all(x is y for x, y in zip(e._pole_sides.values(),
                                          before.values()))
        for arc in (segment_arc(), circular_arc(1.0)):
            assert sup_norm(small, arc) == loop_sup_norm(small, arc)
            assert "_pole_sides" not in vars(arc)

    def test_a_sweep_row_reads_its_own_classification(self, entries):
        # build_transferred_extremal classifies the row's poles before its
        # sup norm, so a cold row fills every entry it added
        cfg = json.loads((GOLDEN / "ellipse_sweep.json").read_text())["config"]
        curve, pair = fresh_pair(entries)
        row, = sharpness_sweep(curve, pair, boundary_point(curve, T0),
                               sweep_interior_poles(cfg),
                               complex(*cfg["zeta0"]), [10],
                               policy=cfg["policy"])
        locations = {t.location for t in row.run.fn.terms}
        assert locations <= set(curve._pole_sides)
        assert all(curve._pole_sides[a][2] is not None for a in locations)

    def test_sup_norm_keeps_the_memo_within_its_cap(self):
        e = ellipse(*AB)
        for k in range(_MEMO_CAP + 5):
            a = 0.5 * np.exp(0.03j * k)
            classify_poles([(a, 1)], e)
            f = make_rational([(a, (1.0,)), (0.3 * a + 0.1, (0.5,)),
                               (3.0 * a, (0.2,))])
            keys = list(e._pole_sides)
            sup_norm(f, e)
            assert list(e._pole_sides) == keys
            assert len(keys) == min(k + 1, _MEMO_CAP)
