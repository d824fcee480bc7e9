#!/usr/bin/env python3
"""Per-layer timings of the map solves, pole-set routines, sampling and the
ratio check, as BENCH_<n>.json.

Run from the repository root:

    python3 tools/bench.py --out BENCH_<n>.json [--against <checkout>]

Each case is timed with time.perf_counter: a repeat runs the case NUMBER
(20) times (the subprocess case SUBPROCESS_NUMBER, 2, times), and the record
keeps the median and the quartiles (q1_s, q3_s) of the per-call time over
REPEATS (9) repeats, after one untimed warm-up call.  The BLAS/OpenMP
thread variables default to 1 (as in perfbench/run.py), so one product
never spreads over idle cores.

--against compares this tree with another checkout, and is the one way
to compare two trees: runs made one after the other drift apart on a
shared host by more than the gaps they are asked to resolve.  It imports
the other tree's src/bernbound under the package name bernbound_against,
in this process, builds the same cases from each package, and times each
case on both sides repeat by repeat, the sides taking turns to run first,
so host drift between repeats falls on both.  The other side's median_s,
q1_s and q3_s are stored as parent_median_s, parent_q1_s and parent_q3_s,
its git describe as parent_commit; each record adds the median, smallest
and largest of the per-repeat time ratios (this / other: ratio_median,
ratio_lo, ratio_hi) and the repeats this side was faster in (wins).  A
case reads "faster" or "slower" only when all 9 repeats agree, that is
when 1 lies outside [ratio_lo, ratio_hi]: a sign test at 2/2^9, so a
tree read against itself reads either on about one case in 256.  The
record's "commit" (and parent_commit) come from git describe, and are
null in a tree without .git.

Map solves (work: the two sides of a pair, or the one map measured):

    solve_map_pair   circle() at t = 0, circle(1.7, 0.3+0.2i) at t = 0.15
                     (closed forms, exact margins); ellipse(1.2, 0.8) at
                     t = 0.4 and, as "ellipse_thin", ellipse(1, 0.5) at
                     t = 0 (Szego-kernel series interior, closed-form
                     exterior); "ellipse_0.4", ellipse(1, 0.4) at t = 0,
                     whose interior series resolves only on the third grid
                     (4096); "trig", the curve e^{it} + 0.06 e^{4it} at
                     t = 0.3 (series on both sides); "trig166_refused",
                     e^{it} + (0.13913+0.18653i) e^{-3it} at t = 0, whose
                     interior series is unresolved at m = 8192: the time
                     to the MapError.  Every call solves: a package that
                     keeps a process-wide correspondence memo
                     (conformal._correspondence with cache_clear) has it
                     emptied first
    _measure_margin  the sampled ladder walk on that ellipse's interior map
    map_from_json    a map-cache hit: parsing that ellipse pair's two
                     serialized entries (one per side) back into maps
    map_eval         that ellipse's interior map at 1 point and at 4,096
                     points of the circle |v| = 0.9

The other cases, all on ellipse(1.2, 0.8) anchored at t = 0.4 (the golden
sweep curve; the map pair is solved once, outside the timings):

    classify_poles   the 3 corpus poles with infinity; 9 poles, 3 inside
    bernstein_bound  the corpus pole set, orders (3, 2, 3, 2)
    principal_parts  the golden n = 20 picks (8 distinct, cycle_list);
                     "golden_n20_cold" empties the map's ring memo
                     (ConformalMap._rings, where the package has one)
                     before each call, so it evaluates the map on the rings
    build_transferred_extremal
                     one golden sweep row, n = 5, 10, 20 and 40 (the same
                     picks and zeta0 as the sweep; the whole row: principal
                     parts, the Leja repair, sup norm and bound)
    sharpness_sweep  "golden_round": one round of perfbench's sweep, the
                     rows n = 5, 10, 20 and 40 at the golden phase, one
                     sharpness_sweep call per row on the reused pair
    rf_eval          "golden_n40_grid": the n = 40 row's function on the
                     4,096-point curve grid its sup norm samples
    blaschke_eval    "golden_n40_ring": the product over the 40 picks on
                     the 1,024 nodes of the 8 peel rings (128 nodes each)
                     that principal_parts samples it on
    map_invert       8 interior and 8 exterior points in one array each;
                     "exterior_1": the first of the exterior points alone
                     (the closed-form exterior; its /hit case is the
                     shape of a sweep row's zeta0 inversion);
                     "boundary_30": 30 points on the curve through the
                     interior map (the shape of the extremal's Leja nodes);
                     "corpus_poles": the 3 corpus poles, one call per side
                     as bernstein_bound makes them; "trig_interior_8" and
                     "trig_exterior_8": 0.5 gamma(t_k) and 1.6 gamma(t_k),
                     t_k = 2 pi k / 8, through the series maps of the
                     curve e^{it} + 0.06 e^{4it} anchored at t = 0.3
                     (series on both sides).  A cold series-map call
                     builds its m-node inversion contour (the map's grid)
                     and sums over it; nothing of it is kept.
                     "interior_1100": 1,100 points 0.3 to 0.9 gamma(t_k)
                     in one array, two blocks of the contour sum at
                     m = 1,024, never memoized (over the batch cap)
    _clearance       "golden_cold": the collision check of the golden
                     zeta0 on the interior map, and "circle_cold" on
                     circle()'s at t = 0, where zeta0 lies past the
                     verified domain; each call empties the map's
                     _preimages memo first (and _collisions, in a package
                     that has one), as the first row of a sweep on a fresh
                     map computes it
    verify_ratio     10 seeded corpus functions (tests/helpers.py, seed
                     1729): "corpus" reuses the curve, anchor and map pair,
                     as a batch of items on one curve does; "corpus_cold"
                     makes a fresh curve and parses fresh maps (map_from_json)
                     for every call, so each pays the first use of its
                     per-object geometry memos
    sup_norm         40 simple poles at 1.5 gamma(t_k), default sampling
                     (4,096 points) on the reused curve; "corpus_hit": the
                     10 corpus functions on a curve whose pole memo holds
                     the corpus poles, so every term reads its reciprocal
                     offsets from the memo; "corpus_cold": the same on a
                     curve whose memo is emptied before each call
    curve_samples    sample_grid on 4,096 points of a fresh ellipse(1.2, 0.8)
                     per call: the cost of one first-use sampling
    validate_curve   "ellipse": validate_curve on ellipse(1.2, 0.8) whose
                     1,024-point grid (points and tangents) is sampled
                     beforehand, so the case times the checks (speed,
                     simplicity scan, winding), not the sampling

classify_poles and map_invert keep bounded memos on the curve (_pole_sides)
and on every map (_preimages).  Every case above that reads one
(classify_poles/*, bernstein_bound/corpus and the map_invert cases)
empties it before each call, so its label keeps timing
the first computation; the same case with "/hit" appended repeats the call
on the filled memo.  The sup_norm corpus cases name their side instead.
The rows of a sharpness sweep keep one more memo on the interior map, the
mapped rings per pole batch (_rings), and find their zeta0's inversion, or
its failure, in _preimages: principal_parts/golden_n20, the
build_transferred_extremal cases and sharpness_sweep/golden_round read
them filled, as every round of a sweep after its first does.

End to end, one case per shipped spec and one for start-up:

    bern/<spec>      specs/<spec>.json through bern's main in-process:
                     parse, run (with no map cache, so curve specs solve
                     their map pair every call) and write the bundle to a
                     temporary directory.  main shares each curve between
                     the calls of one process, so every call after the
                     warm-up reuses the curve object, and its sample grids
                     and pole sides, of the first
    bern/<spec>/hit  the same for each curve spec, with --cache in a
                     temporary directory that the warm-up call fills, so
                     every timed call is a map-cache hit: it reads the
                     entry and reuses the map pair parsed from its bytes
    bern/--version   bern --version in a fresh interpreter, as the installed
                     script runs it (from bernbound.cli import main): the
                     interpreter start plus the package's import time
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

REPEATS = 9
NUMBER = 20
SUBPROCESS_NUMBER = 2

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import bernbound as bb  # noqa: E402
import bernbound.cli  # noqa: E402,F401
from helpers import (CORPUS_EXTERIOR, CORPUS_INTERIOR,  # noqa: E402
                     DEFAULT_SEED, random_corpus_function,
                     sweep_interior_poles)

CORPUS_FUNCTIONS = 10
# the subprocess case, timed SUBPROCESS_NUMBER times a repeat
VERSION_CASE = "bern/--version"


def _golden_config():
    path = os.path.join(ROOT, "tests", "golden", "ellipse_sweep.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["config"]


def load_package(root, name):
    """The package in root/src/bernbound, imported as the package name, so
    that it runs beside this tree's bernbound in one process."""
    init = os.path.join(root, "src", "bernbound", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + ".cli")
    return module


def _bern(main, argv):
    if main(argv) != 0:
        raise RuntimeError(f"bern {' '.join(argv)} failed")


def _bern_version(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c",
                    "import sys; from bernbound.cli import main; "
                    "sys.exit(main())", "--version"],
                   env=env, check=True, capture_output=True)


def bern_cases(bb, root, out_dir):
    """(layer, case, work, callable) for each specs/*.json run in-process
    through bb's cli, then each curve spec's cache hit, then bern
    --version of the tree at root in a subprocess."""
    main = bb.cli.main
    cases, hits = [], []
    spec_dir = os.path.join(ROOT, "specs")
    for name in sorted(os.listdir(spec_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(spec_dir, name)
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        stem = name[:-len(".json")]
        argv = [spec["command"], "--config", path,
                "--out", os.path.join(out_dir, stem)]
        cases.append(("cli", f"bern/{stem}", 1,
                      lambda a=argv: _bern(main, a)))
        if "curve" in spec:
            argv = argv + ["--cache", os.path.join(out_dir, "cache")]
            hits.append(("cli", f"bern/{stem}/hit", 1,
                         lambda a=argv: _bern(main, a)))
    return cases + hits + [("cli", VERSION_CASE, 1,
                            lambda: _bern_version(root))]


def _emptied(memos, fn):
    """fn, called each time on emptied memo dicts (one, or a tuple)."""
    memos = memos if isinstance(memos, tuple) else (memos,)

    def call():
        for memo in memos:
            memo.clear()
        return fn()
    return call


def build_cases(bb):
    """(layer, case, work, callable) for every timed case of the package
    bb."""
    cfg = _golden_config()
    curve = bb.ellipse(cfg["a"], cfg["b"])
    u0 = bb.boundary_point(curve, cfg["t"])
    pair = bb.solve_map_pair(curve, u0)
    memo = getattr(bb.conformal._correspondence, "cache_clear", None)

    def solve(c, u):
        if memo is not None:
            memo()
        return bb.solve_map_pair(c, u)

    def refused(c, u):
        try:
            solve(c, u)
        except bb.MapError:
            return
        raise RuntimeError("the refused case solved")

    solves = []
    for name, c, t in (("circle", bb.circle(), 0.0),
                       ("shifted_circle", bb.circle(1.7, 0.3 + 0.2j), 0.15),
                       ("ellipse", curve, cfg["t"]),
                       ("ellipse_thin", bb.ellipse(1.0, 0.5), 0.0),
                       ("ellipse_0.4", bb.ellipse(1.0, 0.4), 0.0),
                       ("trig", bb.trig_curve([(1, 1.0), (4, 0.06)]), 0.3)):
        u = bb.boundary_point(c, t)
        solves.append(("conformal", f"solve_map_pair/{name}", 2,
                       lambda c=c, u=u: solve(c, u)))
    trig166 = bb.trig_curve([(1, 1.0), (-3, 0.13913 + 0.18653j)])
    solves.append(("conformal", "solve_map_pair/trig166_refused", 2,
                   lambda: refused(trig166, bb.boundary_point(trig166, 0.0))))

    corpus = list(zip(CORPUS_INTERIOR + CORPUS_EXTERIOR + (bb.INFINITY,),
                      (3, 2, 3, 2)))
    ring = sweep_interior_poles(cfg)
    nine = [(z, 1) for z in ring[:3]] + [
        (complex(s * bb.eval_curve(curve, t)), 1)
        for s, t in zip((1.4, 1.8, 2.5, 1.2, 3.0, 2.0),
                        (0.3, 1.1, 2.0, 3.3, 4.4, 5.5))]
    corpus_set = bb.classify_poles(corpus, curve)
    sides = curve._pole_sides
    preimages = (pair.interior._preimages, pair.exterior._preimages)

    base = list(bb.map_invert(pair.interior, np.array(ring)))
    picks = [base[i % len(base)] for i in range(20)]
    clustered = bb.cluster_points(picks)

    def transplant(v):
        return bb.blaschke_eval(picks, v)

    zeta0 = complex(*cfg["zeta0"])
    picks_5, picks_10, picks_40 = ([base[i % len(base)] for i in range(n)]
                                   for n in (5, 10, 40))
    rings = getattr(pair.interior, "_rings", {})

    def golden_round():
        return [bb.sharpness_sweep(curve, pair, u0, ring, zeta0, [n],
                                   policy=cfg["policy"])[0]
                for n in cfg["n_list"]]
    f40 = bb.build_transferred_extremal(curve, pair, picks_40, zeta0, u0).fn
    grid_4096 = bb.sample_grid(curve, 4096)[1]
    # the peel rings of principal_parts: radius half the distance to the
    # nearest other pick, the circle or 0.5, whichever is least
    centers = np.array([a for a, _ in bb.cluster_points(picks_40)])
    gaps = np.abs(centers[:, None] - centers[None, :])
    np.fill_diagonal(gaps, np.inf)
    rhos = np.minimum(np.minimum(gaps.min(axis=1), 1.0 - np.abs(centers)),
                      0.5) / 2.0
    peel_rings = (centers[:, None] + rhos[:, None] * np.exp(
        1j * np.arange(128) * (2 * np.pi / 128))).ravel()

    entries = [bb.map_to_json(cmap) for cmap in (pair.interior, pair.exterior)]
    inner = np.array(ring, dtype=complex)
    outer = np.array([complex(1.6 * bb.eval_curve(curve, t))
                      for t in np.arange(8) * (2 * np.pi / 8)])
    outer_1 = outer[:1].copy()
    on_curve = bb.eval_curve(curve, 0.05 + np.arange(30) * (2 * np.pi / 30))
    disk_1 = np.array([0.9 * np.exp(0.3j)])
    disk_4096 = 0.9 * np.exp(1j * np.arange(4096) * (2 * np.pi / 4096))
    corpus_in = np.array(CORPUS_INTERIOR)
    corpus_out = np.array(CORPUS_EXTERIOR)
    trig = bb.trig_curve([(1, 1.0), (4, 0.06)])
    tpair = bb.solve_map_pair(trig, bb.boundary_point(trig, 0.3))
    trig_8 = bb.eval_curve(trig, np.arange(8) * (2 * np.pi / 8))
    trig_in, trig_out = 0.5 * trig_8, 1.6 * trig_8
    t_1100 = np.arange(1100) * (2 * np.pi / 1100)
    inner_1100 = (0.3 + 0.6 * (np.arange(1100) % 7) / 6) * bb.eval_curve(
        curve, t_1100)
    unit = bb.circle()
    unit_pair = bb.solve_map_pair(unit, bb.boundary_point(unit, 0.0))

    def clearance_cold(cmap):
        memos = tuple(getattr(cmap, name) for name in
                      ("_collisions", "_preimages") if hasattr(cmap, name))
        return _emptied(memos, lambda: bb.extremal._clearance(cmap, zeta0))

    rng = np.random.default_rng(DEFAULT_SEED)
    functions = [bb.make_rational([(t.location, t.coeffs) for t in f.terms],
                                  f.poly)
                 for f, _ in (random_corpus_function(rng)
                              for _ in range(CORPUS_FUNCTIONS))]

    def corpus_cold():
        for f in functions:
            c = bb.ellipse(cfg["a"], cfg["b"])
            fresh = bb.MapPair(c, *(bb.map_from_json(e) for e in entries))
            bb.verify_ratio(f, c, bb.boundary_point(c, cfg["t"]), fresh)

    # one curve whose pole memo holds the corpus poles, one whose memo is
    # emptied before each call
    hit_curve = bb.ellipse(cfg["a"], cfg["b"])
    cold_curve = bb.ellipse(cfg["a"], cfg["b"])
    bb.classify_poles(corpus, hit_curve)

    def sup_corpus(c):
        return [bb.sup_norm(f, c) for f in functions]

    checked = bb.ellipse(cfg["a"], cfg["b"])
    bb.sample_grid(checked, 1024, tangents=True)

    deg40 = bb.make_rational(
        [(complex(1.5 * bb.eval_curve(curve, t)), (1.0 + 0j,))
         for t in 0.1 + np.arange(40) * (2 * np.pi / 40)])

    memo_cases = [
        ("ratfun", "classify_poles/3+inf", len(corpus), sides,
         lambda: bb.classify_poles(corpus, curve)),
        ("ratfun", "classify_poles/9", len(nine), sides,
         lambda: bb.classify_poles(nine, curve)),
        ("potential", "bernstein_bound/corpus", len(corpus), preimages,
         lambda: bb.bernstein_bound(u0, corpus_set, pair)),
        ("conformal", "map_invert/interior_8", len(inner), preimages,
         lambda: bb.map_invert(pair.interior, inner)),
        ("conformal", "map_invert/boundary_30", len(on_curve), preimages,
         lambda: bb.map_invert(pair.interior, on_curve)),
        ("conformal", "map_invert/corpus_poles",
         len(corpus_in) + len(corpus_out), preimages,
         lambda: (bb.map_invert(pair.interior, corpus_in),
                  bb.map_invert(pair.exterior, corpus_out))),
        ("conformal", "map_invert/trig_interior_8", len(trig_in),
         tpair.interior._preimages,
         lambda: bb.map_invert(tpair.interior, trig_in)),
        ("conformal", "map_invert/trig_exterior_8", len(trig_out),
         tpair.exterior._preimages,
         lambda: bb.map_invert(tpair.exterior, trig_out)),
        ("conformal", "map_invert/exterior_8", len(outer), preimages,
         lambda: bb.map_invert(pair.exterior, outer)),
        ("conformal", "map_invert/exterior_1", len(outer_1), preimages,
         lambda: bb.map_invert(pair.exterior, outer_1)),
    ]
    memo_cases = [case for layer, name, work, memo, fn in memo_cases
                  for case in ((layer, name, work, _emptied(memo, fn)),
                               (layer, f"{name}/hit", work, fn))]

    return solves + memo_cases + [
        ("conformal", "_measure_margin/ellipse_interior", 1,
         lambda: bb.conformal._measure_margin(pair.interior)),
        ("conformal", "map_from_json/ellipse_pair", len(entries),
         lambda: [bb.map_from_json(text) for text in entries]),
        ("conformal", "map_invert/interior_1100", len(inner_1100),
         lambda: bb.map_invert(pair.interior, inner_1100)),
        ("extremal", "_clearance/golden_cold", 1,
         clearance_cold(pair.interior)),
        ("extremal", "_clearance/circle_cold", 1,
         clearance_cold(unit_pair.interior)),
        ("conformal", "map_eval/interior_1", len(disk_1),
         lambda: bb.map_eval(pair.interior, disk_1)),
        ("conformal", "map_eval/interior_4096", len(disk_4096),
         lambda: bb.map_eval(pair.interior, disk_4096)),
        ("ratfun", "principal_parts/golden_n20", len(clustered),
         lambda: bb.principal_parts(transplant, clustered, pair.interior)),
        ("ratfun", "principal_parts/golden_n20_cold", len(clustered),
         _emptied(rings, lambda: bb.principal_parts(transplant, clustered,
                                                    pair.interior))),
        ("potential", "verify_ratio/corpus", len(functions),
         lambda: [bb.verify_ratio(f, curve, u0, pair) for f in functions]),
        ("potential", "verify_ratio/corpus_cold", len(functions),
         corpus_cold),
        ("ratfun", "sup_norm/deg40", 1, lambda: bb.sup_norm(deg40, curve)),
        ("ratfun", "sup_norm/corpus_hit", len(functions),
         lambda: sup_corpus(hit_curve)),
        ("ratfun", "sup_norm/corpus_cold", len(functions),
         _emptied(cold_curve._pole_sides, lambda: sup_corpus(cold_curve))),
        ("extremal", "build_transferred_extremal/golden_n5", 1,
         lambda: bb.build_transferred_extremal(curve, pair, picks_5, zeta0,
                                               u0)),
        ("extremal", "build_transferred_extremal/golden_n10", 1,
         lambda: bb.build_transferred_extremal(curve, pair, picks_10, zeta0,
                                               u0)),
        ("extremal", "build_transferred_extremal/golden_n20", 1,
         lambda: bb.build_transferred_extremal(curve, pair, picks, zeta0,
                                               u0)),
        ("extremal", "build_transferred_extremal/golden_n40", 1,
         lambda: bb.build_transferred_extremal(curve, pair, picks_40, zeta0,
                                               u0)),
        ("extremal", "sharpness_sweep/golden_round", len(cfg["n_list"]),
         golden_round),
        ("ratfun", "rf_eval/golden_n40_grid", len(grid_4096),
         lambda: bb.rf_eval(f40, grid_4096)),
        ("ratfun", "blaschke_eval/golden_n40_ring", len(peel_rings),
         lambda: bb.blaschke_eval(picks_40, peel_rings)),
        ("curves", "curve_samples/4096", 4096,
         lambda: bb.sample_grid(bb.ellipse(cfg["a"], cfg["b"]), 4096)),
        ("curves", "validate_curve/ellipse", 1,
         lambda: bb.validate_curve(checked)),
    ]


def time_sides(fns, number):
    """Per-call times of each callable in fns over REPEATS repeats of
    number calls each, after one untimed warm-up call of each; the
    callables take turns to run first, so drift within a repeat does not
    favour one side."""
    for fn in fns:
        fn()
    per_call = [[] for _ in fns]
    for i in range(REPEATS):
        order = range(len(fns)) if i % 2 == 0 else range(len(fns) - 1, -1, -1)
        for j in order:
            start = time.perf_counter()
            for _ in range(number):
                fns[j]()
            per_call[j].append((time.perf_counter() - start) / number)
    return per_call


def quartiles(times):
    """(q1, median, q3) of a list of times."""
    return tuple(statistics.quantiles(times, n=4))


def git_commit(root):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def all_cases(bb, root, out_dir):
    return build_cases(bb) + bern_cases(bb, root, out_dir)


def _ms(t):
    return f"{t * 1e3:9.3f} ms"


def measure(args, out_dir):
    """The records of every case: this tree alone, or this tree against the
    tree at args.against (the parent_* fields), case by case."""
    mine = all_cases(bb, ROOT, os.path.join(out_dir, "this"))
    if args.against:
        other = load_package(args.against, "bernbound_against")
        theirs = all_cases(other, args.against,
                           os.path.join(out_dir, "against"))
        if [c[:3] for c in mine] != [c[:3] for c in theirs]:
            raise SystemExit(f"{args.against} does not build the same cases")
    records = []
    for k, (layer, case, work, fn) in enumerate(mine):
        number = SUBPROCESS_NUMBER if case == VERSION_CASE else NUMBER
        fns = [fn, theirs[k][3]] if args.against else [fn]
        times = time_sides(fns, number)
        q1, median, q3 = quartiles(times[0])
        record = {"layer": layer, "case": case, "median_s": median,
                  "q1_s": q1, "q3_s": q3,
                  "repeats": REPEATS, "number": number, "work": work}
        line = f"{layer:10s} {case:38s} {_ms(median)} [{q1 * 1e3:.3f}, " \
               f"{q3 * 1e3:.3f}]"
        if args.against:
            p1, pmed, p3 = quartiles(times[1])
            ratios = sorted(a / b for a, b in zip(*times))
            wins = sum(a < b for a, b in zip(*times))
            # a sign test at 2 / 2^REPEATS: every repeat on one side
            verdict = ("faster" if wins == REPEATS else
                       "slower" if wins == 0 else "")
            record.update(parent_median_s=pmed, parent_q1_s=p1,
                          parent_q3_s=p3,
                          ratio_median=statistics.median(ratios),
                          ratio_lo=ratios[0], ratio_hi=ratios[-1],
                          wins=wins, verdict=verdict or None)
            line += (f" vs {_ms(pmed)}  ratio {record['ratio_median']:.3f} "
                     f"[{ratios[0]:.3f}, {ratios[-1]:.3f}] "
                     f"wins {wins}/{REPEATS} {verdict}")
        records.append(record)
        print(line, flush=True)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json path")
    parser.add_argument("--against", default=None,
                        help="another checkout, timed in this process, "
                             "repeat by repeat")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as out_dir:
        records = measure(args, out_dir)
    result = {
        "environment": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
        },
        "commit": git_commit(ROOT),
        "version": bb.__version__,
        "records": records,
    }
    if args.against:
        result["parent_commit"] = git_commit(args.against)
        result["mode"] = "against"
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
