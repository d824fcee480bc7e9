#!/usr/bin/env python3
"""Per-layer timings of the map solves, pole-set routines, sampling and the
ratio check, as BENCH_<n>.json.

Run from the repository root:

    python3 tools/bench.py --out BENCH_15.json [--parent parent.json]

Each case is timed with time.perf_counter: a repeat runs the case NUMBER
(20) times (the subprocess case SUBPROCESS_NUMBER, 2, times), and the record
keeps the median and the quartiles (q1_s, q3_s) of the per-call time over
REPEATS (9) repeats, after one untimed warm-up call.  The BLAS/OpenMP
thread variables default to 1 (as in perfbench/run.py), so one product
never spreads over idle cores.  To compare two commits, run this file
from a git checkout of each (a clone or a worktree, not an exported tree:
the record's "commit" comes from git describe, and is null without .git)
and compare the median_s of matching (layer, case) records against the
spread q1_s..q3_s of both: a gap inside either run's spread is not
resolved.  --parent reads the other run's output, stores its median_s,
q1_s and q3_s as parent_median_s, parent_q1_s and parent_q3_s, and its
commit as parent_commit.

Map solves (work: the two sides of a pair, or the one map measured):

    solve_map_pair   circle() at t = 0, circle(1.7, 0.3+0.2i) at t = 0.15
                     (closed forms, exact margins); ellipse(1.2, 0.8) at
                     t = 0.4 and, as "ellipse_thin", ellipse(1, 0.5) at
                     t = 0 (Wegmann series interior, closed-form
                     exterior); "ellipse_0.4", ellipse(1, 0.4) at t = 0,
                     whose interior series resolves only on the third grid
                     (4096); "trig", the curve e^{it} + 0.06 e^{4it} at
                     t = 0.3 (Wegmann series on both sides)
    _measure_margin  the sampled ladder walk on that ellipse's interior map
    map_from_json    a map-cache hit: parsing that ellipse pair's two
                     serialized entries (one per side) back into maps
    map_eval         that ellipse's interior map at 1 point and at 4,096
                     points of the circle |v| = 0.9

The other cases, all on ellipse(1.2, 0.8) anchored at t = 0.4 (the golden
sweep curve; the map pair is solved once, outside the timings):

    classify_poles   the 3 corpus poles with infinity; 9 poles, 3 inside
    bernstein_bound  the corpus pole set, orders (3, 2, 3, 2)
    principal_parts  the golden n = 20 picks (8 distinct, cycle_list)
    map_invert       8 interior and 8 exterior points in one array each;
                     "boundary_30": 30 points on the curve through the
                     interior map (the shape of the extremal's Leja nodes);
                     "corpus_poles": the 3 corpus poles, one call per side
                     as bernstein_bound makes them
    verify_ratio     10 seeded corpus functions (tests/helpers.py, seed
                     1729): "corpus" reuses the curve, anchor and map pair,
                     as a batch of items on one curve does; "corpus_cold"
                     makes a fresh curve and parses fresh maps (map_from_json)
                     for every call, so each pays the first use of its
                     per-object geometry memos
    sup_norm         40 simple poles at 1.5 gamma(t_k), default sampling
                     (4,096 points) on the reused curve
    curve_samples    sample_grid on 4,096 points of a fresh ellipse(1.2, 0.8)
                     per call: the cost of one first-use sampling

classify_poles and the series-map branch of map_invert keep bounded memos
on the curve (_pole_sides) and on the map (_preimages).  Every case above
that reads one (classify_poles/*, bernstein_bound/corpus and the interior
map_invert cases) empties it before each call, so its label keeps timing
the first computation; the same case with "/hit" appended repeats the call
on the filled memo.

End to end, one case per shipped spec and one for start-up:

    bern/<spec>      specs/<spec>.json through bern's main in-process:
                     parse, run (with no map cache, so curve specs solve
                     their map pair every call) and write the bundle to a
                     temporary directory
    bern/--version   bern --version in a fresh interpreter, as the installed
                     script runs it (from bernbound.cli import main): the
                     interpreter start plus the package's import time
"""

import argparse
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
from bernbound import cli  # noqa: E402
from helpers import (CORPUS_EXTERIOR, CORPUS_INTERIOR,  # noqa: E402
                     DEFAULT_SEED, random_corpus_function,
                     sweep_interior_poles)

CORPUS_FUNCTIONS = 10


def _golden_config():
    path = os.path.join(ROOT, "tests", "golden", "ellipse_sweep.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["config"]


def _bern(argv):
    if cli.main(argv) != 0:
        raise RuntimeError(f"bern {' '.join(argv)} failed")


def _bern_version():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c",
                    "import sys; from bernbound.cli import main; "
                    "sys.exit(main())", "--version"],
                   env=env, check=True, capture_output=True)


def bern_cases(out_dir):
    """(layer, case, work, callable) for each specs/*.json run in-process,
    then bern --version in a subprocess."""
    cases = []
    spec_dir = os.path.join(ROOT, "specs")
    for name in sorted(os.listdir(spec_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(spec_dir, name)
        with open(path, encoding="utf-8") as fh:
            command = json.load(fh)["command"]
        stem = name[:-len(".json")]
        argv = [command, "--config", path,
                "--out", os.path.join(out_dir, stem)]
        cases.append(("cli", f"bern/{stem}", 1, lambda a=argv: _bern(a)))
    cases.append(("cli", "bern/--version", 1, _bern_version))
    return cases


def _emptied(memo, fn):
    """fn, called each time on an emptied memo dict."""
    def call():
        memo.clear()
        return fn()
    return call


def build_cases():
    """(layer, case, work, callable) for every timed case."""
    cfg = _golden_config()
    curve = bb.ellipse(cfg["a"], cfg["b"])
    u0 = bb.boundary_point(curve, cfg["t"])
    pair = bb.solve_map_pair(curve, u0)
    solves = []
    for name, c, t in (("circle", bb.circle(), 0.0),
                       ("shifted_circle", bb.circle(1.7, 0.3 + 0.2j), 0.15),
                       ("ellipse", curve, cfg["t"]),
                       ("ellipse_thin", bb.ellipse(1.0, 0.5), 0.0),
                       ("ellipse_0.4", bb.ellipse(1.0, 0.4), 0.0),
                       ("trig", bb.trig_curve([(1, 1.0), (4, 0.06)]), 0.3)):
        u = bb.boundary_point(c, t)
        solves.append(("conformal", f"solve_map_pair/{name}", 2,
                       lambda c=c, u=u: bb.solve_map_pair(c, u)))

    corpus = list(zip(CORPUS_INTERIOR + CORPUS_EXTERIOR + (bb.INFINITY,),
                      (3, 2, 3, 2)))
    ring = sweep_interior_poles(cfg)
    nine = [(z, 1) for z in ring[:3]] + [
        (complex(s * bb.eval_curve(curve, t)), 1)
        for s, t in zip((1.4, 1.8, 2.5, 1.2, 3.0, 2.0),
                        (0.3, 1.1, 2.0, 3.3, 4.4, 5.5))]
    corpus_set = bb.classify_poles(corpus, curve)
    sides, preimages = curve._pole_sides, pair.interior._preimages

    base = list(bb.map_invert(pair.interior, np.array(ring)))
    picks = [base[i % len(base)] for i in range(20)]
    clustered = bb.cluster_points(picks)

    def transplant(v):
        return bb.blaschke_eval(picks, v)

    entries = [bb.map_to_json(cmap) for cmap in (pair.interior, pair.exterior)]
    inner = np.array(ring, dtype=complex)
    outer = np.array([complex(1.6 * bb.eval_curve(curve, t))
                      for t in np.arange(8) * (2 * np.pi / 8)])
    on_curve = bb.eval_curve(curve, 0.05 + np.arange(30) * (2 * np.pi / 30))
    disk_1 = np.array([0.9 * np.exp(0.3j)])
    disk_4096 = 0.9 * np.exp(1j * np.arange(4096) * (2 * np.pi / 4096))
    corpus_in = np.array(CORPUS_INTERIOR)
    corpus_out = np.array(CORPUS_EXTERIOR)

    rng = np.random.default_rng(DEFAULT_SEED)
    functions = [random_corpus_function(rng)[0]
                 for _ in range(CORPUS_FUNCTIONS)]

    def corpus_cold():
        for f in functions:
            c = bb.ellipse(cfg["a"], cfg["b"])
            fresh = bb.MapPair(c, *(bb.map_from_json(e) for e in entries))
            bb.verify_ratio(f, c, bb.boundary_point(c, cfg["t"]), fresh)

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
    ]
    memo_cases = [case for layer, name, work, memo, fn in memo_cases
                  for case in ((layer, name, work, _emptied(memo, fn)),
                               (layer, f"{name}/hit", work, fn))]

    return solves + memo_cases + [
        ("conformal", "_measure_margin/ellipse_interior", 1,
         lambda: bb.conformal._measure_margin(pair.interior)),
        ("conformal", "map_from_json/ellipse_pair", len(entries),
         lambda: [bb.map_from_json(text) for text in entries]),
        ("conformal", "map_eval/interior_1", len(disk_1),
         lambda: bb.map_eval(pair.interior, disk_1)),
        ("conformal", "map_eval/interior_4096", len(disk_4096),
         lambda: bb.map_eval(pair.interior, disk_4096)),
        ("ratfun", "principal_parts/golden_n20", len(clustered),
         lambda: bb.principal_parts(transplant, clustered, pair.interior)),
        ("conformal", "map_invert/exterior_8", len(outer),
         lambda: bb.map_invert(pair.exterior, outer)),
        ("potential", "verify_ratio/corpus", len(functions),
         lambda: [bb.verify_ratio(f, curve, u0, pair) for f in functions]),
        ("potential", "verify_ratio/corpus_cold", len(functions),
         corpus_cold),
        ("ratfun", "sup_norm/deg40", 1, lambda: bb.sup_norm(deg40, curve)),
        ("curves", "curve_samples/4096", 4096,
         lambda: bb.sample_grid(bb.ellipse(cfg["a"], cfg["b"]), 4096)),
    ]


def time_case(fn, number):
    """(q1, median, q3) of the per-call time over REPEATS repeats of
    number calls."""
    fn()  # warm-up
    per_call = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - start) / number)
    return tuple(statistics.quantiles(per_call, n=4))


def git_commit():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json path")
    parser.add_argument("--parent", default=None,
                        help="this script's output on the parent commit")
    args = parser.parse_args(argv)
    parent, parent_s = None, {}
    if args.parent:
        with open(args.parent, encoding="utf-8") as fh:
            parent = json.load(fh)
        parent_s = {(r["layer"], r["case"]): r for r in parent["records"]}

    records = []
    with tempfile.TemporaryDirectory() as out_dir:
        for layer, case, work, fn in build_cases() + bern_cases(out_dir):
            number = SUBPROCESS_NUMBER if fn is _bern_version else NUMBER
            q1, median, q3 = time_case(fn, number)
            record = {"layer": layer, "case": case, "median_s": median,
                      "q1_s": q1, "q3_s": q3,
                      "repeats": REPEATS, "number": number, "work": work}
            for key in ("median_s", "q1_s", "q3_s"):
                if key in parent_s.get((layer, case), {}):
                    record["parent_" + key] = parent_s[layer, case][key]
            records.append(record)
            print(f"{layer:10s} {case:34s} {median * 1e3:9.3f} ms "
                  f"[{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]")
    result = {
        "environment": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
        },
        "commit": git_commit(),
        "version": bb.__version__,
        "records": records,
    }
    if parent is not None:
        result["parent_commit"] = parent["commit"]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
