#!/usr/bin/env python3
"""Regenerate the frozen golden files used by the regression tests.

Run from the repository root:

    python3 tools/gen_golden.py [sweep] [corpus] [census]

(all three when none is named).

Writes tests/golden/ellipse_sweep.json, tests/golden/ratio_corpus.json
and tests/golden/census_606.json.  The test suite reads the
configuration blocks out of these files and re-runs the exact same
computations, so config and frozen values cannot drift apart.  The
census records, for tools/census.py's family at seed 606, each curve
(coefficients, kind, params, anchor t) and per side the refusal message,
or the grid, delta and the first CENSUS_TERMS series coefficients.

Before it replaces the sweep or the corpus table, the script prints each
column's largest relative move against the committed file, so a run shows
what it re-baselines.
"""

import json
import os
import sys
import time

# one BLAS thread, as tools/bench.py pins it: the last bits of a solve
# depend on the thread count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bernbound
from bernbound import (boundary_point, ellipse, solve_map_pair, verify_ratio)
from bernbound.extremal import sharpness_sweep

import census
import helpers

GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

# Calibrated demonstration config for the ellipse sharpness sweep.  The
# eight base poles sit on a 0.75-scaled copy of the ellipse, angularly
# spread so the transplanted partial-fraction coefficients stay small;
# zeta0 sits on the far side of the curve from the anchor point, close
# enough that the principal-part re-expansion stays well conditioned but
# far enough that the outer normal-derivative sum never dominates.
SWEEP_CONFIG = {
    "a": 1.2,
    "b": 0.8,
    "t": 0.4,
    "ring_scale": 0.75,
    "ring_count": 8,
    "ring_phase": 0.3,
    "zeta0": [-3.0, 1.2],
    "n_list": [5, 10, 20, 40],
    "policy": "cycle_list",
    "n20_low": 0.9,
}

CORPUS_CONFIG = {
    "a": 1.2,
    "b": 0.8,
    "t": 0.4,
    "seed": helpers.DEFAULT_SEED,
    "size": helpers.CORPUS_SIZE,
    "max_order": helpers.CORPUS_MAX_ORDER,
    "interior": [[p.real, p.imag] for p in helpers.CORPUS_INTERIOR],
    "exterior": [[p.real, p.imag] for p in helpers.CORPUS_EXTERIOR],
}


def print_moves(path, payload, key, fields):
    """Print, for each field of the rows payload[key], its largest relative
    move against the rows of the committed file at path, which payload is
    about to replace, and the row it is in."""
    if not os.path.exists(path):
        print(f"  {path}: no committed table to compare")
        return
    with open(path, encoding="utf-8") as fh:
        old = json.load(fh)
    if (old["config"] != json.loads(json.dumps(payload["config"]))
            or len(old[key]) != len(payload[key])):
        print(f"  {path}: config or row count changed, moves not compared")
        return
    for field in fields:
        move, row = max(
            (abs(new[field] - was[field]) / (abs(was[field]) or 1.0), i)
            for i, (was, new) in enumerate(zip(old[key], payload[key])))
        print(f"  {field:12s} largest relative move {move:.2e} (row {row})")


def gen_sweep():
    cfg = SWEEP_CONFIG
    curve = ellipse(cfg["a"], cfg["b"])
    u0 = boundary_point(curve, cfg["t"])
    pair = solve_map_pair(curve, u0)
    zeta0 = complex(*cfg["zeta0"])
    t0 = time.perf_counter()
    rows = sharpness_sweep(curve, pair, u0, helpers.sweep_interior_poles(cfg),
                           zeta0, cfg["n_list"], policy=cfg["policy"])
    wall = time.perf_counter() - t0
    table = [{"n": r.n, "N6": r.n_interp, "r_n": r.ratio, "bound": r.bound,
              "sup_norm": r.sup, "deriv_mod": r.deriv_mod, "flags": r.flags}
             for r in rows]
    payload = {"config": cfg, "table": table}
    path = os.path.join(GOLDEN_DIR, "ellipse_sweep.json")
    print_moves(path, payload, "table",
                ("r_n", "bound", "sup_norm", "deriv_mod"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}  ({wall:.1f}s)")
    for row in table:
        print(f"  n={row['n']:3d} N6={row['N6']:3d} r_n={row['r_n']:.9f}")


def gen_corpus():
    cfg = CORPUS_CONFIG
    curve = ellipse(cfg["a"], cfg["b"])
    u0 = boundary_point(curve, cfg["t"])
    pair = solve_map_pair(curve, u0)
    rng = np.random.default_rng(cfg["seed"])
    items = []
    t0 = time.perf_counter()
    for _ in range(cfg["size"]):
        f, orders = helpers.random_corpus_function(rng)
        rec = verify_ratio(f, curve, u0, pair)
        items.append({"orders": orders, "ratio": rec.ratio,
                      "rough_ratio": rec.rough_ratio})
    wall = time.perf_counter() - t0
    max_ratio = max(item["ratio"] for item in items)
    max_rough = max(item["rough_ratio"] for item in items)
    payload = {"config": cfg, "max_ratio": max_ratio,
               "max_rough_ratio": max_rough, "items": items}
    path = os.path.join(GOLDEN_DIR, "ratio_corpus.json")
    print_moves(path, payload, "items", ("ratio", "rough_ratio"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}  ({wall:.1f}s)")
    print(f"  max ratio       = {max_ratio:.9f}")
    print(f"  max rough ratio = {max_rough:.9f}")


CENSUS_TERMS = 8


def _pairs(values):
    return [[z.real, z.imag] for z in values]


def gen_census():
    curves = []
    t0 = time.perf_counter()
    for name, curve, t in census.family(bernbound, census.SEED,
                                        census.DRAWS):
        row = {"name": name, "kind": curve.kind,
               "params": list(curve.params),
               "coeffs": _pairs(curve.coeffs), "t": t}
        for side in ("interior", "exterior"):
            cmap, why, _ = census.solve_side(bernbound, side, curve, t)
            row[side] = ({"refusal": why} if cmap is None else
                         {"grid": cmap.grid, "delta": cmap.delta,
                          "series": _pairs(cmap.series[:CENSUS_TERMS])})
        curves.append(row)
    wall = time.perf_counter() - t0
    config = {"seed": census.SEED, "draws": census.DRAWS,
              "terms": CENSUS_TERMS}
    path = os.path.join(GOLDEN_DIR, f"census_{census.SEED}.json")
    with open(path, "w", encoding="utf-8") as fh:
        # one curve a line
        fh.write(f'{{"config": {json.dumps(config)}, "curves": [\n')
        fh.write(",\n".join(json.dumps(row) for row in curves))
        fh.write("\n]}\n")
    print(f"wrote {path}  ({wall:.1f}s)")
    for side in ("interior", "exterior"):
        refused = sum("refusal" in row[side] for row in curves)
        print(f"  {side}: {len(curves) - refused} solved, {refused} refused")


def main():
    tables = {"sweep": gen_sweep, "corpus": gen_corpus, "census": gen_census}
    names = sys.argv[1:] or list(tables)
    unknown = set(names) - set(tables)
    if unknown:
        raise SystemExit(f"unknown tables {sorted(unknown)}; "
                         f"choose from {sorted(tables)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names:
        tables[name]()


if __name__ == "__main__":
    main()
