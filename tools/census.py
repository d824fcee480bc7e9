#!/usr/bin/env python3
"""Which curves the map solve resolves, side by side for two trees.

Run from the repository root:

    python3 tools/census.py --against <checkout> [--seed N] [--draws N]

The family is fixed: trig curves gamma = e^{it} + sum c_k e^{ikt} drawn
with numpy's default_rng(seed) as in ROADMAP "State" (per draw 1-3 terms,
k chosen without repeats from {-3, -2, -1, 2, 3}, Re and Im c_k uniform in
+-0.2, anchored at t = 0), kept when validate_curve passes them; ellipse(1,
b) for b in {0.2, 0.25, 0.3, 0.35, 0.4, 0.45} at t in {0, 1, 1.5}; and
phase-shifted copies gamma(t + t0) of every tenth trig curve, anchored at
-t0, so the same point.  Each side of each curve is solved once per tree
(solve_interior_map, solve_exterior_map), the trees taking turns to run
first.

Printed per tree: solved and refused counts per side, refusals by message,
and the median and largest solve and refusal times.  Then the (curve,
side) pairs solved by one tree only, and, where both solve, the largest
series difference relative to max |c_k|, and every change of grid or
delta.  The other tree is imported as bernbound_against (tools/bench.py's
load_package), so both run in this process with the same BLAS settings.
"""

import argparse
import os
import re
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from bench import ROOT, bb, load_package  # noqa: E402

SEED = 606
DRAWS = 200
THIN_B = (0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
THIN_T = (0.0, 1.0, 1.5)
SHIFT = 1.0


def family(pkg, seed, draws):
    """(name, curve, anchor t) of the fixed family, built from pkg."""
    rng = np.random.default_rng(seed)
    trig = []
    for j in range(draws):
        n = int(rng.integers(1, 4))
        ks = rng.choice([-3, -2, -1, 2, 3], n, replace=False)
        pairs = [(1, 1.0 + 0j)] + [
            (int(k), complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)))
            for k in ks]
        curve = pkg.trig_curve(pairs)
        if pkg.validate_curve(curve).ok:
            trig.append((f"trig{j}", pairs))
    out = [(name, pkg.trig_curve(pairs), 0.0) for name, pairs in trig]
    out += [(f"ellipse(1, {b})@{t}", pkg.ellipse(1.0, b), t)
            for b in THIN_B for t in THIN_T]
    out += [(f"{name}+{SHIFT}", pkg.trig_curve(
                [(k, c * np.exp(1j * k * SHIFT)) for k, c in pairs]), -SHIFT)
            for name, pairs in trig[::10]]
    return out


def solve_side(pkg, side, curve, t):
    """(map or None, refusal message or None, seconds)."""
    solve = (pkg.solve_interior_map if side == "interior"
             else pkg.solve_exterior_map)
    u0 = pkg.boundary_point(curve, t)
    start = time.perf_counter()
    try:
        cmap, why = solve(curve, u0), None
    except pkg.MapError as err:
        cmap, why = None, str(err)
    return cmap, why, time.perf_counter() - start


def _times(seconds):
    if not seconds:
        return "-"
    return (f"median {statistics.median(seconds) * 1e3:.1f} ms, "
            f"max {max(seconds) * 1e3:.1f} ms")


def report(label, results):
    print(f"== {label}")
    for side in ("interior", "exterior"):
        rows = [r[side] for r in results]
        solved = [s for m, _, s in rows if m is not None]
        refused = [s for m, _, s in rows if m is None]
        print(f"  {side}: {len(solved)} solved ({_times(solved)}), "
              f"{len(refused)} refused ({_times(refused)})")
        reasons = {}
        for m, why, _ in rows:
            if m is None:
                key = re.sub(r"[-+]?\d+\.\d+e[-+]\d+", "#", why)
                reasons[key] = reasons.get(key, 0) + 1
        for why, count in sorted(reasons.items()):
            print(f"    {count:4d}  {why}")


def compare(names, mine, theirs):
    worst, where, changes, lost, gained = 0.0, "-", [], [], []
    for name, a, b in zip(names, mine, theirs):
        for side in ("interior", "exterior"):
            new, old = a[side][0], b[side][0]
            if old is not None and new is None:
                lost.append(f"{name} {side}: {a[side][1]}")
            elif new is not None and old is None:
                gained.append(f"{name} {side}: {b[side][1]}")
            if new is None or old is None:
                continue
            x, y = np.asarray(new.series), np.asarray(old.series)
            size = max(len(x), len(y))
            diff = np.max(np.abs(np.pad(x, (0, size - len(x)))
                                 - np.pad(y, (0, size - len(y)))))
            rel = float(diff / np.max(np.abs(y)))
            if rel > worst:
                worst, where = rel, f"{name} {side}"
            if (new.grid, new.delta) != (old.grid, old.delta):
                changes.append(f"{name} {side}: grid {old.grid} -> "
                               f"{new.grid}, delta {old.delta} -> "
                               f"{new.delta}")
    print(f"== lost (solved by the other tree only): {len(lost)}")
    for line in lost:
        print("  " + line)
    print(f"== gained (solved by this tree only): {len(gained)}")
    for line in gained:
        print("  " + line)
    print(f"== where both solve: largest series difference {worst:.2e} of "
          f"max |c_k| ({where}); grid or delta changes: {len(changes)}")
    for line in changes:
        print("  " + line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True,
                        help="the other checkout")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--draws", type=int, default=DRAWS)
    args = parser.parse_args(argv)
    other = load_package(args.against, "bernbound_against")
    cases = [family(pkg, args.seed, args.draws) for pkg in (bb, other)]
    names = [name for name, _, _ in cases[0]]
    if names != [name for name, _, _ in cases[1]]:
        raise SystemExit("the trees validate different curves")
    results = ([], [])
    for j, pairs in enumerate(zip(*cases)):
        order = (0, 1) if j % 2 == 0 else (1, 0)
        rows = [None, None]
        for k in order:
            pkg = (bb, other)[k]
            _, curve, t = pairs[k]
            rows[k] = {side: solve_side(pkg, side, curve, t)
                       for side in ("interior", "exterior")}
        for k in (0, 1):
            results[k].append(rows[k])
    print(f"{len(names)} curves (seed {args.seed}, {args.draws} draws); "
          f"this tree {ROOT}, other {args.against}")
    report("this tree", results[0])
    report("other tree", results[1])
    compare(names, *results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
