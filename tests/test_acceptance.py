"""End-to-end acceptance gate.

Each test exercises one acceptance criterion at its stated
tolerance and runtime budget and records one verdict line

    ACCEPTANCE <k> <label>: PASS (<details>; <elapsed>s < <budget>s)

The collected lines are printed in a terminal section after the run (see
conftest.pytest_terminal_summary); a failing criterion records a FAIL
line and raises.
"""
import csv
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import helpers
from oracles import richardson_directional

from bernbound import (INFINITY, arc_bound, blaschke_eval, boundary_point,
                       build_circle_extremal, circle, disk_normal_derivative,
                       ellipse, eval_curve, green_disk, green_domain,
                       is_infinite, make_rational, map_derivative, map_eval,
                       map_invert, point_in_curve, poles_of, rf_eval,
                       sample_grid, segment_arc, sharpness_sweep,
                       solve_map_pair, split_inside_outside, sup_norm,
                       verify_ratio)
from bernbound.cli import main as cli_main

SPECS = Path(__file__).resolve().parent.parent / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"

ACCEPTANCE_LINES = []


@contextmanager
def criterion(num, label, budget_s):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException as exc:
        line = f"ACCEPTANCE {num} {label}: FAIL ({type(exc).__name__}: {exc})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        line = (f"ACCEPTANCE {num} {label}: FAIL (runtime {elapsed:.2f}s "
                f"over the {budget_s:.0f}s budget)")
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise AssertionError(line)
    detail = info["detail"]
    line = (f"ACCEPTANCE {num} {label}: PASS ({detail}"
            f"{'; ' if detail else ''}{elapsed:.2f}s < {budget_s:.0f}s)")
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def ellipse_ctx():
    e = ellipse(1.2, 0.8)
    u0 = boundary_point(e, 0.4)
    pair = solve_map_pair(e, u0)
    _, pts = sample_grid(e, 512)
    return e, u0, pair, pts


def test_criterion_1_circle_equality():
    with criterion(1, "circle-equality", 1.0) as info:
        rng = np.random.default_rng(helpers.DEFAULT_SEED)
        ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2049)[:-1])
        worst_eq, worst_sup = 0.0, 0.0
        for k in range(50):
            n = int(rng.integers(1, 21))
            pts = ((0.1 + 0.75 * rng.random(n))
                   * np.exp(2j * np.pi * rng.random(n)))
            if k % 2:
                pts = 1.0 / np.conj(pts)
            _, residual = build_circle_extremal(pts)
            assert residual < 1e-9
            sup = float(np.max(np.abs(blaschke_eval(pts, ring))))
            assert abs(sup - 1.0) <= 1e-10
            worst_eq = max(worst_eq, residual)
            worst_sup = max(worst_sup, abs(sup - 1.0))
        info["detail"] = (f"50 products, max | |h'(1)|-bound*sup | "
                          f"{worst_eq:.1e}, max |sup-1| {worst_sup:.1e}")


def test_criterion_2_disk_normal_derivatives():
    with criterion(2, "disk-normal-derivatives", 1.0) as info:
        cases = [(0.0 + 0j, "interior", 1.0),
                 (0.5 + 0j, "interior", 3.0),
                 (-0.5 + 0j, "interior", 1.0 / 3.0),
                 (0.3 + 0.4j, "interior", 15.0 / 13.0),
                 (2.0 + 0j, "exterior", 3.0),
                 (1.25j, "exterior", 9.0 / 41.0),
                 (INFINITY, "exterior", 1.0)]
        worst = 0.0
        for pole, side, want in cases:
            got = disk_normal_derivative(pole, side)
            assert abs(got - want) <= 1e-12 * want
            sign = -1.0 if side == "interior" else 1.0
            fd = richardson_directional(
                lambda s: green_disk(1.0 + sign * s, pole, side),
                0.0, 1.0, h=1e-3)
            rel = abs(fd - want) / want
            assert rel < 1e-6
            worst = max(worst, rel)
        info["detail"] = f"7 pullbacks, max relative FD error {worst:.1e}"


def test_criterion_3_classical_segment_bound():
    with criterion(3, "classical-segment-bound", 2.0) as info:
        seg = segment_arc()
        worst_arc = 0.0
        for x in (0.0, 0.3, 0.9):
            for n in (1, 5, 10):
                report = arc_bound(complex(x), ((INFINITY, n),), seg)
                err = abs(report.bound - n / math.sqrt(1.0 - x * x))
                assert err < 1e-9
                worst_arc = max(worst_arc, err)
        t5 = make_rational([], poly=(0.0, 5.0, 0.0, -20.0, 0.0, 16.0))
        worst_t5 = 0.0
        for x in (0.1, 0.3, -0.62, 0.9):
            rec = verify_ratio(t5, seg, complex(x))
            err = abs(rec.ratio - abs(math.sin(5.0 * math.acos(x))))
            assert err < 1e-8
            worst_t5 = max(worst_t5, err)
        rec = verify_ratio(t5, seg, complex(math.cos(math.pi / 10.0)))
        assert abs(rec.ratio - 1.0) < 1e-8
        info["detail"] = (f"pole-count errors {worst_arc:.1e}, "
                          f"degree-5 ratio errors {worst_t5:.1e}, "
                          f"extremal-point ratio 1 {abs(rec.ratio - 1.0):.1e}")


def test_criterion_4_conformal_solver():
    with criterion(4, "conformal-solver", 10.0) as info:
        a_ax, b_ax = 1.2, 0.8
        e = ellipse(a_ax, b_ax)
        u0 = boundary_point(e, 0.4)
        pair = solve_map_pair(e, u0)

        rng = np.random.default_rng(helpers.DEFAULT_SEED)
        worst_round = 0.0
        for cmap, lo, hi in ((pair.interior, 0.05, 0.95),
                             (pair.exterior, 1.05, 3.0)):
            for _ in range(50):
                r = rng.uniform(lo, hi)
                u = complex(r * eval_curve(e, rng.uniform(0.0, 2 * np.pi)))
                back = map_eval(cmap, map_invert(cmap, u))
                worst_round = max(worst_round, abs(back - u))
        assert worst_round < 1e-8

        # the exterior map agrees with the classical closed-form family
        # after a fitted boundary reparametrization
        c_val, d_val = (a_ax + b_ax) / 2.0, (a_ax - b_ax) / 2.0

        def family_invert(u):
            disc = np.sqrt((u / c_val) ** 2 - 4.0 * d_val / c_val)
            r1 = (u / c_val + disc) / 2.0
            r2 = (u / c_val - disc) / 2.0
            return np.where(np.abs(r1) >= np.abs(r2), r1, r2)

        def mobius_through(zs, ws):
            def std(z1, z2, z3):
                return np.array([[z2 - z3, -z1 * (z2 - z3)],
                                 [z2 - z1, -z3 * (z2 - z1)]])
            mat_z, mat_w = std(*zs), std(*ws)
            w_inv = np.array([[mat_w[1, 1], -mat_w[0, 1]],
                              [-mat_w[1, 0], mat_w[0, 0]]])
            return w_inv @ mat_z

        vs = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 65)[:-1])
        us = map_eval(pair.exterior, vs)
        ws = family_invert(us)
        assert float(np.max(np.abs(np.abs(ws) - 1.0))) < 1e-8
        m = mobius_through(vs[0:48:21], ws[0:48:21])

        def reparam(v):
            return (m[0, 0] * v + m[0, 1]) / (m[1, 0] * v + m[1, 1])

        def joukowski(w):
            return c_val * w + d_val / w

        worst_family = float(np.max(np.abs(joukowski(reparam(vs)) - us)))
        ring = 1.4 * np.exp(1j * np.linspace(0.05, 2.0 * np.pi, 40))
        worst_family = max(worst_family, float(np.max(np.abs(
            joukowski(reparam(ring)) - map_eval(pair.exterior, ring)))))
        assert worst_family < 1e-8

        worst_anchor = 0.0
        for cmap in (pair.interior, pair.exterior):
            worst_anchor = max(
                worst_anchor,
                abs(map_eval(cmap, 1.0 + 0j) - u0.point),
                abs(abs(map_derivative(cmap, 1.0 + 0j)) - 1.0))
        assert worst_anchor < 1e-8
        info["detail"] = (f"roundtrip {worst_round:.1e}, closed-form gap "
                          f"{worst_family:.1e}, anchors {worst_anchor:.1e}")


def test_criterion_5_decomposition(ellipse_ctx):
    with criterion(5, "decomposition", 5.0) as info:
        e, _, _, pts = ellipse_ctx
        rng = np.random.default_rng(helpers.DEFAULT_SEED)
        worst_recon, worst_decay, inside_runs = 0.0, 0.0, 0
        for _ in range(100):
            f = helpers.random_split_rational(rng, pts)
            f1, f2 = split_inside_outside(f, e)
            recon = float(np.max(np.abs(
                rf_eval(f1, pts) + rf_eval(f2, pts) - rf_eval(f, pts))))
            assert recon < 1e-10
            worst_recon = max(worst_recon, recon)
            assert f1.poly == ()
            if f1.terms:
                inside_runs += 1
                decay = abs(rf_eval(f1, 1e6 + 0j))
                assert decay < 1e-4
                worst_decay = max(worst_decay, decay)
        assert inside_runs >= 30
        info["detail"] = (f"100 splits, max reconstruction {worst_recon:.1e},"
                          f" max |f1(1e6)| {worst_decay:.1e} over "
                          f"{inside_runs} inside parts")


def test_criterion_6_majorant_and_growth(ellipse_ctx):
    with criterion(6, "majorant-and-growth", 10.0) as info:
        e, _, pair, pts = ellipse_ctx
        rng = np.random.default_rng(helpers.DEFAULT_SEED)
        min_slack = math.inf
        for k in range(100):
            f = helpers.random_split_rational(rng, pts)
            sup, _ = sup_norm(f, e)
            r = rng.uniform(0.8, 0.97) if k % 2 else rng.uniform(1.03, 1.25)
            u = complex(r * eval_curve(e, rng.uniform(0.0, 2.0 * np.pi)))
            u_inside = r < 1.0
            total = 0.0
            for pole, mult in poles_of(f):
                p_in = ((not is_infinite(pole))
                        and point_in_curve(e, pole))
                if p_in == u_inside:
                    total += mult * green_domain(u, pole, pair, inside=p_in)
            slack = sup * math.exp(total) - abs(rf_eval(f, u))
            assert slack >= -1e-8
            min_slack = min(min_slack, slack)

        betas = [1.9 - 0.6j, 3.0 + 1.0j, INFINITY]

        def growth_max(m):
            ks = np.arange(m)
            radii = 1.0 + pair.delta1 * ((ks % 16) + 1) / 16.0
            us = map_eval(pair.interior, radii * np.exp(2j * np.pi * ks / m))
            best = 0.0
            for beta in betas:
                g = green_domain(us, beta, pair, inside=False)
                best = max(best, float(np.max(g / (radii - 1.0))))
            return best

        g_coarse = growth_max(512)
        g_fine = growth_max(2048)
        assert np.isfinite(g_coarse) and np.isfinite(g_fine)
        drift = abs(g_fine - g_coarse) / g_coarse
        assert drift <= 0.10
        info["detail"] = (f"100 probes, min slack {min_slack:.1e}; growth "
                          f"max {g_fine:.4f}, refinement drift "
                          f"{100.0 * drift:.3f}%")


def test_criterion_7_sharpness_sweep(ellipse_ctx):
    with criterion(7, "sharpness-sweep", 60.0) as info:
        c = circle()
        cu0 = boundary_point(c, 0.0)
        cpair = solve_map_pair(c, cu0)
        rows = sharpness_sweep(c, cpair, cu0, [0.0 + 0j], 3.0, [1, 5, 10],
                               policy="repeat_single_pole")
        worst_circle = max(abs(r.ratio - 1.0) for r in rows)
        assert worst_circle <= 1e-6

        golden = json.loads((GOLDEN / "ellipse_sweep.json").read_text())
        cfg, table = golden["config"], golden["table"]
        e, u0, pair, _ = ellipse_ctx
        assert (cfg["a"], cfg["b"], cfg["t"]) == (1.2, 0.8, 0.4)
        rows = sharpness_sweep(e, pair, u0, helpers.sweep_interior_poles(cfg),
                               complex(*cfg["zeta0"]), cfg["n_list"],
                               policy=cfg["policy"])
        worst_gold = 0.0
        for row, gold in zip(rows, table):
            assert row.n == gold["n"] and row.flags == ""
            worst_gold = max(worst_gold, abs(row.ratio - gold["r_n"]))
        assert worst_gold < 1e-6
        ratios = [row.ratio for row in rows]
        assert ratios[-1] >= 0.9
        assert all(b >= a - 1e-3 for a, b in zip(ratios, ratios[1:]))
        info["detail"] = (f"identity max |r_n - 1| {worst_circle:.1e}; "
                          f"golden-table drift {worst_gold:.1e}, "
                          f"r_40 {ratios[-1]:.7f}, nondecreasing")


def test_criterion_8_ratio_corpus(ellipse_ctx):
    with criterion(8, "ratio-corpus", 60.0) as info:
        golden = json.loads((GOLDEN / "ratio_corpus.json").read_text())
        cfg = golden["config"]
        e, u0, pair, _ = ellipse_ctx
        assert (cfg["a"], cfg["b"], cfg["t"]) == (1.2, 0.8, 0.4)
        assert cfg["interior"] == [[p.real, p.imag]
                                   for p in helpers.CORPUS_INTERIOR]
        assert cfg["exterior"] == [[p.real, p.imag]
                                   for p in helpers.CORPUS_EXTERIOR]
        rng = np.random.default_rng(cfg["seed"])
        worst = 0.0
        ratios, roughs = [], []
        for item in golden["items"]:
            f, orders = helpers.random_corpus_function(rng)
            assert orders == item["orders"]
            rec = verify_ratio(f, e, u0, pair)
            worst = max(worst, abs(rec.ratio - item["ratio"]),
                        abs(rec.rough_ratio - item["rough_ratio"]))
            ratios.append(rec.ratio)
            roughs.append(rec.rough_ratio)
        assert worst < 1e-6
        assert abs(max(ratios) - golden["max_ratio"]) < 1e-6
        assert abs(max(roughs) - golden["max_rough_ratio"]) < 1e-6
        info["detail"] = (f"200 functions, column drift {worst:.1e}, "
                          f"max ratio {max(ratios):.9f}, "
                          f"max rough ratio {max(roughs):.9f}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "cli-determinism", 60.0) as info:
        spec_names = ["bound_circle.json", "verify_chebyshev.json",
                      "sharpness_circle.json", "map_ellipse.json",
                      "greens_ellipse.json"]
        for name in spec_names:
            command = json.loads((SPECS / name).read_text())["command"]
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name[:-5]}_{tag}"
                code = cli_main([command, "--config", str(SPECS / name),
                                 "--out", str(out)])
                assert code == 0
                outs.append(out)
            for artifact in ("summary.csv", "items.csv"):
                assert (outs[0] / artifact).read_bytes() \
                    == (outs[1] / artifact).read_bytes()

        with open(tmp_path / "bound_circle_a" / "summary.csv",
                  newline="") as fh:
            row = list(csv.reader(fh))[1]
        assert row[5] == "5.00000000000e+00"

        malformed = [("bound", "missing_curve.json", "curve"),
                     ("bound", "bad_pole.json", "poles[0].point"),
                     ("sharpness", "bad_policy.json", "sharpness.policy")]
        for command, name, field in malformed:
            code = cli_main([command, "--config",
                             str(SPECS / "malformed" / name),
                             "--out", str(tmp_path / "mal")])
            assert code == 2
            assert f"spec error at {field}:" in capsys.readouterr().err
        info["detail"] = ("5 specs byte-identical across reruns, "
                          "3 malformed specs exit 2")
