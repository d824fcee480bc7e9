"""Batch front end: JSON run specs in, deterministic CSV reports out.

Commands
    bound      normal-derivative sums and the derivative bound at a point
    verify     measure |f'| / (sup * bound) for a concrete rational function
    sharpness  extremal-sequence ratio sweep over a list of degrees
    map        solve and report the anchored interior/exterior map pair
    greens     Green's function values at probe points

Every command reads one JSON spec (--config), writes summary.csv, items.csv
and provenance.json to --out, and exits 0.  Malformed specs exit 2 with the
offending field path; numerical failures exit 3.  All CSV numbers use a
fixed 12-significant-digit scientific format so reruns are byte-identical;
wall time lives only in provenance.json.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .conformal import MapPair, map_from_dict, map_to_dict, solve_map_pair
from .curves import (INFINITY, AnalyticCurve, ArcOpenUp, boundary_point,
                     circle, circular_arc, ellipse, point_in_curve,
                     segment_arc, trig_curve)
from .errors import NumericsError, RunSpecError
from .extremal import sharpness_sweep
from .potential import arc_bound, bernstein_bound, green_domain, verify_ratio
from .ratfun import (RationalFunction, blaschke_product, classify_poles,
                     make_rational)

_COMMANDS = ("bound", "verify", "sharpness", "map", "greens")
_TOP_KEYS = {"command", "curve", "arc", "t", "point", "poles", "function",
             "sharpness", "greens", "tol_map", "tol_q", "sup_m", "m_map"}


def fmt12(x) -> str:
    """Fixed 12-significant-digit scientific rendering (CSV currency)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return np.format_float_scientific(x, precision=11, unique=False,
                                      exp_digits=2)


# ---------------------------------------------------------------------------
# spec parsing (hand-rolled so error paths name the exact field)
# ---------------------------------------------------------------------------

def _sub(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else str(key)


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise RunSpecError(_sub(path, key), "missing required field")
    return obj[key]


def _number(v, path, positive=False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise RunSpecError(path, "expected a number")
    v = float(v)
    if positive and not v > 0:
        raise RunSpecError(path, "must be positive")
    if not math.isfinite(v):
        raise RunSpecError(path, "must be finite")
    return v


def _integer(v, path, minimum=None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise RunSpecError(path, "expected an integer")
    if minimum is not None and v < minimum:
        raise RunSpecError(path, f"must be at least {minimum}")
    return v


def _complex_pair(v, path, allow_inf=False) -> complex:
    if allow_inf and v == "inf":
        return INFINITY
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float))
                   for x in v)):
        what = '[re, im] pair or "inf"' if allow_inf else "[re, im] pair"
        raise RunSpecError(path, f"expected a {what}")
    z = complex(float(v[0]), float(v[1]))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise RunSpecError(path, "components must be finite")
    return z


def _parse_curve(obj, path) -> AnalyticCurve:
    if not isinstance(obj, dict):
        raise RunSpecError(path, "expected an object")
    kind = _need(obj, "kind", path)
    if kind == "circle":
        radius = _number(obj.get("radius", 1.0), _sub(path, "radius"),
                         positive=True)
        center = _complex_pair(obj.get("center", [0.0, 0.0]),
                               _sub(path, "center"))
        return circle(radius, center)
    if kind == "ellipse":
        a = _number(_need(obj, "a", path), _sub(path, "a"), positive=True)
        b = _number(_need(obj, "b", path), _sub(path, "b"), positive=True)
        return ellipse(a, b)
    if kind == "trig":
        pairs = _need(obj, "pairs", path)
        if not isinstance(pairs, list) or not pairs:
            raise RunSpecError(_sub(path, "pairs"),
                               "expected a nonempty list of [k, [re, im]]")
        out = []
        for i, item in enumerate(pairs):
            ipath = _sub(_sub(path, "pairs"), i)
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise RunSpecError(ipath, "expected [k, [re, im]]")
            k = _integer(item[0], _sub(ipath, 0))
            out.append((k, _complex_pair(item[1], _sub(ipath, 1))))
        return trig_curve(out)
    raise RunSpecError(_sub(path, "kind"), f"unknown curve kind {kind!r}")


def _parse_arc(obj, path) -> ArcOpenUp:
    if not isinstance(obj, dict):
        raise RunSpecError(path, "expected an object")
    kind = _need(obj, "kind", path)
    if kind == "segment":
        za = _complex_pair(obj.get("za", [-1.0, 0.0]), _sub(path, "za"))
        zb = _complex_pair(obj.get("zb", [1.0, 0.0]), _sub(path, "zb"))
        if za == zb:
            raise RunSpecError(_sub(path, "zb"), "endpoints coincide")
        return segment_arc(za, zb)
    if kind == "circular":
        theta0 = _number(_need(obj, "theta0", path), _sub(path, "theta0"),
                         positive=True)
        if theta0 >= math.pi:
            raise RunSpecError(_sub(path, "theta0"), "must be below pi")
        radius = _number(obj.get("radius", 1.0), _sub(path, "radius"),
                         positive=True)
        center = _complex_pair(obj.get("center", [0.0, 0.0]),
                               _sub(path, "center"))
        rotation = _number(obj.get("rotation", 0.0), _sub(path, "rotation"))
        return circular_arc(theta0, radius, center, rotation)
    raise RunSpecError(_sub(path, "kind"), f"unknown arc kind {kind!r}")


def _parse_poles(obj, path):
    if not isinstance(obj, list) or not obj:
        raise RunSpecError(path, "expected a nonempty list of pole objects")
    out = []
    for i, item in enumerate(obj):
        ipath = _sub(path, i)
        if not isinstance(item, dict):
            raise RunSpecError(ipath, 'expected {"point": ..., "order": ...}')
        loc = _complex_pair(_need(item, "point", ipath),
                            _sub(ipath, "point"), allow_inf=True)
        order = _integer(item.get("order", 1), _sub(ipath, "order"),
                         minimum=1)
        out.append((loc, order))
    return tuple(out)


def _parse_function(obj, path) -> RationalFunction:
    if not isinstance(obj, dict):
        raise RunSpecError(path, "expected an object")
    kind = _need(obj, "kind", path)
    if kind == "blaschke":
        pts = _need(obj, "points", path)
        if not isinstance(pts, list) or not pts:
            raise RunSpecError(_sub(path, "points"),
                               "expected a nonempty list")
        points = [_complex_pair(p, _sub(_sub(path, "points"), i),
                                allow_inf=True) for i, p in enumerate(pts)]
        return blaschke_product(points)
    if kind == "partial_fractions":
        terms_obj = _need(obj, "terms", path)
        if not isinstance(terms_obj, list):
            raise RunSpecError(_sub(path, "terms"), "expected a list")
        terms = []
        for i, item in enumerate(terms_obj):
            ipath = _sub(_sub(path, "terms"), i)
            if not isinstance(item, dict):
                raise RunSpecError(ipath,
                                   'expected {"pole": ..., "coeffs": ...}')
            pole = _complex_pair(_need(item, "pole", ipath),
                                 _sub(ipath, "pole"))
            cobj = _need(item, "coeffs", ipath)
            if not isinstance(cobj, list) or not cobj:
                raise RunSpecError(_sub(ipath, "coeffs"),
                                   "expected a nonempty list of [re, im]")
            coeffs = [_complex_pair(c, _sub(_sub(ipath, "coeffs"), j))
                      for j, c in enumerate(cobj)]
            terms.append((pole, tuple(coeffs)))
        pobj = obj.get("poly", [])
        if not isinstance(pobj, list):
            raise RunSpecError(_sub(path, "poly"), "expected a list")
        poly = [_complex_pair(c, _sub(_sub(path, "poly"), j))
                for j, c in enumerate(pobj)]
        if not terms and not poly:
            raise RunSpecError(_sub(path, "terms"),
                               "function has no terms and no polynomial part")
        return make_rational(terms, tuple(poly))
    raise RunSpecError(_sub(path, "kind"), f"unknown function kind {kind!r}")


def _parse_sharpness(obj, path):
    if not isinstance(obj, dict):
        raise RunSpecError(path, "expected an object")
    pts = _need(obj, "interior_poles", path)
    if not isinstance(pts, list) or not pts:
        raise RunSpecError(_sub(path, "interior_poles"),
                           "expected a nonempty list of [re, im]")
    interior = [_complex_pair(p, _sub(_sub(path, "interior_poles"), i))
                for i, p in enumerate(pts)]
    zeta0 = _complex_pair(_need(obj, "zeta0", path), _sub(path, "zeta0"))
    nobj = _need(obj, "n_list", path)
    if not isinstance(nobj, list):
        raise RunSpecError(_sub(path, "n_list"), "expected a list")
    n_list = [_integer(n, _sub(_sub(path, "n_list"), i), minimum=1)
              for i, n in enumerate(nobj)]
    policy = obj.get("policy", "cycle_list")
    if policy not in ("repeat_single_pole", "cycle_list"):
        raise RunSpecError(_sub(path, "policy"),
                           f"unknown picks policy {policy!r}")
    for key in obj:
        if key not in {"interior_poles", "zeta0", "n_list", "policy"}:
            raise RunSpecError(_sub(path, key), "unknown field")
    return {"interior_poles": interior, "zeta0": zeta0, "n_list": n_list,
            "policy": policy}


def _parse_greens(obj, path):
    if not isinstance(obj, dict):
        raise RunSpecError(path, "expected an object")
    pobj = _need(obj, "poles", path)
    if not isinstance(pobj, list) or not pobj:
        raise RunSpecError(_sub(path, "poles"), "expected a nonempty list")
    poles = [_complex_pair(p, _sub(_sub(path, "poles"), i), allow_inf=True)
             for i, p in enumerate(pobj)]
    qobj = _need(obj, "probes", path)
    if not isinstance(qobj, list) or not qobj:
        raise RunSpecError(_sub(path, "probes"), "expected a nonempty list")
    probes = [_complex_pair(p, _sub(_sub(path, "probes"), i))
              for i, p in enumerate(qobj)]
    for key in obj:
        if key not in {"poles", "probes"}:
            raise RunSpecError(_sub(path, key), "unknown field")
    return {"poles": poles, "probes": probes}


@dataclass
class RunSpec:
    command: str
    curve: AnalyticCurve | None
    arc: ArcOpenUp | None
    t: float | None
    point: complex | None
    poles: tuple
    function: RationalFunction | None
    sharp: dict | None
    greens: dict | None
    tol_map: float
    tol_q: float
    sup_m: int | None
    m_map: int
    sha256: str


def parse_run_spec(data, sha256: str, cli_command: str | None = None) -> RunSpec:
    if not isinstance(data, dict):
        raise RunSpecError("", "run spec must be a JSON object")
    for key in data:
        if key not in _TOP_KEYS:
            raise RunSpecError(str(key), "unknown field")
    command = _need(data, "command", "")
    if command not in _COMMANDS:
        raise RunSpecError("command", f"unknown command {command!r}")
    if cli_command is not None and cli_command != command:
        raise RunSpecError("command",
                           f"spec says {command!r} but the CLI was invoked "
                           f"with {cli_command!r}")

    if "curve" in data and "arc" in data:
        raise RunSpecError("arc", 'give either "curve" or "arc", not both')
    curve = _parse_curve(data["curve"], "curve") if "curve" in data else None
    arc = _parse_arc(data["arc"], "arc") if "arc" in data else None
    if command in ("sharpness", "map", "greens") and curve is None:
        raise RunSpecError("curve", f"{command} requires a curve")
    if curve is None and arc is None:
        raise RunSpecError("curve", "missing required field")

    t = None
    point = None
    if curve is not None:
        if command == "greens":
            t = _number(data.get("t", 0.0), "t")
        else:
            t = _number(_need(data, "t", ""), "t")
    else:
        point = _complex_pair(_need(data, "point", ""), "point")

    poles = ()
    if command == "bound":
        poles = _parse_poles(_need(data, "poles", ""), "poles")
    function = None
    if command == "verify":
        function = _parse_function(_need(data, "function", ""), "function")
    sharp = None
    if command == "sharpness":
        sharp = _parse_sharpness(_need(data, "sharpness", ""), "sharpness")
    greens = None
    if command == "greens":
        greens = _parse_greens(_need(data, "greens", ""), "greens")

    tol_map = _number(data.get("tol_map", 1e-11), "tol_map", positive=True)
    tol_q = _number(data.get("tol_q", 1e-9), "tol_q", positive=True)
    sup_m = None
    if data.get("sup_m") is not None:
        sup_m = _integer(data["sup_m"], "sup_m", minimum=16)
    m_map = _integer(data.get("m_map", 1024), "m_map", minimum=128)
    return RunSpec(command, curve, arc, t, point, poles, function, sharp,
                   greens, tol_map, tol_q, sup_m, m_map, sha256)


# ---------------------------------------------------------------------------
# map cache
# ---------------------------------------------------------------------------

def _curve_payload(curve: AnalyticCurve):
    return {"kind": curve.kind,
            "coeffs": [[fmt12(c.real), fmt12(c.imag)] for c in curve.coeffs]}


def _pair_cache_key(curve, t, tol_map, m_map) -> str:
    # the version keeps a changed solver from serving maps it did not write
    payload = {"curve": _curve_payload(curve), "t": fmt12(t),
               "tol_map": fmt12(tol_map), "m": int(m_map),
               "version": __version__}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _solve_pair(spec: RunSpec, cache_dir=None) -> MapPair:
    u0 = boundary_point(spec.curve, spec.t)
    path = None
    if cache_dir:
        key = _pair_cache_key(spec.curve, spec.t, spec.tol_map, spec.m_map)
        path = os.path.join(cache_dir, key + ".json")
        try:
            with open(path, encoding="utf-8") as fh:
                stored = json.load(fh)
            return MapPair(spec.curve, map_from_dict(stored["interior"]),
                           map_from_dict(stored["exterior"]))
        except (OSError, ValueError, KeyError, TypeError):
            pass  # a missing, torn or corrupt entry is a miss: solve afresh
    pair = solve_map_pair(spec.curve, u0, tol=spec.tol_map, m=spec.m_map)
    if path is not None:
        # renaming a private temp file means no reader sees a partial entry
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"interior": map_to_dict(pair.interior),
                       "exterior": map_to_dict(pair.exterior)}, fh)
        os.replace(tmp, path)
    return pair


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

_CONTRIB_HEADER = ("index", "pole_re", "pole_im", "side", "value")


def _contribution_rows(report, prefix=()):
    rows = []
    for i, c in enumerate(report.contributions):
        rows.append((*prefix, i, c.pole.real, c.pole.imag, c.side, c.value))
    return rows


def _run_bound(spec: RunSpec, cache_dir):
    if spec.arc is not None:
        report = arc_bound(spec.point, spec.poles, spec.arc)
        t_val, pt = math.nan, spec.point
    else:
        maps = _solve_pair(spec, cache_dir)
        u0 = boundary_point(spec.curve, spec.t)
        report = bernstein_bound(u0, classify_poles(spec.poles, spec.curve),
                                 maps)
        t_val, pt = spec.t, u0.point
    header = ("t", "point_re", "point_im", "inner_sum", "outer_sum", "bound")
    row = (t_val, pt.real, pt.imag, report.inner_sum, report.outer_sum,
           report.bound)
    return header, [row], _CONTRIB_HEADER, _contribution_rows(report)


def _run_verify(spec: RunSpec, cache_dir):
    if spec.arc is not None:
        rec = verify_ratio(spec.function, spec.arc, spec.point,
                           sup_m=spec.sup_m)
        t_val, pt = math.nan, spec.point
    else:
        maps = _solve_pair(spec, cache_dir)
        u0 = boundary_point(spec.curve, spec.t)
        rec = verify_ratio(spec.function, spec.curve, u0, maps,
                           sup_m=spec.sup_m)
        t_val, pt = spec.t, u0.point
    header = ("t", "point_re", "point_im", "deriv_mod", "sup_norm",
              "sup_arg", "bound", "ratio", "rough_ratio", "degree")
    row = (t_val, pt.real, pt.imag, rec.deriv_mod, rec.sup, rec.sup_arg,
           rec.bound, rec.ratio, rec.rough_ratio, rec.degree)
    return header, [row], _CONTRIB_HEADER, _contribution_rows(rec.report)


def _run_sharpness(spec: RunSpec, cache_dir):
    maps = _solve_pair(spec, cache_dir)
    u0 = boundary_point(spec.curve, spec.t)
    rows = sharpness_sweep(spec.curve, maps, u0,
                           spec.sharp["interior_poles"], spec.sharp["zeta0"],
                           spec.sharp["n_list"], policy=spec.sharp["policy"],
                           tol_q=spec.tol_q)
    header = ("n", "N6", "r_n", "bound", "sup_norm", "deriv_mod",
              "residual_flags")
    summary = [(r.n, r.n_interp, r.ratio, r.bound, r.sup, r.deriv_mod,
                r.flags) for r in rows]
    items = []
    for r in rows:
        if r.run is not None:
            items.extend(_contribution_rows(r.run.report, prefix=(r.n,)))
    return header, summary, ("n",) + _CONTRIB_HEADER, items


def _run_map(spec: RunSpec, cache_dir):
    maps = _solve_pair(spec, cache_dir)
    header = ("side", "anchor_re", "anchor_im", "anchor_deriv_re",
              "anchor_deriv_im", "delta", "tail", "n_coeffs")
    summary, items = [], []
    for cmap in (maps.interior, maps.exterior):
        summary.append((cmap.side, cmap.anchor.real, cmap.anchor.imag,
                        cmap.anchor_deriv.real, cmap.anchor_deriv.imag,
                        cmap.delta, cmap.tail, len(cmap.series)))
        for k, c in enumerate(cmap.series):
            items.append((cmap.side, k, c.real, c.imag))
    return header, summary, ("side", "k", "coeff_re", "coeff_im"), items


def _run_greens(spec: RunSpec, cache_dir):
    maps = _solve_pair(spec, cache_dir)
    poles, probes = spec.greens["poles"], spec.greens["probes"]
    probe_inside = np.array([point_in_curve(spec.curve, q) for q in probes])
    pole_inside = classify_poles([(p, 1) for p in poles], spec.curve).inside
    probe_arr = np.array(probes, dtype=complex)
    summary, items = [], []
    for i, (pole, inside) in enumerate(zip(poles, pole_inside)):
        mismatch = np.nonzero(probe_inside != inside)[0]
        if len(mismatch):
            raise RunSpecError(f"greens.probes[{mismatch[0]}]",
                               "probe and pole lie on opposite sides "
                               "of the curve")
        values = green_domain(probe_arr, pole, maps, inside=inside)
        for j, (probe, val) in enumerate(zip(probes, values)):
            items.append((i, j, probe.real, probe.imag, float(val)))
        summary.append((i, pole.real, pole.imag, int(inside), len(values),
                        float(np.min(values)), float(np.max(values))))
    header = ("pole_index", "pole_re", "pole_im", "inside", "n_probes",
              "min_value", "max_value")
    return header, summary, ("pole_index", "probe_index", "probe_re",
                             "probe_im", "value"), items


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

@dataclass
class ReportBundle:
    command: str
    spec_sha256: str
    summary_header: tuple
    summary_rows: list
    items_header: tuple
    items_rows: list
    provenance: dict


def run(spec: RunSpec, cache_dir=None) -> ReportBundle:
    start = time.perf_counter()
    if spec.command == "bound":
        parts = _run_bound(spec, cache_dir)
    elif spec.command == "verify":
        parts = _run_verify(spec, cache_dir)
    elif spec.command == "sharpness":
        parts = _run_sharpness(spec, cache_dir)
    elif spec.command == "map":
        parts = _run_map(spec, cache_dir)
    else:
        parts = _run_greens(spec, cache_dir)
    provenance = {"version": __version__, "command": spec.command,
                  "spec_sha256": spec.sha256,
                  "wall_time_s": time.perf_counter() - start}
    return ReportBundle(spec.command, spec.sha256, parts[0], parts[1],
                        parts[2], parts[3], provenance)


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return fmt12(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_bundle(bundle: ReportBundle, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {"summary": os.path.join(out_dir, "summary.csv"),
             "items": os.path.join(out_dir, "items.csv"),
             "provenance": os.path.join(out_dir, "provenance.json")}
    _write_csv(paths["summary"], bundle.summary_header, bundle.summary_rows)
    _write_csv(paths["items"], bundle.items_header, bundle.items_rows)
    with open(paths["provenance"], "w", encoding="utf-8") as fh:
        json.dump(bundle.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def emit_plot_data(bundle: ReportBundle, kind: str) -> str:
    """Two-column text for external plotting; the header pins the run spec."""
    lines = [f"# spec_sha256={bundle.spec_sha256}"]
    if kind == "ratio_vs_n":
        if bundle.command != "sharpness":
            raise RunSpecError("plot", "ratio_vs_n needs a sharpness bundle, "
                               f"got {bundle.command!r}")
        lines.append("# n r_n")
        for row in bundle.summary_rows:
            lines.append(f"{int(row[0])} {fmt12(row[2])}")
    elif kind == "contributions":
        if bundle.command not in ("bound", "verify"):
            raise RunSpecError("plot", "contributions needs a bound or "
                               f"verify bundle, got {bundle.command!r}")
        lines.append("# pole_index contribution")
        for row in bundle.items_rows:
            lines.append(f"{int(row[0])} {fmt12(row[4])}")
    else:
        raise RunSpecError("plot", f"unknown plot kind {kind!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The bern argument parser, built once per process: parse_args keeps
    no state between calls."""
    parser = argparse.ArgumentParser(
        prog="bern",
        description="Derivative bounds for rational functions on analytic "
                    "curves and arcs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="JSON run-spec file")
        sp.add_argument("--out", default="bern_out",
                        help="output directory (default: bern_out)")
        sp.add_argument("--cache", default=None,
                        help="conformal-map cache directory")
        sp.add_argument("--plot", default=None,
                        help="also emit plot data: ratio_vs_n | contributions")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"spec error at config: {exc}", file=sys.stderr)
        return 2
    sha = hashlib.sha256(raw).hexdigest()
    try:
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RunSpecError("config", f"invalid JSON: {exc}")
        spec = parse_run_spec(data, sha, args.command)
        bundle = run(spec, cache_dir=args.cache)
        paths = write_bundle(bundle, args.out)
        if args.plot:
            text = emit_plot_data(bundle, args.plot)
            plot_path = os.path.join(args.out, f"plot_{args.plot}.txt")
            with open(plot_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths["plot"] = plot_path
    except RunSpecError as exc:
        print(f"spec error at {exc.path}: {exc.reason}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return 3
    except Exception as exc:  # anything unplanned is still a numeric exit
        print(f"internal failure [{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
