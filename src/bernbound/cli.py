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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .conformal import MapPair, map_from_dict, map_to_dict, solve_map_pair
from .curves import (INFINITY, AnalyticCurve, ArcOpenUp, _memo_put,
                     boundary_point, circle, circular_arc, ellipse,
                     point_in_curve, segment_arc, trig_curve, validate_curve)
from .errors import NumericsError, RunSpecError
from .extremal import sharpness_sweep
from .potential import arc_bound, bernstein_bound, green_domain, verify_ratio
from .ratfun import (RationalFunction, blaschke_product, classify_poles,
                     make_rational)


def fmt12(x) -> str:
    """Fixed 12-significant-digit scientific rendering (CSV currency)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".11e")


# ---------------------------------------------------------------------------
# spec parsing: each object declares its fields once, and every error names
# the exact field path
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _sub(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else str(key)


def _fields(obj, path: str, fields: dict) -> dict:
    """Read a spec object whose allowed keys are `fields`: key -> (reader,
    default), the default being _REQUIRED for a key that must be given.

    Unknown keys are rejected before any value is read; then each key is
    read, in table order, by reader(value, path of the key)."""
    if not isinstance(obj, dict):
        raise RunSpecError(path, "expected an object")
    for key in obj:
        if key not in fields:
            raise RunSpecError(_sub(path, key), "unknown field")
    out = {}
    for key, (reader, default) in fields.items():
        if key in obj:
            out[key] = reader(obj[key], _sub(path, key))
        elif default is _REQUIRED:
            raise RunSpecError(_sub(path, key), "missing required field")
        else:
            out[key] = default
    return out


def _object(fields: dict, build=dict):
    """Reader of an object with the given fields, passed to build."""
    return lambda obj, path: build(**_fields(obj, path, fields))


def _kinded(what: str, kinds: dict):
    """Reader of an object whose "kind" picks (build, fields) from kinds."""
    def read(obj, path):
        if not isinstance(obj, dict):
            raise RunSpecError(path, "expected an object")
        if "kind" not in obj:
            raise RunSpecError(_sub(path, "kind"), "missing required field")
        kind = obj["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise RunSpecError(_sub(path, "kind"),
                               f"unknown {what} kind {kind!r}")
        build, fields = kinds[kind]
        rest = {k: v for k, v in obj.items() if k != "kind"}
        return build(**_fields(rest, path, fields))
    return read


def _list_of(reader, nonempty=True):
    """Reader of a list whose items are read at path[i]."""
    def read(v, path):
        if not isinstance(v, list) or (nonempty and not v):
            raise RunSpecError(path, "expected a nonempty list" if nonempty
                               else "expected a list")
        return [reader(x, _sub(path, i)) for i, x in enumerate(v)]
    return read


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


_positive = functools.partial(_number, positive=True)
_point = functools.partial(_complex_pair, allow_inf=True)


def _at_least(minimum):
    return functools.partial(_integer, minimum=minimum)


def _sup_m(v, path):
    """An integer of at least 16, or null for the default sampling."""
    return None if v is None else _integer(v, path, minimum=16)


def _half_angle(v, path) -> float:
    v = _number(v, path, positive=True)
    if v >= math.pi:
        raise RunSpecError(path, "must be below pi")
    return v


def _policy(v, path) -> str:
    if v not in ("repeat_single_pole", "cycle_list"):
        raise RunSpecError(path, f"unknown picks policy {v!r}")
    return v


def _trig_pair(v, path):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise RunSpecError(path, "expected [k, [re, im]]")
    return _integer(v[0], _sub(path, 0)), _complex_pair(v[1], _sub(path, 1))


def _segment(za, zb) -> ArcOpenUp:
    if za == zb:
        raise RunSpecError("arc.zb", "endpoints coincide")
    return segment_arc(za, zb)


def _partial_fractions(terms, poly) -> RationalFunction:
    if not terms and not poly:
        raise RunSpecError("function.terms",
                           "function has no terms and no polynomial part")
    return make_rational(terms, tuple(poly))


_CURVE = _kinded("curve", {
    "circle": (circle, {"radius": (_positive, 1.0),
                        "center": (_complex_pair, 0j)}),
    "ellipse": (ellipse, {"a": (_positive, _REQUIRED),
                          "b": (_positive, _REQUIRED)}),
    "trig": (trig_curve, {"pairs": (_list_of(_trig_pair), _REQUIRED)}),
})

# the bern calls of one process share each curve and each parsed map-cache
# entry through two FIFO memos; few entries: a curve keeps 0.2 MB of grids
_PROCESS_MEMO_CAP = 8
_CURVES: dict = {}  # repr(curve) -> the one curve object of that value
_PAIRS: dict = {}   # map-cache entry bytes -> its (interior, exterior) maps


def _shared_curve(obj, path) -> AnalyticCurve:
    """_CURVE's curve, as its value's one object in _CURVES, so its memos
    (sample grids, pole sides) carry over.  Keyed by repr: equality folds
    -0.0 into 0.0, and a map bundle prints that sign.  A trig curve new to
    _CURVES must pass validate_curve, or the error names each failed check."""
    curve = _CURVE(obj, path)
    key = repr(curve)
    if key not in _CURVES and curve.kind == "trig":
        rep = validate_curve(curve)
        failed = [f"{name} {value:.4g}" for name, value, ok in (
            ("speed", rep.speed_min, rep.speed_ok),
            ("simplicity margin", rep.simplicity_margin, rep.simple_ok),
            ("winding", rep.winding, rep.orientation_ok)) if not ok]
        if failed:
            raise RunSpecError(path, "curve fails validate_curve: "
                               + ", ".join(failed))
    return _CURVES.get(key) or _memo_put(_CURVES, key, curve,
                                         _PROCESS_MEMO_CAP)


_ARC = _kinded("arc", {
    "segment": (_segment, {"za": (_complex_pair, -1.0 + 0j),
                           "zb": (_complex_pair, 1.0 + 0j)}),
    "circular": (circular_arc, {"theta0": (_half_angle, _REQUIRED),
                                "radius": (_positive, 1.0),
                                "center": (_complex_pair, 0j),
                                "rotation": (_number, 0.0)}),
})

_POLE = _object({"point": (_point, _REQUIRED), "order": (_at_least(1), 1)},
                lambda point, order: (point, order))

_TERM = _object({"pole": (_complex_pair, _REQUIRED),
                 "coeffs": (_list_of(_complex_pair), _REQUIRED)},
                lambda pole, coeffs: (pole, tuple(coeffs)))

_FUNCTION = _kinded("function", {
    "blaschke": (blaschke_product, {"points": (_list_of(_point), _REQUIRED)}),
    "partial_fractions": (_partial_fractions, {
        "terms": (_list_of(_TERM, nonempty=False), _REQUIRED),
        "poly": (_list_of(_complex_pair, nonempty=False), ())}),
})

_SHARPNESS = _object({"interior_poles": (_list_of(_complex_pair), _REQUIRED),
                      "zeta0": (_complex_pair, _REQUIRED),
                      "n_list": (_list_of(_at_least(1), nonempty=False),
                                 _REQUIRED),
                      "policy": (_policy, "cycle_list")})

_GREENS = _object({"poles": (_list_of(_point), _REQUIRED),
                   "probes": (_list_of(_complex_pair), _REQUIRED)})


@dataclass
class RunSpec:
    """A parsed spec; a field the command does not read keeps its default."""
    command: str
    sha256: str
    curve: AnalyticCurve | None = None
    arc: ArcOpenUp | None = None
    t: float | None = None
    point: complex | None = None
    poles: list | None = None
    function: RationalFunction | None = None
    sharpness: dict | None = None
    greens: dict | None = None
    sup_m: int | None = None


# top-level fields of a spec on a curve or on an arc; each command adds its own
_ON_CURVE = {"curve": (_shared_curve, _REQUIRED), "t": (_number, _REQUIRED)}
_ON_ARC = {"arc": (_ARC, _REQUIRED), "point": (_complex_pair, _REQUIRED)}


def parse_run_spec(data, sha256: str, cli_command: str | None = None) -> RunSpec:
    if not isinstance(data, dict):
        raise RunSpecError("", "run spec must be a JSON object")
    if "command" not in data:
        raise RunSpecError("command", "missing required field")
    command = data["command"]
    if not isinstance(command, str) or command not in _COMMANDS:
        raise RunSpecError("command", f"unknown command {command!r}")
    if cli_command is not None and cli_command != command:
        raise RunSpecError("command",
                           f"spec says {command!r} but the CLI was invoked "
                           f"with {cli_command!r}")
    cmd = _COMMANDS[command]
    if "curve" in data and "arc" in data:
        raise RunSpecError("arc", 'give either "curve" or "arc", not both')
    if "arc" in data and not cmd.arcs:
        raise RunSpecError("curve", f"{command} requires a curve")
    if "arc" not in data and "curve" not in data:
        raise RunSpecError("curve", "missing required field")
    where = _ON_ARC if "arc" in data else _ON_CURVE
    rest = {k: v for k, v in data.items() if k != "command"}
    return RunSpec(command, sha256,
                   **_fields(rest, "", {**where, **cmd.fields}))


# ---------------------------------------------------------------------------
# map cache
# ---------------------------------------------------------------------------

def _curve_payload(curve: AnalyticCurve):
    return {"kind": curve.kind,
            "coeffs": [[fmt12(c.real), fmt12(c.imag)] for c in curve.coeffs]}


def _pair_cache_key(curve, t) -> str:
    # the version keeps a changed solver from serving maps it did not write
    payload = {"curve": _curve_payload(curve), "t": fmt12(t),
               "version": __version__}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _solve_pair(spec: RunSpec, cache_dir=None):
    """(map pair, anchor u0) of the spec's curve, from the cache if given.
    The entry is read on every call; only bytes not in _PAIRS are parsed."""
    u0 = boundary_point(spec.curve, spec.t)
    path = None
    if cache_dir:
        key = _pair_cache_key(spec.curve, spec.t)
        path = os.path.join(cache_dir, key + ".json")
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            if raw not in _PAIRS:
                stored = json.loads(raw.decode("utf-8"))
                _memo_put(_PAIRS, raw, tuple(map_from_dict(stored[side]) for
                                             side in ("interior", "exterior")),
                          _PROCESS_MEMO_CAP)
            return MapPair(spec.curve, *_PAIRS[raw]), u0
        except (OSError, ValueError, KeyError, TypeError):
            pass  # a missing, torn or corrupt entry is a miss: solve afresh
    pair = solve_map_pair(spec.curve, u0)
    if path is not None:
        # renaming a private temp file means no reader sees a partial entry
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"interior": map_to_dict(pair.interior),
                                 "exterior": map_to_dict(pair.exterior)}))
        os.replace(tmp, path)
    return pair, u0


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

_CONTRIB_HEADER = ("index", "pole_re", "pole_im", "side", "value")


def _contribution_rows(report, prefix=()):
    return [(*prefix, i, c.pole.real, c.pole.imag, c.side, c.value)
            for i, c in enumerate(report.contributions)]


def _run_bound(spec: RunSpec, cache_dir):
    if spec.arc is not None:
        report = arc_bound(spec.point, spec.poles, spec.arc)
        t_val, pt = math.nan, spec.point
    else:
        maps, u0 = _solve_pair(spec, cache_dir)
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
        maps, u0 = _solve_pair(spec, cache_dir)
        rec = verify_ratio(spec.function, spec.curve, u0, maps,
                           sup_m=spec.sup_m)
        t_val, pt = spec.t, u0.point
    header = ("t", "point_re", "point_im", "deriv_mod", "sup_norm",
              "sup_arg", "bound", "ratio", "rough_ratio", "degree")
    row = (t_val, pt.real, pt.imag, rec.deriv_mod, rec.sup, rec.sup_arg,
           rec.bound, rec.ratio, rec.rough_ratio, rec.degree)
    return header, [row], _CONTRIB_HEADER, _contribution_rows(rec.report)


def _run_sharpness(spec: RunSpec, cache_dir):
    maps, u0 = _solve_pair(spec, cache_dir)
    rows = sharpness_sweep(spec.curve, maps, u0, **spec.sharpness)
    header = ("n", "N6", "r_n", "bound", "sup_norm", "deriv_mod",
              "residual_flags")
    summary = [(r.n, r.n_interp, r.ratio, r.bound, r.sup, r.deriv_mod,
                r.flags) for r in rows]
    items = [item for r in rows if r.run is not None
             for item in _contribution_rows(r.run.report, prefix=(r.n,))]
    return header, summary, ("n",) + _CONTRIB_HEADER, items


def _run_map(spec: RunSpec, cache_dir):
    maps, _ = _solve_pair(spec, cache_dir)
    header = ("side", "anchor_re", "anchor_im", "anchor_deriv_re",
              "anchor_deriv_im", "delta", "tail", "n_coeffs")
    sides = (maps.interior, maps.exterior)
    summary = [(cmap.side, cmap.anchor.real, cmap.anchor.imag,
                cmap.anchor_deriv.real, cmap.anchor_deriv.imag, cmap.delta,
                cmap.tail, len(cmap.series)) for cmap in sides]
    items = [(cmap.side, k, c.real, c.imag)
             for cmap in sides for k, c in enumerate(cmap.series)]
    return header, summary, ("side", "k", "coeff_re", "coeff_im"), items


def _run_greens(spec: RunSpec, cache_dir):
    maps, _ = _solve_pair(spec, cache_dir)
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


@dataclass(frozen=True)
class _Command:
    run: Callable   # handler: (spec, cache_dir) -> the bundle's four parts
    fields: dict    # its top-level fields besides those of the curve or arc
    arcs: bool = False
    plots: tuple = ()


_COMMANDS = {
    "bound": _Command(_run_bound, {"poles": (_list_of(_POLE), _REQUIRED)},
                      arcs=True, plots=("contributions",)),
    "verify": _Command(_run_verify, {"function": (_FUNCTION, _REQUIRED),
                                     "sup_m": (_sup_m, RunSpec.sup_m)},
                       arcs=True, plots=("contributions",)),
    "sharpness": _Command(_run_sharpness,
                          {"sharpness": (_SHARPNESS, _REQUIRED)},
                          plots=("ratio_vs_n",)),
    "map": _Command(_run_map, {}),
    "greens": _Command(_run_greens, {"t": (_number, 0.0),
                                     "greens": (_GREENS, _REQUIRED)}),
}


def _check_plot(command: str, kind: str) -> None:
    """Reject a plot kind the command does not emit."""
    if kind in _COMMANDS[command].plots:
        return
    owners = [name for name, cmd in _COMMANDS.items() if kind in cmd.plots]
    if not owners:
        raise RunSpecError("plot", f"unknown plot kind {kind!r}")
    raise RunSpecError("plot", f"{kind} needs a {' or '.join(owners)} "
                       f"bundle, got {command!r}")


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
    parts = _COMMANDS[spec.command].run(spec, cache_dir)
    provenance = {"version": __version__, "command": spec.command,
                  "spec_sha256": spec.sha256,
                  "wall_time_s": time.perf_counter() - start}
    return ReportBundle(spec.command, spec.sha256, *parts, provenance)


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
        fh.write(json.dumps(bundle.provenance, indent=2, sort_keys=True))
        fh.write("\n")
    return paths


def emit_plot_data(bundle: ReportBundle, kind: str) -> str:
    """Two-column text for external plotting; the header pins the run spec."""
    _check_plot(bundle.command, kind)
    lines = [f"# spec_sha256={bundle.spec_sha256}"]
    if kind == "ratio_vs_n":
        lines.append("# n r_n")
        for row in bundle.summary_rows:
            lines.append(f"{int(row[0])} {fmt12(row[2])}")
    else:
        lines.append("# pole_index contribution")
        for row in bundle.items_rows:
            lines.append(f"{int(row[0])} {fmt12(row[4])}")
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
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="JSON run-spec file")
        sp.add_argument("--out", default="bern_out",
                        help="output directory (default: bern_out)")
        sp.add_argument("--cache", default=None,
                        help="conformal-map cache directory")
        sp.add_argument("--plot", default=None,
                        help="also emit plot data: "
                             + (" | ".join(cmd.plots) or "none"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kept = [(memo, dict(memo)) for memo in (_CURVES, _PAIRS)]
    try:
        if args.plot:
            _check_plot(args.command, args.plot)
        try:
            with open(args.config, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise RunSpecError("config", str(exc))
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RunSpecError("config", f"invalid JSON: {exc}")
        spec = parse_run_spec(data, hashlib.sha256(raw).hexdigest(),
                              args.command)
        bundle = run(spec, cache_dir=args.cache)
        write_bundle(bundle, args.out)
        if args.plot:
            text = emit_plot_data(bundle, args.plot)
            plot_path = os.path.join(args.out, f"plot_{args.plot}.txt")
            with open(plot_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except RunSpecError as exc:
        print(f"spec error at {exc.path}: {exc.reason}", file=sys.stderr)
        code = 2
    except NumericsError as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        code = 3
    except Exception as exc:  # anything unplanned is still a numeric exit
        print(f"internal failure [{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        code = 3
    else:
        return 0
    for memo, before in kept:  # a failing call leaves both memos unchanged
        memo.clear()
        memo.update(before)
    return code


if __name__ == "__main__":
    sys.exit(main())
