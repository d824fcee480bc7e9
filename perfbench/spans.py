"""Span tracing by wrapping the program's public functions from outside.

``Tracer.install`` replaces each function in ``GROUPS`` at every binding
site: its defining module, every other ``bernbound`` module that imported
it by name, and the package ``__init__``.  Patching module globals also catches calls
within a module.  Each call is a span (name, start, end, parent); spans are
aggregated per (name, parent) as they close, and self time is the span
total minus the time of its direct child spans.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, group) -> wrapped functions; the per-layer metric names are
# <module>.<group>.<calls|s|points|failed>, with s the self time
GROUPS = {
    ("curves", "eval"): ("eval_curve", "curve_derivative", "curve_samples"),
    ("curves", "geometry"): ("distance_to_curve", "point_in_curve",
                             "winding_number"),
    ("conformal", "solve"): ("solve_map_pair", "solve_interior_map",
                             "solve_exterior_map", "normalize_at_anchor"),
    ("conformal", "invert"): ("map_invert", "roundtrip_residual"),
    ("conformal", "eval"): ("map_eval", "map_derivative"),
    ("ratfun", "principal_parts"): ("principal_parts",),
    ("ratfun", "sup_norm"): ("sup_norm",),
    ("ratfun", "classify"): ("classify_poles", "split_inside_outside"),
    ("ratfun", "rf_eval"): ("rf_eval", "rf_derivative", "blaschke_eval",
                            "blaschke_derivative"),
    ("potential", "bound"): ("bernstein_bound", "arc_bound",
                             "domain_normal_derivative"),
    ("potential", "verify"): ("verify_ratio",),
    ("potential", "green"): ("green_domain", "green_disk"),
    ("extremal", "build"): ("build_transferred_extremal", "sharpness_sweep"),
    ("extremal", "leja"): ("leja_points",),
    ("cli", "parse"): ("parse_run_spec",),
    ("cli", "run"): ("run",),
    ("cli", "write"): ("write_bundle",),
}
MODULES = ("curves", "conformal", "ratfun", "potential", "extremal", "cli")

# functions whose second argument is the evaluation points (an int for
# curve_samples, an array or scalar otherwise)
POINT_FUNCS = {"eval_curve", "curve_derivative", "curve_samples", "map_eval",
               "map_derivative", "rf_eval", "rf_derivative", "blaschke_eval",
               "blaschke_derivative"}

# trace.hot_share: the share of program time in the inversion-bound sweep
# path, as (name, parent) self times; parent None matches any parent
HOT_SPANS = (("map_invert", None), ("map_eval", "map_invert"),
             ("map_derivative", "map_invert"), ("principal_parts", None))

# name -> (unit, better): exactly the per-layer metrics reported
LAYER_METRICS = {name: (unit, better) for name, unit, better in (
        ("curves.eval.points", "points/item", "lower"),
        ("curves.geometry.calls", "calls/item", "lower"),
        ("curves.geometry.s", "s/item", "lower"),
        ("curves.geometry.failed", "failed/item", "lower"),
        ("conformal.solve.calls", "calls/item", "lower"),
        ("conformal.solve.s", "s/item", "lower"),
        ("conformal.solve.failed", "failed/item", "lower"),
        ("conformal.invert.calls", "calls/item", "lower"),
        ("conformal.invert.s", "s/item", "lower"),
        ("conformal.invert.failed", "failed/item", "lower"),
        ("conformal.eval.calls", "calls/item", "lower"),
        ("conformal.eval.points", "points/item", "lower"),
        ("conformal.eval.s", "s/item", "lower"),
        ("ratfun.principal_parts.calls", "calls/item", "lower"),
        ("ratfun.principal_parts.s", "s/item", "lower"),
        ("ratfun.principal_parts.failed", "failed/item", "lower"),
        ("ratfun.sup_norm.calls", "calls/item", "lower"),
        ("ratfun.sup_norm.s", "s/item", "lower"),
        ("ratfun.classify.s", "s/item", "lower"),
        ("ratfun.rf_eval.points", "points/item", "lower"),
        ("ratfun.rf_eval.s", "s/item", "lower"),
        ("potential.bound.calls", "calls/item", "lower"),
        ("potential.bound.s", "s/item", "lower"),
        ("potential.verify.s", "s/item", "lower"),
        ("potential.green.s", "s/item", "lower"),
        ("extremal.build.calls", "calls/item", "lower"),
        ("extremal.build.s", "s/item", "lower"),
        ("extremal.leja.s", "s/item", "lower"),
        ("extremal.rows_flagged", "rows/item", "lower"),
        ("cli.parse.s", "s/item", "lower"),
        ("cli.run.s", "s/item", "lower"),
        ("cli.write.s", "s/item", "lower"),
        ("cli.cache.hits", "hits/item", "higher"),
        ("cli.cache.misses", "misses/item", "lower"),
        ("cli.cache.hit_frac", "frac", "higher"),
        *((f"{m}.self_s", "s/item", "lower") for m in MODULES),
        ("trace.overhead", "ratio", "lower"),
        ("trace.hot_share", "frac", "lower"))}


class Recorder:
    """Open-span stack plus per-(name, parent) aggregates.

    Each aggregate holds [calls, total_s, child_s, failed, points]; a
    span's child_s is the summed duration of the spans it directly
    encloses, which in single-threaded code never overlap.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [name, start, child_s]
        self.agg = {}
        self.flagged_rows = 0

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self, failed=False, points=0):
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += dur
        a = self.agg.setdefault((name, parent), [0, 0.0, 0.0, 0, 0])
        a[0] += 1
        a[1] += dur
        a[2] += child
        a[3] += int(failed)
        a[4] += points

    def self_time(self, name, parent=None):
        """Self time of ``name`` spans, under ``parent`` or under any."""
        return sum(a[1] - a[2] for (n, p), a in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def per_name(self):
        """name -> {calls, s (self), failed, points}."""
        out = {}
        for (name, _), (calls, total, child, failed, points) in self.agg.items():
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "failed": 0,
                                        "points": 0})
            row["calls"] += calls
            row["s"] += total - child
            row["failed"] += failed
            row["points"] += points
        return out


def _points(name, args, kwargs):
    if len(args) > 1:
        arg = args[1]
    elif kwargs:
        arg = next(iter(kwargs.values()))
    else:
        return 0
    return int(arg) if name == "curve_samples" else int(np.size(arg))


def _wrap(fn, rec):
    name = fn.__name__
    counts_points = name in POINT_FUNCS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        points = _points(name, args, kwargs) if counts_points else 0
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.exit(True, points)
            raise
        rec.exit(False, points)
        if name == "sharpness_sweep":
            rec.flagged_rows += sum(1 for row in result if row.flags)
        return result

    return wrapper


class Tracer:
    """Installs wrappers around every function in GROUPS and removes them."""

    def __init__(self, recorder):
        self.rec = recorder
        self.patched = []  # (module, attribute, original)

    def install(self):
        import bernbound

        originals = {}
        for (module, _), names in GROUPS.items():
            mod = sys.modules[f"bernbound.{module}"]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:  # removed by a later change: its metrics read 0
                    continue
                originals[id(fn)] = (fn, _wrap(fn, self.rec))
        sites = [mod for name, mod in list(sys.modules.items())
                 if name == "bernbound" or name.startswith("bernbound.")]
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.patched.append((mod, attr, value))

    def remove(self):
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched = []


def layer_metrics(rec, items, hits, misses, overhead, busy_s):
    """The LAYER_METRICS values of one traced pass, per attempted item."""
    per = rec.per_name()
    items = max(items, 1)
    out = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for (module, group), names in GROUPS.items():
        rows = [per.get(n, {"calls": 0, "s": 0.0, "failed": 0, "points": 0})
                for n in names]
        for field in ("calls", "s", "failed", "points"):
            out[f"{module}.{group}.{field}"] = sum(r[field] for r in rows) / items
        module_self[module] += sum(r["s"] for r in rows)
    for module, s in module_self.items():
        out[f"{module}.self_s"] = s / items
    out["extremal.rows_flagged"] = rec.flagged_rows / items
    out["cli.cache.hits"] = hits / items
    out["cli.cache.misses"] = misses / items
    out["cli.cache.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.overhead"] = overhead
    hot = sum(rec.self_time(n, p) for n, p in HOT_SPANS)
    out["trace.hot_share"] = hot / busy_s if busy_s > 0 else 0.0
    return {name: out[name] for name in LAYER_METRICS}
