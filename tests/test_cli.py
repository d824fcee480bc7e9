import copy
import csv
import functools
import hashlib
import json
import math
import operator
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bernbound
from bernbound import __version__, boundary_point, ellipse
from bernbound.cli import build_parser, fmt12, main, parse_run_spec
from bernbound.errors import RunSpecError

SPECS = Path(__file__).resolve().parent.parent / "specs"
PYPROJECT = SPECS.parent / "pyproject.toml"


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def run_cli(command, config, out, *extra):
    return main([command, "--config", str(config), "--out", str(out),
                 *map(str, extra)])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def bound_data(**over):
    data = {"command": "bound", "curve": {"kind": "circle"}, "t": 0.0,
            "poles": [{"point": [0.0, 0.0], "order": 5}]}
    data.update(over)
    return data


def sharp_data(**over):
    inner = {"interior_poles": [[0.0, 0.0]], "zeta0": [3.0, 0.0],
             "n_list": [1, 2], "policy": "repeat_single_pole"}
    inner.update(over)
    return {"command": "sharpness", "curve": {"kind": "circle"}, "t": 0.0,
            "sharpness": inner}


VERIFY_SEGMENT = {"command": "verify", "arc": {"kind": "segment"},
                  "point": [0.1, 0.0],
                  "function": {"kind": "blaschke", "points": [[0.0, 0.5]]}}

# one spec per curve kind, arc kind and function kind, in the shapes of the
# generated batch specs; the shipped specs cover the rest of the schema
KIND_SPECS = {
    "circle": {"command": "bound",
               "curve": {"kind": "circle", "radius": 1.3,
                         "center": [0.2, -0.1]},
               "t": 0.7,
               "poles": [{"point": [0.3, 0.1], "order": 2},
                         {"point": [3.0, 1.0], "order": 1},
                         {"point": "inf", "order": 1}]},
    "ellipse": {"command": "verify", "curve": {"kind": "ellipse", "a": 1.2,
                                               "b": 0.8},
                "t": 0.4,
                "function": {"kind": "partial_fractions",
                             "terms": [{"pole": [0.1, 0.2],
                                        "coeffs": [[1.0, 0.5], [0.2, 0.0]]},
                                       {"pole": [2.5, 0.0],
                                        "coeffs": [[0.3, 0.0]]}],
                             "poly": [[0.1, 0.0], [1.0, 0.0]]}},
    "trig": {"command": "map",
             "curve": {"kind": "trig",
                       "pairs": [[1, [1.0, 0.0]], [-1, [0.1, 0.0]]]},
             "t": 0.2},
    "segment": {"command": "bound",
                "arc": {"kind": "segment", "za": [-1.2, 0.1],
                        "zb": [0.9, -0.2]},
                "point": [0.0, 0.0],
                "poles": [{"point": [0.0, 1.0], "order": 2},
                          {"point": "inf", "order": 1}]},
    "circular": {"command": "verify",
                 "arc": {"kind": "circular", "theta0": 0.8, "radius": 1.1,
                         "center": [0.1, 0.0], "rotation": 0.5},
                 "point": [0.1 + 1.1 * math.cos(0.6), 1.1 * math.sin(0.6)],
                 "function": {"kind": "blaschke",
                              "points": [[0.5, 0.0], [0.0, 0.3]]}},
}


class TestFmt12:
    def test_fixed_width_scientific(self):
        assert fmt12(5.0) == "5.00000000000e+00"
        assert fmt12(0.0) == "0.00000000000e+00"
        assert fmt12(-1.5e-11) == "-1.50000000000e-11"

    def test_non_finite(self):
        assert fmt12(float("inf")) == "inf"
        assert fmt12(float("-inf")) == "-inf"
        assert fmt12(float("nan")) == "nan"

    def test_roundtrip(self):
        for x in (1 / 3, math.pi, 2.0 ** 100, 6.02e23, -9.109e-31):
            assert float(fmt12(x)) == pytest.approx(x, rel=1e-11)

    def test_matches_numpy_formatter(self):
        # numpy's correctly rounded formatter is the reference: signed zeros,
        # subnormals, the extremes, random bit patterns, and exact decimal
        # ties at the 12th significant digit (both round half to even)
        rng = np.random.default_rng(1729)
        bits = rng.integers(0, 2 ** 63, size=20000, dtype=np.uint64)
        bits |= rng.integers(0, 2, size=20000,
                             dtype=np.uint64) << np.uint64(63)
        patterns = bits.view(np.float64)
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        special = [0.0, -0.0, 5e-324, -5e-324, tiny, tiny / 3, -tiny, huge,
                   -huge, 1.0, -1.0, 0.5, 1e-300, 1e300, 9.999999999995]
        # q + f with f in {.5, .25, .75}: 13 significant digits ending in 5
        ties = np.concatenate([
            10.0 * rng.integers(10 ** 11, 10 ** 12, size=5000) + 5.0,
            rng.integers(10 ** 11, 10 ** 12, size=5000) + 0.5,
            rng.integers(10 ** 10, 10 ** 11, size=5000) + 0.25,
            rng.integers(10 ** 10, 10 ** 11, size=5000) + 0.75])
        values = np.concatenate([patterns[np.isfinite(patterns)], special,
                                 ties, -ties])
        for x in values.tolist():
            assert fmt12(x) == np.format_float_scientific(
                x, precision=11, unique=False, exp_digits=2), x


BAD_SPECS = [
    ({"command": "fly"}, "command"),
    (bound_data(frobnicate=1), "frobnicate"),
    ({"command": "bound", "t": 0.0, "poles": []}, "curve"),
    (bound_data(arc={"kind": "segment"}), "arc"),
    (bound_data(curve={"kind": "square"}), "curve.kind"),
    (bound_data(curve={"kind": "ellipse", "a": 1.2}), "curve.b"),
    (bound_data(curve={"kind": "circle", "radius": -1.0}), "curve.radius"),
    (bound_data(curve={"kind": "trig", "pairs": []}), "curve.pairs"),
    ({k: v for k, v in bound_data().items() if k != "t"}, "t"),
    (bound_data(poles=[{"point": [0.0], "order": 1}]), "poles[0].point"),
    (bound_data(poles=[{"point": [0.0, 0.0], "order": 0}]),
     "poles[0].order"),
    ({"command": "verify", "arc": {"kind": "segment"}, "point": [0.1, 0.0],
      "function": {"kind": "spline"}}, "function.kind"),
    ({"command": "verify", "arc": {"kind": "segment"}, "point": [0.1, 0.0],
      "function": {"kind": "blaschke", "points": []}}, "function.points"),
    ({"command": "verify", "arc": {"kind": "segment"}, "point": [0.1, 0.0],
      "function": {"kind": "partial_fractions", "terms": []}},
     "function.terms"),
    ({"command": "verify", "arc": {"kind": "segment",
                                   "za": [0.0, 0.0], "zb": [0.0, 0.0]},
      "point": [0.1, 0.0],
      "function": {"kind": "blaschke", "points": [[0.0, 0.5]]}}, "arc.zb"),
    ({"command": "verify", "arc": {"kind": "circular", "theta0": 4.0},
      "point": [1.0, 0.5],
      "function": {"kind": "blaschke", "points": [[0.0, 0.5]]}},
     "arc.theta0"),
    ({"command": "sharpness", "curve": {"kind": "circle"}, "t": 0.0,
      "sharpness": {"interior_poles": [[0.0, 0.0]], "n_list": [1]}},
     "sharpness.zeta0"),
    (sharp_data(extra=1), "sharpness.extra"),
    (sharp_data(policy="fancy"), "sharpness.policy"),
    (sharp_data(n_list=[1, True]), "sharpness.n_list[1]"),
    ({"command": "greens", "curve": {"kind": "circle"},
      "greens": {"poles": ["inf"]}}, "greens.probes"),
    # a key that the object, or the command, does not read
    (bound_data(curve={"kind": "circle", "raduis": 2.0}), "curve.raduis"),
    (bound_data(poles=[{"point": [0.5, 0.0], "ordr": 3}, {"point": "inf"}]),
     "poles[0].ordr"),
    ({"command": "verify", "arc": {"kind": "segment"}, "point": [0.1, 0.0],
      "function": {"kind": "partial_fractions", "terms": [],
                   "polly": [[0.0, 0.0], [1.0, 0.0]]}}, "function.polly"),
    (bound_data(sup_m=4096), "sup_m"),
    (bound_data(point=[1.0, 0.0]), "point"),
    # removed knobs: even their old default values are unknown fields
    (bound_data(threads=1), "threads"),
    (bound_data(seed=1729), "seed"),
    (bound_data(tol_map=1e-11), "tol_map"),
    (bound_data(tol_q=1e-9), "tol_q"),
    (bound_data(m_map=1024), "m_map"),
]


class TestSpecParsing:
    @pytest.mark.parametrize("data,path", BAD_SPECS,
                             ids=[p for _, p in BAD_SPECS])
    def test_error_paths(self, data, path):
        with pytest.raises(RunSpecError) as err:
            parse_run_spec(data, "deadbeef")
        assert err.value.path == path

    def test_non_object_spec(self):
        with pytest.raises(RunSpecError) as err:
            parse_run_spec([1, 2], "deadbeef")
        assert err.value.path == ""

    @pytest.mark.parametrize("key,value", [("threads", 1), ("seed", 1729),
                                           ("tol_map", 1e-11), ("tol_q", 1e-9),
                                           ("m_map", 1024)])
    def test_removed_knobs_are_unknown_fields(self, tmp_path, capsys, key,
                                              value):
        # a sharpness spec, the one command that read tol_q
        out = tmp_path / "out"
        spec = write_spec(tmp_path, sharp_data() | {key: value})
        assert run_cli("sharpness", spec, out) == 2
        assert f"spec error at {key}: unknown field" in capsys.readouterr().err
        assert not out.exists()

    def test_sup_m_floor(self):
        with pytest.raises(RunSpecError) as err:
            parse_run_spec(VERIFY_SEGMENT | {"sup_m": 8}, "deadbeef")
        assert err.value.path == "sup_m"
        assert "at least 16" in err.value.reason

    def test_unknown_command_comes_before_unknown_keys(self):
        with pytest.raises(RunSpecError) as err:
            parse_run_spec({"command": "fly", "frobnicate": 1}, "deadbeef")
        assert err.value.path == "command"

    def test_curve_only_commands_name_the_curve(self):
        data = {"command": "map", "arc": {"kind": "segment"},
                "point": [0.0, 0.0]}
        with pytest.raises(RunSpecError) as err:
            parse_run_spec(data, "deadbeef")
        assert err.value.path == "curve"
        assert "map requires a curve" in err.value.reason

    def test_command_mismatch_names_both(self):
        with pytest.raises(RunSpecError) as err:
            parse_run_spec(bound_data(), "deadbeef", cli_command="verify")
        assert err.value.path == "command"
        assert "spec says 'bound'" in err.value.reason
        assert "invoked with 'verify'" in err.value.reason

    def test_shipped_specs_parse(self):
        for path in sorted(SPECS.glob("*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            spec = parse_run_spec(data, "deadbeef", data["command"])
            assert spec.command == data["command"]

    def test_defaults(self):
        spec = parse_run_spec(bound_data(), "deadbeef")
        assert spec.sup_m is None


class TestBoundCommand:
    def test_circle_example(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("bound", SPECS / "bound_circle.json", out) == 0
        header, rows = read_csv(out / "summary.csv")
        assert header == ["t", "point_re", "point_im", "inner_sum",
                          "outer_sum", "bound"]
        assert len(rows) == 1
        assert rows[0][5] == "5.00000000000e+00"
        assert rows[0][3] == "5.00000000000e+00"
        assert rows[0][4] == "0.00000000000e+00"
        iheader, irows = read_csv(out / "items.csv")
        assert iheader == ["index", "pole_re", "pole_im", "side", "value"]
        assert len(irows) == 5
        assert all(r[3] == "inner" and r[4] == "1.00000000000e+00"
                   for r in irows)

    def test_segment_poles_at_infinity(self, tmp_path):
        spec = write_spec(tmp_path, {
            "command": "bound", "arc": {"kind": "segment"},
            "point": [0.0, 0.0],
            "poles": [{"point": "inf", "order": 5}]})
        out = tmp_path / "out"
        assert run_cli("bound", spec, out) == 0
        _, rows = read_csv(out / "summary.csv")
        assert rows[0][0] == "nan"
        assert rows[0][5] == "5.00000000000e+00"

    def test_contributions_plot(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("bound", SPECS / "bound_circle.json", out,
                       "--plot", "contributions") == 0
        lines = (out / "plot_contributions.txt").read_text().splitlines()
        sha = hashlib.sha256((SPECS / "bound_circle.json")
                             .read_bytes()).hexdigest()
        assert lines[0] == f"# spec_sha256={sha}"
        assert lines[1] == "# pole_index contribution"
        assert lines[2:] == [f"{i} 1.00000000000e+00" for i in range(5)]


class TestVerifyCommand:
    def test_chebyshev_example(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("verify", SPECS / "verify_chebyshev.json", out) == 0
        header, rows = read_csv(out / "summary.csv")
        assert header == ["t", "point_re", "point_im", "deriv_mod",
                          "sup_norm", "sup_arg", "bound", "ratio",
                          "rough_ratio", "degree"]
        assert rows[0][0] == "nan"
        assert rows[0][9] == "5"
        want = abs(math.sin(5.0 * math.acos(0.1)))
        assert abs(float(rows[0][7]) - want) < 1e-8
        assert abs(float(rows[0][4]) - 1.0) < 1e-8


class TestSharpnessCommand:
    def test_circle_identity(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sharpness", SPECS / "sharpness_circle.json",
                       out) == 0
        header, rows = read_csv(out / "summary.csv")
        assert header == ["n", "N6", "r_n", "bound", "sup_norm",
                          "deriv_mod", "residual_flags"]
        assert [r[0] for r in rows] == ["1", "5", "10"]
        assert [r[1] for r in rows] == ["1", "3", "6"]
        for r in rows:
            assert abs(float(r[2]) - 1.0) <= 1e-6
            assert r[6] == ""
        _, irows = read_csv(out / "items.csv")
        assert {r[0] for r in irows} == {"1", "5", "10"}

    def test_ratio_plot(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sharpness", SPECS / "sharpness_circle.json", out,
                       "--plot", "ratio_vs_n") == 0
        lines = (out / "plot_ratio_vs_n.txt").read_text().splitlines()
        assert lines[1] == "# n r_n"
        assert len(lines) == 5
        for line in lines[2:]:
            n, r = line.split()
            assert abs(float(r) - 1.0) <= 1e-6

    def test_pole_outside_the_curve_is_exit_3(self, tmp_path, capsys):
        spec = write_spec(tmp_path, sharp_data(interior_poles=[[1.05, 0.0]]))
        assert run_cli("sharpness", spec, tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "[ExtremalError]: interior pole (1.05+0j) does not lie " \
            "inside the curve" in err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_empty_sweep_header_only(self, tmp_path):
        spec = write_spec(tmp_path, sharp_data(n_list=[]))
        out = tmp_path / "out"
        assert run_cli("sharpness", spec, out, "--plot", "ratio_vs_n") == 0
        _, rows = read_csv(out / "summary.csv")
        assert rows == []
        lines = (out / "plot_ratio_vs_n.txt").read_text().splitlines()
        assert len(lines) == 2


class TestMapCommand:
    def test_ellipse_report(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("map", SPECS / "map_ellipse.json", out) == 0
        header, rows = read_csv(out / "summary.csv")
        assert header == ["side", "anchor_re", "anchor_im",
                          "anchor_deriv_re", "anchor_deriv_im", "delta",
                          "tail", "n_coeffs"]
        assert [r[0] for r in rows] == ["interior", "exterior"]
        u0 = boundary_point(ellipse(1.2, 0.8), 0.4)
        for r in rows:
            anchor = complex(float(r[1]), float(r[2]))
            assert abs(anchor - u0.point) < 1e-9
            deriv_mod = math.hypot(float(r[3]), float(r[4]))
            assert abs(deriv_mod - 1.0) < 1e-8
            assert float(r[5]) > 0.0
            assert float(r[6]) < 1e-10
        _, irows = read_csv(out / "items.csv")
        assert len(irows) == sum(int(r[7]) for r in rows)


class TestGreensCommand:
    def test_ellipse_exterior_poles(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("greens", SPECS / "greens_ellipse.json", out) == 0
        header, rows = read_csv(out / "summary.csv")
        assert header == ["pole_index", "pole_re", "pole_im", "inside",
                          "n_probes", "min_value", "max_value"]
        assert len(rows) == 2
        assert rows[0][1] == "inf"
        for r in rows:
            assert r[3] == "0"
            assert r[4] == "2"
            assert float(r[5]) > 0.0
            assert float(r[6]) >= float(r[5])
        _, irows = read_csv(out / "items.csv")
        assert len(irows) == 4

    def test_probe_pole_side_mismatch(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "command": "greens", "curve": {"kind": "circle"},
            "greens": {"poles": [[0.0, 0.1]],
                       "probes": [[2.0, 0.0]]}})
        assert run_cli("greens", spec, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "spec error at greens.probes[0]:" in err
        assert "opposite sides" in err

    def test_first_mismatched_probe_is_named(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "command": "greens", "curve": {"kind": "circle"},
            "greens": {"poles": [[0.0, 0.1], [0.2, 0.0]],
                       "probes": [[0.5, 0.0], [2.0, 0.0], [3.0, 0.0]]}})
        assert run_cli("greens", spec, tmp_path / "out") == 2
        assert "spec error at greens.probes[1]:" in capsys.readouterr().err

    def test_probe_on_the_curve_is_a_curve_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "command": "greens", "curve": {"kind": "circle"},
            "greens": {"poles": [[0.0, 0.1]],
                       "probes": [[0.5, 0.0], [1.0, 0.0]]}})
        assert run_cli("greens", spec, tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "[CurveError]" in err
        assert "(1+0j) is on (or too close to) the curve" in err


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("bound", tmp_path / "absent.json",
                       tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("spec error at config:")

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli("bound", bad, tmp_path / "out") == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_malformed_trio(self, tmp_path, capsys):
        cases = [("bound", "missing_curve.json", "curve"),
                 ("bound", "bad_pole.json", "poles[0].point"),
                 ("sharpness", "bad_policy.json", "sharpness.policy")]
        for command, name, path in cases:
            code = run_cli(command, SPECS / "malformed" / name,
                           tmp_path / "out")
            assert code == 2
            assert f"spec error at {path}:" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path, capsys):
        assert run_cli("verify", SPECS / "bound_circle.json",
                       tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "spec says 'bound' but the CLI was invoked with 'verify'" \
            in err

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        spec = write_spec(tmp_path, bound_data(
            poles=[{"point": [1.0, 0.0], "order": 1}]))
        assert run_cli("bound", spec, tmp_path / "out") == 3
        assert "numerical failure [PoleError]" in capsys.readouterr().err

    def test_plot_kind_mismatch(self, tmp_path, capsys):
        assert run_cli("bound", SPECS / "bound_circle.json",
                       tmp_path / "out", "--plot", "ratio_vs_n") == 2
        assert "spec error at plot:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_unknown_plot_kind(self, tmp_path, capsys):
        assert run_cli("bound", SPECS / "bound_circle.json",
                       tmp_path / "out", "--plot", "pie") == 2
        assert "unknown plot kind" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_map_emits_no_plot(self, tmp_path, capsys):
        assert run_cli("map", SPECS / "map_ellipse.json", tmp_path / "out",
                       "--plot", "contributions") == 2
        assert "contributions needs a bound or verify bundle, got 'map'" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def sub_path(path, key):
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def object_paths(obj, path="", keys=()):
    """(field path, key sequence) of every object in a spec, itself first."""
    if isinstance(obj, dict):
        yield path, keys
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return
    for key, value in children:
        yield from object_paths(value, sub_path(path, key), keys + (key,))


def edited(data, keys):
    """A deep copy of data and the copy's object at keys."""
    out = copy.deepcopy(data)
    return out, functools.reduce(operator.getitem, keys, out)


SCHEMA_SPECS = {**{path.stem: json.loads(path.read_text(encoding="utf-8"))
                   for path in sorted(SPECS.glob("*.json"))},
                **KIND_SPECS}
OPTIONAL_KEYS = {"radius", "center", "za", "zb", "rotation", "order", "poly",
                 "policy", "sup_m"}

# (spec that omits optional keys, [(object keys, the keys at their defaults)])
DEFAULTS_WRITTEN = [
    (bound_data(poles=[{"point": [0.2, 0.1]}, {"point": "inf", "order": 2}]),
     [(("curve",), {"radius": 1.0, "center": [0.0, 0.0]}),
      (("poles", 0), {"order": 1})]),
    ({"command": "verify", "arc": {"kind": "segment"}, "point": [0.1, 0.0],
      "function": {"kind": "partial_fractions",
                   "terms": [{"pole": [0.3, 0.5], "coeffs": [[1.0, 0.0]]}]}},
     [(("arc",), {"za": [-1.0, 0.0], "zb": [1.0, 0.0]}),
      (("function",), {"poly": []})]),
    ({"command": "bound", "arc": {"kind": "circular", "theta0": 0.8},
      "point": [math.cos(0.2), math.sin(0.2)],
      "poles": [{"point": [0.0, 0.0]}, {"point": [2.0, 1.0], "order": 2}]},
     [(("arc",), {"radius": 1.0, "center": [0.0, 0.0], "rotation": 0.0}),
      (("poles", 0), {"order": 1})]),
    ({"command": "sharpness", "curve": {"kind": "circle"}, "t": 0.3,
      "sharpness": {"interior_poles": [[0.0, 0.0], [0.2, 0.1]],
                    "zeta0": [3.0, 0.0], "n_list": [1, 3]}},
     [(("sharpness",), {"policy": "cycle_list"})]),
    (SCHEMA_SPECS["greens_ellipse"],
     [((), {"t": 0.0})]),
]


class TestSchema:
    """Every object of a spec accepts exactly its documented keys."""

    @pytest.mark.parametrize("name", sorted(SCHEMA_SPECS))
    def test_unknown_key_at_every_level(self, tmp_path, capsys, name):
        data = SCHEMA_SPECS[name]
        out = tmp_path / "out"
        for path, keys in object_paths(data):
            spec, node = edited(data, keys)
            node["zz_extra"] = 1
            assert run_cli(data["command"], write_spec(tmp_path, spec),
                           out) == 2
            err = capsys.readouterr().err
            assert f"spec error at {sub_path(path, 'zz_extra')}: " \
                "unknown field" in err
            assert not out.exists()

    @pytest.mark.parametrize("name", sorted(SCHEMA_SPECS))
    def test_each_missing_required_key_is_named(self, tmp_path, capsys,
                                                name):
        data = SCHEMA_SPECS[name]
        for path, keys in object_paths(data):
            for key in edited(data, keys)[1]:
                if key in OPTIONAL_KEYS or (
                        data["command"] == "greens" and key == "t"):
                    continue
                spec, node = edited(data, keys)
                del node[key]
                # an arc spec without its arc reads as a curve spec
                want = "curve" if keys + (key,) == ("arc",) \
                    else sub_path(path, key)
                assert run_cli(data["command"], write_spec(tmp_path, spec),
                               tmp_path / "out") == 2
                assert f"spec error at {want}: missing required field" \
                    in capsys.readouterr().err

    @pytest.mark.parametrize("data,fills", DEFAULTS_WRITTEN,
                             ids=["circle", "segment", "circular",
                                  "sharpness", "greens"])
    def test_defaults_written_out_change_nothing(self, tmp_path, data,
                                                 fills):
        full = copy.deepcopy(data)
        for keys, values in fills:
            functools.reduce(operator.getitem, keys, full).update(values)
        outs = []
        for name, spec in (("omitted", data), ("written", full)):
            outs.append(tmp_path / name)
            config = write_spec(tmp_path, spec, f"{name}.json")
            assert run_cli(data["command"], config, outs[-1]) == 0
        for name in ("summary.csv", "items.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run_cli("bound", SPECS / "bound_circle.json", out) == 0
        for name in ("summary.csv", "items.csv"):
            assert (outs[0] / name).read_bytes() \
                == (outs[1] / name).read_bytes()
        provs = [json.loads((out / "provenance.json").read_text())
                 for out in outs]
        for p in provs:
            assert p.pop("wall_time_s") >= 0.0
            assert p["version"] == __version__
        assert provs[0] == provs[1]

    def test_provenance_keys(self, tmp_path):
        assert run_cli("sharpness", SPECS / "sharpness_circle.json",
                       tmp_path) == 0
        prov = json.loads((tmp_path / "provenance.json").read_text())
        assert set(prov) == {"command", "spec_sha256", "version",
                             "wall_time_s"}


class TestParserReuse:
    """main builds the argument parser once per process and reuses it."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_in_process_calls_give_identical_bundles(self, tmp_path):
        specs = sorted(SPECS.glob("*.json"))
        for rep in ("a", "b"):
            for spec in specs:
                command = json.loads(spec.read_text())["command"]
                assert run_cli(command, spec, tmp_path / rep / spec.stem) == 0
        for spec in specs:
            for name in ("summary.csv", "items.csv"):
                assert (tmp_path / "a" / spec.stem / name).read_bytes() == \
                    (tmp_path / "b" / spec.stem / name).read_bytes()

    def test_exit_codes_survive_reuse(self, tmp_path, capsys):
        usage_errors = ([], ["nosuch"], ["bound"], ["bound", "--config"],
                        ["bound", "--config", "x.json", "--bogus"])
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.strip() == __version__
            for argv in usage_errors:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert capsys.readouterr().err.startswith("usage: bern")
            assert run_cli("bound", SPECS / "malformed" / "missing_curve.json",
                           tmp_path / "bad") == 2
            assert "spec error at curve:" in capsys.readouterr().err
            assert run_cli("bound", SPECS / "bound_circle.json",
                           tmp_path / "ok") == 0


class TestMapCache:
    def test_cache_roundtrip_matches_fresh_solve(self, tmp_path):
        fresh = tmp_path / "fresh"
        assert run_cli("map", SPECS / "map_ellipse.json", fresh) == 0
        cache = tmp_path / "cache"
        warm, reread = tmp_path / "warm", tmp_path / "reread"
        assert run_cli("map", SPECS / "map_ellipse.json", warm,
                       "--cache", cache) == 0
        stored = list(cache.glob("*.json"))
        assert len(stored) == 1
        assert run_cli("map", SPECS / "map_ellipse.json", reread,
                       "--cache", cache) == 0
        assert list(cache.glob("*.json")) == stored
        for name in ("summary.csv", "items.csv"):
            fresh_bytes = (fresh / name).read_bytes()
            assert (warm / name).read_bytes() == fresh_bytes
            assert (reread / name).read_bytes() == fresh_bytes

    def test_truncated_entry_is_solved_fresh(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cold, again = tmp_path / "cold", tmp_path / "again"
        assert run_cli("map", SPECS / "map_ellipse.json", cold,
                       "--cache", cache) == 0
        (entry,) = cache.glob("*.json")
        text = entry.read_text(encoding="utf-8")
        entry.write_text(text[:len(text) // 2], encoding="utf-8")
        assert run_cli("map", SPECS / "map_ellipse.json", again,
                       "--cache", cache) == 0
        assert capsys.readouterr().err == ""
        for name in ("summary.csv", "items.csv"):
            assert (again / name).read_bytes() == (cold / name).read_bytes()
        # the torn entry was overwritten by the fresh solve, atomically
        assert entry.read_text(encoding="utf-8") == text
        assert sorted(p.name for p in cache.iterdir()) == [entry.name]


    def test_entry_of_another_version_is_solved_fresh(self, tmp_path,
                                                      monkeypatch):
        import bernbound.cli as cli
        cache = tmp_path / "cache"
        monkeypatch.setattr(cli, "__version__", "0.0.0")
        assert run_cli("map", SPECS / "map_ellipse.json", tmp_path / "old",
                       "--cache", cache) == 0
        (old_entry,) = cache.glob("*.json")
        monkeypatch.undo()
        solves = []
        real_solve = cli.solve_map_pair

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_map_pair", counting_solve)
        assert run_cli("map", SPECS / "map_ellipse.json", tmp_path / "new",
                       "--cache", cache) == 0
        assert len(solves) == 1
        new_entries = set(cache.glob("*.json")) - {old_entry}
        assert len(new_entries) == 1
        for name in ("summary.csv", "items.csv"):
            assert (tmp_path / "new" / name).read_bytes() == \
                (tmp_path / "old" / name).read_bytes()

    def test_entry_of_the_old_format_is_solved_fresh(self, tmp_path,
                                                     monkeypatch):
        # the 0.1.2 entry held the boundary correspondence corr_t, no grid
        import bernbound.cli as cli
        cache = tmp_path / "cache"
        assert run_cli("map", SPECS / "map_ellipse.json", tmp_path / "cold",
                       "--cache", cache) == 0
        (entry,) = cache.glob("*.json")
        text = entry.read_text(encoding="utf-8")
        stored = json.loads(text)
        for side in stored.values():
            m = side.pop("grid")
            side["corr_t"] = [2 * math.pi * j / m for j in range(m)]
        entry.write_text(json.dumps(stored), encoding="utf-8")
        solves = []
        real_solve = cli.solve_map_pair

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_map_pair", counting_solve)
        assert run_cli("map", SPECS / "map_ellipse.json", tmp_path / "again",
                       "--cache", cache) == 0
        assert len(solves) == 1
        for name in ("summary.csv", "items.csv"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (tmp_path / "cold" / name).read_bytes()
        assert entry.read_text(encoding="utf-8") == text
        assert sorted(p.name for p in cache.iterdir()) == [entry.name]


# one curve spec per command: the shipped ones, and a verify on a curve
# (the shipped verify spec is on an arc)
VERIFY_ELLIPSE = {"command": "verify",
                  "curve": {"kind": "ellipse", "a": 1.2, "b": 0.8}, "t": 0.4,
                  "function": {"kind": "partial_fractions",
                               "terms": [{"pole": [0.1, 0.2],
                                          "coeffs": [[1.0, 0.5]]},
                                         {"pole": [2.0, -1.0],
                                          "coeffs": [[0.3, 0.0], [0.0, 1.0]]}],
                               "poly": [[0.5, 0.0], [0.0, 0.2]]}}


def curve_spec(tmp_path, command):
    if command == "verify":
        return write_spec(tmp_path, VERIFY_ELLIPSE, "verify_ellipse.json")
    (path,) = [p for p in SPECS.glob("*.json")
               if json.loads(p.read_text())["command"] == command]
    return path


def bundle_bytes(out):
    return [(out / name).read_bytes() for name in ("summary.csv", "items.csv")]


class TestProcessMemos:
    """main shares each curve (cli._CURVES) and each parsed map-cache entry
    (cli._PAIRS) between calls in one process."""

    @pytest.fixture(autouse=True)
    def memos(self):
        import bernbound.cli as cli
        cli._CURVES.clear()
        cli._PAIRS.clear()
        yield cli
        cli._CURVES.clear()
        cli._PAIRS.clear()

    @pytest.mark.parametrize("command",
                             ["bound", "verify", "sharpness", "map", "greens"])
    def test_repeated_hit_matches_emptied_memos(self, tmp_path, monkeypatch,
                                                memos, command):
        spec, cache = curve_spec(tmp_path, command), tmp_path / "cache"
        for out in ("cold", "first_hit"):
            assert run_cli(command, spec, tmp_path / out, "--cache", cache) == 0
        (curve,) = memos._CURVES.values()
        assert len(memos._PAIRS) == 1
        parses = []
        monkeypatch.setattr(memos, "map_from_dict",
                            lambda d: parses.append(d))
        assert run_cli(command, spec, tmp_path / "hit", "--cache", cache) == 0
        assert parses == []  # served from the memo ...
        (shared,) = memos._CURVES.values()
        assert shared is curve  # ... on the one curve object
        monkeypatch.undo()
        memos._CURVES.clear()
        memos._PAIRS.clear()
        assert run_cli(command, spec, tmp_path / "emptied",
                       "--cache", cache) == 0
        want = bundle_bytes(tmp_path / "emptied")
        for out in ("cold", "first_hit", "hit"):
            assert bundle_bytes(tmp_path / out) == want

    def test_rewritten_entry_is_served_from_its_new_bytes(self, tmp_path,
                                                          memos):
        cache = tmp_path / "cache"
        for out in ("cold", "hit"):
            assert run_cli("map", SPECS / "map_ellipse.json", tmp_path / out,
                           "--cache", cache) == 0
        (entry,) = cache.glob("*.json")
        stored = json.loads(entry.read_text(encoding="utf-8"))
        stored["interior"]["tail"] = 1.25e-13
        entry.write_text(json.dumps(stored), encoding="utf-8")
        assert run_cli("map", SPECS / "map_ellipse.json", tmp_path / "new",
                       "--cache", cache) == 0
        _, rows = read_csv(tmp_path / "new" / "summary.csv")
        _, old_rows = read_csv(tmp_path / "hit" / "summary.csv")
        assert rows[0][6] == fmt12(1.25e-13) != old_rows[0][6]
        assert rows[1] == old_rows[1]
        assert len(memos._PAIRS) == 2

    def test_truncated_memoized_entry_is_solved_fresh(self, tmp_path,
                                                      monkeypatch, memos):
        cache = tmp_path / "cache"
        for out in ("cold", "hit"):
            assert run_cli("map", SPECS / "map_ellipse.json", tmp_path / out,
                           "--cache", cache) == 0
        (entry,) = cache.glob("*.json")
        text = entry.read_text(encoding="utf-8")
        entry.write_text(text[:len(text) // 2], encoding="utf-8")
        solves = []
        real_solve = memos.solve_map_pair
        monkeypatch.setattr(memos, "solve_map_pair",
                            lambda *a: solves.append(a) or real_solve(*a))
        assert run_cli("map", SPECS / "map_ellipse.json", tmp_path / "again",
                       "--cache", cache) == 0
        assert len(solves) == 1
        assert bundle_bytes(tmp_path / "again") == bundle_bytes(tmp_path / "cold")
        assert entry.read_text(encoding="utf-8") == text

    def test_memos_hold_at_most_their_cap(self, tmp_path, memos):
        cache = tmp_path / "cache"
        for j in range(9):
            spec = write_spec(tmp_path, {"command": "map", "t": 0.25 * j,
                                         "curve": {"kind": "circle",
                                                   "radius": 1.0 + 0.1 * j}})
            for _ in range(2):  # a cold solve, then a hit
                assert run_cli("map", spec, tmp_path / "out",
                               "--cache", cache) == 0
                assert len(memos._CURVES) <= memos._PROCESS_MEMO_CAP
                assert len(memos._PAIRS) <= memos._PROCESS_MEMO_CAP
        assert len(memos._CURVES) == len(memos._PAIRS) == 8
        # first in, first out: the first curve went
        assert [c.params[0] for c in memos._CURVES.values()] == \
            [1.0 + 0.1 * j for j in range(1, 9)]

    def test_failing_call_leaves_no_entry(self, tmp_path, capsys, memos):
        cache = tmp_path / "cache"
        good = SPECS / "greens_ellipse.json"
        assert run_cli("greens", good, tmp_path / "warm", "--cache", cache) == 0
        memos._CURVES.clear()
        memos._PAIRS.clear()
        # the entry is read (a hit) before the probes fail their check
        data = json.loads(good.read_text())
        data["greens"]["probes"].append([0.0, 0.0])
        bad = write_spec(tmp_path, data)
        assert run_cli("greens", bad, tmp_path / "bad", "--cache", cache) == 2
        assert memos._CURVES == {} and memos._PAIRS == {}
        # a numerical failure, and one on a new curve, with memos held
        assert run_cli("greens", good, tmp_path / "ok", "--cache", cache) == 0
        assert run_cli("greens", good, tmp_path / "ok", "--cache", cache) == 0
        before = [list(m.items()) for m in (memos._CURVES, memos._PAIRS)]
        capsys.readouterr()
        for data in (sharp_data(interior_poles=[[5.0, 0.0]]),
                     bound_data(curve={"kind": "circle", "radius": 2.0},
                                poles=[{"point": [2.0, 0.0], "order": 1}])):
            spec = write_spec(tmp_path, data)
            assert run_cli(data["command"], spec, tmp_path / "fail",
                           "--cache", cache) == 3
        assert [list(m.items()) for m in (memos._CURVES, memos._PAIRS)] == \
            before

    def test_invalid_trig_curve_is_refused_before_solving(
            self, tmp_path, capsys, monkeypatch, memos):
        # e^{it} + 0.6 e^{-2it} crosses itself: validate_curve reads a
        # simplicity margin of 0.0998, and the spec is refused with it
        # (exit 2) before any map solve, leaving both memos as they were
        cache = tmp_path / "cache"
        good = write_spec(tmp_path, KIND_SPECS["trig"], "good.json")
        assert run_cli("map", good, tmp_path / "cold", "--cache", cache) == 0
        before = [list(m.items()) for m in (memos._CURVES, memos._PAIRS)]
        solves = []
        monkeypatch.setattr(memos, "solve_map_pair",
                            lambda *a: solves.append(a))
        bad = write_spec(tmp_path, {
            "command": "bound", "t": 0.0, "poles": [{"point": [0.0, 0.0]}],
            "curve": {"kind": "trig",
                      "pairs": [[1, [1.0, 0.0]], [-2, [0.6, 0.0]]]}})
        capsys.readouterr()
        for _ in range(2):
            assert run_cli("bound", bad, tmp_path / "bad",
                           "--cache", cache) == 2
            assert capsys.readouterr().err == (
                "spec error at curve: curve fails validate_curve: "
                "simplicity margin 0.09979\n")
        assert solves == []
        assert [list(m.items()) for m in (memos._CURVES, memos._PAIRS)] == \
            before
        monkeypatch.undo()
        assert run_cli("map", good, tmp_path / "hit", "--cache", cache) == 0
        assert bundle_bytes(tmp_path / "hit") == bundle_bytes(tmp_path / "cold")

    def test_arc_specs_share_nothing(self, tmp_path, memos):
        spec = SPECS / "verify_chebyshev.json"
        assert run_cli("verify", spec, tmp_path, "--cache", tmp_path) == 0
        assert memos._CURVES == {} and memos._PAIRS == {}

    def test_signed_zero_curves_stay_apart(self, tmp_path, memos):
        # -0.0 == 0.0, but the map bundle prints the sign of the centre
        outs = []
        for re in (0.0, -0.0, -0.0):
            spec = write_spec(tmp_path, {"command": "map", "t": 0.7,
                                         "curve": {"kind": "circle",
                                                   "center": [re, 0.2]}})
            outs.append(tmp_path / f"out{len(outs)}")
            assert run_cli("map", spec, outs[-1]) == 0
        assert len(memos._CURVES) == 2
        assert bundle_bytes(outs[1]) == bundle_bytes(outs[2]) != \
            bundle_bytes(outs[0])
        memos._CURVES.clear()
        assert run_cli("map", spec, tmp_path / "emptied") == 0
        assert bundle_bytes(tmp_path / "emptied") == bundle_bytes(outs[1])


def _pyproject():
    """The parsed ``pyproject.toml``, or None where ``tomllib`` is missing
    (Python 3.10)."""
    try:
        import tomllib
    except ImportError:
        return None
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)


def _bern_target(project):
    """The ``module:attr`` target of the ``bern`` console script: from
    ``[project.scripts]``, else from the installed distribution."""
    if project is not None:
        return project["project"]["scripts"]["bern"]
    from importlib.metadata import entry_points
    for ep in entry_points(group="console_scripts", name="bern"):
        return ep.value
    pytest.importorskip("tomllib")


def _wrapper_argv(target):
    """Argv that runs ``target`` the way pip's generated script does."""
    module, _, attrs = target.partition(":")
    head = attrs.split(".")[0]
    code = (f"import sys; from {module} import {head}; "
            f"sys.argv[0] = 'bern'; sys.exit({attrs}())")
    return [sys.executable, "-c", code]


class TestInstalledEntryPoint:
    def test_bern_subprocess(self, tmp_path):
        project = _pyproject()
        if project is not None:
            assert project["project"]["version"] == __version__
        launchers = {"declared": _wrapper_argv(_bern_target(project))}
        exe = shutil.which("bern")
        if exe is not None:
            launchers["installed"] = [exe]
        # Both launchers import the package under test, not another install.
        src_root = str(Path(bernbound.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src_root, os.environ.get("PYTHONPATH")])))
        for label, argv in launchers.items():
            def bern(*args):
                return subprocess.run([*argv, *args],
                                      capture_output=True, text=True,
                                      cwd=tmp_path, env=env, timeout=120)

            version = bern("--version")
            assert version.returncode == 0, f"{label}: {version.stderr}"
            assert version.stdout.strip() == __version__, label
            out = tmp_path / label
            proc = bern("bound", "--config", SPECS / "bound_circle.json",
                        "--out", out)
            assert proc.returncode == 0, f"{label}: {proc.stderr}"
            assert (out / "summary.csv").exists(), label
            # Only a non-zero code shows main()'s return value reaches the
            # shell: a launcher that drops it also exits 0 on success.
            bad = bern("bound", "--config",
                       SPECS / "malformed" / "missing_curve.json",
                       "--out", tmp_path / f"{label}_bad")
            assert bad.returncode == 2, f"{label}: {bad.stderr}"
