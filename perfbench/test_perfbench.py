"""Tests of the benchmark's own machinery: generators, span accounting,
and that tracing leaves the program's outputs untouched.

    python3 -m pytest perfbench -q
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bernbound  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_corpus_generator_reproduces_golden_orders():
    golden = workloads.load_golden("ratio_corpus.json")["items"]
    got = workloads.corpus_functions(workloads.DEFAULT_SEED, len(golden))
    assert [orders for _, orders, *_ in got] == [item["orders"] for item in golden]


def test_self_time_on_nested_spans():
    ticks = iter([0, 1, 2, 3, 4, 5, 7, 10])
    rec = spans.Recorder(clock=lambda: next(ticks))
    # a [0, 10] encloses b [1, 4] (which encloses c [2, 3]) and b [5, 7]
    rec.enter("a")
    rec.enter("b")
    rec.enter("c")
    rec.exit()
    rec.exit()
    rec.enter("b")
    rec.exit(failed=True, points=3)
    rec.exit()
    per = rec.per_name()
    assert per["a"] == {"calls": 1, "s": 5, "failed": 0, "points": 0}
    assert per["b"] == {"calls": 2, "s": 4, "failed": 1, "points": 3}
    assert per["c"] == {"calls": 1, "s": 1, "failed": 0, "points": 0}
    assert rec.self_time("c", parent="b") == 1
    assert rec.self_time("c", parent="a") == 0
    assert sum(row["s"] for row in per.values()) == 10


def test_traced_corpus_ratios_are_bit_identical(tmp_path):
    wl = workloads.Corpus(workloads.DEFAULT_SEED, str(tmp_path))
    wl.prepare()
    items = range(12)
    plain = [wl.run_item(i).ratio for i in items]

    original = bernbound.conformal.map_invert
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        # every binding site is wrapped, not just the defining module
        for mod in (bernbound, bernbound.conformal, bernbound.potential,
                    bernbound.extremal):
            assert mod.map_invert is not original
        traced = [wl.run_item(i).ratio for i in items]
    finally:
        tracer.remove()
    assert bernbound.potential.map_invert is original
    assert traced == plain
    per = rec.per_name()
    assert per["verify_ratio"]["calls"] == len(items)
    assert per["map_eval"]["points"] > per["map_eval"]["calls"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layer == spans.LAYER_METRICS
