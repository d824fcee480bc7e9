"""One workload process: set up, run the timed phase, write a JSON result.

Started by run.py with the thread variables pinned.  ``--t0`` is the wall
clock at spawn, so ``setup_s`` covers interpreter start, imports, input
generation and the workload's set-up.  With ``--setup-only`` the process
stops there.  With ``--trace 1`` the timed phase runs under the span
tracer, then the same items run again untraced to give the overhead and to
check that tracing did not change a single output.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy  # noqa: E402

import workloads  # noqa: E402


def run_pass(wl, seconds=None, count=None):
    """Run whole rounds while the next one, taking as long as the last,
    would end within ``seconds`` (at least one round); or run items until
    ``count`` were attempted.  Predicting the next round keeps a round
    that takes most of ``seconds`` (a whole sweep) from running once or
    twice depending on the host's speed.  ``busy_s`` is the time spent in
    the program, without the benchmark's own checks."""
    wl.new_pass()
    latencies, values, failures = [], [], {}
    attempted = wrong = 0
    busy = 0.0
    start = last = time.perf_counter()
    for items in wl.rounds():
        now = time.perf_counter()
        if seconds is not None and attempted and \
                2 * now - last - start >= seconds:
            break
        last = now
        if count is not None:
            items = items[:count - attempted]
            if not items:
                break
        for item in items:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run_item(item)
            except Exception as exc:  # the program refused the item: counted
                busy += time.perf_counter() - t0
                name = (str(exc) if isinstance(exc, workloads.BatchFailure)
                        else type(exc).__name__)
                failures[name] = failures.get(name, 0) + 1
                values.append(("raised", name))
                continue
            latency = time.perf_counter() - t0
            busy += latency
            reason = wl.check(item, out)
            values.append(repr(wl.value(out)))
            if reason is None:
                latencies.append(latency)
            else:
                wrong += 1
                failures[reason] = failures.get(reason, 0) + 1
    return {"attempted": attempted, "wall_s": time.perf_counter() - start,
            "busy_s": busy, "latencies": latencies, "wrong": wrong,
            "failures": failures, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.prepare()
    setup_s = time.time() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(timed_phase(wl, args))
        result["inputs"] = wl.record
        result["numpy"] = numpy.__version__
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def timed_phase(wl, args):
    if not args.trace:
        run = run_pass(wl, seconds=args.seconds)
        run.pop("values")
        run["hits"], run["misses"] = wl.hits, wl.misses
        return run

    from spans import Recorder, Tracer, layer_metrics

    rec = Recorder()
    tracer = Tracer(rec)
    tracer.install()
    try:
        traced = run_pass(wl, seconds=args.seconds)
    finally:
        tracer.remove()
    hits, misses = wl.hits, wl.misses
    plain = run_pass(wl, count=traced["attempted"])
    overhead = traced["busy_s"] / plain["busy_s"]
    identical = traced["values"] == plain["values"]
    traced.pop("values")
    traced["hits"], traced["misses"] = hits, misses
    traced["untraced_busy_s"] = plain["busy_s"]
    traced["identical"] = identical
    traced["layers"] = layer_metrics(rec, traced["attempted"], hits, misses,
                                     overhead, traced["busy_s"])
    return traced


if __name__ == "__main__":
    main()
