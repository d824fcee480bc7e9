#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload runs in a fresh worker process
with BERN_THREADS unset and the BLAS/OpenMP thread variables set to 1.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
``setup_s`` is the median over SETUP_RUNS fresh processes (the workload's
own and SETUP_RUNS - 1 that stop after set-up).  With ``--trace 1`` it
carries the per-layer metrics of a traced run instead.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep", "corpus", "batch")
SETUP_RUNS = 5
DEADLINE_S = 170.0  # the whole run, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "ok_items_per_s": "1/s", "item_p50_ms": "ms",
              "item_p90_ms": "ms", "peak_rss_mb": "MB"}
REQUIRED = ("src/bernbound/__init__.py", "tests/golden/ellipse_sweep.json",
            "tests/golden/ratio_corpus.json")


class BenchError(Exception):
    pass


def pinned_env():
    env = dict(os.environ)
    env.pop("BERN_THREADS", None)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def l3_size():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def spawn(args, workdir, env, deadline, setup_only=False):
    """Run one worker process to completion and return its result dict."""
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--result", result, "--t0", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q):
    """Inclusive linear-interpolation percentile (q in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a bernbound checkout, missing {missing}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env_record = {"nproc": os.cpu_count(),
                  "affinity": len(os.sched_getaffinity(0)),
                  "python": sys.version.split()[0], "commit": git_commit(),
                  "l3_cache": l3_size(), "loadavg_start": os.getloadavg(),
                  "pinned": {"BERN_THREADS": "unset",
                             **dict.fromkeys(THREAD_VARS, "1")}}
    env = pinned_env()
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                setups.append(spawn(args, os.path.join(workdir, f"setup{i}"),
                                    env, deadline, setup_only=True)["setup_s"])
        res = spawn(args, os.path.join(workdir, "main"), env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)  # only if no other run is using it
        except OSError:
            pass
    setups.append(res["setup_s"])

    env_record["numpy"] = res["numpy"]
    lat_ms = sorted(1e3 * x for x in res["latencies"])
    attempted = res["attempted"]
    ok = len(lat_ms)
    failed = attempted - ok
    correct = res["wrong"] == 0 and ok > 0 and res.get("identical", True)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env_record))
    print("inputs " + json.dumps(res["inputs"]))
    print(f"items attempted={attempted} ok={ok} "
          f"failed_frac={failed / attempted:.4f} "
          f"failures={json.dumps(res['failures'], sort_keys=True)} "
          f"wall_s={res['wall_s']:.3f} busy_s={res['busy_s']:.3f}")
    if args.trace:
        from spans import LAYER_METRICS

        print(f"trace overhead: traced {res['busy_s']:.3f} s vs untraced "
              f"{res['untraced_busy_s']:.3f} s on the same "
              f"{attempted} items; outputs identical: {res['identical']}")
        metrics = {name: metric(res["layers"][name], unit)
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        print(f"setup_s runs={[round(s, 4) for s in setups]} "
              f"cache hits={res['hits']} misses={res['misses']}")
        values = {"setup_s": statistics.median(setups),
                  "ok_items_per_s": ok / res["busy_s"],
                  "item_p50_ms": percentile(lat_ms, 50) if ok else 0.0,
                  "item_p90_ms": percentile(lat_ms, 90) if ok else 0.0,
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
