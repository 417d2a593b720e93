#!/usr/bin/env python3
"""polarnet benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                        # every workload, untraced and traced
    python3 bench/run.py --workload sim-aligned --seed 3 --seconds 30 --trace 0

With ``--workload`` one workload runs in this process and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics and the tracing overhead with ``--trace 1``.
Without it, each workload runs in a child process of its own, once
untraced and once traced, and a table of every metric is printed.

The package is imported from ``src/`` next to this directory, never
from an installed copy.  The process re-executes itself once to fix
``PYTHONHASHSEED`` and single-threaded BLAS; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
NAMES = ("sim-aligned", "design-sweep", "rate-regions")
ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = [("ops_per_s", "1/s"), ("op_s_p50", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_one(args) -> int:
    sys.path[:0] = [SRC, HERE]
    import polarnet

    if not os.path.abspath(polarnet.__file__).startswith(SRC + os.sep):
        print(f"polarnet imported from {polarnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import OVERHEAD, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_times = []
    for _ in range(wl.setups):
        gc.collect()
        if tracer:
            tracer.begin("setup", "setup")
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.end()
    problems = wl.check_setup()

    # Whole rounds only, so every run attempts the same operations in
    # the same proportions.  A traced run alternates untraced and traced
    # rounds, half the time each, and the difference is the overhead.
    modes = (False, True) if tracer else (False,)
    budget = args.seconds / len(modes)
    times = {m: [] for m in modes}
    elapsed = {m: 0.0 for m in modes}
    attempted = failed = 0
    r = 0
    loop_start = time.perf_counter()
    # Stop at the round boundary nearest the budget: after r rounds, one
    # more would add about elapsed / r.
    while r == 0 or min(elapsed.values()) * (1 + 0.5 / r) < budget:
        for traced in modes:
            if tracer:
                tracer.install() if traced else tracer.uninstall()
            for arg in wl.round(r):
                gc.collect()
                if traced:
                    tracer.begin("op", f"op {r} {arg}")
                t0 = time.perf_counter()
                try:
                    out, bad = wl.op(arg), None
                except Exception:
                    out, bad = None, [traceback.format_exc()]
                dt = time.perf_counter() - t0
                if traced:
                    tracer.end()
                attempted += 1
                elapsed[traced] += dt
                bad = bad or wl.check(arg, out)
                del out
                if bad:
                    failed += 1
                    problems += [f"op {arg}: {b}" for b in bad]
                else:
                    times[traced].append(dt)
            r += 1
        if time.perf_counter() - loop_start > 4 * args.seconds + 120:
            problems.append("timed loop overran its budget")
            break
    if tracer:
        tracer.uninstall()
    problems += wl.finish()

    untraced = times[False]
    if not untraced:
        print("no operation completed", *problems, sep="\n", file=sys.stderr)
        return 1
    e2e = {
        "ops_per_s": len(untraced) / elapsed[False],
        "op_s_p50": statistics.median(untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        metrics = tracer.metrics()
        p50_t = statistics.median(times[True]) if times[True] else e2e["op_s_p50"]
        rate_t = len(times[True]) / elapsed[True] if elapsed[True] else e2e["ops_per_s"]
        values = [p50_t - e2e["op_s_p50"], rate_t - e2e["ops_per_s"],
                  100 * (p50_t / e2e["op_s_p50"] - 1)]
        for (name, unit), v in zip(OVERHEAD, values):
            metrics[name] = {"value": v, "unit": unit}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, setup_times=setup_times,
                  op_times=untraced, traced_op_times=times.get(True, []),
                  end_to_end=e2e, problems=problems, summary=wl.summary())
    with open(stem + ".json", "w") as f:
        json.dump(detail, f, indent=1)
    if tracer:
        tracer.dump(stem + "-spans.json", {"workload": args.workload, "seed": args.seed})
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:38s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    ok = True
    summary = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            ok &= res["correct"] and res["failed"] == 0
            summary[f"{name}/trace{trace}"] = res
            print(f"== {name} ({'traced' if trace else 'untraced'}): "
                  f"attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {res['correct']}")
            for metric, m in res["metrics"].items():
                print(f"   {metric:38s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "runs": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polarnet", "__init__.py")):
        print(f"polarnet sources not found under {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.environ.update(ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + sys.argv[1:])
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
