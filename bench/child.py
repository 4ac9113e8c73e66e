"""One workload in one process: set up, run the operation list, check it.

``run.py`` starts this file in a fresh interpreter and reads one JSON object
from its standard output. Modes:

* ``setup``: set up and report when set-up ended (``time.monotonic``, which
  is comparable across processes), then exit.
* ``run``: set up, then run the operation list ``--rounds`` times (fewer
  if a round would end after ``--seconds``), one operation at a time, with
  a calibration kernel between every two, then check every output.
* ``base``: like ``run`` without the calibration kernels: the untraced
  twin of a traced run.
* ``trace``: like ``base`` for one round, with spans around every public
  library function, set-up included.
* ``probe-stats``: peak-memory rise of one ``counterexample.stats`` call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import speed

GOLDEN = Path(__file__).resolve().parent / "golden.json"
OUT_DIR = Path(".bench_out")


def _run_round(ops, tracer=None, kernel=None) -> dict:
    """Run ``ops`` once. With a ``kernel``, time that calibration kernel
    before every operation and after the last (see ``speed.py``); ``*_at``
    hold the ``perf_counter`` readings at which operations and kernels
    started."""
    records, latencies, failed = [], [], []
    op_at, kernel_at, kernel_s = [], [], []

    def calibrate():
        kernel_at.append(time.perf_counter())
        kernel_s.append(speed.timed(kernel))

    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        if kernel is not None:
            calibrate()
        start = time.perf_counter()
        try:
            record = op.run()
        except Exception:  # one failed operation must not stop the run
            record = None
            failed.append(index)
            print(f"operation failed: {op.name}\n{traceback.format_exc(limit=3)}",
                  file=sys.stderr)
        latencies.append(time.perf_counter() - start)
        op_at.append(start)
        records.append(record)
    if kernel is not None:
        calibrate()
    return {"wall_s": sum(latencies), "lat_s": latencies, "op_at": op_at,
            "kernel_s": kernel_s, "kernel_at": kernel_at, "failed": failed,
            "records": records}


def _finish_round(rnd: dict, plan, digest, golden) -> dict:
    """Apply the cross-output and golden checks; keep digests, not records."""
    records = rnd.pop("records")
    failed = set(rnd["failed"]) | set(plan.check_round(records))
    digests = [None if rec is None else digest(rec) for rec in records]
    if golden is not None:
        if len(golden) != len(digests):
            failed |= set(range(len(digests)))
        else:
            failed |= {i for i, (d, g) in enumerate(zip(digests, golden)) if d != g}
    rnd["failed"] = sorted(failed)
    rnd["digests"] = digests
    rnd["stdout_bytes"] = sum(len(rec) for rec in records if isinstance(rec, bytes))
    return rnd


def _mismatches(a: list, b: list) -> list:
    if len(a) != len(b):
        return list(range(max(len(a), len(b))))
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]


def _layer_metrics(tracer) -> dict:
    out = {f"{name}.calls": calls for name, calls in tracer.calls.items()}
    out.update((f"{name}.self_s", seconds) for name, seconds in tracer.self_s.items())
    out.update(tracer.counts)
    finds = tracer.calls["counterexample.find_params"]
    nested = tracer.nested_calls("counterexample.stats", "counterexample.find_params")
    out["counterexample.find_params.stats_per_result"] = nested / finds if finds else 0
    return out


def _largest_stats(tracer):
    if not tracer.stats_params:
        return None
    return max(tracer.stats_params, key=lambda ik: (ik[0] * ik[1], ik))


def _probe_stats(i: int, k: int) -> dict:
    from cayleyiso import counterexample

    params = counterexample.GridParams(i, k)
    cells = (k * i + 3) ** 2
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counterexample.stats(params, budget=cells)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rise_bytes": (after - before) * 1024, "cells": cells}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["setup", "run", "base", "trace", "probe-stats"],
                        required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=math.inf,
                        help="start no round that would end after this long")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--no-golden", action="store_true",
                        help="skip the golden comparison (used to record it)")
    parser.add_argument("--spans-out")
    parser.add_argument("--probe", type=int, nargs=2, metavar=("I", "K"))
    args = parser.parse_args(argv)

    if args.mode == "probe-stats":
        print(json.dumps(_probe_stats(*args.probe)))
        return 0

    import numpy

    import workloads
    from tracer import Tracer

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir,
                                                  args.rounds)
        setup_done = time.monotonic()
        result = {"setup_done": setup_done, "numpy": numpy.__version__}
        if args.mode != "setup":
            result.update(_measure(args, plan, tracer, workloads))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(args, plan, tracer, workloads) -> dict:
    golden = None
    out = {}
    if args.seed == workloads.DEFAULT_SEED and not args.no_golden:
        table = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        golden = table.get("smoke" if args.smoke else "full", {}).get(args.workload)
        out["golden_missing"] = golden is None
    if tracer is not None:
        ops = plan.reference or plan.rounds[0]
        rnd = _finish_round(_run_round(ops, tracer), plan, workloads.digest, golden)
        out["rounds"] = [rnd]
        out["layers"] = _layer_metrics(tracer)
        if plan.reference:
            out["layers"]["cli.stdout_bytes"] = rnd["stdout_bytes"]
        out["largest_stats"] = _largest_stats(tracer)
        if args.spans_out:
            tracer.write(args.spans_out)
        return out

    kernel = plan.kernel if args.mode == "run" else None
    if kernel is not None:
        for _ in range(3):  # warm the kernel's code, data and files
            speed.timed(kernel)
    raw = []
    started = time.perf_counter()
    last = 0.0
    for ops in plan.rounds:
        # on a machine much slower than the nominal one, stop before a round
        # that would end after --seconds, to bound the run's length
        if raw and time.perf_counter() - started + last > args.seconds:
            break
        round_start = time.perf_counter()
        raw.append(_run_round(ops, kernel=kernel))
        last = time.perf_counter() - round_start
    rounds = [_finish_round(r, plan, workloads.digest, golden) for r in raw]
    # every round ran the same inputs, so every output must repeat
    for rnd in rounds[1:]:
        rnd["failed"] = sorted(set(rnd["failed"])
                               | set(_mismatches(rnd["digests"], rounds[0]["digests"])))
    out["rounds"] = rounds
    out["kernel"] = kernel
    if plan.reference:
        ref = _finish_round(_run_round(plan.reference), plan, workloads.digest, golden)
        for rnd in rounds:
            rnd["failed"] = sorted(set(rnd["failed"])
                                   | set(_mismatches(rnd["digests"], ref["digests"])))
        out["reference"] = ref
    return out


if __name__ == "__main__":
    sys.exit(main())
