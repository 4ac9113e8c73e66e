"""Benchmark of the cayleyiso library and CLI; see bench/README.md.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in child processes of its own (``child.py``), one
operation at a time from a single closed-loop client. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it records the
environment and the details behind the metrics. ``--workload all`` runs
every workload in turn.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("varopoulos_sweep", "large_sets", "perforated_family", "cli_batch")
DEFAULT_SEED = 0  # workloads.DEFAULT_SEED; this process never imports the library
# Seconds one round of each operation list, with its calibration kernels,
# took at the seed commit on a 2-vCPU Xeon. A run makes seconds // nominal
# rounds (at least one), fixed before it starts, so that every run of a
# workload, before and after an optimisation, times the same operations and
# its tail sits at the same percentile. Only on a machine more than half again as slow as the nominal
# one does a run stop early, so that it measures for at most 1.6 * seconds.
NOMINAL_ROUND_S = {
    "varopoulos_sweep": 8.0,
    "large_sets": 8.0,
    "perforated_family": 6.25,
    "cli_batch": 17.0,
}
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

PER_LAYER = {
    "groups.neighbors.calls": "count",
    "groups.neighbors.self_s": "s",
    "groups.minimal_ball_radius.calls": "count",
    "groups.minimal_ball_radius.self_s": "s",
    "groups.parse_group.self_s": "s",
    "groups.ball.self_s": "s",
    "groups.ball_profile.self_s": "s",
    "groups.classify_growth.self_s": "s",
    "isoperimetry.VertexSet.calls": "count",
    "isoperimetry.VertexSet.self_s": "s",
    "isoperimetry.random_connected_set.vertices": "count",
    "isoperimetry.random_connected_set.self_s": "s",
    "isoperimetry.boundary.self_s": "s",
    "isoperimetry.depth.self_s": "s",
    "isoperimetry.is_connected_with_boundary.self_s": "s",
    "isoperimetry.varopoulos_check.self_s": "s",
    "isoperimetry.classify_separation.self_s": "s",
    "grid.perforated_block.self_s": "s",
    "grid.boundary_count.self_s": "s",
    "grid.depth.self_s": "s",
    "grid.cells": "count",
    "grid.peak_bytes_per_cell": "B/cell",
    "counterexample.stats.calls": "count",
    "counterexample.stats.self_s": "s",
    "counterexample.find_params.self_s": "s",
    "counterexample.find_params.stats_per_result": "count",
    "counterexample.build.self_s": "s",
    "counterexample.embed_torus.self_s": "s",
    "ringlike.cyclic_system.calls": "count",
    "ringlike.cyclic_system.self_s": "s",
    "ringlike.interval_cover.self_s": "s",
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly across two traced runs of one seed
EXACT_UNITS = ("count", "B")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ISO_BUDGET", None)  # would change CLI budgets, hence outputs
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def spawn(args: list, deadline: float):
    """Run ``child.py`` with ``args``; return (its JSON result, its rusage).

    ``os.wait4`` reaps the child and returns the resource usage of it and of
    every descendant it waited for, so ``ru_maxrss`` is the peak RSS of the
    workload's own process tree and of nothing else."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE)
    timer = threading.Timer(max(1.0, deadline - started), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["spawned"] = started
    return result, usage


def environment(seed: int, runs: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": sys.version.split()[0],
        "seed": seed,
        "runs": runs,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def quantile(xs: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``xs``: the mean of all
    order statistics, the i-th weighted by the chance that a
    Beta((n+1)q, (n+1)(1-q)) variable falls between (i-1)/n and i/n.

    Latencies come in clusters, one per operation size, with gaps between
    them. The plain sample quantile then jumps from the edge of one cluster
    to the next with every small shift; this estimate moves smoothly."""
    xs = sorted(xs)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoints per order statistic for the Beta integral
    weights = []
    for i in range(n):
        points = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x)
                                    + (b - 1) * math.log1p(-x)) for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies: list):
    """(value, percentile, operations above it) at the highest percentile
    that still has at least ten operations above it; the maximum when there
    are too few operations for that."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0, 0
    q = (n - 10) / n
    return quantile(latencies, q), 100.0 * q, 10


def _failed_ops(result: dict) -> tuple:
    rounds = result["rounds"] + ([result["reference"]] if "reference" in result else [])
    return sum(len(r["digests"]) for r in rounds), sum(len(r["failed"]) for r in rounds)


def _scaled_latencies(rounds: list, kernel: str) -> list:
    """Each round's latencies at the reference speed (``speed.py``).

    An operation of t seconds is scaled by the mean of the kernel times
    taken from t before its start to t after its end, and always by the two
    taken just before and just after it. A short operation shares its
    speed with the kernels next to it. A long one averages the machine's
    speed over its own length, and so is set against as long a stretch of
    kernel samples, from its own round and the next."""
    at = [a for rnd in rounds for a in rnd["kernel_at"]]
    kernel_s = [k for rnd in rounds for k in rnd["kernel_s"]]
    out = []
    first = 0  # index of this round's first kernel in ``at``
    for rnd in rounds:
        row = []
        for i, (start, t) in enumerate(zip(rnd["op_at"], rnd["lat_s"])):
            lo = min(bisect.bisect_left(at, start - t), first + i)
            hi = max(bisect.bisect_right(at, start + 2 * t), first + i + 2)
            row.append(speed.scaled(t, kernel, statistics.fmean(kernel_s[lo:hi])))
        out.append(row)
        first += len(rnd["kernel_s"])
    return out


def setup_times(common: list, deadline: float) -> tuple:
    """Set-up times of SETUP_REPEATS fresh processes, raw and at the
    reference speed, with the spawn kernel timed between each two."""
    kernel_s = [speed.timed("spawn", env=child_env())]
    raw = []
    for _ in range(SETUP_REPEATS):
        result, _ = spawn(["--mode", "setup", *common], deadline)
        raw.append(result["setup_done"] - result["spawned"])
        kernel_s.append(speed.timed("spawn", env=child_env()))
    scaled = [speed.scaled(t, "spawn", (kernel_s[i] + kernel_s[i + 1]) / 2)
              for i, t in enumerate(raw)]
    return raw, scaled


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool,
                 deadline: float) -> tuple:
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    common += ["--rounds", str(max(1, int(seconds // NOMINAL_ROUND_S[workload])))]
    setups_raw, setups = setup_times(common, deadline)
    main, usage = spawn(["--mode", "run", "--seconds", str(1.6 * seconds), *common],
                        deadline)
    rounds = main["rounds"]
    # Every latency is scaled to the reference speed (speed.py). An
    # operation's time is its median over the rounds; every executed
    # operation counts towards the median and the tail.
    scaled = _scaled_latencies(rounds, main["kernel"])
    per_op = [statistics.median(samples) for samples in zip(*scaled)]
    latencies = [t for rnd in scaled for t in rnd]
    attempted, failed = _failed_ops(main)
    tail_s, tail_pct, above = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op),
        "op_p50_ms": 1000 * quantile(latencies, 0.5),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "ok_rate": 1 - failed / attempted,
    }
    correct = failed == 0 and not main.get("golden_missing", False)
    detail = {
        "rounds": len(rounds),
        "operations": len(latencies),
        "error_rate": failed / attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_ops_above": above,
        "kernel": main["kernel"],
        "setup_samples_s": setups,
        "setup_raw_s": setups_raw,
        "raw_wall_s": sum(statistics.median(s) for s in zip(*(r["lat_s"] for r in rounds))),
        "round_wall_s": [rnd["wall_s"] for rnd in rounds],
        "round_kernel_median_s": [statistics.median(rnd["kernel_s"]) for rnd in rounds],
        "numpy": main["numpy"],
        "golden_checked": seed == DEFAULT_SEED and not main.get("golden_missing", True),
    }
    return correct, attempted, failed, metrics, detail


def cli_startup_s(deadline: float) -> float:
    samples = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cayleyiso.cli"], cwd=ROOT,
                       env=child_env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_traced(workload: str, seed: int, smoke: bool, deadline: float) -> tuple:
    """One untraced round, then two traced rounds of the same inputs."""
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    base, _ = spawn(["--mode", "base", "--rounds", "1", *common], deadline)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    traced = [spawn(["--mode", "trace", "--spans-out", str(spans_path), *common],
                    deadline)[0]]
    traced.append(spawn(["--mode", "trace", *common], deadline)[0])

    problems = []
    # the traced run times the in-process twins when the workload has them
    base_round = base.get("reference") or base["rounds"][0]
    for result in traced:
        if result["rounds"][0]["digests"] != base_round["digests"]:
            problems.append("traced outputs differ from untraced outputs")
    layers = [result["layers"] for result in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [layer.get(name, 0) for layer in layers]
        if unit in EXACT_UNITS and values[0] != values[1]:
            problems.append(f"{name} differs between traced runs: {values}")
        metrics[name] = values[0] if unit in EXACT_UNITS else statistics.mean(values)
    traced_wall = statistics.mean(result["rounds"][0]["wall_s"] for result in traced)
    metrics["trace.overhead_s"] = traced_wall - base_round["wall_s"]
    metrics["cli.startup_s"] = cli_startup_s(deadline)
    largest = traced[0]["largest_stats"]
    if largest is not None:
        probe, _ = spawn(["--mode", "probe-stats", "--probe", *map(str, largest)],
                         deadline)
        metrics["grid.peak_bytes_per_cell"] = probe["rise_bytes"] / probe["cells"]

    attempted, failed = _failed_ops(base)
    for result in traced:
        a, f = _failed_ops(result)
        attempted, failed = attempted + a, failed + f
    golden_missing = any(r.get("golden_missing", False) for r in [base, *traced])
    correct = failed == 0 and not problems and not golden_missing
    detail = {
        "problems": problems,
        "untraced_wall_s": base_round["wall_s"],
        "traced_wall_s": [result["rounds"][0]["wall_s"] for result in traced],
        "largest_stats": largest,
        "spans": str(spans_path.relative_to(ROOT)),
        "numpy": base["numpy"],
    }
    return correct, attempted, failed, metrics, detail


def write_golden(deadline: float) -> None:
    table = {"seed": DEFAULT_SEED}
    for mode, extra in (("full", []), ("smoke", ["--smoke"])):
        table[mode] = {}
        for workload in WORKLOADS:
            result, _ = spawn(["--mode", "base", "--rounds", "1", "--no-golden",
                               "--workload", workload, "--seed", str(DEFAULT_SEED),
                               *extra], deadline)
            rnd = result["reference"] if "reference" in result else result["rounds"][0]
            if any(r["failed"] for r in result["rounds"]) or rnd["failed"]:
                raise ChildFailed(f"{workload} ({mode}) failed its checks")
            table[mode][workload] = rnd["digests"]
    (BENCH / "golden.json").write_text(json.dumps(table, indent=1) + "\n",
                                       encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time, which sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a quick check of every path")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the default seed's output digests and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cayleyiso" / "__init__.py").is_file():
        print(f"error: no cayleyiso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden(time.monotonic() + 600)
        return 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    for workload in workloads:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            if args.trace:
                outcome = run_traced(workload, args.seed, args.smoke, deadline)
            else:
                outcome = run_untraced(workload, args.seed, args.seconds, args.smoke,
                                       deadline)
        except (ChildFailed, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        correct, attempted, failed, metrics, detail = outcome
        # child processes behind the metrics: the set-up repeats and the
        # measured run, or one untraced and two traced runs
        runs = 3 if args.trace else SETUP_REPEATS + 1
        detail.update(workload=workload, trace=args.trace, smoke=args.smoke,
                      env=environment(args.seed, runs))
        print(json.dumps(detail))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
