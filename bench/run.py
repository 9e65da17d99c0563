"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload grid-sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload grid-sweep --seed 0 --seconds 20 --trace 1

``--trace 0`` runs operations untraced for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs operations untraced for half the
time, then the same operations again with every layer wrapped in spans,
and prints the per-layer metrics and the layer table.  Either way the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 450, "failed": 0, "metrics": {...}}

Every run checks its outputs: operations with equal inputs must give equal
digests, at the default seed the digests must match ``golden.json``, and
reach-profile must keep its coverage and FPR.  A failed check prints
``"correct": false`` and exits 1.  The program is imported from ``src/``
of the checkout; if it is missing, the run exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid-sweep", "paper-campaign", "service-mix", "reach-profile")
DEFAULT_SEED = 0
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Fresh processes timed to the first operation being ready, per run.
SETUP_TRIALS = 3

#: Metric name -> unit.  The first five are end-to-end (``--trace 0``);
#: the rest are per-layer (``--trace 1``), per operation of the workload.
#: ``core.run_grid`` and ``dram.shm`` are table rows only: no workload's
#: default path reaches them yet.
UNITS = {
    "setup_s": "s",
    "chips_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "core.bruteforce_s": "s/op",
    "core.passes": "count/op",
    "core.reach_s": "s/op",
    "core.evaluate_s": "s/op",
    "dram.population_s": "s/op",
    "dram.weak_cells": "count/op",
    "infra.testbed_s": "s/op",
    "runner.engine_s": "s/op",
    "runner.units": "count/op",
    "runner.retries": "count/op",
    "runner.pool_wait_s": "s/op",
    "runner.store_s": "s/op",
    "analysis.aggregate_s": "s/op",
    "service.submit_s": "s/op",
    "service.queue_wait_s": "s/op",
    "service.job_run_s": "s/op",
    "service.result_s": "s/op",
    "service.refused": "count/op",
    "lake.compact_s": "s/op",
    "lake.query_s": "s/op",
    "lake.compactions_per_report": "count/report",
    "unattributed_s": "s/op",
    "trace.overhead_frac": "ratio",
}


def import_program() -> None:
    """Put the checkout's ``src`` and ``benchmarks`` on the path and check
    that ``repro`` comes from this checkout (raises ``ImportError``)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not from this checkout")


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(workload: Any, seconds: Optional[float] = None, count: Optional[int] = None):
    """Run operations 0, 1, ... until ``count`` are done, or until the next
    one would end after ``seconds``.  Returns (results, start, end)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(workload.run_op(len(results)))
        elapsed = time.perf_counter() - start
        if count is not None:
            if len(results) >= count:
                break
        elif elapsed * (len(results) + 1) / len(results) > seconds:
            break
    return results, start, time.perf_counter()


def check_digests(name: str, seed: int, results: List[Any]) -> List[str]:
    """Equal inputs give equal digests; at the default seed, the recorded ones."""
    problems = []
    seen: Dict[int, str] = {}
    for result in results:
        if seen.setdefault(result.key, result.digest) != result.digest:
            problems.append(f"operation {result.key} gave two digests")
    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"][name]
        for key, value in sorted(seen.items()):
            expected = golden.get(str(key))
            if expected is not None and expected != value:
                problems.append(f"operation {key} digest {value} != recorded {expected}")
    return problems


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(name: str, seed: int) -> float:
    """Median time for a fresh process to get the first operation ready."""
    times = []
    for _ in range(SETUP_TRIALS):
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        with probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - started)
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {probe.returncode})")
    return statistics.median(times)


def untraced_metrics(results: List[Any], start: float, end: float) -> Dict[str, float]:
    latencies = [t for result in results for t in result.latencies]
    return {
        "chips_per_s": sum(result.chips for result in results) / (end - start),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
    }


def traced_metrics(
    workload: Any, n_ops: int, baseline_s: float, trace_dir: pathlib.Path
) -> Tuple[List[Any], Dict[str, float], Dict[str, Any]]:
    """Re-run operations ``0..n_ops-1`` traced; per-layer metrics per operation."""
    import tracing

    recorder = tracing.Recorder(trace_dir)
    with tracing.Tracer(recorder):
        results, start, end = measure(workload, count=n_ops)
    spans, counters = recorder.collect()
    seconds, unattributed, pool_wait = tracing.layer_table(
        spans, start, end, recorder.owner_pid
    )

    def samples(key: str) -> float:
        return sum(sum(result.samples.get(key, ())) for result in results)

    totals = {f"{layer}_s": seconds.get(layer, 0.0) for layer in tracing.LAYER_ROWS}
    totals.update(
        {
            "core.passes": counters["core.passes"],
            "dram.weak_cells": counters["dram.weak_cells"],
            "runner.units": counters["runner.units"],
            "runner.retries": counters["runner.retries"],
            "runner.pool_wait_s": pool_wait,
            "service.queue_wait_s": samples("queue_wait_s"),
            "service.job_run_s": samples("job_run_s"),
            "service.refused": samples("refused"),
            "unattributed_s": unattributed,
        }
    )
    metrics = {name: value / n_ops for name, value in totals.items() if name in UNITS}
    reports = counters["lake.reports"]
    metrics["lake.compactions_per_report"] = (
        counters["lake.compactions"] / reports if reports else 0.0
    )
    metrics["trace.overhead_frac"] = (end - start) / baseline_s - 1.0
    table = {
        "window_s": end - start,
        "ops": n_ops,
        "rows": {layer: seconds.get(layer, 0.0) for layer in tracing.LAYER_ROWS},
        "unattributed_s": unattributed,
        "spans": spans,
    }
    return results, metrics, table


def print_table(name: str, table: Dict[str, Any]) -> None:
    window = table["window_s"]
    print(f"layer table: {name}, traced window {window:.3f} s over {table['ops']} operations")
    print(f"  {'layer':<22}{'self s':>10}{'share':>9}{'s/op':>10}")
    rows = list(table["rows"].items()) + [("unattributed", table["unattributed_s"])]
    for layer, value in rows:
        print(f"  {layer:<22}{value:>10.4f}{value / window:>9.1%}{value / table['ops']:>10.4f}")
    total = sum(value for _layer, value in rows)
    print(f"  {'total':<22}{total:>10.4f}{total / window:>9.1%}")


def run(args: argparse.Namespace) -> int:
    import workloads
    from benchmarks.benchutil import cpu_count, host_stamp

    workers = cpu_count()
    stamp = host_stamp(workers=workers)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work_dir.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    record: Dict[str, Any] = {"workload": args.workload, "seed": args.seed, "host": stamp}
    try:
        workload = workloads.make_workload(args.workload, args.seed, work_dir, workers)
        record["inputs_digest"] = workloads.digest(workload.inputs())
        if args.trace:
            timed, start, end = measure(workload, seconds=args.seconds / 2.0)
            traced, metrics, table = traced_metrics(
                workload, len(timed), end - start, work_dir / "trace"
            )
            results = timed + traced
        else:
            timed, start, end = measure(workload, seconds=args.seconds)
            metrics = untraced_metrics(timed, start, end)
            results = list(timed)
            if len({result.key for result in results}) == len(results):
                results.append(workload.run_op(0))  # repeat once for determinism
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["setup_s"] = setup_seconds(args.workload, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = check_digests(args.workload, args.seed, results)
    gate = workload.gate()
    if gate is not None:
        problems.append(gate)
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    if failed:
        problems.append(f"{failed} of {attempted} attempted units, jobs, reports or profiles failed")
    latencies = [t for result in timed for t in result.latencies]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"host {json.dumps(stamp, sort_keys=True)}")
    print(
        f"operations {len(results)} ({len(timed)} timed, {len(latencies)} latency samples), "
        f"attempted {attempted}, failed {failed}, failed_frac {failed / max(1, attempted):.4f}"
    )
    reports = [t for result in timed for t in result.samples.get("report_latency_s", ())]
    if reports:
        print(f"lake report latency p50 {percentile(reports, 50):.4f} s over {len(reports)} reports")
    if args.trace:
        print_table(args.workload, table)
        record["layer_table"] = table
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }
    record.update(result)
    trace_tag = "traced" if args.trace else "untraced"
    out_path = out_dir / f"{args.workload}-seed{args.seed}-{trace_tag}.json"
    out_path.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program from {ROOT}: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
