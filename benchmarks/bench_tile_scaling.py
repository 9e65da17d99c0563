"""Tile-sharded megakernel benchmark: (chips x conditions) plane scaling.

The PR 7 megakernel dispatches one work unit per fleet *chunk*, so a
campaign with fewer chunks than pool workers leaves workers idle no
matter how wide the pool is.  Tile dispatch shards the plane in two
dimensions -- every (chip-chunk x condition-tile) pair is its own unit,
tile workers seek deterministically to their tile's entry state, and the
parent folds partial counts with an exact order-independent reduction --
so the same campaign exposes ``chunks x tiles`` schedulable units.

This benchmark times the chunk path and the tile path over a
deliberately chunk-starved workload (2 chunks, 8 tiles each) across a
worker sweep, and enforces two scaling gates *when the measuring host
has the cores to express them*:

* ``speedup``: tile dispatch at the widest pool must beat chunk dispatch
  at the same pool by ``--min-speedup`` (enforced when the host gives
  the widest pool at least 4 usable cores);
* ``efficiency``: the tile path's parallel efficiency from 1 worker to
  the widest pool, ``(t1 / tW) / min(W, cores)``, must stay at or above
  ``--min-efficiency`` (enforced when the host has at least 2 cores).

On hosts without enough cores the gates are recorded as skipped -- with
the reason stamped into the JSON next to the host fingerprint -- and the
exit code stays 0: a 1-core container measuring no speedup is the
expected outcome, not a regression.  The byte-identity check (serial
per-chip == chunk == tile summaries) is enforced unconditionally; it
needs no cores, only correctness.

Emits ``BENCH_tile_scaling.json`` at the repository root plus a
human-readable report under ``benchmarks/results/``.

Run standalone (CI uses ``--rounds 1``)::

    PYTHONPATH=src python benchmarks/bench_tile_scaling.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from benchutil import cpu_count, host_stamp  # noqa: E402
from repro.analysis.campaign import CharacterizationCampaign  # noqa: E402
from repro.dram.geometry import ChipGeometry  # noqa: E402

GEOMETRY = ChipGeometry.from_capacity_gigabits(1.0 / 1024.0)
SEED = 368
ITERATIONS = 3
INTERVALS_S = tuple(round(float(x), 6) for x in np.geomspace(0.064, 2.048, 16))
TEMPERATURES_C = (45.0, 55.0)
DEFAULT_OUT = REPO_ROOT / "BENCH_tile_scaling.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "tile_scaling.txt"


def summary_bytes(summary) -> str:
    return json.dumps(summary.to_json_dict(), sort_keys=True)


def run_campaign(
    chips_per_vendor: int,
    workers: int,
    chips_per_unit: int = None,
    condition_tiles: int = None,
):
    campaign = CharacterizationCampaign(
        chips_per_vendor=chips_per_vendor,
        geometry=GEOMETRY,
        iterations=ITERATIONS,
        seed=SEED,
    )
    return campaign.run(
        intervals_s=INTERVALS_S,
        temperatures_c=TEMPERATURES_C,
        backend="process" if workers > 1 else "serial",
        workers=workers,
        chips_per_unit=chips_per_unit,
        condition_tiles=condition_tiles,
    )


def identity_check(chips_per_vendor: int, chips_per_unit: int) -> bool:
    """serial per-chip == chunk == tile, on a population small enough to
    walk per-chip.  Two tilings (even and deliberately lopsided) guard
    the reduction, not just one partition."""
    serial = summary_bytes(run_campaign(chips_per_vendor, workers=1, chips_per_unit=1))
    chunk = summary_bytes(
        run_campaign(chips_per_vendor, workers=1, chips_per_unit=chips_per_unit)
    )
    tiled = summary_bytes(
        run_campaign(
            chips_per_vendor,
            workers=1,
            chips_per_unit=chips_per_unit,
            condition_tiles=3,
        )
    )
    max_tiled = summary_bytes(
        run_campaign(
            chips_per_vendor,
            workers=1,
            chips_per_unit=chips_per_unit,
            condition_tiles=99,
        )
    )
    return serial == chunk == tiled == max_tiled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=1, help="timing rounds (best-of)")
    parser.add_argument(
        "--chips-per-vendor", type=int, default=200, dest="chips_per_vendor",
        help="population per vendor for the timed sweep (3 vendors)",
    )
    parser.add_argument(
        "--chips-per-unit", type=int, default=300, dest="chips_per_unit",
        help="fleet chunk size (the default leaves 2 chunks: chunk-starved)",
    )
    parser.add_argument(
        "--condition-tiles", type=int, default=8, dest="condition_tiles",
        help="condition tiles per chunk for the tile path",
    )
    parser.add_argument(
        "--workers-list",
        type=lambda text: [int(w) for w in text.split(",") if w.strip()],
        default=[1, 2, 4, 8],
        dest="workers_list",
        help="comma-separated pool widths for the tile-path sweep",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=2.5,
        help="required tile-vs-chunk speedup at the widest pool "
             "(enforced only with >= 4 usable cores)",
    )
    parser.add_argument(
        "--min-efficiency", type=float, default=0.70,
        help="required 1->widest parallel efficiency of the tile path "
             "(enforced only with >= 2 usable cores)",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args(argv)

    cores = cpu_count()
    n_chips = 3 * args.chips_per_vendor
    top_workers = max(args.workers_list)

    equivalent = identity_check(chips_per_vendor=6, chips_per_unit=4)

    # Chunk dispatch (the PR 7 path) at the widest pool: the baseline the
    # speedup gate measures against.  Same pool, same chunks -- the only
    # difference is the work-plane sharding.
    chunk_best = float("inf")
    reference = None
    for _ in range(args.rounds):
        start = time.perf_counter()
        reference = run_campaign(
            args.chips_per_vendor,
            workers=top_workers,
            chips_per_unit=args.chips_per_unit,
        )
        chunk_best = min(chunk_best, time.perf_counter() - start)

    tile_results = {}
    for workers in args.workers_list:
        best = float("inf")
        for _ in range(args.rounds):
            start = time.perf_counter()
            summary = run_campaign(
                args.chips_per_vendor,
                workers=workers,
                chips_per_unit=args.chips_per_unit,
                condition_tiles=args.condition_tiles,
            )
            best = min(best, time.perf_counter() - start)
            equivalent = equivalent and summary == reference
        tile_results[str(workers)] = {
            "seconds": best,
            "chips_per_s": n_chips / best,
        }

    tile_top = tile_results[str(top_workers)]["seconds"]
    tile_one = tile_results.get("1", {}).get("seconds")
    speedup = chunk_best / tile_top
    ideal = min(top_workers, cores)
    efficiency = (
        (tile_one / tile_top) / ideal if tile_one is not None and ideal else None
    )

    speedup_enforced = ideal >= 4
    efficiency_enforced = cores >= 2 and efficiency is not None
    gates = {
        "identity": {"required": True, "measured": equivalent, "enforced": True},
        "speedup": {
            "required": args.min_speedup,
            "measured": speedup,
            "enforced": speedup_enforced,
        },
        "efficiency": {
            "required": args.min_efficiency,
            "measured": efficiency,
            "enforced": efficiency_enforced,
        },
    }
    if not speedup_enforced:
        gates["speedup"]["skip_reason"] = (
            f"host exposes {cores} usable cores; a {top_workers}-worker "
            "speedup gate needs at least 4"
        )
    if not efficiency_enforced:
        gates["efficiency"]["skip_reason"] = (
            f"host exposes {cores} usable cores; parallel efficiency "
            "needs at least 2"
        )

    result = {
        "benchmark": "tile_scaling",
        "host": host_stamp(workers=top_workers),
        "config": {
            "chips": n_chips,
            "chips_per_vendor": args.chips_per_vendor,
            "capacity_gigabits": GEOMETRY.capacity_gigabits,
            "intervals_s": list(INTERVALS_S),
            "temperatures_c": list(TEMPERATURES_C),
            "iterations": ITERATIONS,
            "seed": SEED,
            "chips_per_unit": args.chips_per_unit,
            "condition_tiles": args.condition_tiles,
            "workers_list": list(args.workers_list),
            "rounds": args.rounds,
        },
        "chunk": {
            "workers": top_workers,
            "seconds": chunk_best,
            "chips_per_s": n_chips / chunk_best,
        },
        "tile": tile_results,
        "speedup_vs_chunk": speedup,
        "parallel_efficiency": efficiency,
        "equivalent": equivalent,
        "gates": gates,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")

    n_conditions = len(INTERVALS_S) + len(TEMPERATURES_C) - 1
    n_chunks = -(-n_chips // args.chips_per_unit)
    report_lines = [
        "Tile-sharded megakernel: (chips x conditions) plane scaling",
        f"  workload    : {n_chips} chips in {n_chunks} chunks, "
        f"{n_conditions} conditions x {args.condition_tiles} tiles, "
        f"{ITERATIONS} iterations",
        f"  host        : {cores} usable cores "
        f"({result['host']['fingerprint']})",
        f"  chunk @ {top_workers:>2} workers: {chunk_best:.3f}s  "
        f"({n_chips / chunk_best:,.1f} chips/s)",
    ]
    for workers, row in tile_results.items():
        report_lines.append(
            f"  tile  @ {workers:>2} workers: {row['seconds']:.3f}s  "
            f"({row['chips_per_s']:,.1f} chips/s)"
        )
    report_lines.append(f"  speedup vs chunk @ {top_workers}: {speedup:.2f}x")
    if efficiency is not None:
        report_lines.append(f"  parallel efficiency 1->{top_workers}: {efficiency:.2f}")
    report_lines.append(f"  byte-identical summaries: {equivalent}")
    for name, gate in gates.items():
        if not gate["enforced"]:
            report_lines.append(f"  gate {name}: SKIPPED ({gate['skip_reason']})")
    report_lines.append(f"  json        : {args.out}")
    report = "\n".join(report_lines)
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(report + "\n")
    print(report)

    if not equivalent:
        print(
            "FAIL: tile-dispatched campaign summary diverged from the "
            "chunk/serial summary",
            file=sys.stderr,
        )
        return 1
    if speedup_enforced and speedup < args.min_speedup:
        print(
            f"FAIL: tile speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if efficiency_enforced and efficiency < args.min_efficiency:
        print(
            f"FAIL: parallel efficiency {efficiency:.2f} below required "
            f"{args.min_efficiency:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
