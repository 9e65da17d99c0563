"""Fleet-batched campaign benchmark: per-chip vs chunked fleet dispatch.

Times the paper-scale 369-chip characterization campaign (3 vendors x 123
chips, the ``bench_campaign_368_chips`` configuration) end to end through
the process-pool backend, once with the per-chip path -- one pool
round-trip and one single-chip measurement per chip -- and once with
fleet-batched dispatch: chips shipped to workers in chunks of
``--chips-per-unit``, each chunk evaluated by the fused
:func:`repro.runner.measure_fleet` kernel (one stacked numpy/ndtr pass per
read across the whole chunk, one chamber settle replayed across members).
Both runs must produce byte-identical ``CampaignSummary`` objects; the
script exits non-zero on divergence or when the measured speedup falls
below ``--min-speedup``.

Emits ``BENCH_fleet_campaign.json`` at the repository root plus a
human-readable report under ``benchmarks/results/``.

Run standalone (CI uses ``--rounds 1 --min-speedup 2.0``)::

    PYTHONPATH=src python benchmarks/bench_fleet_campaign.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.campaign import CharacterizationCampaign  # noqa: E402
from repro.dram.geometry import ChipGeometry  # noqa: E402

GEOMETRY = ChipGeometry.from_capacity_gigabits(1.0 / 64.0)
CHIPS_PER_VENDOR = 123  # 3 x 123 = 369, the smallest symmetric population >= 368
SEED = 368
ITERATIONS = 2
INTERVALS_S = (0.512, 1.024, 2.048)
TEMPERATURES_C = (45.0, 55.0)
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", 0)) or (os.cpu_count() or 1)
DEFAULT_OUT = REPO_ROOT / "BENCH_fleet_campaign.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "fleet_campaign.txt"


def run_campaign(chips_per_unit):
    campaign = CharacterizationCampaign(
        chips_per_vendor=CHIPS_PER_VENDOR,
        geometry=GEOMETRY,
        iterations=ITERATIONS,
        seed=SEED,
    )
    return campaign.run(
        intervals_s=INTERVALS_S,
        temperatures_c=TEMPERATURES_C,
        backend="process" if WORKERS > 1 else "serial",
        workers=WORKERS,
        chips_per_unit=chips_per_unit,
    )


def run_benchmark(rounds: int, chips_per_unit: int):
    """Best-of-``rounds`` wall time per mode, identity-checked every round.

    Rounds are interleaved per-chip/fleet so CPU frequency or load drift
    cannot bias one mode.  Every chip's measurement is a pure function of
    ``(seed, chip_id)``, so there is no cross-round state to warm up --
    each campaign run pays its full cost, which is exactly what the
    dispatch layer being measured amortizes.
    """
    modes = {"per_chip": 1, "fleet": chips_per_unit}
    best = {name: float("inf") for name in modes}
    summaries = {}
    equivalent = True
    for _ in range(rounds):
        for name, cpu in modes.items():
            start = time.perf_counter()
            summaries[name] = run_campaign(cpu)
            best[name] = min(best[name], time.perf_counter() - start)
        equivalent = equivalent and summaries["per_chip"] == summaries["fleet"]
    return best["per_chip"], best["fleet"], equivalent, summaries["per_chip"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2, help="timing rounds per mode (best-of)")
    parser.add_argument(
        "--chips-per-unit", type=int, default=32, dest="chips_per_unit",
        help="fleet chunk size for the batched mode",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT, help="JSON output path")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero if fleet/per-chip speedup falls below this",
    )
    args = parser.parse_args(argv)

    n_chips = 3 * CHIPS_PER_VENDOR
    per_chip_s, fleet_s, equivalent, summary = run_benchmark(
        args.rounds, args.chips_per_unit
    )
    speedup = per_chip_s / fleet_s

    result = {
        "benchmark": "fleet_campaign",
        "config": {
            "chips": n_chips,
            "chips_per_vendor": CHIPS_PER_VENDOR,
            "capacity_gigabits": GEOMETRY.capacity_gigabits,
            "intervals_s": list(INTERVALS_S),
            "temperatures_c": list(TEMPERATURES_C),
            "iterations": ITERATIONS,
            "seed": SEED,
            "workers": WORKERS,
            "chips_per_unit": args.chips_per_unit,
            "rounds": args.rounds,
        },
        "per_chip": {
            "seconds": per_chip_s,
            "chips_per_s": n_chips / per_chip_s,
        },
        "fleet": {
            "seconds": fleet_s,
            "chips_per_s": n_chips / fleet_s,
        },
        "speedup": speedup,
        "equivalent": equivalent,
        "measured_chips": summary.n_chips,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")

    report = "\n".join(
        [
            "Fleet-batched campaign: per-chip vs chunked fleet dispatch",
            f"  workload    : {n_chips} chips (3 vendors x {CHIPS_PER_VENDOR}), "
            f"{GEOMETRY.capacity_gigabits:g} Gbit each, "
            f"{len(INTERVALS_S)} intervals + {len(TEMPERATURES_C) - 1} extra temperature",
            f"  execution   : {WORKERS} workers, fleet chunks of {args.chips_per_unit}",
            f"  per-chip    : {per_chip_s:.3f}s  ({n_chips / per_chip_s:,.1f} chips/s)",
            f"  fleet       : {fleet_s:.3f}s  ({n_chips / fleet_s:,.1f} chips/s)",
            f"  speedup     : {speedup:.2f}x",
            f"  byte-identical summaries: {equivalent}",
            f"  json        : {args.out}",
        ]
    )
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(report + "\n")
    print(report)

    if not equivalent:
        print("FAIL: fleet campaign summary differs from the per-chip summary", file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
