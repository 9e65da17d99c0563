"""Campaign driver: decompose a characterization campaign into work units.

The paper's campaign is embarrassingly parallel at the chip: every chip's
measurement sequence (interval sweep at the base temperature, then the
temperature-scaling points at the top interval) touches only that chip's
own thermally controlled environment.  This module makes that explicit:

``build_chip_units``
    One :class:`~repro.runner.units.WorkUnit` per chip, with a stable
    ``chip-NNNNN`` id and a plain-JSON payload describing everything the
    measurement needs.

``measure_chip``
    The picklable worker.  It rebuilds the chip's world from the payload --
    a single-chip :class:`~repro.infra.testbed.TestBed` whose weak-cell
    population, VRT process, and placement offset are all keyed by
    ``(seed, chip_id)`` via :func:`repro.rng.derive` -- so the result is a
    pure function of the payload: independent of which process runs it,
    in what order, or how many times the campaign was resumed.

``aggregate_chip_results``
    Folds ok results (sorted by chip id, so completion order is erased)
    back into the per-vendor failure-count tables the campaign summary is
    computed from.

The driver knows nothing about executors or stores; `analysis.campaign`
composes it with :class:`~repro.runner.engine.RunnerEngine`.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs as obs_mod
from .. import rng as rng_mod
from ..conditions import Conditions
from ..core.bruteforce import BruteForceProfiler
from ..core.fleetprof import FleetProfiler
from ..dram.fleet import ChipFleet
from ..dram.geometry import ChipGeometry
from ..dram.shm import SharedPopulationStore
from ..dram.vendor import VENDORS, vendor_by_name
from ..errors import ConfigurationError
from ..infra.testbed import FleetBed, TestBed
from .engine import UnitDispatch
from .units import STATUS_FAILED, STATUS_OK, UnitResult, WorkUnit

#: Kind tag on every per-chip measurement unit.
CHIP_UNIT_KIND = "chip-measurement"

#: Kind tag on every fleet (chunk-of-chips) measurement unit.
FLEET_UNIT_KIND = "fleet-measurement"

#: Kind tag on every (chip-chunk x condition-tile) measurement unit.
TILE_UNIT_KIND = "fleet-tile-measurement"

#: Headroom factor between the largest profiled interval and the chip's
#: supported maximum, matching the legacy in-process campaign.
TREFI_HEADROOM = 1.05

#: Units per pool worker an auto-sized plan aims for: enough to balance
#: uneven chips across the pool, few enough to amortize per-unit setup.
AUTO_UNITS_PER_WORKER = 4

#: Expected weak cells an auto-sized unit may hold.  A fused unit's state
#: (stacked tails, DPD draws, pattern states) grows with its cells, so this
#: bounds a worker's memory on large-tail campaigns (1-4 chips a unit at
#: 0.25 Gbit); tiny-tail campaigns never reach it.
AUTO_UNIT_WEAK_CELLS = 16384

#: vendor -> interval -> failure counts in ascending chip order.
CountTable = Dict[str, Dict[float, List[int]]]


def campaign_fingerprint(
    chips_per_vendor: int,
    geometry: ChipGeometry,
    iterations: int,
    seed: int,
    intervals_s: Sequence[float],
    temperatures_c: Sequence[float],
    vendor_names: Sequence[str],
) -> str:
    """Stable identity of one campaign configuration.

    Guards a run directory: resuming with any changed knob produces a
    different fingerprint and the store refuses the mix.
    """
    return rng_mod.fingerprint(
        seed,
        "campaign",
        chips_per_vendor,
        geometry.banks,
        geometry.rows_per_bank,
        geometry.bits_per_row,
        iterations,
        "intervals",
        *(repr(float(t)) for t in intervals_s),
        "temperatures",
        *(repr(float(t)) for t in temperatures_c),
        "vendors",
        *vendor_names,
    )


def build_chip_units(
    chips_per_vendor: int,
    geometry: ChipGeometry,
    iterations: int,
    seed: int,
    intervals_s: Sequence[float],
    temperatures_c: Sequence[float],
    vendor_names: Optional[Sequence[str]] = None,
    fast_path: Optional[bool] = None,
) -> Tuple[WorkUnit, ...]:
    """One work unit per chip, ids and chip numbering matching a full bed.

    Chip ids run sequentially across vendors in declaration order, exactly
    like :meth:`repro.infra.testbed.TestBed.build`, so a unit's chip is
    statistically identical to the one the legacy shared-bed campaign would
    have racked in the same slot.

    ``fast_path`` selects the failure-evaluation mode for the measurement
    worker (``None`` = worker-process default).  Both modes are
    byte-identical, so the flag is deliberately *not* part of
    :func:`campaign_fingerprint` -- results from either mode can resume
    each other's run directories.
    """
    if chips_per_vendor <= 0:
        raise ConfigurationError("chips_per_vendor must be positive")
    names = tuple(vendor_names) if vendor_names is not None else tuple(VENDORS)
    units: List[WorkUnit] = []
    chip_id = 0
    for vendor_name in names:
        vendor_by_name(vendor_name)  # fail fast on unknown vendors
        for _ in range(chips_per_vendor):
            units.append(
                WorkUnit(
                    unit_id=f"chip-{chip_id:05d}",
                    kind=CHIP_UNIT_KIND,
                    payload={
                        "chip_id": chip_id,
                        "vendor": vendor_name,
                        "seed": int(seed),
                        "iterations": int(iterations),
                        "geometry": {
                            "banks": geometry.banks,
                            "rows_per_bank": geometry.rows_per_bank,
                            "bits_per_row": geometry.bits_per_row,
                        },
                        "intervals_s": [float(t) for t in intervals_s],
                        "temperatures_c": [float(t) for t in temperatures_c],
                        **({} if fast_path is None else {"fast_path": bool(fast_path)}),
                    },
                )
            )
            chip_id += 1
    return tuple(units)


def auto_chips_per_unit(
    n_chips: int, workers: int, expected_weak_cells: float
) -> int:
    """Chips per fused unit when the caller does not say.

    At most ``ceil(n_chips / (AUTO_UNITS_PER_WORKER * workers))``, so every
    worker gets several units, and at most
    :data:`AUTO_UNIT_WEAK_CELLS` ``/ expected_weak_cells`` (the largest
    per-chip expectation among the campaign's vendors), so a unit's memory
    stays bounded.  Never below one chip.
    """
    by_workers = -(-int(n_chips) // (AUTO_UNITS_PER_WORKER * max(1, int(workers))))
    by_cells = int(AUTO_UNIT_WEAK_CELLS // max(1.0, float(expected_weak_cells)))
    return max(1, min(by_workers, by_cells))


def measure_chip(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Measure one chip's full campaign contribution (worker function).

    Runs the interval sweep at the base temperature, then the remaining
    temperatures at the top interval, inside this chip's own single-chip
    testbed.  Returns plain JSON: ordered ``[condition, failure_count]``
    pairs (pairs, not a mapping, so duplicate temperatures keep their
    legacy append semantics).
    """
    geometry = ChipGeometry(**{k: int(v) for k, v in payload["geometry"].items()})
    intervals = [float(t) for t in payload["intervals_s"]]
    temperatures = [float(t) for t in payload["temperatures_c"]]
    chip_id = int(payload["chip_id"])
    fast_path = payload.get("fast_path")
    bed = TestBed.build_single(
        chip_id=chip_id,
        vendor=vendor_by_name(str(payload["vendor"])),
        geometry=geometry,
        seed=int(payload["seed"]),
        max_trefi_s=max(intervals) * TREFI_HEADROOM,
        fast_path=None if fast_path is None else bool(fast_path),
    )
    chip = bed.chips[0]
    profiler = BruteForceProfiler(iterations=int(payload["iterations"]))

    base_temp = temperatures[0]
    bed.set_ambient(base_temp)
    interval_failures: List[List[float]] = []
    for trefi in intervals:
        profile = profiler.run(chip, Conditions(trefi=trefi, temperature=base_temp))
        interval_failures.append([trefi, float(len(profile))])

    top = max(intervals)
    top_count = next(count for trefi, count in interval_failures if trefi == top)
    temperature_failures: List[List[float]] = [[base_temp, top_count]]
    for temperature in temperatures[1:]:
        bed.set_ambient(temperature)
        profile = profiler.run(chip, Conditions(trefi=top, temperature=temperature))
        temperature_failures.append([temperature, float(len(profile))])

    return {
        "chip_id": chip_id,
        "vendor": str(payload["vendor"]),
        "interval_failures": interval_failures,
        "temperature_failures": temperature_failures,
    }


def build_fleet_units(
    units: Sequence[WorkUnit],
    chips_per_unit: int,
    shm: Optional[Mapping[str, Any]] = None,
    megakernel: Optional[bool] = None,
) -> Tuple[WorkUnit, ...]:
    """Pack consecutive per-chip units into fleet transport chunks.

    Each chunk is a :data:`FLEET_UNIT_KIND` unit whose payload carries the
    member units verbatim (``{"members": [{"unit_id", "payload"}, ...]}``),
    so :func:`expand_fleet_result` can reconstruct exactly the per-chip
    results the per-chip path would have produced.  Chunk ids are derived
    from the member ids but are *transient* -- they never reach the result
    store (the engine expands chunks back to per-chip rows before
    persisting), so any chunk size can resume any run directory.

    ``shm`` is a :meth:`~repro.dram.shm.SharedPopulationStore.descriptor`;
    each chunk gets the descriptor narrowed to its own member chips, so a
    worker attaches to the run's shared segment instead of redrawing (or
    unpickling) weak-cell populations.  ``megakernel`` (when not ``None``)
    rides along as the worker's condition-grid fusion switch.  Both are
    execution knobs only: payload-wise the member units -- and therefore
    the per-chip results and resume fingerprints -- are unchanged.
    """
    if chips_per_unit <= 0:
        raise ConfigurationError(
            f"chips_per_unit must be positive, got {chips_per_unit!r}"
        )
    units = tuple(units)
    for unit in units:
        if unit.kind != CHIP_UNIT_KIND:
            raise ConfigurationError(
                f"fleet chunks are built from {CHIP_UNIT_KIND!r} units; "
                f"got kind {unit.kind!r}"
            )
    shm_chips = dict(shm["chips"]) if shm is not None else None
    chunks: List[WorkUnit] = []
    for start in range(0, len(units), chips_per_unit):
        chunk = units[start : start + chips_per_unit]
        payload: Dict[str, Any] = {
            "members": [
                {"unit_id": u.unit_id, "payload": dict(u.payload)} for u in chunk
            ]
        }
        if shm is not None:
            payload["shm"] = {
                "segment": str(shm["segment"]),
                "total": int(shm["total"]),
                "chips": {
                    str(u.payload["chip_id"]): list(
                        shm_chips[str(u.payload["chip_id"])]
                    )
                    for u in chunk
                },
            }
        if megakernel is not None:
            payload["megakernel"] = bool(megakernel)
        chunks.append(
            WorkUnit(
                unit_id=f"fleet-{chunk[0].unit_id}-{chunk[-1].unit_id}",
                kind=FLEET_UNIT_KIND,
                payload=payload,
            )
        )
    return tuple(chunks)


def _shared_fleet_config(members: Sequence[Mapping[str, Any]]) -> Mapping[str, Any]:
    """The chunk's shared measurement configuration, homogeneity-checked.

    Every key a fleet evaluates *together* (seed, iterations, geometry,
    intervals, temperatures, fast-path mode) must agree across members --
    a mixed chunk would silently measure chips under the wrong schedule.
    """
    first = members[0]["payload"]
    shared_keys = ("seed", "iterations", "geometry", "intervals_s", "temperatures_c")
    for member in members[1:]:
        payload = member["payload"]
        for key in shared_keys:
            if payload.get(key) != first.get(key):
                raise ConfigurationError(
                    f"fleet chunk members disagree on {key!r}: "
                    f"{payload.get(key)!r} vs {first.get(key)!r}"
                )
        if payload.get("fast_path") != first.get("fast_path"):
            raise ConfigurationError(
                "fleet chunk members disagree on 'fast_path'"
            )
    return first


def measure_fleet(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Measure one chunk of chips fleet-fused (worker function).

    Runs exactly :func:`measure_chip`'s schedule -- the interval sweep at
    the base temperature, then the remaining temperatures at the top
    interval -- on every member chip at once through a
    :class:`~repro.infra.testbed.FleetBed` and
    :class:`~repro.core.fleetprof.FleetProfiler`.  Returns
    ``{"chips": [{"unit_id", "value"}, ...]}`` in member order, where each
    ``value`` is byte-identical to the member's :func:`measure_chip`
    return.

    Two optional chunk-level keys change *how*, never *what*:

    ``payload["shm"]``
        Shared-memory descriptor from :func:`build_fleet_units`.  The
        worker attaches to the run's population segment, builds every chip
        on zero-copy views, and (when the chunk's chips are contiguous in
        the segment) hands the stacked arrays to the fleet without
        concatenating.  The segment is attached read-only for the duration
        of the call and never unlinked here -- the campaign owns the
        segment's lifetime.

    ``payload["megakernel"]``
        Condition-grid fusion switch (default on): the base-temperature
        interval sweep collapses into one
        :meth:`~repro.core.fleetprof.FleetProfiler.run_grid` pass, and each
        remaining temperature point into another.
    """
    members = list(payload["members"])
    if not members:
        raise ConfigurationError("a fleet unit needs at least one member chip")
    first = _shared_fleet_config(members)
    geometry = ChipGeometry(**{k: int(v) for k, v in first["geometry"].items()})
    intervals = [float(t) for t in first["intervals_s"]]
    temperatures = [float(t) for t in first["temperatures_c"]]
    fast_path = first.get("fast_path")
    megakernel = bool(payload.get("megakernel", True))
    chip_ids = [int(m["payload"]["chip_id"]) for m in members]

    store: Optional[SharedPopulationStore] = None
    samples = None
    backing = None
    if payload.get("shm") is not None:
        store = SharedPopulationStore.attach(payload["shm"])
        samples = {chip_id: store.sample(chip_id) for chip_id in chip_ids}
        backing = store.fleet_backing(chip_ids)
    try:
        bed = FleetBed.build(
            members=[
                (chip_id, vendor_by_name(str(m["payload"]["vendor"])))
                for chip_id, m in zip(chip_ids, members)
            ],
            geometry=geometry,
            seed=int(first["seed"]),
            max_trefi_s=max(intervals) * TREFI_HEADROOM,
            fast_path=None if fast_path is None else bool(fast_path),
            samples=samples,
        )
        fleet = ChipFleet(bed.chips, backing=backing)
        profiler = FleetProfiler(iterations=int(first["iterations"]))

        base_temp = temperatures[0]
        bed.set_ambient(base_temp)
        interval_failures: List[List[List[float]]] = [[] for _ in members]
        grid = [Conditions(trefi=t, temperature=base_temp) for t in intervals]
        for ci, results in enumerate(
            profiler.run_grid(fleet, grid, megakernel=megakernel)
        ):
            for i, result in enumerate(results):
                interval_failures[i].append([intervals[ci], float(len(result))])

        top = max(intervals)
        temperature_failures: List[List[List[float]]] = []
        for rows in interval_failures:
            top_count = next(count for trefi, count in rows if trefi == top)
            temperature_failures.append([[base_temp, top_count]])
        for temperature in temperatures[1:]:
            bed.set_ambient(temperature)
            (results,) = profiler.run_grid(
                fleet,
                [Conditions(trefi=top, temperature=temperature)],
                megakernel=megakernel,
            )
            for i, result in enumerate(results):
                temperature_failures[i].append([temperature, float(len(result))])

        # The unit is done with its fused states; drop them now rather
        # than when the worker next collects garbage.
        fleet.population.invalidate_cache()
        return {
            "chips": [
                {
                    "unit_id": member["unit_id"],
                    "value": {
                        "chip_id": chip_ids[i],
                        "vendor": str(member["payload"]["vendor"]),
                        "interval_failures": interval_failures[i],
                        "temperature_failures": temperature_failures[i],
                    },
                }
                for i, member in enumerate(members)
            ]
        }
    finally:
        if store is not None:
            # Drop our view-holding locals, then detach (never unlink --
            # the campaign owns the segment).  Detaching is best-effort:
            # any surviving view keeps the mapping alive until collected.
            del samples, backing
            try:
                del bed, fleet
            except UnboundLocalError:
                pass
            store.close()


def expand_fleet_result(
    unit: WorkUnit, result: UnitResult
) -> Tuple[UnitResult, ...]:
    """Convert one fleet chunk's result into per-chip results.

    An ok chunk yields one ok row per member carrying exactly the value
    :func:`measure_chip` would have produced; a failed chunk yields one
    failed row per member sharing the chunk's :class:`UnitFailure` (every
    member chip is unmeasured -- the retry already happened in-worker).
    ``elapsed_s`` is split evenly across members; it is bookkeeping only
    and never participates in aggregation.
    """
    members = list(unit.payload["members"])
    elapsed = result.elapsed_s / len(members) if members else 0.0
    if not result.ok:
        return tuple(
            UnitResult(
                unit_id=str(member["unit_id"]),
                status=STATUS_FAILED,
                error=result.error,
                attempts=result.attempts,
                elapsed_s=elapsed,
            )
            for member in members
        )
    chips = list(result.value["chips"]) if isinstance(result.value, Mapping) else None
    if chips is None or [str(c["unit_id"]) for c in chips] != [
        str(m["unit_id"]) for m in members
    ]:
        raise ConfigurationError(
            f"fleet result for {unit.unit_id!r} does not cover its members "
            "exactly; the worker and the chunk payload disagree"
        )
    return tuple(
        UnitResult(
            unit_id=str(chip["unit_id"]),
            status=STATUS_OK,
            value=chip["value"],
            attempts=result.attempts,
            elapsed_s=elapsed,
        )
        for chip in chips
    )


def fleet_dispatch(
    chips_per_unit: int,
    shm: Optional[Mapping[str, Any]] = None,
    megakernel: Optional[bool] = None,
) -> UnitDispatch:
    """A :class:`~repro.runner.engine.UnitDispatch` that ships chips to
    workers in fleet chunks of ``chips_per_unit``.

    ``shm`` (a shared-population segment descriptor) and ``megakernel``
    propagate to every chunk payload -- see :func:`build_fleet_units`.
    """
    if chips_per_unit <= 0:
        raise ConfigurationError(
            f"chips_per_unit must be positive, got {chips_per_unit!r}"
        )

    def group(pending: Tuple[WorkUnit, ...]) -> Tuple[WorkUnit, ...]:
        return build_fleet_units(
            pending, chips_per_unit, shm=shm, megakernel=megakernel
        )

    return UnitDispatch(worker=measure_fleet, group=group, expand=expand_fleet_result)


# ----------------------------------------------------------------------
# Two-dimensional work-plane sharding: (chip-chunk x condition-tile).
# ----------------------------------------------------------------------


def condition_plan(
    intervals_s: Sequence[float], temperatures_c: Sequence[float]
) -> Tuple[Tuple[float, float], ...]:
    """The campaign's per-chip condition sequence, in schedule order.

    ``(trefi, temperature)`` pairs: index ``i < len(intervals)`` is the
    interval sweep at the base temperature, index ``len(intervals) + j``
    is the top interval at ``temperatures[1 + j]`` -- exactly the order
    :func:`measure_chip` and :func:`measure_fleet` walk.  Condition tiles
    are contiguous ``[start, stop)`` slices of this sequence.
    """
    intervals = [float(t) for t in intervals_s]
    temperatures = [float(t) for t in temperatures_c]
    if not intervals or not temperatures:
        raise ConfigurationError("a condition plan needs intervals and temperatures")
    top = max(intervals)
    plan = [(trefi, temperatures[0]) for trefi in intervals]
    plan.extend((top, temperature) for temperature in temperatures[1:])
    return tuple(plan)


def tile_bounds(n_conditions: int, tiles: int) -> Tuple[Tuple[int, int], ...]:
    """Near-even contiguous partition of ``range(n_conditions)`` into
    ``tiles`` half-open ``[start, stop)`` slices (never empty: the tile
    count is clamped to the condition count)."""
    if n_conditions <= 0:
        raise ConfigurationError("n_conditions must be positive")
    if tiles <= 0:
        raise ConfigurationError(f"tiles must be positive, got {tiles!r}")
    tiles = min(int(tiles), int(n_conditions))
    base, extra = divmod(int(n_conditions), tiles)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for k in range(tiles):
        stop = start + base + (1 if k < extra else 0)
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


def auto_condition_tiles(n_conditions: int, n_chunks: int, workers: int) -> int:
    """Tiles per chunk that keep roughly 8 schedulable units per worker.

    Capped at 8 per chunk regardless of pool size: every tile pays a
    fixed cost (bed construction, segment attach, prefix seek)
    proportional to the chunk's chip count, so over-tiling trades real
    work for replay.  One worker gets one tile -- the chunk path's exact
    shape, minus reasons to pay the tile machinery at all.
    """
    if n_conditions <= 0:
        raise ConfigurationError("n_conditions must be positive")
    target = 8 * max(1, int(workers))
    tiles = -(-target // max(1, int(n_chunks)))
    return max(1, min(int(n_conditions), 8, tiles))


def build_tile_units(
    units: Sequence[WorkUnit],
    chips_per_unit: int,
    condition_tiles: int,
    shm: Optional[Mapping[str, Any]] = None,
    megakernel: Optional[bool] = None,
) -> Tuple[WorkUnit, ...]:
    """Cross fleet chunks with condition tiles into schedulable units.

    Chips chunk exactly like :func:`build_fleet_units`; each chunk's
    condition plan (see :func:`condition_plan`) splits into
    ``condition_tiles`` contiguous tiles, and every ``(chunk, tile)``
    pair becomes one :data:`TILE_UNIT_KIND` unit whose payload is the
    chunk payload plus ``"tile": [start, stop)``.  Units are ordered by
    descending :attr:`~repro.runner.units.WorkUnit.cost` -- the tile's
    exposure-dominated weight, so the largest-interval tiles launch
    first and the long poles never land last on a draining pool
    (unit id breaks ties, keeping the order deterministic).
    """
    if condition_tiles <= 0:
        raise ConfigurationError(
            f"condition_tiles must be positive, got {condition_tiles!r}"
        )
    chunks = build_fleet_units(units, chips_per_unit, shm=shm, megakernel=megakernel)
    if not chunks:
        return ()
    first = chunks[0].payload["members"][0]["payload"]
    plan = condition_plan(first["intervals_s"], first["temperatures_c"])
    top = max(trefi for trefi, _temperature in plan)
    # Per-condition relative weight: one unit of fixed overhead plus the
    # exposure itself (normalized by the top interval).  Seeked prefix
    # conditions cost a few percent of an evaluated one.
    weights = [1.0 + trefi / top for trefi, _temperature in plan]
    bounds = tile_bounds(len(plan), condition_tiles)
    tiles: List[WorkUnit] = []
    for chunk in chunks:
        n_members = len(chunk.payload["members"])
        for start, stop in bounds:
            cost = n_members * (
                sum(weights[start:stop]) + 0.05 * sum(weights[:start]) + 1.0
            )
            tiles.append(
                WorkUnit(
                    unit_id=f"tile-{chunk.unit_id}-c{start:04d}-{stop:04d}",
                    kind=TILE_UNIT_KIND,
                    payload={**chunk.payload, "tile": [start, stop]},
                    cost=cost,
                )
            )
    tiles.sort(key=lambda unit: (-unit.cost, unit.unit_id))
    return tuple(tiles)


def measure_fleet_tile(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Measure one (chip-chunk x condition-tile) unit (worker function).

    Builds the chunk's fleet exactly like :func:`measure_fleet`, then
    walks the condition plan replaying every chamber set-point in order:
    conditions before the tile are *seeked* past
    (:meth:`~repro.core.fleetprof.FleetProfiler.seek_grid` -- the
    deterministic entry-state replay: scalar clock schedule, O(1) RNG
    stream advances, no read evaluation), conditions inside
    ``payload["tile"] = [start, stop)`` are evaluated, and the walk stops
    at the tile's end.  Returns partial per-chip accumulators::

        {"chips": [{"unit_id": ..., "counts": [[cond_index, count], ...]},
                   ...]}

    keyed by plan index, which :func:`merge_tile_counts` folds -- exactly
    and order-independently -- back into :func:`measure_chip` values.
    """
    members = list(payload["members"])
    if not members:
        raise ConfigurationError("a tile unit needs at least one member chip")
    first = _shared_fleet_config(members)
    geometry = ChipGeometry(**{k: int(v) for k, v in first["geometry"].items()})
    intervals = [float(t) for t in first["intervals_s"]]
    temperatures = [float(t) for t in first["temperatures_c"]]
    fast_path = first.get("fast_path")
    megakernel = bool(payload.get("megakernel", True))
    n_intervals = len(intervals)
    n_conditions = n_intervals + len(temperatures) - 1
    tile = payload.get("tile", (0, n_conditions))
    start, stop = int(tile[0]), int(tile[1])
    if not 0 <= start < stop <= n_conditions:
        raise ConfigurationError(
            f"tile {tile!r} out of range for a {n_conditions}-condition plan"
        )
    chip_ids = [int(m["payload"]["chip_id"]) for m in members]

    store: Optional[SharedPopulationStore] = None
    samples = None
    backing = None
    if payload.get("shm") is not None:
        store = SharedPopulationStore.attach(payload["shm"])
        samples = {chip_id: store.sample(chip_id) for chip_id in chip_ids}
        backing = store.fleet_backing(chip_ids)
    try:
        with obs_mod.span(
            "kernel.tile.execute",
            chips=len(members),
            tile_start=start,
            tile_stop=stop,
            conditions=stop - start,
        ):
            bed = FleetBed.build(
                members=[
                    (chip_id, vendor_by_name(str(m["payload"]["vendor"])))
                    for chip_id, m in zip(chip_ids, members)
                ],
                geometry=geometry,
                seed=int(first["seed"]),
                max_trefi_s=max(intervals) * TREFI_HEADROOM,
                fast_path=None if fast_path is None else bool(fast_path),
                samples=samples,
            )
            fleet = ChipFleet(bed.chips, backing=backing)
            profiler = FleetProfiler(iterations=int(first["iterations"]))

            counts: List[Tuple[int, List[float]]] = []
            base_temp = temperatures[0]
            bed.set_ambient(base_temp)
            grid = [Conditions(trefi=t, temperature=base_temp) for t in intervals]
            base_stop = min(stop, n_intervals)
            if start < n_intervals:
                for k, results in enumerate(
                    profiler.run_grid(
                        fleet, grid, megakernel=megakernel, tile=(start, base_stop)
                    )
                ):
                    counts.append(
                        (start + k, [float(len(r)) for r in results])
                    )
            else:
                profiler.seek_grid(fleet, grid)

            top = max(intervals)
            for j, temperature in enumerate(temperatures[1:]):
                cond_index = n_intervals + j
                if cond_index >= stop:
                    break
                bed.set_ambient(temperature)
                point = [Conditions(trefi=top, temperature=temperature)]
                if cond_index < start:
                    profiler.seek_grid(fleet, point)
                else:
                    (results,) = profiler.run_grid(
                        fleet, point, megakernel=megakernel
                    )
                    counts.append(
                        (cond_index, [float(len(r)) for r in results])
                    )

            return {
                "chips": [
                    {
                        "unit_id": member["unit_id"],
                        "counts": [
                            [cond_index, per_chip[i]]
                            for cond_index, per_chip in counts
                        ],
                    }
                    for i, member in enumerate(members)
                ]
            }
    finally:
        if store is not None:
            # Same detach discipline as measure_fleet: drop view-holding
            # locals first, never unlink (the campaign owns the segment).
            del samples, backing
            try:
                del bed, fleet
            except UnboundLocalError:
                pass
            store.close()


def merge_tile_counts(
    members: Sequence[Mapping[str, Any]],
    tile_values: Iterable[Any],
) -> Dict[str, Dict[int, float]]:
    """Fold tile workers' partial counts into per-chip count vectors.

    The reduction is exact and order-independent: each ``(chip,
    condition)`` count is *assigned*, never summed, so any arrival order
    produces the same table, and a gap or an overlap -- a condition
    measured by zero or by two tiles -- is a hard
    :class:`~repro.errors.ConfigurationError` instead of a silently
    wrong total.  Returns ``{member unit_id: {plan index: count}}``
    covering every plan position.
    """
    first = _shared_fleet_config(members)
    n_conditions = len(first["intervals_s"]) + len(first["temperatures_c"]) - 1
    member_ids = [str(m["unit_id"]) for m in members]
    merged: Dict[str, Dict[int, float]] = {uid: {} for uid in member_ids}
    for value in tile_values:
        chips = list(value["chips"]) if isinstance(value, Mapping) else None
        if chips is None or [str(c["unit_id"]) for c in chips] != member_ids:
            raise ConfigurationError(
                "tile result does not cover its chunk's members exactly; "
                "the worker and the chunk payload disagree"
            )
        for chip in chips:
            table = merged[str(chip["unit_id"])]
            for cond_index, count in chip["counts"]:
                cond_index = int(cond_index)
                if cond_index in table:
                    raise ConfigurationError(
                        f"condition {cond_index} of {chip['unit_id']!r} was "
                        "measured by two tiles; the tile partition overlaps"
                    )
                table[cond_index] = float(count)
    for unit_id, table in merged.items():
        if len(table) != n_conditions:
            missing = sorted(set(range(n_conditions)) - set(table))
            raise ConfigurationError(
                f"tile results for {unit_id!r} leave conditions "
                f"{missing[:5]} unmeasured; the tile partition has gaps"
            )
    return merged


def _assemble_chip_value(
    member: Mapping[str, Any], counts: Mapping[int, float]
) -> Dict[str, Any]:
    """Reassemble one chip's :func:`measure_chip` value from merged
    per-condition counts (same expressions, same pair order, same
    first-match top-interval lookup -- byte-identical)."""
    payload = member["payload"]
    intervals = [float(t) for t in payload["intervals_s"]]
    temperatures = [float(t) for t in payload["temperatures_c"]]
    interval_failures = [
        [trefi, counts[i]] for i, trefi in enumerate(intervals)
    ]
    top = max(intervals)
    top_count = next(count for trefi, count in interval_failures if trefi == top)
    temperature_failures = [[temperatures[0], top_count]]
    for j, temperature in enumerate(temperatures[1:]):
        temperature_failures.append([temperature, counts[len(intervals) + j]])
    return {
        "chip_id": int(payload["chip_id"]),
        "vendor": str(payload["vendor"]),
        "interval_failures": interval_failures,
        "temperature_failures": temperature_failures,
    }


def fleet_tile_dispatch(
    chips_per_unit: int,
    condition_tiles: int,
    shm: Optional[Mapping[str, Any]] = None,
    megakernel: Optional[bool] = None,
    on_tile: Optional[Callable[[Mapping[str, Any]], None]] = None,
    observability: Optional["obs_mod.Observability"] = None,
) -> UnitDispatch:
    """A :class:`~repro.runner.engine.UnitDispatch` that shards the
    (chips x conditions) work plane in two dimensions.

    ``group`` crosses the pending chips' fleet chunks with
    ``condition_tiles`` contiguous condition tiles
    (:func:`build_tile_units`, largest-cost tiles first); ``expand``
    holds each chunk's partial results until its last tile reports, then
    folds them with the exact order-independent reduction
    (:func:`merge_tile_counts`) into per-chip rows byte-identical to the
    chunk and per-chip paths.  The engine's currency -- store rows,
    resume keys, progress -- stays the per-chip unit, so tile runs,
    chunk runs, and per-chip runs all resume each other's run
    directories.

    Every completed tile is observable twice over: the ``kernel.tile.*``
    metric family (completed counter, duration histogram, open-tiles and
    oldest-open-age gauges) lands on ``observability`` (default: the
    process-wide layer when enabled), and ``on_tile`` -- when given --
    receives a live ``{"done", "total", "open_groups", "oldest_open_s"}``
    progress mapping (the service feeds ``repro top`` from it).  A
    cooperative stop can leave chunks with only some tiles done; their
    per-chip results are withheld (a partial merge would be wrong), the
    dispatch's ``finalize`` emits a ``runner.tile.dropped`` diagnostic
    per partial chunk, and a resume re-runs those chunks' tiles.
    """
    if chips_per_unit <= 0:
        raise ConfigurationError(
            f"chips_per_unit must be positive, got {chips_per_unit!r}"
        )
    if condition_tiles <= 0:
        raise ConfigurationError(
            f"condition_tiles must be positive, got {condition_tiles!r}"
        )

    state: Dict[str, Dict[str, Any]] = {}
    progress = {"done": 0, "total": 0}

    def layer() -> Optional["obs_mod.Observability"]:
        if observability is not None:
            return observability
        return obs_mod.get() if obs_mod.enabled() else None

    def group_key(unit: WorkUnit) -> str:
        members = unit.payload["members"]
        return f"{members[0]['unit_id']}-{members[-1]['unit_id']}"

    def open_groups() -> List[Dict[str, Any]]:
        return [
            entry
            for entry in state.values()
            if set(entry["results"]) != entry["expected"]
        ]

    def group(pending: Tuple[WorkUnit, ...]) -> Tuple[WorkUnit, ...]:
        state.clear()
        tiles = build_tile_units(
            pending, chips_per_unit, condition_tiles, shm=shm, megakernel=megakernel
        )
        now = time.monotonic()
        progress["done"], progress["total"] = 0, len(tiles)
        for unit in tiles:
            entry = state.setdefault(
                group_key(unit),
                {"expected": set(), "results": {}, "members": None, "last": now},
            )
            entry["expected"].add(unit.unit_id)
            entry["members"] = unit.payload["members"]
        active = layer()
        if active is not None and tiles:
            active.gauge("kernel.tile.plan", len(tiles))
            active.gauge("kernel.tile.open", len(tiles))
        return tiles

    def expand(
        chunk_unit: WorkUnit, result: UnitResult
    ) -> Tuple[UnitResult, ...]:
        entry = state[group_key(chunk_unit)]
        entry["results"][result.unit_id] = result
        now = time.monotonic()
        entry["last"] = now
        progress["done"] += 1
        complete = set(entry["results"]) == entry["expected"]
        pending_entries = open_groups()
        oldest = max((now - e["last"] for e in pending_entries), default=0.0)
        active = layer()
        if active is not None:
            active.counter("kernel.tile.completed", status=result.status)
            active.observe(
                "kernel.tile.seconds", result.elapsed_s, status=result.status
            )
            active.gauge("kernel.tile.open", progress["total"] - progress["done"])
            active.gauge("kernel.tile.oldest_open_s", oldest)
            active.emit(
                "runner.tile",
                unit_id=result.unit_id,
                tile=list(chunk_unit.payload.get("tile", ())),
                status=result.status,
                done=progress["done"],
                total=progress["total"],
            )
        if on_tile is not None:
            on_tile(
                {
                    "done": progress["done"],
                    "total": progress["total"],
                    "open_groups": len(pending_entries),
                    "oldest_open_s": oldest,
                }
            )
        if not complete:
            return ()
        members = list(entry["members"])
        rows = [entry["results"][uid] for uid in sorted(entry["expected"])]
        attempts = max(r.attempts for r in rows)
        elapsed = sum(r.elapsed_s for r in rows) / len(members)
        failed = next((r for r in rows if not r.ok), None)
        if failed is not None:
            return tuple(
                UnitResult(
                    unit_id=str(member["unit_id"]),
                    status=STATUS_FAILED,
                    error=failed.error,
                    attempts=attempts,
                    elapsed_s=elapsed,
                )
                for member in members
            )
        merged = merge_tile_counts(members, [r.value for r in rows])
        return tuple(
            UnitResult(
                unit_id=str(member["unit_id"]),
                status=STATUS_OK,
                value=_assemble_chip_value(member, merged[str(member["unit_id"])]),
                attempts=attempts,
                elapsed_s=elapsed,
            )
            for member in members
        )

    def finalize() -> Tuple[UnitResult, ...]:
        active = layer()
        for key, entry in sorted(state.items()):
            got = len(entry["results"])
            if got and got < len(entry["expected"]):
                if active is not None:
                    active.emit(
                        "runner.tile.dropped",
                        group=key,
                        completed=got,
                        expected=len(entry["expected"]),
                    )
        state.clear()
        return ()

    return UnitDispatch(
        worker=measure_fleet_tile, group=group, expand=expand, finalize=finalize
    )


def aggregate_chip_results(
    results: Iterable[UnitResult],
) -> Tuple[CountTable, CountTable]:
    """Fold ok unit results into (interval, temperature) count tables.

    Results are sorted by chip id first, so the tables -- and everything
    derived from them -- are identical for any completion order and for any
    serial/parallel/resumed execution mix.
    """
    ordered = sorted(
        (r.value for r in results if r.ok), key=lambda value: int(value["chip_id"])
    )
    interval_counts: CountTable = {}
    temperature_counts: CountTable = {}
    for value in ordered:
        vendor = str(value["vendor"])
        for trefi, count in value["interval_failures"]:
            interval_counts.setdefault(vendor, {}).setdefault(float(trefi), []).append(
                int(count)
            )
        for temperature, count in value["temperature_failures"]:
            temperature_counts.setdefault(vendor, {}).setdefault(
                float(temperature), []
            ).append(int(count))
    return interval_counts, temperature_counts
