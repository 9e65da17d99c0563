"""Fleet-batched brute-force profiling (Algorithm 1 across many chips).

:class:`FleetProfiler` runs the same write/expose/read schedule as
:class:`~repro.core.bruteforce.BruteForceProfiler` on a whole
:class:`~repro.dram.fleet.ChipFleet` at once: each command fans out to the
member chips (preserving exact per-chip clocks, traces, and RNG streams),
while the failure evaluation of every read runs as one fused numpy pass
over the stacked weak tails.  Observed-cell accumulation is likewise
batched -- one boolean "discovered" mask over the concatenated cell space
(the fleet analogue of :class:`~repro.core.device.ObservedCellAccumulator`)
plus a small per-chip overflow set for VRT episodes striking outside the
weak tail.

The per-chip failing sets it reports are byte-identical to what a
:class:`~repro.core.bruteforce.BruteForceProfiler` run over each chip
standalone would have discovered under the same schedule -- the contract
``tests/test_fleet.py`` and ``tests/test_fastpath_equivalence.py`` pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..conditions import Conditions
from ..dram.commands import Command, CommandRecord
from ..dram.dpd import median_of_three
from ..dram.fleet import ChipFleet, DeterministicReads
from ..errors import CommandSequenceError, ConfigurationError, ProfilingError
from ..patterns import STANDARD_PATTERNS, DataPattern

#: Bytes of read uniforms a megakernel pass holds at once (across all
#: chips).  Rows are processed in blocks of whole pattern rounds sized to
#: this cap -- value-identical, since per-chip block draws partition each
#: read stream exactly like the per-read draws they replace -- so a unit's
#: transient working set is fixed whatever its row or chip count (one
#: pattern round is the floor).
_BLOCK_CAP_BYTES = 1024 * 1024

#: Block size of the draw-and-discard fallback in
#: :func:`advance_uniform_doubles` (bounds the scratch allocation).
_ADVANCE_BLOCK = 1 << 18


def advance_uniform_doubles(rng: np.random.Generator, count: int) -> None:
    """Advance ``rng`` exactly as ``count`` uniform float64 draws would.

    ``Generator.random(dtype=np.float64)`` consumes one 64-bit output of
    the underlying bit generator per double, so for bit generators that
    expose ``advance`` (PCG64, the :func:`repro.rng.derive` default) the
    seek is O(1) state arithmetic instead of O(count) generation -- the
    primitive :meth:`FleetProfiler.seek_grid` builds tile entry states
    from.  A generator holding a buffered 32-bit half-word
    (``has_uint32``) or lacking ``advance`` falls back to drawing and
    discarding in bounded blocks: same stream position, just slower.
    ``tests/test_tile_dispatch.py`` pins advance == draw equivalence.
    """
    remaining = int(count)
    if remaining <= 0:
        return
    bit_generator = rng.bit_generator
    advance = getattr(bit_generator, "advance", None)
    if advance is not None and not bit_generator.state.get("has_uint32", 0):
        advance(remaining)
        return
    while remaining:
        block = min(remaining, _ADVANCE_BLOCK)
        rng.random(block)
        remaining -= block


class _ReadStep(NamedTuple):
    """One planned write/expose/read cycle of a condition grid."""

    cond: int
    pattern: DataPattern
    exposure_s: float
    t_write: float
    t_wait: float
    t_read: float


@dataclass(frozen=True)
class FleetChipResult:
    """One chip's accumulated discoveries from a fleet profiling run."""

    chip_id: int
    failing: frozenset

    def __len__(self) -> int:
        return len(self.failing)


class FleetProfiler:
    """Algorithm 1, evaluated fleet-fused.

    Parameters
    ----------
    patterns:
        Data patterns tested each iteration; defaults to the paper's six
        base patterns plus inverses.
    iterations:
        Number of rounds (the campaign worker uses the campaign's
        ``iterations``).

    The adaptive knobs of the per-chip profiler (idle gaps, quiet-streak
    stopping) are deliberately absent: they would couple the schedule to
    per-chip discovery dynamics, breaking the "every chip sees the same
    command/clock trajectory" invariant fleet reads are built on.
    """

    mechanism_name = "fleet-brute-force"

    def __init__(
        self,
        patterns: Sequence[DataPattern] = STANDARD_PATTERNS,
        iterations: int = 16,
    ) -> None:
        if iterations <= 0:
            raise ConfigurationError(f"iterations must be positive, got {iterations!r}")
        if not patterns:
            raise ConfigurationError("at least one data pattern is required")
        self.patterns = tuple(patterns)
        self.iterations = iterations

    def run(
        self, fleet: ChipFleet, conditions: Conditions
    ) -> Tuple[FleetChipResult, ...]:
        """Profile every chip in ``fleet`` at ``conditions``.

        Returns one :class:`FleetChipResult` per chip, in fleet order.
        """
        if conditions.trefi > fleet.max_trefi_s:
            raise ProfilingError(
                f"profiling interval {conditions.trefi!r}s exceeds the fleet's "
                f"supported maximum of {fleet.max_trefi_s!r}s"
            )
        population = fleet.population
        discovered = np.zeros(len(population), dtype=bool)
        extras: List[Set[int]] = [set() for _ in fleet.chips]
        with obs.span(
            "profiler.fleet_run",
            mechanism=self.mechanism_name,
            chips=len(fleet),
            trefi=conditions.trefi,
        ):
            for iteration in range(self.iterations):
                for pattern in self.patterns:
                    fleet.write_pattern(pattern)
                    fleet.disable_refresh()
                    fleet.wait(conditions.trefi)
                    fleet.enable_refresh()
                    mask, vrt = fleet.read_failures()
                    discovered |= mask
                    for chip_index, cells in vrt:
                        self._fold_vrt(
                            population, discovered, extras, chip_index, cells
                        )
                if obs.enabled():
                    obs.counter(
                        "profiler.iterations",
                        len(fleet),
                        mechanism=self.mechanism_name,
                    )
                    obs.emit(
                        "profiler.fleet_iteration",
                        mechanism=self.mechanism_name,
                        chips=len(fleet),
                        iteration=iteration,
                        discovered=int(np.count_nonzero(discovered))
                        + sum(len(e) for e in extras),
                    )
        results = []
        for i, chip in enumerate(fleet.chips):
            start, end = population.segment(i)
            in_space = population.member_indices(i)[discovered[start:end]]
            failing = frozenset(in_space.tolist()) | frozenset(extras[i])
            results.append(FleetChipResult(chip_id=chip.chip_id, failing=failing))
        return tuple(results)

    def run_grid(
        self,
        fleet: ChipFleet,
        conditions_grid: Sequence[Conditions],
        megakernel: bool = True,
        tile: Optional[Tuple[int, int]] = None,
    ) -> Tuple[Tuple[FleetChipResult, ...], ...]:
        """Profile every chip at every condition of a grid, fused.

        Returns one result tuple per grid entry, in grid order -- each
        byte-identical (results, traces, clocks, generator states, chip
        state) to ``tuple(self.run(fleet, c) for c in conditions_grid)``.

        With ``megakernel=True``, the whole grid collapses into one pass:
        the command schedule is replayed once on scalars (every chip
        traverses the identical clock trajectory, so the per-step times,
        exposures, and trace records are shared), DPD excitation draws
        run only where the sequential path actually draws, VRT arrival
        checks batch into one vectorized Poisson per chip (falling back
        to the exact interleaved replay for the rare chip that draws an
        episode), and every read's uniforms and probability rows stack
        into per-chip block compares.  Each transformation is draw-for-draw
        equivalent to the sequential walk, which is what keeps the output
        bit-equal.

        With observability enabled, the fused pass records phase-level
        ``kernel.*`` spans (schedule replay, DPD excitation, VRT, read
        compare, commit) -- wall-clock observation only, so fused results
        stay bit-equal with instrumentation on or off.  Per-*command*
        telemetry needs the sequential command fan-out: pass
        ``megakernel=False`` to trade the fused speed for the exact
        per-command counter/event stream.

        The only observable deviation is error *timing*: every condition's
        interval is validated up front, so an invalid grid entry raises
        before any command executes instead of after the preceding entries
        ran (no partial state, same exception and message).

        ``tile=(start, stop)`` restricts evaluation to the grid's
        half-open condition slice ``[start, stop)``: conditions before
        ``start`` are *seeked* past (:meth:`seek_grid` -- the exact
        entry-state replay, no read evaluation), conditions in the slice
        are evaluated, and conditions at ``stop`` and beyond are left
        untouched.  Returned results cover only the slice, in slice
        order, and each is bit-equal to the matching entry of a full
        ``run_grid`` over the whole grid.
        """
        conditions_grid = tuple(conditions_grid)
        for conditions in conditions_grid:
            if conditions.trefi > fleet.max_trefi_s:
                raise ProfilingError(
                    f"profiling interval {conditions.trefi!r}s exceeds the fleet's "
                    f"supported maximum of {fleet.max_trefi_s!r}s"
                )
        if tile is not None:
            start, stop = int(tile[0]), int(tile[1])
            if not 0 <= start <= stop <= len(conditions_grid):
                raise ConfigurationError(
                    f"tile {tile!r} out of range for a "
                    f"{len(conditions_grid)}-condition grid"
                )
            if start:
                self.seek_grid(fleet, conditions_grid[:start])
            conditions_grid = conditions_grid[start:stop]
        if not conditions_grid:
            return ()
        if not megakernel:
            return tuple(self.run(fleet, c) for c in conditions_grid)
        return self._run_grid_fused(fleet, conditions_grid)

    def _replay_schedule(
        self, fleet: ChipFleet, conditions_grid: Tuple[Conditions, ...], t: float
    ) -> Tuple[List[_ReadStep], List[CommandRecord], List[float], float]:
        """Scalar clock replay of a condition grid starting at time ``t``.

        Returns ``(steps, records, vrt_times, t_final)`` -- every per-step
        clock value, exposure, and shared trace record the lockstep
        command methods would have produced, computed with the identical
        floating-point expressions in the identical order (bit-equal).
        Shared by the fused evaluator and :meth:`seek_grid`, which is what
        guarantees a seek lands on exactly the clock trajectory the
        evaluated prefix would have left behind.
        """
        io = fleet._io_seconds
        max_trefi = fleet._max_trefi_s
        steps: List[_ReadStep] = []
        records: List[CommandRecord] = []
        vrt_times: List[float] = []
        write, disable, wait, enable, read = (
            Command.WRITE_PATTERN,
            Command.REFRESH_DISABLE,
            Command.WAIT,
            Command.REFRESH_ENABLE,
            Command.READ_COMPARE,
        )
        for ci, conditions in enumerate(conditions_grid):
            trefi = conditions.trefi
            wait_detail = f"{trefi:.6f}s"
            for _ in range(self.iterations):
                for pattern in self.patterns:
                    t = t + io
                    t_write = t
                    t = t + trefi
                    t_wait = t
                    exposure = t_wait - t_write
                    # Tolerate float accumulation error at the exact boundary.
                    if exposure > max_trefi * (1.0 + 1e-9):
                        raise ConfigurationError(
                            f"exposure {exposure:.3f}s exceeds max_trefi_s={max_trefi!r}; "
                            "construct the chip with a larger max_trefi_s"
                        )
                    t = t + io
                    t_read = t
                    steps.append(_ReadStep(ci, pattern, exposure, t_write, t_wait, t_read))
                    records += (
                        CommandRecord(t_write, write, pattern.key),
                        CommandRecord(t_write, disable),
                        CommandRecord(t_wait, wait, wait_detail),
                        CommandRecord(t_wait, enable),
                        CommandRecord(t_read, read, f"exposure={exposure:.6f}s"),
                    )
                    vrt_times += (t_write, t_wait, t_read)
        return steps, records, vrt_times, t

    def seek_grid(
        self, fleet: ChipFleet, conditions_grid: Sequence[Conditions]
    ) -> None:
        """Advance every chip's state *past* ``conditions_grid`` without
        evaluating a single read.

        After the call, each chip's clock, trace, refresh state, VRT
        process, and every RNG stream sit exactly where a full
        :meth:`run_grid` (or the sequential per-condition walk -- both are
        draw-for-draw identical) over the grid would have left them, so a
        subsequent ``run_grid`` over later conditions produces bit-equal
        results.  This is the tile entry-state seek: a condition-tile
        worker replays its prefix in O(schedule) scalar work plus O(1)
        RNG stream arithmetic per chip, instead of re-running the
        prefix's numpy evaluation.

        Draw accounting per chip over the prefix:

        * **read stream** -- ``steps x tail`` uniforms, advanced in one
          :func:`advance_uniform_doubles` call;
        * **DPD stream** -- deterministic patterns draw only on their
          first-ever excitation (the real ``excite`` call here also fills
          the model's cache, so the tile's evaluated conditions reuse it
          without redrawing); standard stochastic writes cost exactly
          ``4 x tail`` doubles each and collapse into one advance; exotic
          stochastic patterns replay ``excite`` verbatim;
        * **VRT stream** -- the same vectorized arrival check as the
          fused pass (scalar replay fallback on an arrival), minus the
          RNG-pure failing-cell queries.

        The last write's pattern/alignment arrays are deliberately *not*
        reconstructed: they are write-only state, unconditionally
        overwritten by the next condition's first write before any read
        can observe them.
        """
        conditions_grid = tuple(conditions_grid)
        for conditions in conditions_grid:
            if conditions.trefi > fleet.max_trefi_s:
                raise ProfilingError(
                    f"profiling interval {conditions.trefi!r}s exceeds the fleet's "
                    f"supported maximum of {fleet.max_trefi_s!r}s"
                )
        if not conditions_grid:
            return
        chips = fleet.chips
        population = fleet.population
        t = fleet._now_all()
        for chip in chips:
            if not chip._refresh_enabled:
                raise CommandSequenceError("refresh is already disabled")
        with obs.span(
            "kernel.tile.seek", chips=len(chips), conditions=len(conditions_grid)
        ):
            steps, records, vrt_times, t_final = self._replay_schedule(
                fleet, conditions_grid, t
            )

            # DPD stream: walk the writes in order so cached/advanced/
            # replayed draws interleave exactly like the evaluated pass.
            dpds = tuple(chip.population.dpd for chip in chips)
            batch_ok = all(d.models_orientation for d in dpds)
            cache = dpds[0]._cached
            pending_writes = 0

            def flush() -> None:
                nonlocal pending_writes
                if pending_writes:
                    for dpd in dpds:
                        advance_uniform_doubles(
                            dpd._rng, 4 * dpd.n_cells * pending_writes
                        )
                    pending_writes = 0

            for step in steps:
                pattern = step.pattern
                if pattern.stochastic:
                    if (
                        batch_ok
                        and pattern.name == "random"
                        and pattern.alignment_beta == (2.0, 2.0)
                    ):
                        pending_writes += 1
                    else:
                        flush()
                        for dpd in dpds:
                            dpd.excite(pattern)
                elif pattern.key not in cache:
                    flush()
                    for dpd in dpds:
                        dpd.excite(pattern)
            flush()

            # VRT: the batched arrival check consumes the stream exactly
            # like the scalar walk; a chip that draws an arrival replays
            # the schedule scalar (queries are RNG-pure -- skipped).
            schedule = np.asarray(vrt_times, dtype=np.float64)
            for chip in chips:
                if not chip.vrt.advance_schedule(schedule, chip._temperature_c):
                    for step in steps:
                        chip.vrt.advance_to(step.t_write, chip._temperature_c)
                        chip.vrt.advance_to(step.t_wait, chip._temperature_c)
                        chip.vrt.advance_to(step.t_read, chip._temperature_c)

            # Read streams + per-chip end state (clock, trace, refresh).
            n_rows = len(steps)
            for i, chip in enumerate(chips):
                start, end = population.segment(i)
                advance_uniform_doubles(chip.read_rng, n_rows * (end - start))
                chip.clock._now = t_final
                chip.trace.records.extend(records)
                chip._refresh_enabled = True
                chip._disable_time = None
                chip._frozen_exposure = 0.0

    def _run_grid_fused(
        self, fleet: ChipFleet, conditions_grid: Tuple[Conditions, ...]
    ) -> Tuple[Tuple[FleetChipResult, ...], ...]:
        chips = fleet.chips
        population = fleet.population
        n_chips = len(chips)
        n_total = len(population)

        # Entry invariants the sequential walk would enforce on its first
        # commands (same exceptions, before any state changes).
        t = fleet._now_all()
        for chip in chips:
            if not chip._refresh_enabled:
                raise CommandSequenceError("refresh is already disabled")

        # ------------------------------------------------------------------
        # Scalar schedule replay: one pass computes every step's clock
        # values, exposure, and the five shared trace records -- exactly
        # the floating-point expressions the lockstep command methods
        # evaluate, in the same order, so every value is bit-equal.
        # ------------------------------------------------------------------
        with obs.span("kernel.schedule_replay", chips=n_chips, conditions=len(conditions_grid)):
            steps, records, vrt_times, t_final = self._replay_schedule(
                fleet, conditions_grid, t
            )
        n_rows = len(steps)
        period = len(self.patterns)
        exposures = np.array([step.exposure_s for step in steps], dtype=np.float64)
        row_cond = np.array([step.cond for step in steps], dtype=np.intp)
        segments = [population.segment(i) for i in range(n_chips)]

        # ------------------------------------------------------------------
        # VRT: one vectorized arrival check per chip covers the whole grid.
        # Chips with no arrival (the overwhelming majority) still answer
        # read queries against any pre-existing episodes -- post-hoc is
        # exact there because the episode set is constant over the grid.
        # A chip that would draw an episode replays the schedule with the
        # sequential advance/query interleaving, bit for bit.  (Each chip's
        # VRT, DPD, and read streams are independent generators, so the
        # phases may run in any order.)
        # ------------------------------------------------------------------
        with obs.span("kernel.vrt", chips=n_chips):
            schedule = np.asarray(vrt_times, dtype=np.float64)
            vrt_hits: Dict[int, List[Tuple[int, np.ndarray]]] = {}
            for i, chip in enumerate(chips):
                if chip.vrt.advance_schedule(schedule, chip._temperature_c):
                    if chip.vrt.episode_count:
                        for r, step in enumerate(steps):
                            cells = chip.vrt.failing_cells(step.t_read, step.exposure_s)
                            if len(cells):
                                vrt_hits.setdefault(r, []).append((i, cells))
                else:
                    for r, step in enumerate(steps):
                        chip.vrt.advance_to(step.t_write, chip._temperature_c)
                        chip.vrt.advance_to(step.t_wait, chip._temperature_c)
                        chip.vrt.advance_to(step.t_read, chip._temperature_c)
                        cells = chip.vrt.failing_cells(step.t_read, step.exposure_s)
                        if len(cells):
                            vrt_hits.setdefault(r, []).append((i, cells))

        # ------------------------------------------------------------------
        # DPD excitation and read evaluation, streamed in row blocks of
        # whole pattern rounds sized to a fixed byte cap, so the working
        # set does not grow with the grid or the fleet.
        #
        # DPD: the sequential walk excites every chip at every write, but a
        # deterministic pattern only *draws* on its first excitation (later
        # calls return the cached arrays untouched), so exciting once per
        # (chip, deterministic pattern) and reusing the returned arrays
        # consumes each chip's DPD stream identically -- including the
        # object identities the fleet caches pin on.  Stochastic patterns
        # redraw every write, exactly like the walk, and live only as long
        # as their block.  The standard random pattern family batches
        # across the fleet: each chip draws its ``4n`` raw doubles (the
        # identical doubles the per-chip ``(3, n)`` median draw plus
        # ``(n,)`` bit draw consume) straight into one stacked buffer, then
        # the median network, cap multiply, bit threshold, and orientation
        # compare run once over the fleet -- elementwise per cell, so each
        # chip's slice is bit-equal to its own excite() call.  Exotic
        # stochastic patterns (non-Beta(2,2) or non-random families) keep
        # the per-chip path.
        #
        # Reads: each chip draws its block's ``(rows x tail)`` uniforms in
        # stream order (the block draw partitions the read stream exactly
        # like the per-read draws).  Deterministic rows go through the
        # monotone pre-filter (:class:`DeterministicReads`): one ndtr pass
        # per pattern bounds every row, and the exact pipeline runs only on
        # the few uniforms under the bound.  Stochastic rows gather their
        # chip-ordered uniforms out of the same block and go through the
        # fleet's Chernoff-banded sampler unchanged.
        # ------------------------------------------------------------------
        dpds = tuple(chip.population.dpd for chip in chips)
        excites = tuple(d.excite for d in dpds)
        lengths = np.array([end - start for start, end in segments], dtype=np.intp)
        # Per cell: its chip's tail length and its offset within the chip,
        # the coordinates of the chip-major layouts below.
        cell_tail = np.repeat(lengths, lengths)
        cell_start = np.repeat(np.array([s for s, _ in segments], dtype=np.intp), lengths)
        cell_local = np.arange(n_total, dtype=np.intp) - cell_start
        batch_ok = all(d.models_orientation for d in dpds)
        if batch_ok:
            caps_cells = np.repeat([d._random_cap for d in dpds], lengths)
            orientation_cells = np.concatenate([d._orientation for d in dpds])
        scales = tuple(
            float(chip.population.retention_scale(chip._temperature_c))
            for chip in chips
        )
        keys = [None if p.stochastic else p.key for p in self.patterns]
        det_per_round = sum(key is not None for key in keys)
        by_position = np.where(exposures > 0.0, exposures, 0.0).reshape(-1, period).max(axis=0)
        max_exposures: Dict[str, float] = {}
        for key, exposure in zip(keys, by_position.tolist()):
            if key is not None and exposure > 0.0:
                max_exposures[key] = max(max_exposures.get(key, 0.0), exposure)
        rows_per_block = period * max(
            1, _BLOCK_CAP_BYTES // (period * 8 * max(1, n_total))
        )
        uniforms = np.empty(min(rows_per_block, n_rows) * n_total, dtype=np.float64)
        u_row = np.empty(n_total, dtype=np.float64)
        u_at = np.empty(n_total, dtype=np.intp)
        det_cache: Dict[str, Tuple[tuple, tuple]] = {}
        batched_last: Dict[str, Tuple[DataPattern, np.ndarray, np.ndarray]] = {}
        reads: Optional[DeterministicReads] = None
        discovered = np.zeros((len(conditions_grid), n_total), dtype=bool)
        compared = candidates = 0

        def excite_batched(
            block: Sequence[_ReadStep],
            rows: List[int],
            entries: Dict[int, Tuple[object, object]],
        ) -> None:
            """Draw and post-process the block's pending standard random
            writes into ``entries``, then clear ``rows``.

            Nothing else draws from a chip's DPD stream between them, so
            each chip fills all ``k`` writes' ``4n`` doubles in one call,
            straight into its chip-major slice of one stacked buffer.
            """
            k = len(rows)
            raw = np.empty(4 * k * n_total, dtype=np.float64)
            for i, (start, end) in enumerate(segments):
                dpds[i].excite_random_raw(out=raw[4 * k * start : 4 * k * end])
            if n_chips == 1:
                operands = raw.reshape(k, 4, n_total)
            else:
                # operands[w, c, g]: operand c of write w for cell g.
                at = np.arange(4 * k, dtype=np.intp).reshape(k, 4, 1) * cell_tail
                at += 4 * k * cell_start + cell_local
                operands = np.take(raw, at)
            draws = median_of_three(operands[:, 0], operands[:, 1], operands[:, 2])
            np.multiply(draws, caps_cells, out=draws)
            data_bits = np.less(operands[:, 3], 0.5)
            masks = np.empty((k, n_total), dtype=np.float64)
            for w, j in enumerate(rows):
                pattern = block[j].pattern
                if pattern.inverted:
                    np.not_equal(data_bits[w], orientation_cells, out=masks[w])
                else:
                    np.equal(data_bits[w], orientation_cells, out=masks[w])
                entries[j] = (draws[w], masks[w])
                batched_last[pattern.key] = (pattern, draws[w], masks[w])
            rows.clear()

        for b0 in range(0, n_rows, rows_per_block):
            b1 = min(b0 + rows_per_block, n_rows)
            nb = b1 - b0
            block = steps[b0:b1]
            # Block row -> (alignments, stresses) of its stochastic write.
            entries: Dict[int, Tuple[object, object]] = {}
            with obs.span("kernel.dpd_excite", chips=n_chips, rows=nb):
                pending: List[int] = []
                for j, step in enumerate(block):
                    pattern = step.pattern
                    if not pattern.stochastic:
                        if pattern.key not in det_cache:
                            if pending:
                                excite_batched(block, pending, entries)
                            det_cache[pattern.key] = tuple(
                                zip(*[excite(pattern) for excite in excites])
                            )
                    elif (
                        batch_ok
                        and pattern.name == "random"
                        and pattern.alignment_beta == (2.0, 2.0)
                    ):
                        pending.append(j)
                    else:
                        if pending:
                            excite_batched(block, pending, entries)
                        entries[j] = tuple(zip(*[excite(pattern) for excite in excites]))
                if pending:
                    excite_batched(block, pending, entries)

            with obs.span("kernel.read_compare", chips=n_chips, rows=nb):
                if reads is None:
                    # The first block spans a whole pattern round, so every
                    # deterministic pattern has been excited by now.
                    reads = DeterministicReads(
                        population, scales, keys, det_cache, max_exposures
                    )
                blocks = []
                for i, chip in enumerate(chips):
                    start, end = segments[i]
                    view = uniforms[nb * start : nb * end].reshape(nb, end - start)
                    if end > start:
                        chip.read_rng.random(out=view)
                    blocks.append(view)
                rows, cells, found = reads.failures(blocks, exposures[b0:b1])
                discovered[row_cond[b0 + rows], cells] = True
                block_cells = (nb // period) * det_per_round * n_total
                compared += block_cells
                candidates += found
                for j, (aligns, stresses) in entries.items():
                    step = block[j]
                    if step.exposure_s == 0.0:
                        continue
                    if n_chips == 1:
                        u = blocks[0][j]
                    else:
                        # Row j of every chip's block, in chip order.
                        np.multiply(cell_tail, j, out=u_at)
                        u_at += nb * cell_start + cell_local
                        u = np.take(uniforms, u_at, out=u_row)
                    mask = population._sample_banded(
                        step.exposure_s, scales, aligns, stresses, (), u=u
                    )
                    discovered[step.cond] |= mask
                obs.annotate(cells=block_cells, candidates=found)
        last = steps[-1]
        if last.pattern.stochastic:
            last_aligns, last_stresses = entries[len(block) - 1]
        else:
            last_aligns, last_stresses = det_cache[last.pattern.key]
        if compared:
            obs.observe("kernel.prefilter.candidate_frac", candidates / compared)

        # Fold VRT hits into their step's condition.
        extras: List[List[Set[int]]] = [
            [set() for _ in chips] for _ in conditions_grid
        ]
        for r, hits in vrt_hits.items():
            ci = steps[r].cond
            for chip_index, cells in hits:
                self._fold_vrt(
                    population, discovered[ci], extras[ci], chip_index, cells
                )

        # ------------------------------------------------------------------
        # Commit per-chip end state: exactly what the sequential walk leaves
        # behind -- clock at the final read, the shared records appended in
        # order, the last write's pattern/DPD arrays, refresh re-enabled
        # with the exposure restarted by the final read's restore.
        # ------------------------------------------------------------------
        # Batched rows bypassed excite()'s cache stores; replay the final
        # store per stochastic pattern (earlier writes' entries are
        # overwritten by later ones in the sequential walk, so only the
        # last row per key is observable).
        with obs.span("kernel.commit", chips=n_chips):
            for pattern, draw, mask in batched_last.values():
                # Copies: the rows are views of their block's batch.
                draw, mask = draw.copy(), mask.copy()
                if last.pattern.key == pattern.key:
                    last_aligns, last_stresses = draw, mask
                for i in range(n_chips):
                    start, end = segments[i]
                    dpds[i].commit_random_write(
                        pattern, draw[start:end], mask[start:end]
                    )

            last_stacked = isinstance(last_aligns, np.ndarray)
            for i, chip in enumerate(chips):
                chip.clock._now = t_final
                chip.trace.records.extend(records)
                chip._pattern = last.pattern
                if last_stacked:
                    start, end = segments[i]
                    chip._alignment = last_aligns[start:end]
                    chip._stressed = last_stresses[start:end]
                else:
                    chip._alignment = last_aligns[i]
                    chip._stressed = last_stresses[i]
                chip._refresh_enabled = True
                chip._disable_time = None
                chip._frozen_exposure = 0.0

        out = []
        chip_ids = [chip.chip_id for chip in chips]
        spaces = [population.member_indices(i) for i in range(n_chips)]
        empty = frozenset()
        for ci in range(len(conditions_grid)):
            mask = discovered[ci]
            cond_extras = extras[ci]
            if not mask.any() and not any(cond_extras):
                # Nothing discovered at this condition (typical for the
                # short-interval end of a sweep): skip the per-chip
                # boolean indexing entirely.
                out.append(
                    tuple(
                        FleetChipResult(chip_id=cid, failing=empty)
                        for cid in chip_ids
                    )
                )
                continue
            results = []
            for i in range(n_chips):
                start, end = segments[i]
                in_space = spaces[i][mask[start:end]]
                failing = frozenset(in_space.tolist()) | frozenset(cond_extras[i])
                results.append(
                    FleetChipResult(chip_id=chip_ids[i], failing=failing)
                )
            out.append(tuple(results))
        return tuple(out)

    @staticmethod
    def _fold_vrt(
        population,
        discovered: np.ndarray,
        extras: List[Set[int]],
        chip_index: int,
        cells: np.ndarray,
    ) -> None:
        """Fold one chip's VRT failing cells into the fleet bookkeeping.

        Cells inside the chip's weak tail mark the shared mask (they are
        indistinguishable from static discoveries there, matching
        :class:`~repro.core.device.ObservedCellAccumulator`); the rest land
        in the chip's overflow set.
        """
        space = population.member_indices(chip_index)
        start, _end = population.segment(chip_index)
        if space.size:
            pos = np.searchsorted(space, cells)
            in_space = space[np.minimum(pos, space.size - 1)] == cells
            discovered[start + pos[in_space]] = True
            outside = cells[~in_space]
        else:
            outside = cells
        if outside.size:
            extras[chip_index].update(int(c) for c in outside)
