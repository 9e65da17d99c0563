"""Fleet-batched failure evaluation: many chips per numpy call.

A characterization campaign runs the *same* measurement schedule on every
chip: the same patterns, the same refresh intervals, the same ambient
trajectory.  Per chip, one read-out costs a handful of numpy calls over a
weak tail of only a few hundred cells -- small enough that per-call
overhead, not arithmetic, dominates the campaign.  This module amortizes
that overhead across a *fleet*: the weak-cell tails of B chips are stacked
into one struct-of-arrays population (concatenated ``mu``/``sigma``/
susceptibility arrays with per-chip segment offsets), so one profiling
read for B chips at the same (pattern, trefi, temperature) point runs as a
handful of fused numpy/``ndtr`` calls plus per-segment reductions.

Byte-identity contract
----------------------
Fleet evaluation is **byte-identical** to the per-chip path -- the same
cells fail, in the same order, from the same generator states:

* every fused operation is elementwise, and the expressions are the
  per-chip expressions of :mod:`repro.dram.cell` term for term (IEEE
  arithmetic on a concatenated array is bit-equal per segment to the same
  arithmetic on the segments);
* the per-chip retention *scale* (a scalar in the per-chip path) becomes a
  per-cell array built with ``np.repeat``, and ``x * scale`` is bit-equal
  whether ``scale`` broadcasts from a scalar or repeats per element;
* RNG purity: each chip's uniforms are drawn from its own
  ``(seed, chip_id)``-derived read generator, in chip order, directly into
  the chip's segment of one shared buffer (``Generator.random(out=...)``
  fills a contiguous slice with exactly the values -- and leaves exactly
  the generator state -- of a plain ``rng.random(n)``), *before* the fused
  compare.

VRT episodes stay per-chip (each chip owns its episodic process and RNG
stream); :meth:`ChipFleet.read_failures` returns them alongside the fused
static mask so a batch profiler can fold both into its bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from .. import obs
from ..errors import CommandSequenceError, ConfigurationError, ProfilingError
from .cell import (
    Z_PIN_ZERO,
    _CHERNOFF_Z_MAX,
    _FAST_CACHE_MAX_ENTRIES,
    _FAST_CACHE_MAX_EXPOSURES,
    WeakCellPopulation,
)
from .chip import PendingRead, SimulatedDRAMChip
from .commands import Command, CommandRecord


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenation of per-chip arrays; a fleet of one reuses its chip's
    array instead of copying it (every fused use is read-only)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _same_arrays(refs: Tuple, arrays: Sequence) -> bool:
    """Identity comparison of two per-chip array tuples (cache pinning)."""
    return len(refs) == len(arrays) and all(a is b for a, b in zip(refs, arrays))


@dataclass
class _FleetPatternState:
    """Memoized per-(pattern, temperature-vector) fused evaluation state.

    The fleet analogue of ``repro.dram.cell._FastPatternState``: ``mu_eff``
    and ``sigma_eff`` are the concatenated scaled effective-retention
    arrays, pinned to the exact per-chip alignment arrays they were built
    from (a DPD redraw or temperature change misses the cache instead of
    reusing stale state).  ``p_by_exposure`` caches finished probability
    vectors per exposure, each pinned to the per-chip stress masks.
    """

    alignment_refs: Tuple[np.ndarray, ...]
    mu_eff: np.ndarray
    sigma_eff: np.ndarray
    p_by_exposure: Dict[float, Tuple[Tuple, np.ndarray]] = field(default_factory=dict)


class FleetPopulation:
    """The stacked weak tails of a batch of chips, evaluated fused.

    Construction concatenates each member population's ``mu_wc_s``,
    ``sigma_s``, and DPD susceptibility arrays; ``offsets[i]:offsets[i+1]``
    is chip ``i``'s segment in every concatenated array (and in the boolean
    failure masks :meth:`sample_failures` returns).
    """

    def __init__(
        self,
        populations: Sequence[WeakCellPopulation],
        backing: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        members = tuple(populations)
        if not members:
            raise ConfigurationError("a fleet population needs at least one member")
        self._members = members
        lengths = np.array([len(p) for p in members], dtype=np.int64)
        self._lengths = lengths
        self._offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._offsets[1:])
        self._n_total = int(self._offsets[-1])
        if backing is not None:
            # Zero-copy: the members' per-chip arrays are adjacent slices of
            # one shared-memory segment, so the concatenated arrays already
            # exist -- ``backing`` hands them over without a copy.  Values
            # (and therefore results) are identical to concatenation.
            if any(len(backing[k]) != self._n_total for k in ("mu_wc_s", "sigma_s", "susceptibility")):
                raise ConfigurationError(
                    "fleet backing arrays do not cover the member populations"
                )
            self._mu_wc = backing["mu_wc_s"]
            self._sigma = backing["sigma_s"]
            self._susceptibility = backing["susceptibility"]
        else:
            self._mu_wc = _stacked([p.mu_wc_s for p in members])
            self._sigma = _stacked([p.sigma_s for p in members])
            self._susceptibility = _stacked([p.dpd.susceptibility for p in members])
        # (1 - s) is a loop invariant of the effective-retention expression;
        # dividing by the precomputed array is the same IEEE divide as
        # dividing by the expression, so bits are unchanged.
        self._one_minus_s = 1.0 - self._susceptibility
        self._u = np.empty(self._n_total, dtype=np.float64)
        # Scratch buffers for the fused elementwise pipelines: `out=`-chained
        # ufuncs apply the exact same operations as the operator expressions
        # (bit-identical results) without reallocating multi-hundred-KB
        # temporaries on every read.
        self._z = np.empty(self._n_total, dtype=np.float64)
        self._scratch = np.empty(self._n_total, dtype=np.float64)
        self._states: Dict[Tuple[str, Tuple[float, ...]], _FleetPatternState] = {}
        self._scale_cells_memo: Dict[Tuple[float, ...], np.ndarray] = {}
        self._sigma_eff_memo: Dict[Tuple[float, ...], np.ndarray] = {}
        #: pattern_key -> (alignment refs, unscaled concatenated mu_eff).
        #: The DPD term depends only on the alignment draw, not on
        #: temperature, so it survives across scale states.
        self._mu_unscaled: Dict[str, Tuple[Tuple[np.ndarray, ...], np.ndarray]] = {}
        #: pattern_key -> (stress-mask refs, concatenated stress mask).
        self._stressed_memo: Dict[str, Tuple[Tuple, Optional[np.ndarray]]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_total

    @property
    def n_chips(self) -> int:
        return len(self._members)

    @property
    def offsets(self) -> np.ndarray:
        """Per-chip segment offsets into every concatenated array."""
        return self._offsets

    def segment(self, chip_index: int) -> Tuple[int, int]:
        """Chip ``chip_index``'s (start, end) slice bounds."""
        return int(self._offsets[chip_index]), int(self._offsets[chip_index + 1])

    def member_indices(self, chip_index: int) -> np.ndarray:
        """Chip ``chip_index``'s sorted weak-cell flat indices."""
        return self._members[chip_index].indices

    def invalidate_cache(self) -> None:
        """Drop every memoized fused evaluation state."""
        self._states.clear()
        self._scale_cells_memo.clear()
        self._sigma_eff_memo.clear()
        self._mu_unscaled.clear()
        self._stressed_memo.clear()

    # ------------------------------------------------------------------
    # Fused evaluation building blocks
    # ------------------------------------------------------------------
    def _scale_cells(self, scales: Tuple[float, ...]) -> np.ndarray:
        """Per-cell retention scale: chip ``i``'s scalar repeated over its
        segment.  Multiplying by it is bit-equal to the per-chip scalar
        multiply."""
        cells = self._scale_cells_memo.get(scales)
        if cells is None:
            cells = np.repeat(np.asarray(scales, dtype=np.float64), self._lengths)
            if len(self._scale_cells_memo) >= _FAST_CACHE_MAX_ENTRIES:
                self._scale_cells_memo.clear()
            self._scale_cells_memo[scales] = cells
        return cells

    def _sigma_eff(self, scales: Tuple[float, ...]) -> np.ndarray:
        """Concatenated ``sigma_s * scale`` -- the per-chip expression."""
        sigma_eff = self._sigma_eff_memo.get(scales)
        if sigma_eff is None:
            sigma_eff = self._sigma * self._scale_cells(scales)
            if len(self._sigma_eff_memo) >= _FAST_CACHE_MAX_ENTRIES:
                self._sigma_eff_memo.clear()
            self._sigma_eff_memo[scales] = sigma_eff
        return sigma_eff

    def _effective_retention(
        self, alignment: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Concatenated DPD effective retention -- the per-chip expression
        ``mu_wc_s * (1 - s*a) / (1 - s)`` term for term.

        Every step is the same ufunc the operator expression would invoke
        (multiplication commutes bitwise under IEEE 754), so chaining them
        through one buffer changes allocations, not results.  With ``out``
        the caller's scratch buffer is used; without, one array is
        allocated and returned.
        """
        tmp = np.multiply(self._susceptibility, alignment, out=out)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(self._mu_wc, tmp, out=tmp)
        return np.divide(tmp, self._one_minus_s, out=tmp)

    def _concat_optional(
        self, arrays: "Sequence[Optional[np.ndarray]] | np.ndarray"
    ) -> Optional[np.ndarray]:
        if isinstance(arrays, np.ndarray):
            # Already stacked over the fleet (megakernel batched rows).
            return arrays
        present = [a is not None for a in arrays]
        if not any(present):
            return None
        if not all(present):
            raise ConfigurationError(
                "fleet chips disagree on stress-mask availability; all chips "
                "must model orientation or none"
            )
        return _stacked(arrays)

    def _draw_uniforms(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One full-tail uniform draw per chip, in chip order, into the
        shared buffer.  Each generator consumes exactly the values (and
        ends in exactly the state) the per-chip path would produce."""
        u = self._u
        offsets = self._offsets
        for i, rng in enumerate(rngs):
            start, end = offsets[i], offsets[i + 1]
            if end > start:
                rng.random(out=u[start:end])
        return u

    def _unscaled_mu(
        self, pattern_key: str, alignments: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Concatenated effective retention *before* temperature scaling,
        memoized per pattern and pinned to the per-chip alignment arrays.
        The DPD term is a pure function of the alignment draw, so it is
        shared across every temperature state built from the same draw."""
        entry = self._mu_unscaled.get(pattern_key)
        if entry is not None and _same_arrays(entry[0], alignments):
            return entry[1]
        mu = self._effective_retention(_stacked(alignments))
        if len(self._mu_unscaled) >= _FAST_CACHE_MAX_ENTRIES:
            self._mu_unscaled.clear()
        self._mu_unscaled[pattern_key] = (tuple(alignments), mu)
        return mu

    def _concat_stressed(
        self, pattern_key: str, stresseds: Sequence[Optional[np.ndarray]]
    ) -> Optional[np.ndarray]:
        """Concatenated stress mask, memoized per pattern and pinned to the
        per-chip mask arrays (deterministic patterns reuse their masks)."""
        entry = self._stressed_memo.get(pattern_key)
        if entry is not None and _same_arrays(entry[0], stresseds):
            return entry[1]
        stressed = self._concat_optional(stresseds)
        if len(self._stressed_memo) >= _FAST_CACHE_MAX_ENTRIES:
            self._stressed_memo.clear()
        self._stressed_memo[pattern_key] = (tuple(stresseds), stressed)
        return stressed

    def _pattern_state(
        self,
        pattern_key: str,
        scales: Tuple[float, ...],
        alignments: Sequence[np.ndarray],
    ) -> _FleetPatternState:
        key = (pattern_key, scales)
        state = self._states.get(key)
        if state is not None and _same_arrays(state.alignment_refs, alignments):
            return state
        state = _FleetPatternState(
            alignment_refs=tuple(alignments),
            mu_eff=self._unscaled_mu(pattern_key, alignments)
            * self._scale_cells(scales),
            sigma_eff=self._sigma_eff(scales),
        )
        if len(self._states) >= _FAST_CACHE_MAX_ENTRIES:
            self._states.clear()
        self._states[key] = state
        return state

    # ------------------------------------------------------------------
    # Fused sampling
    # ------------------------------------------------------------------
    def sample_failures(
        self,
        exposure_s: float,
        scales: Sequence[float],
        alignments: Sequence[np.ndarray],
        stresseds: Sequence[Optional[np.ndarray]],
        rngs: Sequence[np.random.Generator],
        pattern_key: Optional[str] = None,
        stochastic: bool = True,
    ) -> np.ndarray:
        """Bernoulli-sample one fleet read-out as a fused pass.

        ``scales``/``alignments``/``stresseds``/``rngs`` are per-chip, in
        fleet order.  Returns a boolean mask over the concatenated cell
        space; chip ``i``'s segment is bit-equal to the ``failed`` mask its
        own :meth:`~repro.dram.cell.WeakCellPopulation.sample_failures`
        would have produced (fast or reference mode -- they are identical).
        """
        if len(alignments) != self.n_chips or len(rngs) != self.n_chips:
            raise ConfigurationError("per-chip inputs must match the fleet size")
        if exposure_s < 0.0:
            raise ConfigurationError(f"exposure must be non-negative, got {exposure_s!r}")
        scales = tuple(float(s) for s in scales)
        if exposure_s == 0.0:
            # The per-chip path draws uniforms even for a zero exposure;
            # match it so every generator state stays aligned.
            self._draw_uniforms(rngs)
            return np.zeros(self._n_total, dtype=bool)
        if pattern_key is not None and not stochastic:
            return self._sample_deterministic(
                exposure_s, scales, pattern_key, alignments, stresseds, rngs
            )
        return self._sample_banded(exposure_s, scales, alignments, stresseds, rngs)

    def deterministic_p(
        self,
        exposure_s: float,
        scales: Tuple[float, ...],
        pattern_key: str,
        alignments: Sequence[np.ndarray],
        stresseds: Sequence[Optional[np.ndarray]],
    ) -> np.ndarray:
        """The fused per-cell failure-probability vector for a deterministic
        pattern at one exposure, memoized and pinned to the exact per-chip
        alignment/stress arrays.  Comparing chip-ordered uniforms against it
        is one read-out; the megakernel stacks these vectors row-wise to
        evaluate a whole condition grid per chip in one compare."""
        state = self._pattern_state(pattern_key, scales, alignments)
        key = float(exposure_s)
        entry = state.p_by_exposure.get(key)
        if entry is None or not _same_arrays(entry[0], stresseds):
            # One fused ndtr pass -- the per-chip expression, term for term,
            # with the z pipeline staged through the scratch buffer.
            z = np.subtract(exposure_s, state.mu_eff, out=self._z)
            np.divide(z, state.sigma_eff, out=z)
            p = ndtr(z)
            stressed = self._concat_stressed(pattern_key, stresseds)
            if stressed is not None:
                np.multiply(p, stressed, out=p)
            if len(state.p_by_exposure) >= _FAST_CACHE_MAX_EXPOSURES:
                state.p_by_exposure.clear()
            entry = (tuple(stresseds), p)
            state.p_by_exposure[key] = entry
        return entry[1]

    def pattern_arrays(
        self,
        scales: Tuple[float, ...],
        pattern_key: str,
        alignments: Sequence[np.ndarray],
        stresseds: Sequence[Optional[np.ndarray]],
        out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(mu_eff, sigma_eff, stressed)`` over the concatenated cells for
        one deterministic pattern -- the operands of its z pipeline.

        ``mu_eff`` is the product :meth:`deterministic_p` memoizes (same
        ufunc, same operands, so the same bits), computed into ``out``
        when given instead of into a new memo entry.
        """
        mu_eff = np.multiply(
            self._unscaled_mu(pattern_key, alignments), self._scale_cells(scales), out=out
        )
        return mu_eff, self._sigma_eff(scales), self._concat_stressed(pattern_key, stresseds)

    def deterministic_p_grid(
        self,
        exposures_s: Sequence[float],
        scales: Tuple[float, ...],
        pattern_key: str,
        alignments: Sequence[np.ndarray],
        stresseds: Sequence[Optional[np.ndarray]],
    ) -> np.ndarray:
        """Stacked :meth:`deterministic_p` rows for many exposures at once.

        Returns a ``(len(exposures_s), n_total)`` matrix whose row ``k`` is
        bit-equal to ``deterministic_p(exposures_s[k], ...)``: the z
        pipeline and ndtr are elementwise ufuncs, so evaluating them on a
        broadcast matrix applies the identical scalar operation to the
        identical operands.  This is the unfiltered reference the
        megakernel's :class:`DeterministicReads` pre-filter is tested
        against; it allocates ``rows x cells``, so production code does not
        call it.  (Row exposures accumulate clock error, but reads of one
        condition often repeat an exposure bit for bit: the per-chip path
        hits its per-exposure memo on about half its deterministic reads
        at ``iterations=2``.)
        """
        state = self._pattern_state(pattern_key, scales, alignments)
        p = np.subtract(
            np.asarray(exposures_s, dtype=np.float64)[:, None], state.mu_eff
        )
        np.divide(p, state.sigma_eff, out=p)
        ndtr(p, out=p)
        stressed = self._concat_stressed(pattern_key, stresseds)
        if stressed is not None:
            np.multiply(p, stressed, out=p)
        return p

    def _sample_deterministic(
        self,
        exposure_s: float,
        scales: Tuple[float, ...],
        pattern_key: str,
        alignments: Sequence[np.ndarray],
        stresseds: Sequence[Optional[np.ndarray]],
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Memoized fused probability-vector sampling (deterministic
        patterns): the fleet analogue of ``_sample_deterministic_fast``."""
        p = self.deterministic_p(exposure_s, scales, pattern_key, alignments, stresseds)
        return self._draw_uniforms(rngs) < p

    def _sample_banded(
        self,
        exposure_s: float,
        scales: Tuple[float, ...],
        alignments: Sequence[np.ndarray],
        stresseds: Sequence[Optional[np.ndarray]],
        rngs: Sequence[np.random.Generator],
        u: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fused Chernoff-cut sampling (stochastic patterns): the fleet
        analogue of ``_sample_banded_fast``, candidates gathered globally.

        ``u`` optionally supplies the chip-ordered uniforms (the megakernel
        gathers them from per-chip block draws -- value-identical to the
        per-read draw, so the compare is unchanged); without it each chip's
        read generator is consumed in fleet order as usual."""
        scale_cells = self._scale_cells(scales)
        alignment = (
            alignments if isinstance(alignments, np.ndarray) else _stacked(alignments)
        )
        # Stage the whole z pipeline through the two scratch buffers: each
        # step is the ufunc the operator expression would invoke, applied
        # in the same order, so the bits are unchanged.
        mu_eff = self._effective_retention(alignment, out=self._scratch)
        np.multiply(mu_eff, scale_cells, out=mu_eff)
        z = np.subtract(exposure_s, mu_eff, out=self._z)
        np.divide(z, self._sigma_eff(scales), out=z)
        if u is None:
            u = self._draw_uniforms(rngs)
        # Clamp the exponent exactly like the per-chip path: deep-tail
        # cells would otherwise push exp() into the subnormal slow path.
        # ``-0.5 * z * z`` associates left, so stage it as (-0.5 * z) * z;
        # mu_eff is dead here, freeing its scratch buffer for the bound.
        bound = np.multiply(-0.5, z, out=self._scratch)
        np.multiply(bound, z, out=bound)
        np.maximum(bound, -60.0, out=bound)
        np.exp(bound, out=bound)
        np.multiply(0.5, bound, out=bound)
        candidates = np.flatnonzero((z > _CHERNOFF_Z_MAX) | (u < bound))
        failed = np.zeros(self._n_total, dtype=bool)
        if len(candidates):
            p = ndtr(z[candidates])
            stressed = self._concat_optional(stresseds)
            if stressed is not None:
                p = p * stressed[candidates]
            failed[candidates] = u[candidates] < p
        return failed


#: Relative widening of a pre-filter bound.  ``ndtr`` is monotone on any
#: coarse grid, but its erf/erfc polynomials wiggle by up to ~12 ulps
#: (relative ~2e-15) between neighbouring arguments; 2**-30 (~9e-10)
#: covers that with a margin of five orders of magnitude.
PREFILTER_SLACK = 2.0**-30

#: Absolute floor added to every computed bound, covering wiggles among
#: subnormal probabilities where relative slack rounds away.  Uniform
#: draws are multiples of 2**-53, so the floor only admits ``u == 0.0``
#: candidates.
PREFILTER_FLOOR = 2.0**-1000


class DeterministicReads:
    """Pre-filtered read/compare for the deterministic rows of a grid.

    Within one pattern, rows differ only by exposure, and every step of
    the exact per-cell pipeline ``ndtr((e - mu_eff) / sigma_eff) *
    stressed`` is monotone in ``e`` (IEEE subtract, divide by a positive
    sigma, ``ndtr`` up to :data:`PREFILTER_SLACK`, multiply by a
    non-negative mask).  So one ``ndtr`` pass per pattern at its largest
    row exposure gives a per-cell bound ``p_max`` on every row's
    probability, and a read ``u < p`` can only fire where ``u < p_max``.
    :meth:`failures` compares every drawn uniform against the bound and
    runs the exact pipeline -- the same ufuncs on the same operands, so
    the same bits -- only on those candidates.  Cells that cannot fail --
    unstressed, or at or below :data:`~repro.dram.cell.Z_PIN_ZERO` at the
    largest exposure, where ``ndtr`` is exactly 0 -- keep a zero bound
    and cost no ``ndtr`` at all.

    ``keys`` names the deterministic pattern at each position of the
    schedule's pattern round (``None`` for stochastic positions, whose
    bound row stays 0 so they never become candidates); ``inputs`` maps a
    key to its per-chip ``(alignments, stresseds)``; ``max_exposures``
    maps a key to the largest positive exposure among its rows (keys
    without one are never read).
    """

    def __init__(
        self,
        population: FleetPopulation,
        scales: Tuple[float, ...],
        keys: Sequence[Optional[str]],
        inputs: Mapping[str, Tuple[Sequence[np.ndarray], Sequence[Optional[np.ndarray]]]],
        max_exposures: Mapping[str, float],
    ) -> None:
        self.population = population
        shape = (len(keys), len(population))
        self.bounds = np.zeros(shape, dtype=np.float64)
        # Per position, the exact pipeline's operands, stacked so the
        # candidates of every pattern gather theirs in one pass each.
        self._mu_eff = np.zeros(shape, dtype=np.float64)
        self._stressed = np.ones(shape, dtype=np.float64)
        self._sigma_eff = population._sigma_eff(scales)
        for position, key in enumerate(keys):
            if key is None or key not in max_exposures:
                continue
            mu_eff, sigma_eff, stressed = population.pattern_arrays(
                scales, key, *inputs[key], out=self._mu_eff[position]
            )
            z = np.subtract(max_exposures[key], mu_eff)
            np.divide(z, sigma_eff, out=z)
            live = z > Z_PIN_ZERO
            if stressed is not None:
                live &= stressed != 0.0
                self._stressed[position] = stressed
            at = np.flatnonzero(live)
            p = ndtr(z[at])
            if stressed is not None:
                np.multiply(p, stressed[at], out=p)
            self.bounds[position, at] = p * (1.0 + PREFILTER_SLACK) + PREFILTER_FLOOR

    def failures(
        self, blocks: Sequence[np.ndarray], exposures_s: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Failed ``(rows, cells)`` of one block of reads, plus the number
        of candidates the bound let through.

        ``blocks`` holds each chip's ``(rows, tail)`` uniforms in its
        stream's order; ``exposures_s`` the rows' exposures.  The block
        starts a pattern round and spans whole rounds, so row ``j`` wrote
        the pattern at position ``j % len(keys)``.  ``rows`` index the
        block, ``cells`` the concatenated cell space; rows with zero
        exposure never fail (the sequential path short-circuits there).
        """
        period = len(self.bounds)
        offsets = self.population.offsets
        found = []
        for i, block in enumerate(blocks):
            start, end = int(offsets[i]), int(offsets[i + 1])
            n = end - start
            if n == 0:
                continue
            flat = np.flatnonzero(
                block.reshape(-1, period, n) < self.bounds[:, start:end]
            )
            if flat.size:
                found.append((flat // n, flat % n + start, block.reshape(-1)[flat]))
        if not found:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty, 0
        rows, cells, u = (np.concatenate(parts) for parts in zip(*found))
        n_candidates = len(rows)
        exposures = exposures_s[rows]
        positions = rows % period
        # A zero bound never admits a uniform, so every candidate comes
        # from a deterministic position; zero-exposure rows are dropped.
        keep = np.flatnonzero(exposures > 0.0)
        rows, cells, u = rows[keep], cells[keep], u[keep]
        at = positions[keep] * len(self.population) + cells
        # The exact pipeline on the candidates: the same ufuncs, in the
        # same order, on the same operands -- so the same bits.  A
        # stressed factor of 1.0 leaves a probability unchanged.
        p = np.subtract(exposures[keep], self._mu_eff.reshape(-1)[at])
        np.divide(p, self._sigma_eff[cells], out=p)
        ndtr(p, out=p)
        np.multiply(p, self._stressed.reshape(-1)[at], out=p)
        failed = u < p
        return rows[failed], cells[failed], n_candidates


class ChipFleet:
    """A batch of chips driven through one command sequence together.

    Every command method fans out to each member chip in fleet order (so
    clocks, traces, VRT processes, and DPD draws evolve exactly as they
    would standalone); only the read-out *evaluation* is fused through the
    shared :class:`FleetPopulation`.

    Member chips must share geometry and ``max_trefi_s`` -- a fleet read
    asserts that every chip reached the same exposure, which holds exactly
    when the chips traverse identical clock trajectories.
    """

    def __init__(
        self,
        chips: Sequence["SimulatedDRAMChip"],
        backing: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        members = tuple(chips)
        if not members:
            raise ConfigurationError("a chip fleet needs at least one chip")
        geometry = members[0].geometry
        max_trefi = members[0].max_trefi_s
        for chip in members[1:]:
            if chip.geometry != geometry:
                raise ConfigurationError(
                    "fleet chips must share one geometry; got "
                    f"{chip.geometry!r} vs {geometry!r}"
                )
            if chip.max_trefi_s != max_trefi:
                raise ConfigurationError(
                    "fleet chips must share one max_trefi_s; got "
                    f"{chip.max_trefi_s!r} vs {max_trefi!r}"
                )
        self.chips = members
        self.population = FleetPopulation(
            [chip.population for chip in members], backing=backing
        )
        self._io_seconds = members[0].pattern_io_seconds
        self._max_trefi_s = max_trefi

    def __len__(self) -> int:
        return len(self.chips)

    @property
    def max_trefi_s(self) -> float:
        return self.chips[0].max_trefi_s

    # ------------------------------------------------------------------
    # Lockstep command interface
    # ------------------------------------------------------------------
    # Fleet chips traverse identical command trajectories (enforced by the
    # clock/exposure divergence guards), so each command's bookkeeping --
    # the new clock value, the exposure accounting, the trace record -- is
    # computed once and applied to every member, while the per-chip RNG
    # consumers (VRT arrival sync, DPD excitation, read uniforms) still run
    # on each chip's own generators in fleet order.  This mirrors
    # ``SimulatedDRAMChip``'s command methods statement for statement; the
    # equivalence tests pin the two implementations to identical clocks,
    # traces, generator states, and profiles.  When instrumentation is
    # recording, commands fall back to the per-chip methods so per-chip
    # telemetry counters stay exact.

    def _advance_all(self, seconds: float) -> float:
        chips = self.chips
        now = chips[0].clock.advance(seconds)
        for chip in chips[1:]:
            if chip.clock.advance(seconds) != now:
                raise ProfilingError(
                    "fleet chips diverged: clocks disagree after a lockstep "
                    "advance; fleet commands require identical command/clock "
                    "trajectories per chip"
                )
        return now

    def _now_all(self) -> float:
        chips = self.chips
        now = chips[0].clock.now
        for chip in chips[1:]:
            if chip.clock.now != now:
                raise ProfilingError(
                    "fleet chips diverged: clocks disagree; fleet commands "
                    "require identical command/clock trajectories per chip"
                )
        return now

    def write_pattern(self, pattern) -> None:
        if obs.enabled():
            for chip in self.chips:
                chip.write_pattern(pattern)
            return
        now = self._advance_all(self._io_seconds)
        record = CommandRecord(time=now, command=Command.WRITE_PATTERN, detail=pattern.key)
        for chip in self.chips:
            chip.vrt.advance_to(now, chip._temperature_c)
            chip._pattern = pattern
            chip._alignment, chip._stressed = chip.population.dpd.excite(pattern)
            if not chip._refresh_enabled:
                chip._disable_time = now
            chip._frozen_exposure = 0.0
            chip.trace.records.append(record)

    def disable_refresh(self) -> None:
        if obs.enabled():
            for chip in self.chips:
                chip.disable_refresh()
            return
        now = self._now_all()
        record = CommandRecord(time=now, command=Command.REFRESH_DISABLE)
        for chip in self.chips:
            if not chip._refresh_enabled:
                raise CommandSequenceError("refresh is already disabled")
            chip._refresh_enabled = False
            chip._disable_time = now
            chip.trace.records.append(record)

    def enable_refresh(self) -> None:
        if obs.enabled():
            for chip in self.chips:
                chip.enable_refresh()
            return
        now = self._now_all()
        record = CommandRecord(time=now, command=Command.REFRESH_ENABLE)
        for chip in self.chips:
            if chip._refresh_enabled:
                raise CommandSequenceError("refresh is already enabled")
            assert chip._disable_time is not None
            chip._frozen_exposure = now - chip._disable_time
            chip._refresh_enabled = True
            chip._disable_time = None
            chip.trace.records.append(record)

    def wait(self, seconds: float) -> None:
        if obs.enabled():
            for chip in self.chips:
                chip.wait(seconds)
            return
        now = self._advance_all(seconds)
        record = CommandRecord(time=now, command=Command.WAIT, detail=f"{seconds:.6f}s")
        for chip in self.chips:
            chip.vrt.advance_to(now, chip._temperature_c)
            chip.trace.records.append(record)

    # ------------------------------------------------------------------
    # Fused read-out
    # ------------------------------------------------------------------
    def _begin_read_lockstep(self) -> Tuple[float, float]:
        """One read-compare's command work for the whole fleet.

        Mirrors :meth:`SimulatedDRAMChip.begin_read` per chip -- clock
        advance, VRT sync, exposure accounting, bound check, trace record,
        exposure restart -- with the shared bookkeeping computed once.
        Returns ``(exposure_s, read_at_s)``.
        """
        now = self._advance_all(self._io_seconds)
        max_trefi = self._max_trefi_s
        exposure = 0.0
        record: Optional[CommandRecord] = None
        for chip in self.chips:
            if chip._pattern is None or chip._alignment is None:
                raise CommandSequenceError("no data pattern has been written")
            chip.vrt.advance_to(now, chip._temperature_c)
            if not chip._refresh_enabled and chip._disable_time is not None:
                chip_exposure = now - chip._disable_time
            else:
                chip_exposure = chip._frozen_exposure
            if record is None:
                exposure = chip_exposure
                # Tolerate float accumulation error at the exact boundary.
                if exposure > max_trefi * (1.0 + 1e-9):
                    raise ConfigurationError(
                        f"exposure {exposure:.3f}s exceeds max_trefi_s={max_trefi!r}; "
                        "construct the chip with a larger max_trefi_s"
                    )
                record = CommandRecord(
                    time=now,
                    command=Command.READ_COMPARE,
                    detail=f"exposure={exposure:.6f}s",
                )
            elif chip_exposure != exposure:
                raise ProfilingError(
                    "fleet chips diverged: exposures "
                    f"{chip_exposure!r} vs {exposure!r}; fleet reads "
                    "require identical command/clock trajectories per chip"
                )
            chip.trace.records.append(record)
            # Reading through the sense amplifiers restores the cells.
            if not chip._refresh_enabled:
                chip._disable_time = now
            chip._frozen_exposure = 0.0
        return exposure, now

    def read_failures(
        self,
    ) -> Tuple[np.ndarray, List[Tuple[int, np.ndarray]]]:
        """One fused read-compare across the fleet.

        Returns ``(static_mask, vrt_failures)``: a boolean mask over the
        concatenated weak-cell space (chip ``i``'s segment bit-equal to its
        standalone read) and the per-chip VRT failing-cell arrays as
        ``(chip_index, sorted flat indices)`` pairs, only for chips with at
        least one active episode.
        """
        if obs.enabled():
            return self._read_failures_traced()
        exposure, read_at = self._begin_read_lockstep()
        chips = self.chips
        lead_pattern = chips[0]._pattern
        scales = tuple(
            chip.population.retention_scale(chip._temperature_c) for chip in chips
        )
        mask = self.population.sample_failures(
            exposure,
            scales,
            [chip._alignment for chip in chips],
            [chip._stressed for chip in chips],
            [chip.read_rng for chip in chips],
            pattern_key=lead_pattern.key,
            stochastic=lead_pattern.stochastic,
        )
        vrt: List[Tuple[int, np.ndarray]] = []
        for i, chip in enumerate(chips):
            cells = chip.vrt.failing_cells(read_at, exposure)
            if len(cells):
                vrt.append((i, cells))
        return mask, vrt

    def _read_failures_traced(
        self,
    ) -> Tuple[np.ndarray, List[Tuple[int, np.ndarray]]]:
        """Per-chip :meth:`~SimulatedDRAMChip.begin_read` fan-out -- the
        instrumented path, identical results with exact per-chip counters."""
        pendings: List[PendingRead] = [chip.begin_read() for chip in self.chips]
        exposure = pendings[0].exposure_s
        for pending in pendings[1:]:
            if pending.exposure_s != exposure:
                raise ProfilingError(
                    "fleet chips diverged: exposures "
                    f"{pending.exposure_s!r} vs {exposure!r}; fleet reads "
                    "require identical command/clock trajectories per chip"
                )
        scales = tuple(
            chip.population.retention_scale(pending.temperature_c)
            for chip, pending in zip(self.chips, pendings)
        )
        mask = self.population.sample_failures(
            exposure,
            scales,
            [pending.alignment for pending in pendings],
            [pending.stressed for pending in pendings],
            [chip.read_rng for chip in self.chips],
            pattern_key=pendings[0].pattern_key,
            stochastic=pendings[0].stochastic,
        )
        vrt: List[Tuple[int, np.ndarray]] = []
        for i, (chip, pending) in enumerate(zip(self.chips, pendings)):
            cells = chip.vrt.failing_cells(pending.read_at_s, pending.exposure_s)
            if len(cells):
                vrt.append((i, cells))
        return mask, vrt
