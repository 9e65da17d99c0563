"""The megakernel's read pre-filter and median network are exact.

:class:`~repro.dram.fleet.DeterministicReads` evaluates ``ndtr`` only on
the uniforms under a per-pattern bound taken at the largest row exposure.
That is exact only if every step of the z -> ``ndtr`` pipeline is monotone
in the exposure (up to the documented slack), and if the candidate pass
applies the same ufuncs to the same operands.  These tests pin both:

* a dense check that ``ndtr`` never drops by more than
  :data:`~repro.dram.fleet.PREFILTER_SLACK` (relative) plus
  :data:`~repro.dram.fleet.PREFILTER_FLOOR` between increasing arguments,
  including ulp-by-ulp scans around its erf/erfc switch and both pins;
* a hypothesis differential test: random fleets of 1..4 chips (some with
  empty tails), cells whose z lands near ``Z_PIN_ONE``, ``Z_PIN_ZERO``
  and the erf/erfc switch, rows with tied and zero exposures, and
  uniforms placed one ulp either side of the exact probability -- the
  pre-filtered failures must equal the unfiltered
  ``u < deterministic_p_grid(...)`` compare exactly;
* the min/max median network against a column sort.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from repro.dram.cell import Z_PIN_ONE, Z_PIN_ZERO, WeakCellPopulation
from repro.dram.dpd import DPDModel, median_of_three
from repro.dram.fleet import (
    PREFILTER_FLOOR,
    PREFILTER_SLACK,
    DeterministicReads,
    FleetPopulation,
)
from repro.dram.retention import WeakCellSample
from repro.dram.vendor import VENDOR_B

#: ``ndtr`` switches from ``0.5 + 0.5 * erf`` to ``erfc`` at |z| = 1.
ERF_SWITCH = 1.0


def _within_slack(x: np.ndarray) -> bool:
    """Over sorted ``x``, no earlier ``ndtr`` value exceeds a later one's
    widened bound."""
    p = ndtr(x)
    return bool(np.all(np.maximum.accumulate(p) <= p * (1.0 + PREFILTER_SLACK) + PREFILTER_FLOOR))


class TestMonotonePipeline:
    def test_ndtr_dense_grid(self):
        assert _within_slack(np.linspace(-40.0, 10.0, 2_000_001))

    @pytest.mark.parametrize(
        "center", [-ERF_SWITCH, ERF_SWITCH, -1.3183, -2.29, 0.5, Z_PIN_ZERO, -38.5, 8.3, Z_PIN_ONE]
    )
    def test_ndtr_ulp_neighbourhoods(self, center):
        steps = np.arange(-200_000, 200_000, dtype=np.float64)
        assert _within_slack(center + steps * np.spacing(abs(center)))

    def test_ndtr_is_not_ulp_monotone_without_slack(self):
        # The reason for the slack: around the switch ndtr wiggles by ulps.
        x = -ERF_SWITCH + np.arange(-200_000, 200_000) * np.spacing(ERF_SWITCH)
        assert np.any(np.diff(ndtr(x)) < 0.0)

    def test_z_pipeline_is_monotone_in_exposure(self):
        rng = np.random.default_rng(7)
        mu = rng.uniform(0.05, 3.0, 512)
        sigma = rng.uniform(1e-4, 0.5, 512)
        exposures = np.sort(
            np.concatenate([rng.uniform(0.0, 3.0, 400), 1.0 + np.arange(-50, 50) * 2.0**-52])
        )
        z = (exposures[:, None] - mu) / sigma
        assert np.all(np.diff(z, axis=0) >= 0.0)


def _population(
    rng: np.random.Generator, mu: np.ndarray, sigma: np.ndarray, susceptibility: np.ndarray
) -> WeakCellPopulation:
    n = len(mu)
    sample = WeakCellSample(
        indices=np.arange(n, dtype=np.int64) * 7,
        mu_wc_s=mu,
        sigma_s=sigma,
        susceptibility=susceptibility,
        vrt_flag=np.zeros(n, dtype=bool),
        orientation=np.zeros(n, dtype=np.uint8),
    )
    return WeakCellPopulation(sample, VENDOR_B, DPDModel(susceptibility, rng, 0.9))


def _near(rng: np.random.Generator, kind: int, n: int) -> np.ndarray:
    if kind == 0:
        return Z_PIN_ONE + rng.uniform(-1.0, 1.0, n) * rng.choice([1e-12, 1e-3, 0.5], n)
    if kind == 1:
        return Z_PIN_ZERO + rng.uniform(-1.0, 1.0, n) * rng.choice([1e-12, 1e-3, 0.5], n)
    if kind == 2:
        return rng.choice([-ERF_SWITCH, ERF_SWITCH], n) + rng.uniform(-1.0, 1.0, n) * 1e-9
    return rng.uniform(-40.0, 10.0, n)


@st.composite
def read_blocks(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    tails = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4))
    period = draw(st.integers(1, 4))
    stochastic = draw(st.lists(st.booleans(), min_size=period, max_size=period))
    rounds = draw(st.integers(1, 3))
    kind = draw(st.integers(0, 3))
    return rng, tails, period, stochastic, rounds, kind


@settings(max_examples=150, deadline=None)
@given(read_blocks())
def test_prefilter_matches_unfiltered_compare(case):
    rng, tails, period, stochastic, rounds, kind = case
    target_e = 1.0
    scales = tuple(float(s) for s in rng.uniform(0.7, 1.3, len(tails)))
    keys = [None if stochastic[p] else f"pattern-{p}" for p in range(period)]
    members, alignments, stresses = [], {k: [] for k in keys if k}, {k: [] for k in keys if k}
    for n, scale in zip(tails, scales):
        sigma = rng.uniform(1e-3, 0.02, n)
        # The first pattern's alignment places z near the chosen feature
        # at the target exposure; other patterns scatter around it.
        align0 = rng.uniform(0.0, 1.0, n)
        z = _near(rng, kind, n)
        s = rng.uniform(0.0, 0.5, n)
        mu_eff = target_e - z * sigma * scale
        mu = np.maximum(mu_eff / scale * (1.0 - s) / (1.0 - s * align0), 1e-3)
        population = _population(rng, mu, sigma, s)
        members.append(population)
        for p, key in enumerate(keys):
            if key is None:
                continue
            alignments[key].append(align0 if p == 0 else rng.uniform(0.0, 1.0, n))
            stresses[key].append(rng.integers(0, 2, n).astype(np.float64))
    fleet = FleetPopulation(members)
    n_total = len(fleet)
    inputs = {key: (tuple(alignments[key]), tuple(stresses[key])) for key in alignments}

    # Exposures: ties, zeros, and ulp neighbours of the target.
    pool = np.array(
        [0.0, target_e, np.nextafter(target_e, 0.0), np.nextafter(target_e, 2.0), 0.5, target_e * (1 + 1e-12)]
    )
    n_rows = period * rounds
    exposures = rng.choice(pool, n_rows)
    max_exposures = {}
    for r in range(n_rows):
        key = keys[r % period]
        if key is not None and exposures[r] > 0.0:
            max_exposures[key] = max(max_exposures.get(key, 0.0), float(exposures[r]))

    # The unfiltered reference: the old kernel's full probability matrix.
    p_full = np.zeros((n_rows, n_total))
    for r in range(n_rows):
        key = keys[r % period]
        if key is not None and exposures[r] > 0.0:
            p_full[r] = fleet.deterministic_p_grid([exposures[r]], scales, key, *inputs[key])[0]
    u = rng.random((n_rows, n_total))
    # Put some uniforms exactly on, and one ulp either side of, p.
    near = rng.random((n_rows, n_total)) < 0.5
    nudged = np.clip(
        np.where(rng.random((n_rows, n_total)) < 0.5, np.nextafter(p_full, 0.0), np.nextafter(p_full, 1.0)),
        0.0,
        np.nextafter(1.0, 0.0),
    )
    u = np.where(near, np.where(rng.random((n_rows, n_total)) < 0.3, p_full, nudged), u)
    expected = set(zip(*np.nonzero(u < p_full)))

    reads = DeterministicReads(fleet, scales, keys, inputs, max_exposures)
    offsets = fleet.offsets
    blocks = [
        np.ascontiguousarray(u[:, offsets[i] : offsets[i + 1]]) for i in range(len(tails))
    ]
    rows, cells, candidates = reads.failures(blocks, exposures)
    got = set(zip(rows.tolist(), cells.tolist()))
    assert got == {(int(r), int(c)) for r, c in expected}
    assert len(got) <= candidates <= n_rows * n_total


def test_bound_covers_an_ndtr_wiggle():
    """A lower exposure whose probability exceeds the top exposure's by an
    ulp still fails: the slack, not luck, admits it as a candidate."""
    # mu_eff = 2 and sigma_eff = 1 exactly, so z = e - 2 exactly.
    exposures = 1.0 + np.arange(4_000_000) * np.spacing(1.0)
    p = ndtr(exposures - 2.0)
    drop = int(np.flatnonzero(np.diff(p) < 0.0)[0])
    low, high = exposures[drop], exposures[drop + 1]
    rng = np.random.default_rng(0)
    fleet = FleetPopulation([_population(rng, np.array([2.0]), np.array([1.0]), np.zeros(1))])
    inputs = {"solid": ((np.array([0.5]),), (np.ones(1),))}
    p_low, p_high = (
        fleet.deterministic_p_grid([e], (1.0,), "solid", *inputs["solid"])[0, 0]
        for e in (low, high)
    )
    assert p_high < p_low  # the wiggle survives the full pipeline
    reads = DeterministicReads(fleet, (1.0,), ["solid"], inputs, {"solid": high})
    u = np.array([[p_high], [0.999]])  # u < p_low, but not < p_high
    rows, cells, _ = reads.failures([u], np.array([low, high]))
    assert rows.tolist() == [0] and cells.tolist() == [0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 64))
def test_median_network_matches_sort(seed, n):
    rng = np.random.default_rng(seed)
    u = rng.random((3, n))
    u[:, : n // 4] = u[0, : n // 4]  # ties
    expected = np.sort(u, axis=0)[1]
    got = median_of_three(*u.copy())
    assert got.tobytes() == expected.tobytes()
