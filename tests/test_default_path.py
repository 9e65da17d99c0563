"""The default campaign path: auto-sized fused units, pinned to the oracle.

``CharacterizationCampaign.run(chips_per_unit=None)`` -- what the API, the
CLI, and the service job spec all reach by default -- ships auto-sized
megakernel units and builds no shared-memory segment; an explicit
``chips_per_unit=1`` keeps the per-chip ``measure_chip`` worker, the
oracle.  These tests pin that the two are interchangeable everywhere a
user can observe them: summaries, resumed run directories (in both
directions, and after a kill -9), and service job results.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import campaign as campaign_mod
from repro.analysis.campaign import CharacterizationCampaign
from repro.dram.chip import expected_weak_cells
from repro.dram.geometry import ChipGeometry
from repro.dram.shm import SharedPopulationStore
from repro.dram.vendor import VENDORS, vendor_by_name
from repro.runner import auto_chips_per_unit
from repro.runner.campaign import AUTO_UNIT_WEAK_CELLS, TREFI_HEADROOM
from repro.service import DONE, CampaignJobSpec, JobManager
from repro.service.jobs import RETIRED_SPEC_KEYS

from conftest import TEST_SEED

MICRO = ChipGeometry.from_capacity_gigabits(1.0 / 64.0)
CAMPAIGN_KW = dict(intervals_s=(0.256, 0.512, 1.024), temperatures_c=(45.0, 55.0))


@pytest.fixture(scope="module")
def campaign():
    return CharacterizationCampaign(
        chips_per_vendor=2, geometry=MICRO, iterations=1, seed=TEST_SEED
    )


@pytest.fixture(scope="module")
def oracle(campaign):
    return summary_bytes(campaign.run(chips_per_unit=1, **CAMPAIGN_KW))


def summary_bytes(summary):
    return json.dumps(summary.to_json_dict(), sort_keys=True)


class TestAutoSize:
    def test_units_per_worker_bound(self):
        assert auto_chips_per_unit(150, 2, 30.0) == 19  # ceil(150 / 8)
        assert auto_chips_per_unit(12, 1, 30.0) == 3
        assert auto_chips_per_unit(3, 4, 30.0) == 1

    def test_weak_cell_budget_caps_large_tails(self):
        assert auto_chips_per_unit(10_000, 1, AUTO_UNIT_WEAK_CELLS / 3) == 3
        assert auto_chips_per_unit(10_000, 1, 10 * AUTO_UNIT_WEAK_CELLS) == 1

    def test_quarter_gigabit_units_hold_one_to_four_chips(self):
        geometry = ChipGeometry.from_capacity_gigabits(0.25)
        largest = max(
            expected_weak_cells(vendor_by_name(name), geometry, 2.048 * TREFI_HEADROOM)
            for name in VENDORS
        )
        for workers in (1, 2, 8):
            assert 1 <= auto_chips_per_unit(369, workers, largest) <= 4

    def test_never_below_one_chip(self):
        assert auto_chips_per_unit(1, 64, 1e9) == 1


class TestDefaultPath:
    def test_default_builds_no_segment(self, campaign, oracle, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the default path built a shared-memory segment")

        monkeypatch.setattr(SharedPopulationStore, "create", refuse)
        pooled = campaign.run(backend="process", workers=2, **CAMPAIGN_KW)
        assert summary_bytes(pooled) == oracle

    def test_default_runs_fused_units_and_one_keeps_the_per_chip_worker(
        self, campaign, monkeypatch
    ):
        sizes = []
        real = campaign_mod.fleet_dispatch

        def spy(chips_per_unit, **kwargs):
            sizes.append(chips_per_unit)
            return real(chips_per_unit, **kwargs)

        monkeypatch.setattr(campaign_mod, "fleet_dispatch", spy)
        campaign.run(**CAMPAIGN_KW)
        assert sizes == [2]  # ceil(6 chips / (4 units x 1 worker))
        campaign.run(backend="process", workers=4, **CAMPAIGN_KW)
        assert sizes == [2, 1]  # a one-chip unit still runs the megakernel
        campaign.run(chips_per_unit=1, **CAMPAIGN_KW)
        assert sizes == [2, 1]  # the oracle never reaches the fleet worker


def _interrupted(campaign, run_dir, chips_per_unit, after):
    """Run until ``after`` chips are stored, then stop cooperatively."""
    done = []
    campaign.run(
        run_dir=str(run_dir),
        chips_per_unit=chips_per_unit,
        progress=lambda result, tracker: done.append(result.unit_id),
        should_stop=lambda: len(done) >= after,
        **CAMPAIGN_KW,
    )
    stored = (run_dir / "results.jsonl").read_text().splitlines()
    assert 0 < len(stored) < 6
    return stored


class TestCrossModeResume:
    def test_per_chip_run_dir_resumes_under_the_default(self, campaign, oracle, tmp_path):
        run_dir = tmp_path / "run"
        _interrupted(campaign, run_dir, 1, after=2)
        resumed = campaign.run(run_dir=str(run_dir), resume=True, **CAMPAIGN_KW)
        assert summary_bytes(resumed) == oracle

    def test_default_run_dir_resumes_per_chip(self, campaign, oracle, tmp_path):
        run_dir = tmp_path / "run"
        _interrupted(campaign, run_dir, None, after=2)
        resumed = campaign.run(
            run_dir=str(run_dir), resume=True, chips_per_unit=1, **CAMPAIGN_KW
        )
        assert summary_bytes(resumed) == oracle

    def test_manifest_with_retired_tiling_resumes_under_the_default(
        self, campaign, oracle, tmp_path
    ):
        """Older run dirs record their condition tiling in the manifest;
        it was never part of the fingerprint, so they still resume."""
        run_dir = tmp_path / "run"
        _interrupted(campaign, run_dir, 2, after=2)
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        # The manifest key has the retired spec field's name.
        assert "condition_tiles" in RETIRED_SPEC_KEYS
        manifest["condition_tiles"] = 2
        manifest_path.write_text(json.dumps(manifest))
        resumed = campaign.run(run_dir=str(run_dir), resume=True, **CAMPAIGN_KW)
        assert summary_bytes(resumed) == oracle


KILL9_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.analysis.campaign import CharacterizationCampaign
    from repro.dram.geometry import ChipGeometry

    campaign = CharacterizationCampaign(
        chips_per_vendor=6,
        geometry=ChipGeometry.from_capacity_gigabits(1.0 / 64.0),
        iterations=2,
        seed=int(sys.argv[2]),
    )
    campaign.run(
        intervals_s=(0.256, 0.512, 1.024),
        temperatures_c=(45.0, 55.0),
        backend="process",
        workers=2,
        run_dir=sys.argv[1],
        progress=lambda result, tracker: print("UNIT", result.unit_id, flush=True),
    )
    print("DONE", flush=True)
    """
)


@pytest.mark.slow
def test_kill9_under_the_default_resumes_losslessly(tmp_path):
    run_dir = tmp_path / "run"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", KILL9_SCRIPT, str(run_dir), str(TEST_SEED)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    deadline = time.monotonic() + 120.0
    saw_unit = False
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("UNIT"):
            saw_unit = True
            break
        if line == "" and proc.poll() is not None:
            break
    assert saw_unit, "child never made progress"
    # The whole process group: the campaign and its pool workers.
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    proc.stdout.close()
    proc.stderr.close()

    campaign = CharacterizationCampaign(
        chips_per_vendor=6, geometry=MICRO, iterations=2, seed=TEST_SEED
    )
    resumed = campaign.run(run_dir=str(run_dir), resume=True, **CAMPAIGN_KW)
    rows = [json.loads(line) for line in (run_dir / "results.jsonl").read_text().splitlines()]
    assert sorted(row["unit_id"] for row in rows) == sorted(set(row["unit_id"] for row in rows))
    assert len(rows) == 18
    oracle = campaign.run(chips_per_unit=1, **CAMPAIGN_KW)
    assert summary_bytes(resumed) == summary_bytes(oracle)


def test_default_service_job_matches_the_per_chip_oracle(tmp_path):
    spec = dict(
        chips_per_vendor=2,
        capacity_gbit=1.0 / 64.0,
        iterations=1,
        intervals_s=(0.512, 1.024),
        temperatures_c=(45.0, 55.0),
    )

    async def scenario():
        manager = JobManager(tmp_path, pool_workers=2, max_running=1)
        await manager.start()
        try:
            record = await manager.submit("acme", CampaignJobSpec.from_json_dict(spec))
            deadline = time.monotonic() + 120.0
            while manager.job(record.job_id).state != DONE:
                assert time.monotonic() < deadline, "job never finished"
                await asyncio.sleep(0.02)
            return manager.result(record.job_id)
        finally:
            await manager.shutdown()

    result = asyncio.run(scenario())
    job_spec = CampaignJobSpec(**spec)
    assert job_spec.chips_per_unit is None
    oracle = job_spec.build_campaign().run(
        intervals_s=job_spec.intervals_s,
        temperatures_c=job_spec.temperatures_c,
        chips_per_unit=1,
    )
    assert json.dumps(result, sort_keys=True) == summary_bytes(oracle)
