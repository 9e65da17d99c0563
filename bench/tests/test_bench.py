"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import os
import pathlib
import subprocess
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.analysis.campaign import CharacterizationCampaign  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

WORKERS = 2


def tiny(name, tmp_path, seed=3):
    return workloads.make_workload(name, seed, tmp_path, WORKERS, tiny=True)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_is_deterministic_and_traced(name, tmp_path):
    workload = tiny(name, tmp_path)
    results, start, end = run.measure(workload, count=2)
    traced, metrics, table = run.traced_metrics(workload, 2, end - start, tmp_path / "trace")
    results += traced
    assert sum(r.failed for r in results) == 0
    assert all(r.attempted > 0 for r in results)
    assert run.check_digests(name, seed=3, results=results) == []
    assert set(metrics) | set(run.untraced_metrics(results, start, end)) | {
        "setup_s", "peak_rss_mb"
    } == set(run.UNITS)
    assert metrics["core.passes"] > 0
    total = sum(table["rows"].values()) + table["unattributed_s"]
    assert total == pytest.approx(table["window_s"], rel=1e-9)


def test_pool_worker_spans_are_merged(tmp_path):
    workload = tiny("grid-sweep", tmp_path)
    _results, metrics, table = run.traced_metrics(workload, 1, 1.0, tmp_path / "trace")
    pids = {span[1] for span in table["spans"] if span[0] == "core.bruteforce"}
    assert pids and os.getpid() not in pids
    assert metrics["runner.units"] == 6
    assert metrics["core.passes"] == 6 * (len(workload.intervals_s) + 1)


def test_layer_table_sums_to_window():
    owner = 1
    spans = [
        # owner lane: engine waits 0-10 with a store call 8-9 inside it
        ("runner.engine", owner, 1, 0.0, 10.0, 0, True),
        ("runner.store", owner, 1, 8.0, 9.0, 1, False),
        # two pool workers
        ("core.bruteforce", 2, 1, 1.0, 5.0, 0, False),
        ("core.bruteforce", 3, 1, 2.0, 4.0, 0, False),
        ("dram.population", 2, 1, 1.0, 2.0, 1, False),
        # a span after the engine, then nothing until the window ends
        ("analysis.aggregate", owner, 1, 10.0, 11.0, 0, False),
    ]
    seconds, unattributed, pool_wait = tracing.layer_table(spans, 0.0, 12.0, owner)
    assert seconds == pytest.approx(
        {
            "runner.engine": 1.0 + 3.0 + 1.0,  # 0-1, 5-8, 9-10
            "dram.population": 1.0,  # 1-2, alone among working lanes
            "core.bruteforce": 1.0 + 1.0 + 1.0,  # 2-4 shared by two, 4-5
            "runner.store": 1.0,
            "analysis.aggregate": 1.0,
        }
    )
    assert unattributed == pytest.approx(1.0)
    assert sum(seconds.values()) + unattributed == pytest.approx(12.0)
    assert pool_wait == pytest.approx(1.0 + 5.0)  # engine time with no worker span


def test_absorbed_call_opens_no_span(tmp_path):
    recorder = tracing.Recorder(tmp_path)
    with recorder.span("core.reach"):
        with recorder.span("core.bruteforce", absorbed_by=("core.reach",)):
            pass
    with recorder.span("runner.engine", waits=True):
        with recorder.span("runner.store"):
            pass
    assert [span[0] for span in recorder.spans] == ["core.reach", "runner.store", "runner.engine"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    full = workloads.make_workload(name, 11, tmp_path, WORKERS)
    again = workloads.make_workload(name, 11, tmp_path, WORKERS)
    other = workloads.make_workload(name, 12, tmp_path, WORKERS)
    assert full.inputs() == again.inputs()
    assert full.inputs() != other.inputs()


def test_no_execution_knob_but_workers(tmp_path, monkeypatch):
    calls = []
    original_run = CharacterizationCampaign.run

    def recording_run(self, *args, **kwargs):
        calls.append(kwargs)
        return original_run(self, *args, **kwargs)

    specs = []
    original_submit = ServiceClient.submit

    def recording_submit(self, tenant, spec=None, trace_id=None):
        specs.append(spec)
        return original_submit(self, tenant, spec, trace_id)

    monkeypatch.setattr(CharacterizationCampaign, "run", recording_run)
    monkeypatch.setattr(ServiceClient, "submit", recording_submit)
    for name in ("grid-sweep", "paper-campaign", "service-mix"):
        tiny(name, tmp_path).run_op(0)
    campaign_calls = [kwargs for kwargs in calls if "observability" not in kwargs]
    assert len(campaign_calls) == 2
    for kwargs in campaign_calls:
        assert set(kwargs) <= workloads.CAMPAIGN_KWARGS
        assert kwargs["backend"] is None and kwargs["workers"] == WORKERS
    assert specs and all(set(spec) <= workloads.JOB_SPEC_KEYS for spec in specs)


def test_bare_directory_exits_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in run.BENCH_DIR.glob("*.py"):
        (bare / "bench" / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-sweep", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
