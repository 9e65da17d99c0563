"""The benchmark's workloads: inputs made from the seed, run one operation
at a time through the program's public entry points.

Each workload turns ``--seed`` into its inputs (campaign seeds, job specs,
chip seeds) and nothing else reaches the program.  An operation is the
unit a user waits for: a whole campaign (``grid-sweep``,
``paper-campaign``), a round of service jobs on a fresh service
(``service-mix``), or one chip profiled end to end (``reach-profile``).
Operations with equal ``key`` have equal inputs, so their output digests
must be equal.

Campaigns pass ``backend=None`` and ``workers`` and no other execution
knob; service jobs pass only the population (chips, capacity, seed), so
every workload measures the path users get by default.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import shutil
import sys
import threading
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import core
from repro.analysis.campaign import CharacterizationCampaign
from repro.core import BruteForceProfiler, Conditions, ReachDelta, ReachProfiler
from repro.dram.chip import SimulatedDRAMChip
from repro.dram.geometry import ChipGeometry
from repro.dram.vendor import VENDORS, vendor_by_name
from repro.service import DONE, QueueFullError, ServiceClient, ServiceConfig, ServiceThread

#: Campaign keyword arguments a workload may pass besides the conditions.
CAMPAIGN_KWARGS = frozenset({"backend", "workers", "run_dir"})

#: Service job spec keys a workload may send.
JOB_SPEC_KEYS = frozenset({"chips_per_vendor", "capacity_gbit", "seed"})


def derive(seed: int, *parts: Any) -> int:
    """A 32-bit input seed derived from the workload seed and a label."""
    text = "|".join(str(part) for part in ("reaper-bench", seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "little")


def digest(value: Any) -> str:
    """Digest of a value's canonical JSON form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass
class OpResult:
    """What one operation produced."""

    key: int
    digest: str
    chips: int
    latencies: List[float]
    attempted: int
    failed: int
    samples: Dict[str, List[float]] = dataclasses.field(default_factory=dict)


class CampaignWorkload:
    """One characterization campaign per operation, on the default path."""

    def __init__(
        self,
        seed: int,
        work_dir: pathlib.Path,
        workers: int,
        chips_per_vendor: int,
        capacity_gbit: float,
        intervals_s: Tuple[float, ...],
        temperatures_c: Tuple[float, ...],
        iterations: int,
        durable: bool,
    ) -> None:
        self.work_dir = work_dir
        self.workers = workers
        self.durable = durable
        self.campaign_seed = derive(seed, "campaign")
        self.chips_per_vendor = chips_per_vendor
        self.capacity_gbit = capacity_gbit
        self.intervals_s = intervals_s
        self.temperatures_c = temperatures_c
        self.iterations = iterations

    def inputs(self) -> Dict[str, Any]:
        return {
            "seed": self.campaign_seed,
            "chips_per_vendor": self.chips_per_vendor,
            "capacity_gbit": self.capacity_gbit,
            "intervals_s": list(self.intervals_s),
            "temperatures_c": list(self.temperatures_c),
            "iterations": self.iterations,
            "durable": self.durable,
        }

    @contextlib.contextmanager
    def ready(self) -> Iterator[None]:
        yield

    def run_op(self, index: int) -> OpResult:
        campaign = CharacterizationCampaign(
            chips_per_vendor=self.chips_per_vendor,
            geometry=ChipGeometry.from_capacity_gigabits(self.capacity_gbit),
            iterations=self.iterations,
            seed=self.campaign_seed,
        )
        run_dir = self.work_dir / f"campaign-{index}" if self.durable else None
        started = time.perf_counter()
        summary = campaign.run(
            self.intervals_s,
            self.temperatures_c,
            backend=None,
            workers=self.workers,
            run_dir=None if run_dir is None else str(run_dir),
        )
        latency = time.perf_counter() - started
        if run_dir is not None:
            shutil.rmtree(run_dir)
        return OpResult(
            key=0,
            digest=digest(summary.to_json_dict()),
            chips=summary.n_chips,
            latencies=[latency],
            attempted=self.chips_per_vendor * len(VENDORS),
            failed=len(summary.failed_units),
        )

    def gate(self) -> Optional[str]:
        return None


class ServiceMix:
    """Rounds of small jobs on a fresh in-process service.

    A closed loop: each of ``clients`` threads submits a job, streams its
    events to the end, fetches the result, and every ``report_every``-th
    job asks for its tenant's lake ``trend`` report, then submits the
    next.  Each client is its own tenant, so a report covers exactly that
    client's finished jobs and its rows are deterministic.  Latency is
    timed from the POST to the fetched result, with no polling.
    """

    def __init__(
        self,
        seed: int,
        work_dir: pathlib.Path,
        workers: int,
        jobs_per_client: int,
        report_every: int,
        chips_per_vendor: int,
        capacity_gbit: float,
    ) -> None:
        self.work_dir = work_dir
        self.workers = workers
        self.clients = workers
        self.report_every = report_every
        self.job_specs = [
            [
                {
                    "chips_per_vendor": chips_per_vendor,
                    "capacity_gbit": capacity_gbit,
                    "seed": derive(seed, "job", client, job),
                }
                for job in range(jobs_per_client)
            ]
            for client in range(self.clients)
        ]

    def inputs(self) -> Dict[str, Any]:
        return {"report_every": self.report_every, "job_specs": self.job_specs}

    @contextlib.contextmanager
    def _service(self, root: pathlib.Path) -> Iterator[ServiceClient]:
        config = ServiceConfig(root=root, port=0, pool_workers=self.workers)
        service = ServiceThread(config)
        with contextlib.redirect_stdout(io.StringIO()):  # its "serving on" line
            service.start()
        try:
            client = ServiceClient(service.host, service.port)
            client.healthz()
            yield client
        finally:
            service.stop()
            shutil.rmtree(root, ignore_errors=True)

    @contextlib.contextmanager
    def ready(self) -> Iterator[None]:
        with self._service(self.work_dir / "service-ready"):
            yield

    def _client_loop(self, client: ServiceClient, index: int, out: Dict[str, Any]) -> None:
        tenant = f"client-{index}"
        for number, spec in enumerate(self.job_specs[index], start=1):
            out["attempted"] += 1
            started = time.perf_counter()
            try:
                job_id = client.submit(tenant, spec)["job_id"]
                states = [
                    event.get("state")
                    for event in client.events(job_id)
                    if event.get("event") == "job.state"
                ]
                if states[-1:] != [DONE]:
                    raise RuntimeError(f"job {job_id} ended in {states[-1:]}")
                summary = client.result(job_id)
                if summary["failed_units"]:
                    raise RuntimeError(f"job {job_id} failed units {summary['failed_units']}")
            except QueueFullError:
                out["refused"] += 1
                out["failed"] += 1
                out["jobs"].append(None)
                continue
            except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out["failed"] += 1
                out["jobs"].append(None)
                continue
            out["latencies"].append(time.perf_counter() - started)
            out["chips"] += summary["n_chips"]
            out["jobs"].append(digest(summary))
            if number % self.report_every:
                continue
            out["attempted"] += 1
            started = time.perf_counter()
            try:
                report = client.lake_report(tenant, "trend")
            except Exception:  # noqa: BLE001 - a failed report is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out["failed"] += 1
                out["reports"].append(None)
                continue
            out["report_latencies"].append(time.perf_counter() - started)
            # Job ids are numbered across tenants in arrival order; the
            # rest of each row is deterministic.
            out["reports"].append(digest([row[1:] for row in report["rows"]]))

    def run_op(self, index: int) -> OpResult:
        outs = [
            {"attempted": 0, "failed": 0, "refused": 0, "chips": 0, "latencies": [],
             "report_latencies": [], "jobs": [], "reports": []}
            for _ in range(self.clients)
        ]
        with self._service(self.work_dir / f"service-{index}") as client:
            threads = [
                threading.Thread(target=self._client_loop, args=(client, n, out))
                for n, out in enumerate(outs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            records = client.jobs()
        done = [r for r in records if r["state"] == DONE]
        return OpResult(
            key=0,
            digest=digest([[out["jobs"], out["reports"]] for out in outs]),
            chips=sum(out["chips"] for out in outs),
            latencies=[t for out in outs for t in out["latencies"]],
            attempted=sum(out["attempted"] for out in outs),
            failed=sum(out["failed"] for out in outs),
            samples={
                "report_latency_s": [t for out in outs for t in out["report_latencies"]],
                "queue_wait_s": [r["started_ts"] - r["created_ts"] for r in done],
                "job_run_s": [r["finished_ts"] - r["started_ts"] for r in done],
                "refused": [float(out["refused"]) for out in outs],
            },
        )

    def gate(self) -> Optional[str]:
        return None


class ReachProfile:
    """REAPER on single chips: ground truth, reach profile, evaluation.

    Operation ``i`` profiles chip ``i`` of an endless seed-derived sequence
    (vendors A, B, C in turn): 16 brute-force iterations at the target
    (1024 ms, 45 degC) give the ground truth, then 5 iterations at the
    +250 ms reach condition on a fresh copy of the chip, then ``evaluate``.
    """

    TARGET = Conditions(trefi=1.024, temperature=45.0)
    REACH = ReachDelta(delta_trefi=0.250)

    def __init__(self, seed: int, capacity_gbit: float) -> None:
        self.seed = seed
        self.geometry = ChipGeometry.from_capacity_gigabits(capacity_gbit)
        self.capacity_gbit = capacity_gbit
        self.truth_cells = self.covered_cells = 0
        self.found_cells = self.false_positives = 0

    def chip_inputs(self, index: int) -> Tuple[str, int]:
        names = tuple(VENDORS)
        return names[index % len(names)], derive(self.seed, "chip", index)

    def inputs(self) -> Dict[str, Any]:
        return {
            "capacity_gbit": self.capacity_gbit,
            "chips": [self.chip_inputs(index) for index in range(6)],
        }

    @contextlib.contextmanager
    def ready(self) -> Iterator[None]:
        yield

    def _chip(self, index: int) -> SimulatedDRAMChip:
        vendor, seed = self.chip_inputs(index)
        return SimulatedDRAMChip(
            vendor=vendor_by_name(vendor), geometry=self.geometry, seed=seed, max_trefi_s=2.6
        )

    def run_op(self, index: int) -> OpResult:
        started = time.perf_counter()
        truth = BruteForceProfiler(iterations=16).run(self._chip(index), self.TARGET)
        profile = ReachProfiler(reach=self.REACH, iterations=5).run(
            self._chip(index), self.TARGET
        )
        score = core.evaluate(profile, truth.failing)
        latency = time.perf_counter() - started
        self.truth_cells += score.n_truth
        self.covered_cells += score.n_found - score.n_false_positives
        self.found_cells += score.n_found
        self.false_positives += score.n_false_positives
        cells = {
            "truth": sorted(int(cell) for cell in truth.failing),
            "found": sorted(int(cell) for cell in profile.failing),
        }
        return OpResult(
            key=index,
            digest=digest([self.chip_inputs(index), cells]),
            chips=1,
            latencies=[latency],
            attempted=1,
            failed=0,
        )

    def gate(self) -> Optional[str]:
        """Aggregate coverage above 99% and FPR below 50% (paper 6.1.2)."""
        coverage = self.covered_cells / max(1, self.truth_cells)
        fpr = self.false_positives / max(1, self.found_cells)
        if coverage > 0.99 and fpr < 0.50:
            return None
        return f"reach profile coverage {coverage:.4f} (need > 0.99), FPR {fpr:.4f} (need < 0.50)"


#: Grid-sweep intervals: 30 log-spaced points from 64 ms to 2.048 s.
GRID_INTERVALS_S = tuple(0.064 * 32.0 ** (k / 29) for k in range(30))

def make_workload(
    name: str, seed: int, work_dir: pathlib.Path, workers: int, tiny: bool = False
) -> Any:
    """Build a workload at its benchmark size, or ``tiny`` for smoke tests."""
    if name == "grid-sweep":
        return CampaignWorkload(
            seed, work_dir, workers,
            chips_per_vendor=2 if tiny else 50,
            capacity_gbit=1.0 / 1024,
            intervals_s=GRID_INTERVALS_S[::10] if tiny else GRID_INTERVALS_S,
            temperatures_c=(45.0, 55.0),
            iterations=3,
            durable=False,
        )
    if name == "paper-campaign":
        return CampaignWorkload(
            seed, work_dir, workers,
            chips_per_vendor=2 if tiny else 123,
            capacity_gbit=1.0 / 16 if tiny else 0.25,
            intervals_s=(0.512, 1.024, 2.048),
            temperatures_c=(45.0, 55.0),
            iterations=2,
            durable=True,
        )
    if name == "service-mix":
        return ServiceMix(
            seed, work_dir, workers,
            jobs_per_client=2 if tiny else 12,
            report_every=2 if tiny else 4,
            chips_per_vendor=1 if tiny else 2,
            capacity_gbit=1.0 / 64 if tiny else 1.0 / 16,
        )
    if name == "reach-profile":
        return ReachProfile(seed, capacity_gbit=1.0 / 16 if tiny else 0.25)
    raise ValueError(f"unknown workload {name!r}")
