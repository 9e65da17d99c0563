"""Span tracing for the benchmark's traced run, kept outside the program.

The traced run wraps the public functions and methods of each layer
(``core``, ``dram``, ``infra``, ``runner``, ``analysis``, ``service``,
``lake``) in spans recorded here, then turns the spans into a layer table
whose rows sum to the wall clock.

* Wrapping replaces attributes that are looked up at call time (class
  methods, a module's global, the lake's report table), never a worker
  function that is pickled by reference, so pool dispatch keeps working.
* Pool workers are forked after the wrappers are installed, so they record
  spans too.  Each worker keeps its spans in memory and writes them to
  ``spans-<pid>.json`` in the trace directory when it exits; the parent
  merges those files when the run ends.
* A layer may absorb calls into another: ``BruteForceProfiler.run`` called
  directly inside ``ReachProfiler.run`` is reach profiling, so it opens no
  ``core.bruteforce`` span of its own.

Layer table: each instant of the traced window goes to the innermost span
of every lane (thread or worker process) active at that instant, shared
equally when several are.  Spans that wait on other lanes (the runner
engine waiting on its pool, a client waiting for its job) yield the
instant to lanes doing work.  An instant with no span is
``unattributed``.  So the rows sum to the window exactly, and in a
single-lane run a row is its spans' duration minus what their child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import pathlib
import threading
import time
from collections import Counter
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: One recorded span: (layer, pid, thread id, start, end, depth, waits).
Span = Tuple[str, int, int, float, float, int, bool]

#: Counter hook: (call args, call result) -> {counter name: increment}.
CountFn = Callable[[Tuple[Any, ...], Any], Mapping[str, float]]

#: Table rows reported as seconds, in print order.
LAYER_ROWS = (
    "core.bruteforce",
    "core.run_grid",
    "core.reach",
    "core.evaluate",
    "dram.population",
    "dram.shm",
    "infra.testbed",
    "runner.engine",
    "runner.store",
    "analysis.aggregate",
    "service.submit",
    "service.result",
    "lake.compact",
    "lake.query",
)

#: The layer whose spans wait on pool workers (``runner.pool_wait_s``).
ENGINE_LAYER = "runner.engine"


class Recorder:
    """In-memory span and counter store, one per traced run.

    The recorder notices when it runs in a forked child (its pid changed):
    it then drops the parent's spans and counters it inherited, and
    registers a multiprocessing finalizer that writes the child's own
    spans to the trace directory when the worker process exits.
    """

    def __init__(self, trace_dir: pathlib.Path) -> None:
        self.trace_dir = pathlib.Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self._start_process()

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        if self.pid != self.owner_pid:
            mp_util.Finalize(None, self._dump, exitpriority=100)

    def _check_process(self) -> None:
        if os.getpid() != self.pid:
            self._start_process()

    def _stack(self) -> List[str]:
        self._check_process()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _dump(self) -> None:
        path = self.trace_dir / f"spans-{self.pid}.json"
        payload = {"spans": self.spans, "counters": dict(self.counters)}
        path.write_text(json.dumps(payload), encoding="utf-8")

    @contextlib.contextmanager
    def span(
        self, layer: str, waits: bool = False, absorbed_by: Tuple[str, ...] = ()
    ) -> Iterator[None]:
        stack = self._stack()
        if stack and stack[-1] in absorbed_by:
            yield
            return
        stack.append(layer)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (layer, self.pid, threading.get_ident(), start, end, len(stack), waits)
            )

    def count(self, name: str, value: float = 1) -> None:
        self._check_process()
        with self._lock:
            self.counters[name] += value

    def collect(self) -> Tuple[List[Span], Counter]:
        """The parent's spans and counters merged with every worker's."""
        spans = list(self.spans)
        counters = Counter(self.counters)
        for path in sorted(self.trace_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            spans.extend(tuple(span) for span in payload["spans"])
            counters.update(payload["counters"])
        return spans, counters


def _get(owner: Any, attr: str) -> Any:
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Installs span wrappers around the program's layers and removes them.

    Use as a context manager around the traced window; wrappers exist only
    inside it.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        waits: bool = False,
        count: Optional[CountFn] = None,
        absorbed_by: Tuple[str, ...] = (),
    ) -> None:
        """Wrap ``owner.attr`` (a module, class or dict) in ``layer`` spans.

        ``waits`` marks a call that mostly waits on other lanes.  A call
        made while one of ``absorbed_by`` is the innermost span opens no
        span.  ``count`` turns the call's arguments and result into counter
        increments, recorded whether or not the call opened a span.
        """
        original = _get(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        recorder = self.recorder

        if inspect.isgeneratorfunction(function):
            # The span covers consuming the generator, not creating it.
            @functools.wraps(function)
            def traced(*args: Any, **kwargs: Any) -> Any:
                with recorder.span(layer, waits, absorbed_by):
                    yield from function(*args, **kwargs)

        else:

            @functools.wraps(function)
            def traced(*args: Any, **kwargs: Any) -> Any:
                with recorder.span(layer, waits, absorbed_by):
                    result = function(*args, **kwargs)
                if count is not None:
                    for name, value in count(args, result).items():
                        recorder.count(name, value)
                return result

        _set(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        install_layers(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            _set(owner, attr, original)


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (the spans the table reports)."""
    from repro import core
    from repro.analysis import campaign as analysis_campaign
    from repro.core.bruteforce import BruteForceProfiler
    from repro.core.fleetprof import FleetProfiler
    from repro.core.reach import ReachProfiler
    from repro.dram.chip import SimulatedDRAMChip
    from repro.dram.shm import SharedPopulationStore
    from repro.infra.testbed import TestBed
    from repro.lake import REPORTS, ResultLake
    from repro.runner.engine import RunnerEngine
    from repro.runner.store import ResultStore
    from repro.service.client import ServiceClient

    def one_pass(_args: Tuple[Any, ...], _result: Any) -> Mapping[str, float]:
        return {"core.passes": 1}

    def grid_passes(_args: Tuple[Any, ...], result: Any) -> Mapping[str, float]:
        return {"core.passes": sum(len(entry) for entry in result)}

    def chip_cells(args: Tuple[Any, ...], _result: Any) -> Mapping[str, float]:
        return {"dram.weak_cells": args[0].weak_cell_count}

    def sampled_cells(_args: Tuple[Any, ...], result: Any) -> Mapping[str, float]:
        return {"dram.weak_cells": sum(len(sample) for sample in result.values())}

    def engine_units(_args: Tuple[Any, ...], report: Any) -> Mapping[str, float]:
        results = report.results.values()
        return {
            "runner.units": len(report.results),
            "runner.retries": sum(max(0, r.attempts - 1) for r in results),
        }

    def compaction(_args: Tuple[Any, ...], _result: Any) -> Mapping[str, float]:
        return {"lake.compactions": 1}

    def report(_args: Tuple[Any, ...], _result: Any) -> Mapping[str, float]:
        return {"lake.reports": 1}

    tracer.wrap(
        BruteForceProfiler, "run", "core.bruteforce", count=one_pass, absorbed_by=("core.reach",)
    )
    tracer.wrap(FleetProfiler, "run_grid", "core.run_grid", count=grid_passes)
    tracer.wrap(ReachProfiler, "run", "core.reach")
    tracer.wrap(core, "evaluate", "core.evaluate")
    tracer.wrap(SimulatedDRAMChip, "__init__", "dram.population", count=chip_cells)
    tracer.wrap(
        analysis_campaign, "build_population_samples", "dram.population", count=sampled_cells
    )
    tracer.wrap(SharedPopulationStore, "create", "dram.shm")
    tracer.wrap(SharedPopulationStore, "unlink", "dram.shm")
    tracer.wrap(TestBed, "build_single", "infra.testbed")
    tracer.wrap(TestBed, "set_ambient", "infra.testbed")
    tracer.wrap(RunnerEngine, "run", ENGINE_LAYER, waits=True, count=engine_units)
    for method in ("open", "load_results", "append", "mark_status", "close"):
        tracer.wrap(ResultStore, method, "runner.store")
    tracer.wrap(analysis_campaign, "aggregate_chip_results", "analysis.aggregate")
    tracer.wrap(ServiceClient, "submit", "service.submit")
    tracer.wrap(ServiceClient, "events", "service.result", waits=True)
    tracer.wrap(ServiceClient, "result", "service.result", waits=True)
    tracer.wrap(ResultLake, "compact_run_dir", "lake.compact", count=compaction)
    tracer.wrap(REPORTS, "trend", "lake.query", count=report)


def layer_table(
    spans: Sequence[Span], start: float, end: float, owner_pid: int
) -> Tuple[Dict[str, float], float, float]:
    """Attribute the window ``[start, end]`` to layers.

    Returns ``(seconds by layer, unattributed seconds, pool wait seconds)``;
    the layer seconds plus the unattributed seconds equal ``end - start``.
    Pool wait is time inside a ``runner.engine`` span while no pool worker
    span is active.
    """
    events = []
    for index, (_layer, _pid, _tid, t0, t1, depth, _waits) in enumerate(spans):
        t0, t1 = max(t0, start), min(t1, end)
        if t1 <= t0:
            continue
        # At equal times: ends before starts; outer spans open first and
        # close last, so each lane stays a proper stack.
        events.append((t0, 1, depth, index))
        events.append((t1, 0, -depth, index))
    events.sort()
    seconds: Dict[str, float] = {}
    lanes: Dict[Tuple[int, int], List[int]] = {}
    engines = workers = 0
    unattributed = pool_wait = 0.0
    previous = start
    for when, is_start, _order, index in events:
        step = when - previous
        if step > 0.0:
            tops = [spans[stack[-1]] for stack in lanes.values() if stack]
            working = [span for span in tops if not span[6]]
            share = working or tops
            if share:
                for span in share:
                    seconds[span[0]] = seconds.get(span[0], 0.0) + step / len(share)
            else:
                unattributed += step
            if engines and not workers:
                pool_wait += step
        previous = when
        layer, pid, tid = spans[index][:3]
        lane = lanes.setdefault((pid, tid), [])
        delta = 1 if is_start else -1
        if is_start:
            lane.append(index)
        else:
            lane.remove(index)
        if layer == ENGINE_LAYER:
            engines += delta
        if pid != owner_pid:
            workers += delta
    unattributed += max(0.0, end - previous)
    return seconds, unattributed, pool_wait
