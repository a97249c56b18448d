"""Process-parallel capacity-sweep execution.

Each sweep point is one independent, deterministic simulation, so the sweep
fans out over a process pool (``concurrent.futures.ProcessPoolExecutor``)
and merges results back in task order. Determinism is preserved by
construction:

* Tasks are enumerated in the serial path's exact order (capacity outer,
  scheme inner) and results merged positionally (futures are read in
  submission order), so the assembled :class:`SweepResult` is
  indistinguishable from the serial one.
* Workers receive the trace once via the pool initializer (inherited by
  fork where available) instead of once per task. Streamed sources ride
  the same channel: synthetic streams pickle their config, and packed
  readers pickle as their path and re-open in the worker (mmap handles
  cannot cross a process boundary), so every worker still holds O(chunk)
  request memory.
* Every callable submitted to the pool is module-level — nested functions
  and lambdas do not pickle across process boundaries (lint rule RPR008
  guards this statically).
* A worker that dies (OOM kill, signal) breaks the pool, which fails every
  unfinished point at once: the sweep raises :class:`ExperimentError`
  naming the first lost point instead of waiting for it forever.

Execution telemetry (worker pids, per-point wall time, memo-hit accounting)
is collected into :class:`repro.parallel.telemetry.SweepTelemetry` on
``runner.last_telemetry`` and streamed through an optional progress
callback — strictly out-of-band so results stay byte-comparable.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.parallel.telemetry import (
    ProgressCallback,
    SweepProgress,
    SweepTelemetry,
    TaskReport,
)
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.record import Trace

#: Trace replayed by every task in the current worker process (set once per
#: worker by :func:`_init_worker`): the pool-initializer idiom — the trace
#: is pinned exactly once per worker, before any task runs, and never
#: mutated afterwards.
_WORKER_TRACE: Optional[Trace] = None

#: One pool task:
#: ``(config, events_path, snapshot_interval, track_memory, trace_spans)``.
_TaskPayload = Tuple[SimulationConfig, Optional[str], float, bool, bool]


def default_jobs() -> int:
    """Default worker count: one per CPU."""
    return os.cpu_count() or 1


def _init_worker(trace: Optional[Trace]) -> None:
    """Pool initializer: pin the shared trace in this worker process.

    The global write is the *point*: each worker caches the trace once so
    tasks do not re-pickle it, and the parent never needs to see it. An
    in-process sweep pins it in the caller and unpins it with ``None``.
    """
    global _WORKER_TRACE
    _WORKER_TRACE = trace


def _run_task(
    payload: _TaskPayload,
) -> Tuple[SimulationResult, int, float, Dict[str, Any]]:
    """Run one sweep point against the worker's pinned trace.

    Returns ``(result, worker_pid, wall_time_s, extra)``. ``extra``
    carries the optional execution telemetry the payload asked for —
    ``"regimes"`` (batch regime occupancy), ``"peak_memory_bytes"``
    (tracemalloc high-water mark), ``"spans"`` (raw span rows, merged
    into the parent tracer's timeline back in the runner). All of it is
    telemetry only — nothing here feeds back into simulation state,
    which is why the wall-clock reads are exempt from the determinism
    analyzer.
    """
    config, events_path, snapshot_interval, track_memory, trace_spans = payload
    if _WORKER_TRACE is None:
        raise ExperimentError("sweep worker used before its trace was initialised")
    regimes: Optional[Dict[str, Any]] = {} if config.engine == "batch" else None
    spans = None
    if trace_spans:
        from repro.obs.spans import SpanTracer

        spans = SpanTracer()
    tracing_memory = False
    if track_memory:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            tracing_memory = True
    try:
        # Telemetry-only wall time: reported per worker, never simulated with.
        start = time.perf_counter()  # repro: noqa[RPR111]
        if events_path is None and snapshot_interval == 0.0:
            result = run_simulation(
                config, _WORKER_TRACE, regimes=regimes, spans=spans
            )
        else:
            # Imported lazily so plain sweeps never pay the obs import.
            from repro.obs.session import run_observed

            result = run_observed(
                config,
                _WORKER_TRACE,
                events_path=events_path,
                snapshot_interval=snapshot_interval,
                regimes=regimes,
                spans=spans,
            )
        wall = time.perf_counter() - start  # repro: noqa[RPR111]
        extra: Dict[str, Any] = {}
        if regimes:
            extra["regimes"] = regimes
        if track_memory:
            extra["peak_memory_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        # A raising point must not leave the tracer it started running in
        # a pooled worker (or, with jobs=1, in the caller's process).
        if tracing_memory:
            tracemalloc.stop()
    if spans is not None:
        extra["spans"] = spans.rows
    return result, os.getpid(), wall, extra


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where the platform offers it (cheap trace sharing), else default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


class ParallelSweepRunner:
    """Runs ``{scheme} x {capacity}`` sweeps over a process pool.

    Args:
        jobs: Worker processes; defaults to ``os.cpu_count()``. ``1`` (or a
            single outstanding task) short-circuits to in-process execution
            — no pool is spawned, which keeps tiny sweeps and memo-warm
            reruns free of multiprocessing overhead.
        memo: Optional :class:`~repro.parallel.memo.SweepMemoStore`; points
            already memoized are loaded instead of simulated, and fresh
            results are persisted for the next invocation.

    Attributes:
        last_telemetry: :class:`~repro.parallel.telemetry.SweepTelemetry`
            for the most recent :meth:`run`, or None before the first.
    """

    def __init__(self, jobs: Optional[int] = None, memo=None):
        if jobs is not None and jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self.memo = memo
        self.last_telemetry: Optional[SweepTelemetry] = None

    def run(
        self,
        trace: Trace,
        capacities: Sequence[Tuple[str, int]],
        schemes: Optional[Sequence[str]] = None,
        base_config: Optional[SimulationConfig] = None,
        events_dir: Optional[str] = None,
        snapshot_interval: float = 0.0,
        progress: Optional[ProgressCallback] = None,
        track_memory: bool = False,
        spans=None,
    ):
        """Run the sweep; returns a :class:`SweepResult`.

        Identical inputs produce results byte-identical to
        :func:`repro.experiments.sweep.run_capacity_sweep`'s serial path.
        ``trace`` may be a streamed source (``interned_chunks``) when the
        sweep's configs select a chunked engine; results are identical to
        sweeping the materialised trace.

        Args:
            events_dir: When given, every freshly simulated point writes a
                ``repro-events/1`` stream into this directory (created on
                demand), named by :func:`repro.obs.session
                .sweep_event_filename`. Memoized points are served from the
                store without re-simulating and therefore emit no events.
            snapshot_interval: Simulation-seconds between snapshot events
                in those streams (0 disables snapshots).
            progress: Optional callback fired once per completed point
                with a :class:`~repro.parallel.telemetry.SweepProgress`.
            track_memory: Track each worker's :mod:`tracemalloc`
                high-water mark per point, reported on
                :attr:`TaskReport.peak_memory_bytes` and aggregated in
                the telemetry summary.
            spans: Optional parent :class:`repro.obs.spans.SpanTracer`.
                Each freshly simulated point is span-traced inside its
                worker and the rows merged back onto one lane per point
                (labelled ``capacity/scheme``) — fork workers share the
                parent's ``CLOCK_MONOTONIC``, so raw timestamps compose
                into one coherent timeline. Telemetry only: results and
                memo keys are unchanged.
        """
        # Imported here: sweep delegates to this runner, so a module-level
        # import would be circular.
        from repro.experiments.sweep import DEFAULT_SCHEMES, SweepPoint, SweepResult

        if schemes is None:
            schemes = DEFAULT_SCHEMES
        if not capacities:
            raise ExperimentError("capacity sweep needs at least one capacity")
        if not schemes:
            raise ExperimentError("capacity sweep needs at least one scheme")
        template = base_config if base_config is not None else SimulationConfig()

        # Task order mirrors the serial loop: capacity outer, scheme inner.
        tasks: List[Tuple[str, int, str, SimulationConfig]] = []
        for label, capacity_bytes in capacities:
            for scheme in schemes:
                config = template.with_scheme(scheme).with_capacity(capacity_bytes)
                tasks.append((label, capacity_bytes, scheme, config))

        telemetry = SweepTelemetry()
        completed = 0

        def _tick(report: TaskReport) -> None:
            nonlocal completed
            completed += 1
            telemetry.reports.append(report)
            if progress is not None:
                progress(SweepProgress(completed, len(tasks), report))

        results: List[Optional[SimulationResult]] = [None] * len(tasks)
        pending: List[int] = []
        for index, (label, _, scheme, config) in enumerate(tasks):
            if self.memo is not None:
                cached = self.memo.get(config, trace)
                if cached is not None:
                    results[index] = cached
                    _tick(
                        TaskReport(
                            index=index,
                            capacity_label=label,
                            scheme=scheme,
                            memoized=True,
                            worker_pid=None,
                            wall_time_s=0.0,
                        )
                    )
                    continue
            pending.append(index)

        if pending:
            if events_dir is not None:
                os.makedirs(events_dir, exist_ok=True)
            payloads = [
                self._payload(
                    tasks[i], i, events_dir, snapshot_interval,
                    track_memory, spans is not None,
                )
                for i in pending
            ]
            for index, (result, pid, wall, extra) in zip(
                pending, self._simulate(trace, payloads)
            ):
                results[index] = result
                if self.memo is not None:
                    self.memo.put(tasks[index][3], trace, result)
                label, _, scheme, _ = tasks[index]
                if spans is not None and "spans" in extra:
                    # One lane per point: tid 0 is the parent's own lane,
                    # so point lanes start at index + 1.
                    spans.merge(
                        extra["spans"], tid=index + 1,
                        label=f"{label}/{scheme}",
                    )
                _tick(
                    TaskReport(
                        index=index,
                        capacity_label=label,
                        scheme=scheme,
                        memoized=False,
                        worker_pid=pid,
                        wall_time_s=wall,
                        regimes=extra.get("regimes"),
                        peak_memory_bytes=extra.get("peak_memory_bytes"),
                    )
                )

        self.last_telemetry = telemetry
        points = [
            SweepPoint(
                scheme=scheme,
                capacity_label=label,
                capacity_bytes=capacity_bytes,
                result=result,
            )
            for (label, capacity_bytes, scheme, _), result in zip(tasks, results)
        ]
        return SweepResult(points)

    @staticmethod
    def _payload(
        task: Tuple[str, int, str, SimulationConfig],
        index: int,
        events_dir: Optional[str],
        snapshot_interval: float,
        track_memory: bool,
        trace_spans: bool,
    ) -> _TaskPayload:
        """Pool payload for one task, with its event-file path resolved."""
        label, _, scheme, config = task
        events_path = None
        if events_dir is not None:
            from repro.obs.session import sweep_event_filename

            events_path = os.path.join(
                events_dir, sweep_event_filename(index, label, scheme)
            )
        return (config, events_path, snapshot_interval, track_memory, trace_spans)

    def _simulate(self, trace: Trace, payloads: Sequence[_TaskPayload]):
        """Yield ``(result, pid, wall, extra)`` per payload, in submission order."""
        if self.jobs <= 1 or len(payloads) <= 1:
            _init_worker(trace)
            try:
                for payload in payloads:
                    yield _run_task(payload)
            finally:
                # The caller's process must not keep the trace (and its
                # memoised batch columns) alive after the sweep returns.
                _init_worker(None)
            return
        # Imported here so serial sweeps never pay for the pool machinery.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(payloads)),
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(trace,),
        ) as executor:
            # Read in submission order — the deterministic merge — while
            # the caller streams progress ticks.
            futures = [executor.submit(_run_task, payload) for payload in payloads]
            for payload, future in zip(payloads, futures):
                try:
                    yield future.result()
                except BrokenProcessPool as exc:
                    config = payload[0]
                    raise ExperimentError(
                        "a sweep worker died before returning the point at "
                        f"capacity {config.aggregate_capacity} bytes, scheme "
                        f"{config.scheme}"
                    ) from exc
