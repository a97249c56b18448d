"""Observed runs: glue between the engines, the recorder, and manifests.

:func:`run_observed` is the one-call form — replay a trace with optional
event capture and come back with the manifest attached to the result.
:class:`ObservedRun` is the split form for callers that need to drive the
simulator themselves (the CLI's ``--sanitize`` path holds the simulator to
read its report afterwards) but still want identical event/manifest
handling.

Wall time is measured here — *outside* the simulation-reachable call graph
— which is exactly why the simulator and recorder never touch a clock
themselves (docs/ANALYSIS.md determinism rules; the RPR111 analyzer walks
the engines, not this session layer).
"""

from __future__ import annotations

import contextlib
import re
import time
from typing import Optional

from repro.atomicio import atomic_path
from repro.obs.events import RunRecorder
from repro.obs.manifest import build_manifest, config_hash, write_manifest
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import (
    SimulationConfig,
    resolved_engine,
    run_simulation,
)
from repro.trace.record import Trace
from repro.trace.stream import source_fingerprint


class _Unfinished(Exception):
    """Unwinds :class:`ObservedRun`'s uncommitted ``atomic_path`` blocks."""


class ObservedRun:
    """Event sink + wall timer for one run; call :meth:`finish` exactly once.

    The session owns what it opens — both sinks, the allocation tracer if
    it started one, its root span — and :meth:`release` gives all of it back.
    :meth:`finish` ends with ``release()``; use the session as a context
    manager so a replay that raises releases them too.

    Both files are written through :func:`repro.atomicio.atomic_path`:
    they appear at ``events_path`` / ``timeseries_path`` only when
    :meth:`finish` completes. A run released unfinished — a replay that
    raised, a Ctrl-C — leaves whatever was at those paths before and no
    temp file.

    Args:
        config: The run's configuration (hashed into the header/manifest).
        trace: The trace about to be replayed — a :class:`Trace` or any
            streamed source; its fingerprint (via
            :func:`~repro.trace.stream.source_fingerprint`) lands in the
            event-stream header and the manifest.
        events_path: Target for the ``repro-events/1`` stream; ``None``
            records no events but still produces a manifest.
        snapshot_interval: Simulation-seconds between snapshot events.
        track_memory: Trace Python allocations with :mod:`tracemalloc`
            and record the run's high-water mark in the manifest as
            ``peak_memory_bytes``. Opt-in because tracing costs real
            wall time; it is how the O(chunk) streaming-memory claim is
            *gated* rather than asserted.
        spans: Optional :class:`repro.obs.spans.SpanTracer`; when given,
            the whole observed run is bracketed by a root ``run`` span
            (engine/source/regime spans nest under it when the tracer is
            also passed to the engine). Timings only — the tracer never
            feeds back into simulation state.
        timeseries_path: Target for a ``repro-timeseries/1`` per-chunk
            sample stream (see :mod:`repro.obs.timeseries`); ``None``
            records no samples. The recorder is exposed as
            :attr:`timeseries` for callers that drive the engines
            themselves.
    """

    def __init__(
        self,
        config: SimulationConfig,
        trace: Trace,
        events_path: Optional[str] = None,
        snapshot_interval: float = 0.0,
        track_memory: bool = False,
        spans=None,
        timeseries_path: Optional[str] = None,
    ):
        self.config = config
        self.trace = trace
        self.events_path = events_path
        self.snapshot_interval = snapshot_interval
        self.recorder: Optional[RunRecorder] = None
        self.spans = spans
        self.timeseries = None
        self._sink = None
        self._ts_sink = None
        # The temp-file side of each atomic_path, entered per opened file.
        self._paths = contextlib.ExitStack()
        self._tracing_memory = False
        self._span_depth: Optional[int] = None
        self._trace_fp = source_fingerprint(trace)
        try:
            self._open(config, track_memory, timeseries_path)
        except BaseException:
            self.release()
            raise
        # Reachable only via the call graph's receiver-agnostic __init__
        # tier, never from an engine: wall time is measured outside the
        # simulation by design (the manifest's one volatile field).
        self._start = time.perf_counter()  # repro: noqa[RPR111]

    def _open(
        self, config: SimulationConfig, track_memory: bool, timeseries_path: Optional[str]
    ) -> None:
        if self.events_path is not None:
            tmp = self._paths.enter_context(atomic_path(self.events_path))
            self._sink = open(tmp, "w", encoding="utf-8", newline="\n")
            self.recorder = RunRecorder(self._sink, self.snapshot_interval)
            self.recorder.begin(config_hash(config), self._trace_fp)
        if track_memory:
            import tracemalloc

            # Leave an already-running tracer alone (its peak belongs to
            # whoever started it); only own the start/stop pair we create.
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracing_memory = True
        if timeseries_path is not None:
            from repro.obs.timeseries import TimeseriesRecorder

            tmp = self._paths.enter_context(atomic_path(timeseries_path))
            self._ts_sink = open(tmp, "w", encoding="utf-8", newline="\n")
            self.timeseries = TimeseriesRecorder(
                self._ts_sink, track_memory=track_memory
            )
            self.timeseries.begin(
                config_hash(config), self._trace_fp, resolved_engine(config)
            )
        if self.spans is not None:
            self._span_depth = self.spans.depth
            self.spans.begin("run", "run")

    def release(self) -> None:
        """Release everything the session opened; safe to call repeatedly.

        Closes both sinks, stops the allocation tracer if this session
        started it, and ends the root span together with any span a failed
        engine left open under it. Files :meth:`finish` has not committed
        are dropped: their temp files are removed and nothing is renamed.
        """
        self._close_sinks()
        # Unwinding the stack with an exception is how atomic_path drops its
        # temp file; after finish() the stack is empty and this is a no-op.
        with contextlib.suppress(_Unfinished), self._paths:
            raise _Unfinished
        if self._tracing_memory:
            import tracemalloc

            tracemalloc.stop()
            self._tracing_memory = False
        if self._span_depth is not None:
            while self.spans.depth > self._span_depth:
                self.spans.end()
            self._span_depth = None

    def _close_sinks(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        if self._ts_sink is not None:
            self._ts_sink.close()
            self._ts_sink = None

    def __enter__(self) -> "ObservedRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def finish(self, result: SimulationResult) -> SimulationResult:
        """Close the stream, build the manifest, attach it to ``result``."""
        # Same carve-out as __init__: the wall timer brackets the run from
        # the session layer; nothing inside the replay reads it.
        wall_time = time.perf_counter() - self._start  # repro: noqa[RPR111]
        peak_memory = None
        if self._tracing_memory:
            import tracemalloc

            peak_memory = tracemalloc.get_traced_memory()[1]
        if self.spans is not None:
            self.spans.end(requests=result.metrics.requests)
        counts = None
        if self.recorder is not None:
            self.recorder.end()
            counts = self.recorder.counts
        if self.timeseries is not None:
            self.timeseries.end()
            self.timeseries = None
        self._close_sinks()
        self._paths.close()  # every atomic_path renames its temp file over its path
        self.release()
        engine = resolved_engine(self.config)
        fastloop_reason = None
        if engine == "batch":
            # Same inputs the engine dispatched on: config, observer, platform.
            from repro.fastpath.batch import batch_fastloop_reason

            fastloop_reason = batch_fastloop_reason(self.config, self.recorder)
        result.manifest = build_manifest(
            self.config,
            self._trace_fp,
            engine_requested=self.config.engine,
            engine_resolved=engine,
            wall_time_s=wall_time,
            result=result,
            snapshot_interval=self.snapshot_interval,
            events_path=self.events_path,
            event_counts=counts,
            peak_memory_bytes=peak_memory,
            fastloop_reason=fastloop_reason,
        )
        return result


def run_observed(
    config: SimulationConfig,
    trace: Trace,
    events_path: Optional[str] = None,
    snapshot_interval: float = 0.0,
    manifest_path: Optional[str] = None,
    track_memory: bool = False,
    chunk_size: Optional[int] = None,
    spans=None,
    trace_out: Optional[str] = None,
    timeseries_path: Optional[str] = None,
    regimes=None,
) -> SimulationResult:
    """Replay ``trace`` under ``config`` with observability attached.

    Identical simulation behaviour to :func:`run_simulation` — the
    recorder only *reads* protocol state — with ``result.manifest``
    populated and, when requested, the event stream and manifest written
    to disk. With ``events_path=None`` this is the "instrumentation
    disabled" configuration the overhead benchmark gates at ≤2%.
    ``trace`` may be a streamed source; ``chunk_size`` and
    ``track_memory`` pass through to :func:`run_simulation` and
    :class:`ObservedRun` respectively.

    Span tracing: pass ``spans`` (a
    :class:`repro.obs.spans.SpanTracer`) to thread one through the run,
    or just ``trace_out`` — a tracer is created automatically and its
    Chrome Trace Event Format JSON written there after the run (load in
    Perfetto, or render with ``repro obs timeline``). ``timeseries_path``
    streams per-chunk ``repro-timeseries/1`` samples;``regimes`` (a
    mutable mapping) receives batch regime occupancy tallies, as in
    :func:`~repro.fastpath.batch.simulate_batch`. All four are telemetry
    only: events bytes, result digests, and memo keys are byte-identical
    with or without them (differential tests in ``tests/obs``).
    """
    if spans is None and trace_out is not None:
        from repro.obs.spans import SpanTracer

        spans = SpanTracer()
    with ObservedRun(
        config,
        trace,
        events_path=events_path,
        snapshot_interval=snapshot_interval,
        track_memory=track_memory,
        spans=spans,
        timeseries_path=timeseries_path,
    ) as observed:
        result = observed.finish(
            run_simulation(
                config,
                trace,
                obs=observed.recorder,
                chunk_size=chunk_size,
                regimes=regimes,
                spans=spans,
                timeseries=observed.timeseries,
            )
        )
    if manifest_path is not None:
        write_manifest(result.manifest, manifest_path)
    if trace_out is not None:
        spans.write(trace_out)
    return result


def sweep_event_filename(index: int, capacity_label: str, scheme: str) -> str:
    """Stable per-point event-file name for sweep ``--events`` directories."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", capacity_label)
    return f"point{index:03d}_{safe}_{scheme}.jsonl"
