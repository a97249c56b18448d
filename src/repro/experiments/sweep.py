"""Capacity-sweep harness shared by every experiment driver.

One sweep = {scheme} x {aggregate capacity} simulations over a single trace,
returned as an indexable :class:`SweepResult`. All figure/table drivers are
thin projections of a sweep, so a single sweep per (trace, group size) can
be reused across fig1/fig2/fig3/table1/table2 — the benchmark harness relies
on that to avoid re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.report import ExperimentReport
from repro.experiments.workload import capacities_for, workload_trace
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.record import Trace

#: Scheme order used in paper tables: conventional first, then EA.
DEFAULT_SCHEMES: Tuple[str, ...] = ("adhoc", "ea")


@dataclass(frozen=True)
class SweepPoint:
    """One simulation inside a sweep."""

    scheme: str
    capacity_label: str
    capacity_bytes: int
    result: SimulationResult


class SweepResult:
    """All points of a sweep, indexable by (scheme, capacity label)."""

    #: Execution telemetry (:class:`repro.parallel.telemetry.SweepTelemetry`)
    #: attached by :class:`repro.parallel.ParallelSweepRunner`; None for
    #: sweeps produced by the plain serial loop. Out-of-band on purpose —
    #: it carries wall times and pids, which must never reach the
    #: byte-compared result payload.
    telemetry = None

    def __init__(self, points: Sequence[SweepPoint]):
        self.points: List[SweepPoint] = list(points)
        self._index: Dict[Tuple[str, str], SweepPoint] = {
            (p.scheme, p.capacity_label): p for p in self.points
        }

    def get(self, scheme: str, capacity_label: str) -> SweepPoint:
        """The point for a scheme/capacity pair.

        Raises:
            ExperimentError: if the sweep did not include that pair.
        """
        try:
            return self._index[(scheme, capacity_label)]
        except KeyError:
            raise ExperimentError(
                f"sweep has no point for scheme={scheme!r}, "
                f"capacity={capacity_label!r}; available: {sorted(self._index)}"
            ) from None

    @property
    def schemes(self) -> List[str]:
        """Schemes present, in first-seen order."""
        return list(dict.fromkeys(p.scheme for p in self.points))

    @property
    def capacity_labels(self) -> List[str]:
        """Capacity labels present, in first-seen order."""
        return list(dict.fromkeys(p.capacity_label for p in self.points))


def run_capacity_sweep(
    trace: Trace,
    capacities: Sequence[Tuple[str, int]],
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    base_config: Optional[SimulationConfig] = None,
    jobs: Optional[int] = None,
    memo=None,
    engine: Optional[str] = None,
    events_dir: Optional[str] = None,
    snapshot_interval: float = 0.0,
    progress=None,
    track_memory: bool = False,
    spans=None,
) -> SweepResult:
    """Run {scheme} x {capacity} simulations over ``trace``.

    Args:
        trace: Workload replayed identically into every point — a
            :class:`Trace` or a streamed source (packed reader, synthetic
            stream; see :mod:`repro.trace.stream`), the latter requiring
            a chunked ``engine`` and keeping every point at O(chunk)
            request memory.
        capacities: ``(label, aggregate_bytes)`` pairs.
        schemes: Placement schemes to compare.
        base_config: Template for everything except scheme and capacity
            (group size, policy, architecture...); paper defaults if omitted.
        jobs: Worker processes for the sweep; ``None`` (the default) runs
            serially in-process. Any value fans out through
            :class:`repro.parallel.ParallelSweepRunner`, whose merge order
            makes results byte-identical to the serial path.
        memo: Optional :class:`repro.parallel.SweepMemoStore`; memoized
            points are loaded instead of re-simulated.
        engine: Execution engine for every point (``"object"``, the
            reference core; ``"batch"``, the replay kernel; ``"columnar"``,
            that kernel with its vector regimes off); overrides
            ``base_config.engine`` when given. Results are byte-identical
            on all three — the engine is purely a throughput knob
            (unsupported configs fall back per point with a logged
            reason). Workers in a parallel sweep pin one trace, so the
            interning cost is paid once per worker, not per point.
        events_dir: When given, each freshly simulated point writes a
            ``repro-events/1`` stream into this directory (see
            :mod:`repro.obs`); memoized points emit no events.
        snapshot_interval: Simulation-seconds between snapshot events in
            those streams (0 disables snapshots).
        progress: Optional per-point callback receiving a
            :class:`repro.parallel.telemetry.SweepProgress`.
        track_memory: Track each worker's :mod:`tracemalloc` high-water
            mark per point (surfaced on the sweep telemetry).
        spans: Optional parent :class:`repro.obs.spans.SpanTracer`;
            freshly simulated points are span-traced in their workers and
            merged onto per-point lanes of the parent timeline.

    Any observability argument routes the sweep through the runner (in
    process when ``jobs`` is unset) so event capture, telemetry, and
    progress share one implementation; results stay byte-identical.
    """
    if engine is not None:
        template = base_config if base_config is not None else SimulationConfig()
        base_config = replace(template, engine=engine)
    observed = (
        events_dir is not None or snapshot_interval > 0.0
        or progress is not None or track_memory or spans is not None
    )
    if jobs is not None or memo is not None or observed:
        # Imported lazily — repro.parallel imports this module for
        # SweepPoint/SweepResult, so a top-level import would be circular.
        from repro.parallel import ParallelSweepRunner

        runner = ParallelSweepRunner(jobs=jobs if jobs is not None else 1, memo=memo)
        sweep = runner.run(
            trace,
            capacities,
            schemes=schemes,
            base_config=base_config,
            events_dir=events_dir,
            snapshot_interval=snapshot_interval,
            progress=progress,
            track_memory=track_memory,
            spans=spans,
        )
        sweep.telemetry = runner.last_telemetry
        return sweep
    if not capacities:
        raise ExperimentError("capacity sweep needs at least one capacity")
    if not schemes:
        raise ExperimentError("capacity sweep needs at least one scheme")
    template = base_config if base_config is not None else SimulationConfig()
    points: List[SweepPoint] = []
    for label, capacity_bytes in capacities:
        for scheme in schemes:
            config = replace(template, scheme=scheme, aggregate_capacity=capacity_bytes)
            result = run_simulation(config, trace)
            points.append(
                SweepPoint(
                    scheme=scheme,
                    capacity_label=label,
                    capacity_bytes=capacity_bytes,
                    result=result,
                )
            )
    return SweepResult(points)


def capacity_sweep_driver(
    build_report: Callable[[SweepResult], ExperimentReport],
    summary: str,
    capacity_labels: Optional[Iterable[str]] = None,
) -> Callable[..., ExperimentReport]:
    """The ``run()`` entry point of a driver that projects one capacity sweep.

    ``run`` replays the ``scale``/``seed`` workload (or ``trace``) over the
    scale's capacity grid (or ``capacities``), passes everything else to
    :func:`run_capacity_sweep`, and returns ``build_report(sweep)``.
    ``capacity_labels`` restricts the *default* grid to those labels;
    explicit ``capacities`` are used as given. ``summary`` becomes the
    docstring.
    """
    keep = None if capacity_labels is None else set(capacity_labels)

    def run(
        scale: str = "default",
        seed: int = 42,
        trace: Optional[Trace] = None,
        capacities: Optional[Sequence[Tuple[str, int]]] = None,
        base_config: Optional[SimulationConfig] = None,
        jobs: Optional[int] = None,
        memo=None,
        engine: Optional[str] = None,
        events_dir: Optional[str] = None,
        snapshot_interval: float = 0.0,
        progress=None,
    ) -> ExperimentReport:
        trace = trace if trace is not None else workload_trace(scale, seed)
        if capacities is None:
            capacities = capacities_for(scale)
            if keep is not None:
                capacities = [c for c in capacities if c[0] in keep]
        sweep = run_capacity_sweep(
            trace, capacities, base_config=base_config, jobs=jobs, memo=memo,
            engine=engine, events_dir=events_dir,
            snapshot_interval=snapshot_interval, progress=progress,
        )
        return build_report(sweep)

    run.__doc__ = summary
    return run
