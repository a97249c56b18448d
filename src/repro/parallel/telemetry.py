"""Sweep execution telemetry: who ran what, where, and for how long.

The sweep result itself is deterministic and byte-comparable; everything
*about the execution* — which points were memo hits, which worker process
simulated which point, per-point wall time — is volatile and therefore
lives here, strictly out-of-band. :class:`repro.parallel.runner
.ParallelSweepRunner` fills a :class:`SweepTelemetry` per run and fires a
:class:`SweepProgress` tick per completed point for live CLI feedback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TaskReport:
    """How one sweep point obtained its result.

    Attributes:
        index: Position in the sweep's task order (capacity outer, scheme
            inner) — matches the :class:`~repro.experiments.sweep
            .SweepResult` point index.
        capacity_label: Human capacity label of the point ("1MB", ...).
        scheme: Placement scheme of the point.
        memoized: True when the result came from the memo store; such
            points have no worker and zero wall time.
        worker_pid: OS pid of the process that simulated the point
            (the parent's own pid on in-process runs, None when memoized).
        wall_time_s: Simulation wall time for the point as measured inside
            the worker; excludes pool scheduling and result pickling.
        regimes: Batch-engine regime occupancy for the point (request
            counts per ``cold`` / ``hit_run`` / ``scalar`` regime, or a
            ``fallback_reason``) when the point ran the batch engine;
            None otherwise (other engines, memo hits).
        peak_memory_bytes: :mod:`tracemalloc` high-water mark inside the
            worker when the sweep tracked memory; None otherwise.
    """

    index: int
    capacity_label: str
    scheme: str
    memoized: bool
    worker_pid: Optional[int]
    wall_time_s: float
    regimes: Optional[Dict[str, object]] = None
    peak_memory_bytes: Optional[int] = None

    @property
    def fastloop_reason(self) -> Optional[str]:
        """Why the point's batch replay ran with the vector regimes off —
        the string :func:`repro.fastpath.batch.batch_fastloop_reason`
        returned. None when they ran (or the point has no ``regimes``)."""
        if self.regimes is None:
            return None
        return self.regimes.get("fallback_reason")  # type: ignore[return-value]


@dataclass(frozen=True)
class SweepProgress:
    """One progress tick: ``completed`` of ``total`` points are done."""

    completed: int
    total: int
    report: TaskReport

    def render(self) -> str:
        """Single CLI line for this tick."""
        r = self.report
        if r.memoized:
            source = "memo"
        else:
            source = f"pid {r.worker_pid}, {r.wall_time_s:.2f}s"
        return (
            f"[{self.completed}/{self.total}] "
            f"{r.capacity_label}/{r.scheme} ({source})"
        )


#: Callback fired once per completed sweep point, in task order within each
#: class (memo hits first, then simulated points as they finish).
ProgressCallback = Callable[[SweepProgress], None]


@dataclass
class SweepTelemetry:
    """Everything a runner learned about one sweep's execution."""

    reports: List[TaskReport] = field(default_factory=list)

    @property
    def tasks(self) -> int:
        """Total points in the sweep."""
        return len(self.reports)

    @property
    def memo_hits(self) -> int:
        """Points served from the memo store."""
        return sum(1 for r in self.reports if r.memoized)

    @property
    def simulated(self) -> int:
        """Points that actually ran a simulation."""
        return self.tasks - self.memo_hits

    @property
    def total_wall_time_s(self) -> float:
        """Sum of per-point simulation wall times (CPU-side, not elapsed)."""
        return sum(r.wall_time_s for r in self.reports)

    def by_worker(self) -> Dict[int, Tuple[int, float]]:
        """Per-worker load: ``pid -> (points simulated, wall seconds)``."""
        load: Dict[int, Tuple[int, float]] = {}
        for r in self.reports:
            if r.worker_pid is None:
                continue
            count, wall = load.get(r.worker_pid, (0, 0.0))
            load[r.worker_pid] = (count + 1, wall + r.wall_time_s)
        return load

    def regime_occupancy(self) -> Optional[Dict[str, int]]:
        """Summed batch regime occupancy across every point that has one.

        Request counts per regime (``cold`` / ``hit_run`` / ``scalar``)
        plus ``fallbacks`` — how many batch points ran the kernel with its
        vector regimes off. ``None`` when no point ran the batch engine
        (nothing to aggregate).
        """
        total: Dict[str, int] = {"cold": 0, "hit_run": 0, "scalar": 0}
        fallbacks = 0
        seen = False
        for r in self.reports:
            if r.regimes is None:
                continue
            seen = True
            if "fallback_reason" in r.regimes:
                fallbacks += 1
                continue
            for key in ("cold", "hit_run", "scalar"):
                total[key] += int(r.regimes.get(key, 0))  # type: ignore[arg-type]
        if not seen:
            return None
        total["fallbacks"] = fallbacks
        return total

    @property
    def peak_memory_bytes(self) -> Optional[int]:
        """Largest per-worker tracemalloc high-water mark, or None."""
        peaks = [
            r.peak_memory_bytes for r in self.reports
            if r.peak_memory_bytes is not None
        ]
        return max(peaks) if peaks else None

    def summary(self) -> str:
        """Multi-line human summary for the CLI's post-sweep report."""
        lines = [
            f"sweep: {self.tasks} points "
            f"({self.memo_hits} memoized, {self.simulated} simulated, "
            f"{self.total_wall_time_s:.2f}s simulation wall time)"
        ]
        load = self.by_worker()
        for pid in sorted(load):
            count, wall = load[pid]
            lines.append(f"  worker {pid}: {count} points, {wall:.2f}s")
        regimes = self.regime_occupancy()
        if regimes is not None:
            requests = sum(regimes[k] for k in ("cold", "hit_run", "scalar")) or 1
            lines.append(
                "  batch regimes: "
                + ", ".join(
                    f"{key} {regimes[key]:,} ({100.0 * regimes[key] / requests:.1f}%)"
                    for key in ("cold", "hit_run", "scalar")
                )
                + (f", {regimes['fallbacks']} fallback point(s)"
                   if regimes["fallbacks"] else "")
            )
            for reason in sorted(
                {r.fastloop_reason for r in self.reports if r.fastloop_reason}
            ):
                lines.append(f"    vector regimes off: {reason}")
        peak = self.peak_memory_bytes
        if peak is not None:
            lines.append(f"  peak worker memory: {peak:,} bytes (tracemalloc)")
        return "\n".join(lines)
