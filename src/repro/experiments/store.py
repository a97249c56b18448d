"""Experiment result stores: reports, raw results, and diff tooling.

Two persistence layers live here:

* :class:`ExperimentStore` — named :class:`ExperimentReport` JSON artifacts
  (one per figure/table), diffable cell-by-cell to catch regressions in the
  reproduction (a placement bug shows up as a hit-rate cell drifting).
* :class:`SimulationResultStore` — *content-addressed*
  :class:`~repro.simulation.results.SimulationResult` artifacts keyed by an
  opaque hex digest (``repro.parallel.memo`` derives it from the simulation
  config plus a trace fingerprint). This is the sweep memo cache's backing
  store: every figure/table driver is a projection of a ``{scheme} x
  {capacity}`` sweep, so one simulated point can be reused across fig1 /
  fig2 / fig3 / table1 / table2 / group-size invocations instead of being
  re-simulated.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.atomicio import atomic_write_text
from repro.errors import ExperimentError, SimulationError
from repro.experiments.report import ExperimentReport
from repro.simulation.results import SimulationResult


class ExperimentStore:
    """Directory-backed store of :class:`ExperimentReport` JSON artifacts."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, experiment_id: str) -> Path:
        if not experiment_id or "/" in experiment_id:
            raise ExperimentError(f"invalid experiment id {experiment_id!r}")
        return self.root / f"{experiment_id}.json"

    def save(self, report: ExperimentReport) -> Path:
        """Persist ``report`` as JSON, atomically; returns the file path.

        A write that fails or is interrupted leaves the previous report
        (or none) in place, never a truncated one.
        """
        path = self._path(report.experiment_id)
        atomic_write_text(path, report.to_json())
        return path

    def load(self, experiment_id: str) -> ExperimentReport:
        """Load a previously saved report.

        Raises:
            ExperimentError: when the artifact does not exist or is corrupt.
        """
        path = self._path(experiment_id)
        if not path.exists():
            raise ExperimentError(f"no stored report for {experiment_id!r} in {self.root}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            report = ExperimentReport(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                headers=list(payload["headers"]),
            )
            for row in payload["rows"]:
                report.add_row(*[_revive(cell) for cell in row])
            for note in payload.get("notes", []):
                report.add_note(note)
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(f"corrupt report artifact {path}: {exc}") from exc
        return report

    def list_ids(self) -> List[str]:
        """Experiment ids with stored artifacts, sorted."""
        return sorted(path.stem for path in self.root.glob("*.json"))

    def exists(self, experiment_id: str) -> bool:
        """Whether an artifact is stored for ``experiment_id``."""
        return self._path(experiment_id).exists()


def _revive(cell: Any) -> Any:
    if cell == "inf":
        return float("inf")
    return cell


#: Valid content-address keys: hex digests (any even length >= 8).
_KEY_PATTERN = re.compile(r"^[0-9a-f]{8,}$")


class SimulationResultStore:
    """Directory-backed, content-addressed store of simulation results.

    Keys are opaque lowercase hex digests computed by the caller from
    everything that determines a result (simulation config + trace). Because
    the key covers all inputs, artifacts never go stale — invalidation is
    simply "a different input hashes to a different key". Writes are
    atomic (:func:`repro.atomicio.atomic_write_text`), so a crashed run
    cannot leave a truncated artifact that later loads would trip over and
    two runs sharing a store may save the same key at once.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not _KEY_PATTERN.match(key):
            raise ExperimentError(f"invalid result store key {key!r}")
        return self.root / f"{key}.json"

    def exists(self, key: str) -> bool:
        """Whether a result is stored under ``key``."""
        return self._path(key).exists()

    def save(self, key: str, result: SimulationResult) -> Path:
        """Persist ``result`` under ``key``; returns the artifact path."""
        path = self._path(key)
        atomic_write_text(path, result.to_json())
        return path

    def load(self, key: str) -> Optional[SimulationResult]:
        """The result stored under ``key``, or None when absent.

        Raises:
            ExperimentError: when the artifact exists but is corrupt —
                silent fallback to re-simulation would hide a broken store.
        """
        path = self._path(key)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return SimulationResult.from_dict(payload)
        except (ValueError, SimulationError) as exc:
            raise ExperimentError(f"corrupt result artifact {path}: {exc}") from exc

    def keys(self) -> List[str]:
        """Stored keys, sorted; sidecar files (non-key stems) are ignored."""
        return sorted(
            path.stem
            for path in self.root.glob("*.json")
            if _KEY_PATTERN.match(path.stem)
        )


@dataclass(frozen=True)
class CellDiff:
    """One differing cell between two reports."""

    row: int
    column: str
    baseline: Any
    current: Any
    delta: Optional[float]


def diff_reports(
    baseline: ExperimentReport,
    current: ExperimentReport,
    tolerance: float = 0.0,
) -> List[CellDiff]:
    """Cell-by-cell diff of two same-shaped reports.

    Numeric cells differing by more than ``tolerance`` (absolute) are
    reported with their delta; non-numeric cells are compared exactly.

    Raises:
        ExperimentError: when shapes (headers or row counts) differ — that
            is a structural change, not a numeric drift.
    """
    if baseline.headers != current.headers:
        raise ExperimentError(
            f"header mismatch: {baseline.headers} vs {current.headers}"
        )
    if len(baseline.rows) != len(current.rows):
        raise ExperimentError(
            f"row-count mismatch: {len(baseline.rows)} vs {len(current.rows)}"
        )
    diffs: List[CellDiff] = []
    for row_index, (old_row, new_row) in enumerate(zip(baseline.rows, current.rows)):
        for column, old, new in zip(baseline.headers, old_row, new_row):
            if isinstance(old, (int, float)) and isinstance(new, (int, float)) \
                    and not isinstance(old, bool) and not isinstance(new, bool):
                delta = float(new) - float(old)
                if abs(delta) > tolerance:
                    diffs.append(
                        CellDiff(row=row_index, column=column, baseline=old,
                                 current=new, delta=delta)
                    )
            elif old != new:
                diffs.append(
                    CellDiff(row=row_index, column=column, baseline=old,
                             current=new, delta=None)
                )
    return diffs
