"""Orchestration for ``repro analyze``: model build, analyzers, filtering.

One :class:`~repro.devtools.analysis.model.ProjectModel` is built per
invocation and shared by every selected analyzer (``repro check`` reuses
the same model for lint too, via :func:`run_analyzers`). Raw findings
then pass through two filters, in order:

1. line-scoped ``# repro: noqa[CODE]`` pragmas in the analyzed sources
   (the same mechanism, and the same parser, as ``repro lint``);
2. the checked-in JSON baseline (matched on rule/path/message, see
   :mod:`repro.devtools.analysis.baseline`).

The result is an :class:`AnalysisReport` carrying what survived, what
was absorbed where, and which baseline entries went stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.devtools.analysis.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from repro.devtools.analysis.concurrency import analyze_concurrency
from repro.devtools.analysis.configflow import analyze_configflow
from repro.devtools.analysis.determinism import analyze_determinism
from repro.devtools.analysis.effects import analyze_effects
from repro.devtools.analysis.model import AnalysisError, ProjectModel
from repro.devtools.analysis.parity import analyze_parity
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.suppress import (
    SuppressionMap,
    collect_suppressions,
    is_suppressed,
)

#: Analyzer name -> implementation, in canonical execution order.
ANALYZERS: Dict[str, Callable[[ProjectModel], List[Finding]]] = {
    "parity": analyze_parity,
    "determinism": analyze_determinism,
    "configflow": analyze_configflow,
    "effects": analyze_effects,
    "concurrency": analyze_concurrency,
}


@dataclass
class AnalysisReport:
    """Outcome of one ``repro analyze`` run.

    Attributes:
        findings: Findings that survived pragmas and the baseline, sorted.
        suppressed: Count of findings silenced by ``# repro: noqa``.
        baselined: Findings absorbed by the checked-in baseline.
        stale_baseline: Baseline entries that matched no current finding.
        analyzers: Names of the analyzers that ran, in execution order.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    analyzers: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        """Whether the tree passes: nothing surviving, nothing stale."""
        return not self.findings and not self.stale_baseline


def select_analyzers(
    analyzers: Optional[Sequence[str]] = None,
) -> Tuple[str, ...]:
    """Validate an analyzer selection (default: all, canonical order)."""
    selected = tuple(ANALYZERS) if analyzers is None else tuple(analyzers)
    for name in selected:
        if name not in ANALYZERS:
            raise AnalysisError(
                f"unknown analyzer {name!r}; expected one of "
                f"{', '.join(sorted(ANALYZERS))}"
            )
    return selected


def run_analyzers(
    model: ProjectModel, selected: Sequence[str]
) -> List[Finding]:
    """Raw (unfiltered) findings of ``selected`` analyzers over ``model``."""
    raw: List[Finding] = []
    for name in selected:
        raw.extend(ANALYZERS[name](model))
    return sorted(set(raw))


class LazySuppressions:
    """Per-path ``# repro: noqa`` maps, parsed only for paths with findings.

    A full-tree analysis used to parse the pragma map of *every* module
    up front even when a run produced two findings; this defers the parse
    to first use per path, keyed by the display path the findings carry.
    """

    def __init__(self, model: ProjectModel) -> None:
        self._sources: Dict[str, str] = {
            info.path: info.source for info in model.modules.values()
        }
        self._cache: Dict[str, Optional[SuppressionMap]] = {}

    def for_path(self, path: str) -> Optional[SuppressionMap]:
        """The pragma map for ``path``, or None for unknown paths."""
        if path not in self._cache:
            source = self._sources.get(path)
            self._cache[path] = (
                collect_suppressions(source) if source is not None else None
            )
        return self._cache[path]


def filter_findings(
    model: ProjectModel,
    raw: Sequence[Finding],
    selected: Tuple[str, ...],
    baseline_path: Optional[Path] = None,
) -> AnalysisReport:
    """Apply noqa pragmas, then the baseline, to ``raw`` findings."""
    suppressions = LazySuppressions(model)
    unsuppressed: List[Finding] = []
    suppressed = 0
    for finding in raw:
        pragmas = suppressions.for_path(finding.path)
        if pragmas is not None and is_suppressed(finding, pragmas):
            suppressed += 1
        else:
            unsuppressed.append(finding)

    entries: List[BaselineEntry] = []
    if baseline_path is not None and baseline_path.exists():
        entries = load_baseline(baseline_path)
    kept, baselined, stale = apply_baseline(unsuppressed, entries)

    return AnalysisReport(
        findings=kept,
        suppressed=suppressed,
        baselined=baselined,
        stale_baseline=stale,
        analyzers=selected,
    )


def analyze_project(
    root: Path,
    analyzers: Optional[Sequence[str]] = None,
    baseline_path: Optional[Path] = None,
) -> AnalysisReport:
    """Run ``analyzers`` (default: all) over the tree rooted at ``root``.

    Args:
        root: Directory containing the ``repro`` package (usually ``src``).
        analyzers: Subset of :data:`ANALYZERS` keys; unknown names raise.
        baseline_path: Optional baseline file; when given, its entries
            absorb matching findings and stale entries are reported.
    """
    selected = select_analyzers(analyzers)
    model = ProjectModel.load(root)
    raw = run_analyzers(model, selected)
    return filter_findings(model, raw, selected, baseline_path)
