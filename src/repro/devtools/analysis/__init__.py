"""Whole-program static analysis for the repro codebase.

Built for the dual-engine contract: the object core and the columnar
fastpath must stay byte-identical, config fields must be plumbed end to
end, and everything reachable from a simulation run must be
deterministic (the parallel memo store keys on it). Three analyzers
enforce those properties *by construction* rather than by sampled
differential tests:

* :func:`~repro.devtools.analysis.parity.analyze_parity` — RPR101-103,
  engine-parity drift against the machine-readable fallback matrix;
* :func:`~repro.devtools.analysis.determinism.analyze_determinism` —
  RPR111-115, nondeterminism on simulation-reachable call paths;
* :func:`~repro.devtools.analysis.configflow.analyze_configflow` —
  RPR121-123, dead / one-sided config fields and memo-key coverage.

Everything is AST-level over :class:`ProjectModel` — analyzed code is
never imported, so broken or deliberately drifted trees (regression
fixtures) analyze fine. The determinism pass reads one memoized
:class:`~repro.devtools.analysis.effects.EffectAnalysis` per model.
Entry point: :func:`analyze_project`; CLI: ``repro analyze``.
"""

from repro.devtools.analysis.callgraph import CallGraph
from repro.devtools.analysis.configflow import analyze_configflow, coverage_table
from repro.devtools.analysis.determinism import DEFAULT_ROOTS, analyze_determinism
from repro.devtools.analysis.effects import (
    EffectAnalysis,
    EffectSite,
    effect_analysis,
)
from repro.devtools.analysis.model import AnalysisError, ModuleInfo, ProjectModel
from repro.devtools.analysis.parity import analyze_parity
from repro.devtools.analysis.runner import (
    ANALYZERS,
    AnalysisReport,
    analyze_project,
    filter_findings,
    run_analyzers,
    select_analyzers,
)

__all__ = [
    "ANALYZERS",
    "AnalysisError",
    "AnalysisReport",
    "CallGraph",
    "DEFAULT_ROOTS",
    "EffectAnalysis",
    "EffectSite",
    "ModuleInfo",
    "ProjectModel",
    "analyze_configflow",
    "analyze_determinism",
    "analyze_parity",
    "analyze_project",
    "coverage_table",
    "effect_analysis",
    "filter_findings",
    "run_analyzers",
    "select_analyzers",
]
