"""Whole-program static analysis for the repro codebase.

Built for the dual-engine contract: the object core and the columnar
fastpath must stay byte-identical, config fields must be plumbed end to
end, and everything reachable from a simulation run must be
deterministic (the parallel memo store keys on it). Five analyzers
enforce those properties *by construction* rather than by sampled
differential tests:

* :func:`~repro.devtools.analysis.parity.analyze_parity` — RPR101-103,
  engine-parity drift against the machine-readable fallback matrix;
* :func:`~repro.devtools.analysis.determinism.analyze_determinism` —
  RPR111-115, nondeterminism on simulation-reachable call paths;
* :func:`~repro.devtools.analysis.configflow.analyze_configflow` —
  RPR121-123, dead / one-sided config fields and memo-key coverage;
* :func:`~repro.devtools.analysis.effects.analyze_effects` — RPR137,
  drift between inferred per-function effect summaries and declared
  ``# repro: effects[...]`` contracts (the summaries themselves export
  as ``repro-effects/1`` JSON);
* :func:`~repro.devtools.analysis.concurrency.analyze_concurrency` —
  RPR131-136, fork-unsafe mutation, cross-boundary module state,
  hot-loop IO, internal-state escape, shared dataclass defaults, and
  blocking service paths.

Everything is AST-level over :class:`ProjectModel` — analyzed code is
never imported, so broken or deliberately drifted trees (regression
fixtures) analyze fine. The determinism and concurrency passes share one
memoized :class:`~repro.devtools.analysis.effects.EffectAnalysis` per
model. Entry point: :func:`analyze_project`; CLI: ``repro analyze`` (or
``repro check`` for lint + analysis off one parse).
"""

from repro.devtools.analysis.baseline import (
    BASELINE_SCHEMA,
    BaselineEntry,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.devtools.analysis.callgraph import (
    CallGraph,
    resolve_call,
    resolve_callable_ref,
)
from repro.devtools.analysis.concurrency import (
    analyze_concurrency,
    worker_roots,
)
from repro.devtools.analysis.configflow import analyze_configflow, coverage_table
from repro.devtools.analysis.determinism import DEFAULT_ROOTS, analyze_determinism
from repro.devtools.analysis.effects import (
    EFFECTS_SCHEMA,
    EffectAnalysis,
    EffectSite,
    FunctionEffects,
    analyze_effects,
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
    "BASELINE_SCHEMA",
    "BaselineEntry",
    "CallGraph",
    "DEFAULT_ROOTS",
    "EFFECTS_SCHEMA",
    "EffectAnalysis",
    "EffectSite",
    "FunctionEffects",
    "ModuleInfo",
    "ProjectModel",
    "analyze_concurrency",
    "analyze_configflow",
    "analyze_determinism",
    "analyze_effects",
    "analyze_parity",
    "analyze_project",
    "apply_baseline",
    "coverage_table",
    "effect_analysis",
    "filter_findings",
    "load_baseline",
    "resolve_call",
    "resolve_callable_ref",
    "run_analyzers",
    "select_analyzers",
    "worker_roots",
    "write_baseline",
]
