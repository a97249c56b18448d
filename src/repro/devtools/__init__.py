"""Developer tooling: repro-specific static analysis and runtime sanitizers.

Two halves keep the simulation trustworthy as the codebase grows:

* :mod:`repro.devtools.lint` — an AST-based lint pass with repo-specific
  rules (float tie-break hygiene, frozen public dataclasses, hot-loop
  allocation and I/O) run as ``repro lint [paths]`` and in CI; the
  whole-program :mod:`repro.devtools.analysis` audits determinism
  (virtual clock, seeded randomness, iteration order) over the call
  graph.
* :mod:`repro.devtools.sanitizer` — toggleable runtime invariant checks
  (byte accounting, recency monotonicity, the EA "exactly one fresh lease
  of life" rule, event-time ordering) wired into the simulator behind
  ``SimulationConfig(sanitize=True)`` / ``repro simulate --sanitize``.

Neither half imports anything heavier than the standard library plus the
substrate it guards, so devtools can be used from CI without optional
dependencies.
"""

from repro.devtools.lint import Finding, lint_paths, lint_source
from repro.devtools.sanitizer import (
    CacheSanitizer,
    SanitizerReport,
    SchemeSanitizer,
    SimulationSanitizer,
    Violation,
)

__all__ = [
    "CacheSanitizer",
    "Finding",
    "SanitizerReport",
    "SchemeSanitizer",
    "SimulationSanitizer",
    "Violation",
    "lint_paths",
    "lint_source",
]
