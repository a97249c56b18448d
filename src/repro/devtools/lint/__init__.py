"""Repro-specific static analysis (the ``repro lint`` subcommand).

Public surface:

* :func:`lint_paths` / :func:`lint_file` / :func:`lint_source` — run the
  registered rules and get back sorted, suppression-filtered
  :class:`Finding` objects.
* :data:`~repro.devtools.lint.registry.REGISTRY` / :func:`all_rules` — the
  rule catalogue (see ``docs/DEVTOOLS.md`` for rationale per rule).
* ``# repro: noqa[RPR00x]`` — line-scoped suppression syntax
  (:mod:`repro.devtools.lint.suppress`).
"""

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import (
    REGISTRY,
    FileContext,
    RuleVisitor,
    all_rules,
    register,
)
from repro.devtools.lint.runner import (
    lint_file,
    lint_paths,
    lint_source,
)

__all__ = [
    "Finding",
    "FileContext",
    "REGISTRY",
    "RuleVisitor",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
]
