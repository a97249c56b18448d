"""Unified RPR rule catalog and severity model for the devtools suite.

Two tools emit ``RPR`` findings — the per-file lint pass and the
whole-program analyzers — and nothing previously guaranteed their code
spaces stayed disjoint or documented. This module is the single merge
point: :func:`rule_catalog` collects every registered rule from both
registries, *raising* on a code collision, and assigns each a severity
consumed by the shared ``--fail-on`` flag:

* ``error`` — correctness or reproducibility is at stake (the default);
* ``warn`` — contract/hygiene drift worth surfacing but not worth
  failing a local iteration loop (``--fail-on error`` skips these);
* ``note`` — stylistic.

``--fail-on note`` (the default everywhere) preserves the historical
behaviour: any finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.devtools.lint.findings import Finding

#: Severity levels, weakest first (index = rank).
SEVERITIES: Tuple[str, ...] = ("note", "warn", "error")

#: Rules that do not gate correctness: stylistic (note) and
#: contract-hygiene (warn) codes. Everything unlisted is an error.
_SEVERITY_OVERRIDES: Dict[str, str] = {
    "RPR006": "note",  # missing docstring
    "RPR007": "warn",  # mutable default argument
}


@dataclass(frozen=True)
class RuleInfo:
    """One catalogued rule.

    Attributes:
        code: The ``RPRnnn`` code.
        summary: One-line description.
        tool: ``"lint"`` or ``"analyze"``.
        source: Registering module/analyzer name (for diagnostics).
        severity: One of :data:`SEVERITIES`.
    """

    code: str
    summary: str
    tool: str
    source: str
    severity: str


def severity_for(code: str) -> str:
    """The severity of ``code`` (unknown codes default to ``error``)."""
    return _SEVERITY_OVERRIDES.get(code, "error")


def severity_rank(severity: str) -> int:
    """Rank of a severity name; unknown names rank as ``error``."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return len(SEVERITIES) - 1


def rule_catalog() -> Dict[str, RuleInfo]:
    """Every registered RPR rule, keyed by code; raises on collisions.

    Lint rules come from the live ``REGISTRY`` (importing it registers
    every rule class); analysis rules from each analyzer module's
    ``RULES`` table. A code registered twice — in both tools, or by two
    analyzers — is a programming error, not a finding, so it raises
    immediately.
    """
    # Imported here so importing the catalog never drags the analyzer
    # stack in before it is needed (and to keep import cycles impossible).
    import repro.devtools.lint.rules  # noqa: F401  (registers every rule)
    from repro.devtools.analysis import configflow as _configflow
    from repro.devtools.analysis import determinism as _determinism
    from repro.devtools.analysis import parity as _parity
    from repro.devtools.lint.registry import REGISTRY

    catalog: Dict[str, RuleInfo] = {}

    def add(code: str, summary: str, tool: str, source: str) -> None:
        if code in catalog:
            raise ValueError(
                f"rule code {code} registered twice: by "
                f"{catalog[code].source} and by {source}"
            )
        catalog[code] = RuleInfo(
            code=code,
            summary=summary,
            tool=tool,
            source=source,
            severity=severity_for(code),
        )

    for code, rule_cls in REGISTRY.items():
        add(code, rule_cls.summary, "lint", rule_cls.__module__)
    analyzer_tables = (
        ("parity", _parity.RULES),
        ("determinism", _determinism.RULES),
        ("configflow", _configflow.RULES),
    )
    for analyzer_name, rules in analyzer_tables:
        for code, summary in rules.items():
            add(code, summary, "analyze", analyzer_name)
    return catalog


def fails(findings: Iterable[Finding], fail_on: str) -> bool:
    """Whether any finding meets the ``--fail-on`` threshold."""
    threshold = severity_rank(fail_on)
    return any(
        severity_rank(severity_for(f.rule)) >= threshold for f in findings
    )
