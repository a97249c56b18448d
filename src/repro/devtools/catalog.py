"""Unified RPR rule catalog for the devtools suite.

Two tools emit ``RPR`` findings — the per-file lint pass and the
whole-program analyzers — and nothing previously guaranteed their code
spaces stayed disjoint or documented. This module is the single merge
point: :func:`rule_catalog` collects every registered rule from both
registries, *raising* on a code collision. Every finding fails its run
unless a ``# repro: noqa`` pragma on its line silences it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class RuleInfo:
    """One catalogued rule.

    Attributes:
        code: The ``RPRnnn`` code.
        summary: One-line description.
        tool: ``"lint"`` or ``"analyze"``.
        source: Registering module/analyzer name (for diagnostics).
    """

    code: str
    summary: str
    tool: str
    source: str


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
        catalog[code] = RuleInfo(code=code, summary=summary, tool=tool, source=source)

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

