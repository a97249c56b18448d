"""Shared machine-readable finding envelope for the devtools CLIs.

``repro lint --json`` and ``repro analyze --json`` emit the same
``repro-findings/1`` envelope so CI annotation scripts and editor
integrations can consume either tool without caring which produced the
finding::

    {
      "schema": "repro-findings/1",
      "tool": "analyze",
      "count": 2,
      "findings": [
        {"path": "...", "line": 3, "col": 0, "rule": "RPR101",
         "message": "..."},
        ...
      ]
    }

Extra top-level keys (analyzer selection, the ``suppressed`` count) are
allowed and additive; consumers must ignore keys they do not know.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.devtools.lint.findings import Finding

#: Version tag of the shared finding envelope.
FINDINGS_SCHEMA = "repro-findings/1"


def finding_to_dict(finding: Finding) -> Dict[str, Any]:
    """One finding as a plain JSON-serialisable mapping."""
    return {
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "rule": finding.rule,
        "message": finding.message,
    }


def findings_payload(
    tool: str,
    findings: Iterable[Finding],
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The full ``repro-findings/1`` envelope for ``tool``.

    Args:
        tool: Producer name (``"lint"`` or ``"analyze"``).
        findings: Findings to serialise, in the order to emit them.
        extra: Optional additional top-level keys (must not collide with
            the envelope's own).
    """
    serialised: List[Dict[str, Any]] = [finding_to_dict(f) for f in findings]
    payload: Dict[str, Any] = {
        "schema": FINDINGS_SCHEMA,
        "tool": tool,
        "count": len(serialised),
        "findings": serialised,
    }
    if extra:
        for key in extra:
            if key in payload:
                raise ValueError(f"extra key {key!r} collides with envelope")
        payload.update(extra)
    return payload
