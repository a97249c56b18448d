"""``# repro: noqa[RULE]`` suppression pragmas.

A finding is suppressed when the physical line it is anchored to carries a
pragma naming its rule code — or a bare ``# repro: noqa`` which silences
every rule on that line. Multiple codes are comma-separated (a second
pragma on the same line adds its codes)::

    entry.hit_count = 3  # repro: noqa[RPR003]
    def f(x=[]):         # repro: noqa[RPR006, RPR007] intentional
    legacy_call()        # repro: noqa — grandfathered

Suppressions are deliberately line-scoped (no file- or block-level escape
hatch): every exemption stays next to the code it excuses, where review
sees it.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.devtools.lint.findings import Finding

#: Matches the pragma anywhere in a line's trailing comment.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9_,\s]+)\])?")

#: ``None`` means "suppress every rule on this line".
SuppressionMap = Dict[int, Optional[FrozenSet[str]]]


def collect_suppressions(source: str) -> SuppressionMap:
    """Map 1-based line numbers to the rule codes suppressed on them."""
    suppressions: SuppressionMap = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _PRAGMA_RE.finditer(line):
            raw_codes = match.group("codes")
            codes: Optional[FrozenSet[str]] = None  # bare noqa: everything
            if raw_codes is not None:
                codes = frozenset(
                    code.strip() for code in raw_codes.split(",") if code.strip()
                )
            if lineno in suppressions:  # a repeated pragma merges its codes
                prior = suppressions[lineno]
                codes = None if prior is None or codes is None else prior | codes
            suppressions[lineno] = codes
    return suppressions


def is_suppressed(finding: Finding, suppressions: SuppressionMap) -> bool:
    """Whether ``finding`` is silenced by a pragma on its line."""
    if finding.line not in suppressions:
        return False
    codes = suppressions[finding.line]
    return codes is None or finding.rule in codes


def filter_suppressed(
    findings: Iterable[Finding], suppressions: SuppressionMap
) -> List[Finding]:
    """Findings that survive the file's suppression pragmas."""
    return [f for f in findings if not is_suppressed(f, suppressions)]
