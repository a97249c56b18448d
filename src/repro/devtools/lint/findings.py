"""Lint findings: what a rule reports and how it is rendered."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation at a specific source location.

    Attributes:
        path: File the violation was found in (as given to the runner).
        line: 1-based line number of the offending node.
        col: 0-based column offset of the offending node.
        rule: Rule code, e.g. ``"RPR003"``.
        message: Human-readable explanation with the fix direction.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` — the classic greppable format."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
