"""Rule registry and the visitor base class every lint rule extends.

A rule is an :class:`ast.NodeVisitor` subclass with a ``code`` (``RPRnnn``),
a one-line ``summary``, and an optional package scope. Registering is one
decorator::

    @register
    class MyRule(RuleVisitor):
        code = "RPR042"
        summary = "what it guards"
        packages = ("core", "cache")   # repro subpackages; None = all files

        def visit_Call(self, node):
            self.report(node, "explanation")
            self.generic_visit(node)

Scoping: ``packages`` names first-level ``repro`` subpackages the rule
applies to (``"core"``, ``"cache"``, ...; ``""`` is the ``repro`` package
root itself). ``None`` applies the rule to every linted file, including
files outside the ``repro`` tree (e.g. ``tests/``). Rules with
``applies_to_tests = False`` skip test files regardless of scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Type

from repro.devtools.lint.findings import Finding


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may need to know about the file being linted.

    Rule scoping is derived from ``path`` alone, so a file linted from
    disk and the same module linted out of a ProjectModel see the same
    rules.

    Attributes:
        path: Display path (relative when the runner was given one).
        source: Full file text.
        tree: Parsed AST of ``source``.
    """

    path: str
    source: str
    tree: ast.Module

    @property
    def package(self) -> Optional[str]:
        """First-level ``repro`` subpackage of the file (``"core"``, ...),
        ``""`` directly under ``repro/``, None outside the tree."""
        parts = Path(self.path).parts
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro":
                remainder = parts[index + 1 :]
                if not remainder:
                    return None
                return "" if len(remainder) == 1 else remainder[0]
        return None

    @property
    def is_test(self) -> bool:
        """Whether this is a test file (under ``tests/``, named
        ``test_*.py`` / ``conftest.py``)."""
        path = Path(self.path)
        return (
            "tests" in path.parts
            or path.name.startswith("test_")
            or path.name == "conftest.py"
        )


class RuleVisitor(ast.NodeVisitor):
    """Base class for lint rules: an AST visitor that accumulates findings."""

    #: Unique rule code, ``RPRnnn``.
    code: str = ""
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""
    #: ``repro`` subpackages the rule applies to; ``None`` = every file.
    packages: Optional[Tuple[str, ...]] = None
    #: Whether the rule also runs on test files.
    applies_to_tests: bool = True

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.findings: List[Finding] = []

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        """Whether this rule should run on ``ctx`` at all."""
        if ctx.is_test and not cls.applies_to_tests:
            return False
        if cls.packages is None:
            return True
        return ctx.package is not None and ctx.package in cls.packages

    def run(self) -> List[Finding]:
        """Visit the tree and return the findings. Override for pre-passes."""
        self.visit(self.ctx.tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding anchored at ``node``."""
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=self.code,
                message=message,
            )
        )


#: All registered rules, keyed by code.
REGISTRY: Dict[str, Type[RuleVisitor]] = {}


def register(cls: Type[RuleVisitor]) -> Type[RuleVisitor]:
    """Class decorator adding a rule to :data:`REGISTRY`."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Type[RuleVisitor]]:
    """Registered rules in code order."""
    return [REGISTRY[code] for code in sorted(REGISTRY)]
