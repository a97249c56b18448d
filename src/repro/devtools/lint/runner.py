"""Lint driver: discover files, run rules, filter suppressions.

The runner is filesystem-only (no imports of the code under analysis), so
it can lint broken or heavyweight modules safely, and it is what both the
``repro lint`` CLI and the test suite call.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Type

import repro.devtools.lint.rules  # noqa: F401  (registers every rule)
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import REGISTRY, FileContext, RuleVisitor, all_rules
from repro.devtools.lint.suppress import collect_suppressions, filter_suppressed
from repro.errors import ReproError

#: Directories never descended into.
_SKIP_DIRS = {".git", "__pycache__", ".mypy_cache", ".pytest_cache", "build", "dist"}


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    A path that does not exist raises :class:`ReproError`: a typo in a CI
    invocation must fail, not lint nothing and pass.
    """
    files: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ReproError(f"no such file or directory: {raw}")
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _selected_rules(select: Optional[Iterable[str]]) -> List[Type[RuleVisitor]]:
    if select is None:
        return all_rules()
    rules: List[Type[RuleVisitor]] = []
    for code in select:
        if code not in REGISTRY:
            raise ValueError(
                f"unknown lint rule {code!r}; known: {', '.join(sorted(REGISTRY))}"
            )
        rules.append(REGISTRY[code])
    return rules


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one source string as though it lived at ``path``.

    ``path`` determines rule scoping (e.g. pass
    ``"src/repro/core/x.py"`` to exercise core-scoped rules) and appears in
    the findings. Unparseable source yields a single ``RPR000`` finding.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="RPR000",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = FileContext(path, source, tree)
    findings: List[Finding] = []
    for rule_cls in _selected_rules(select):
        if rule_cls.applies(ctx):
            findings.extend(rule_cls(ctx).run())
    return sorted(filter_suppressed(findings, collect_suppressions(source)))


def lint_file(path: Path, select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one file from disk."""
    source = path.read_text(encoding="utf-8", errors="replace")
    return lint_source(source, path=str(path), select=select)


def lint_paths(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint every Python file under ``paths``; findings sorted by location."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, select=select))
    return sorted(findings)
