"""``repro check``: lint + every analyzer off one parsed ProjectModel.

Running ``repro lint`` and ``repro analyze`` back to back parses the
whole tree twice and applies two separately-configured gates. This
module is the single entry point CI and pre-push hooks want: it loads
one :class:`~repro.devtools.analysis.model.ProjectModel`, lints its
already-parsed modules (no re-read, no re-parse), runs every selected
analyzer against the same model, and passes the merged findings through
the analyzer's own noqa/baseline filter,
:func:`~repro.devtools.analysis.runner.filter_findings`.

Paths *outside* the model root (the ``tests`` tree, scripts) still need
linting; those are linted from disk the classic way and merged in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.devtools.analysis.model import ProjectModel
from repro.devtools.analysis.runner import (
    AnalysisReport,
    filter_findings,
    run_analyzers,
    select_analyzers,
)
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import FileContext
from repro.devtools.lint.runner import iter_python_files, lint_context, lint_file


@dataclass
class CheckReport(AnalysisReport):
    """Outcome of one ``repro check`` run: an :class:`AnalysisReport`
    over lint + analysis findings, plus what was linted.

    Attributes:
        linted_modules: Modules linted from the shared model.
        linted_files: Extra files linted from disk.
    """

    linted_modules: int = 0
    linted_files: int = 0


def run_check(
    root: Path,
    extra_paths: Sequence[str] = (),
    analyzers: Optional[Sequence[str]] = None,
    baseline_path: Optional[Path] = None,
) -> CheckReport:
    """Lint + analyze the tree at ``root`` off one parse.

    Args:
        root: Directory containing the ``repro`` package (usually ``src``).
        extra_paths: Files/directories outside ``root`` to lint from disk
            (typically ``tests``). Files already inside the model are
            skipped so nothing is linted twice.
        analyzers: Analyzer subset (default: all).
        baseline_path: Baseline applied to the *merged* findings.
    """
    selected = select_analyzers(analyzers)
    model = ProjectModel.load(root)

    # Files that do not parse never enter the model, so RPR000 for them
    # comes from the disk pass (when the caller listed their path).
    findings: List[Finding] = []
    for info in model.modules.values():
        ctx = FileContext(info.path, info.source, info.tree)
        findings.extend(lint_context(ctx))
    model_paths = {info.path for info in model.modules.values()}
    extra_files = [
        path
        for path in iter_python_files(list(extra_paths))
        if str(path) not in model_paths
    ]
    for path in extra_files:
        findings.extend(lint_file(path))

    # Lint findings already survived their file's pragmas, so the shared
    # filter only silences analysis findings (the `suppressed` count).
    findings.extend(run_analyzers(model, selected))
    report = filter_findings(model, sorted(set(findings)), selected, baseline_path)
    return CheckReport(
        **vars(report),
        linted_modules=len(model.modules),
        linted_files=len(extra_files),
    )
