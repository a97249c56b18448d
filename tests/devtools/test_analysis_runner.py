"""Analyzer orchestration: selection, the shared model, pragma filtering."""

from __future__ import annotations

import pytest

from repro.devtools.analysis import (
    AnalysisError,
    ProjectModel,
    analyze_project,
    filter_findings,
)
from repro.devtools.lint.findings import Finding


class TestRunner:
    def test_unknown_analyzer_raises(self, make_project):
        with pytest.raises(AnalysisError):
            analyze_project(make_project(), analyzers=["nonsense"])

    def test_analyzer_subset_runs_only_that_analyzer(self, make_project):
        root = make_project(
            {
                "repro/trace/record.py": '''
                    from dataclasses import dataclass

                    @dataclass(frozen=True)
                    class TraceRecord:
                        timestamp: float
                        url: str
                        status: int

                    class Trace:
                        def fingerprint(self):
                            first = self.records[0]
                            return f"{first.timestamp}|{first.url}"
                '''
            }
        )
        parity_only = analyze_project(root, analyzers=["parity"])
        assert parity_only.analyzers == ("parity",)
        assert parity_only.findings == []
        everything = analyze_project(root)
        assert [f.rule for f in everything.findings] == ["RPR123"]

    def test_filter_keeps_findings_of_paths_outside_the_model(self, make_project):
        model = ProjectModel.load(make_project())
        outside = Finding("elsewhere.py", 1, 0, "RPR101", "m")
        report = filter_findings(model, [outside], ("parity",))
        assert report.findings == [outside]
        assert report.suppressed == 0 and report.analyzers == ("parity",)
        assert not report.clean
