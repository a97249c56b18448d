"""``# repro: noqa`` pragmas: the one way to silence a finding.

Both ``repro lint`` and ``repro analyze`` read the same line-scoped
pragmas; a finding no pragma names fails the run.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.devtools.analysis import analyze_project
from repro.devtools.lint import lint_source
from repro.devtools.lint.suppress import collect_suppressions

DRIFTED_SIMULATOR = '''
    from dataclasses import dataclass

    @dataclass
    class SimulationConfig:
        scheme: str = "ea"
        window_size: int = 1000
        sanitize: bool = False
        icp_budget: int = 0

    def run_simulation(config, trace):
        used = (config.scheme, config.window_size, config.sanitize)
        return config.icp_budget
'''

#: A core-scoped module with RPR006 (no docstring) and RPR007 (mutable
#: default) anchored on the same ``def`` line.
TWO_CODES = '''"""m."""


def f(items=[]):{pragma}
    return items
'''
CORE = "src/repro/core/x.py"


def _rules(pragma: str):
    return [f.rule for f in lint_source(TWO_CODES.format(pragma=pragma), CORE)]


class TestNoqaSuppression:
    def test_pragma_on_config_field_line_suppresses(self, make_project):
        drifted = DRIFTED_SIMULATOR.replace(
            "icp_budget: int = 0",
            "icp_budget: int = 0  # repro: noqa[RPR101]",
        )
        root = make_project({"repro/simulation/simulator.py": drifted})
        report = analyze_project(root)
        assert report.findings == []
        assert report.suppressed == 1
        assert report.clean

    def test_pragma_for_other_rule_does_not_suppress(self, make_project):
        drifted = DRIFTED_SIMULATOR.replace(
            "icp_budget: int = 0",
            "icp_budget: int = 0  # repro: noqa[RPR999]",
        )
        root = make_project({"repro/simulation/simulator.py": drifted})
        report = analyze_project(root)
        assert [f.rule for f in report.findings] == ["RPR101"]
        assert report.suppressed == 0

    def test_pragma_on_another_line_does_not_suppress(self, make_project):
        drifted = DRIFTED_SIMULATOR.replace(
            "sanitize: bool = False",
            "sanitize: bool = False  # repro: noqa[RPR101]",
        )
        root = make_project({"repro/simulation/simulator.py": drifted})
        report = analyze_project(root)
        assert [f.rule for f in report.findings] == ["RPR101"]
        assert report.suppressed == 0

    def test_bare_pragma_silences_an_analysis_finding(self, make_project):
        drifted = DRIFTED_SIMULATOR.replace(
            "icp_budget: int = 0", "icp_budget: int = 0  # repro: noqa"
        )
        report = analyze_project(
            make_project({"repro/simulation/simulator.py": drifted})
        )
        assert report.findings == [] and report.suppressed == 1


class TestLintPragmas:
    def test_unsuppressed_line_carries_both_codes(self):
        assert _rules("") == ["RPR006", "RPR007"]

    def test_bare_pragma_silences_every_code_on_its_line(self):
        assert _rules("  # repro: noqa") == []

    def test_listed_codes_silence_only_themselves(self):
        assert _rules("  # repro: noqa[RPR007]") == ["RPR006"]
        assert _rules("  # repro: noqa[RPR006, RPR007]") == []

    def test_repeated_pragmas_merge_their_codes(self):
        assert _rules("  # repro: noqa[RPR006]  # repro: noqa[RPR007]") == []

    def test_bare_pragma_wins_over_a_listed_one(self):
        for line in ("x = 1  # repro: noqa[RPR003]  # repro: noqa\n",
                     "x = 1  # repro: noqa  # repro: noqa[RPR003]\n"):
            assert collect_suppressions(line) == {1: None}

    def test_repeated_pragma_codes_are_one_set(self):
        line = "x = 1  # repro: noqa[RPR003]  # repro: noqa[RPR007, RPR003]\n"
        assert collect_suppressions(line) == {1: frozenset({"RPR003", "RPR007"})}


class TestSuppressedCountReported:
    def test_plain_summary_counts_suppressed_findings(self, make_project, capsys):
        drifted = DRIFTED_SIMULATOR.replace(
            "icp_budget: int = 0", "icp_budget: int = 0  # repro: noqa[RPR101]"
        )
        root = make_project({"repro/simulation/simulator.py": drifted})
        assert main(["analyze", "--root", str(root)]) == 0
        assert "clean (1 noqa-suppressed)" in capsys.readouterr().out

    def test_json_envelope_carries_suppressed(self, make_project, capsys):
        drifted = DRIFTED_SIMULATOR.replace(
            "icp_budget: int = 0", "icp_budget: int = 0  # repro: noqa[RPR101]"
        )
        root = make_project({"repro/simulation/simulator.py": drifted})
        assert main(["analyze", "--root", str(root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"] == 1 and payload["count"] == 0

    def test_unsuppressed_finding_fails_with_its_count(self, make_project, capsys):
        root = make_project({"repro/simulation/simulator.py": DRIFTED_SIMULATOR})
        assert main(["analyze", "--root", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"] == 0
        assert [f["rule"] for f in payload["findings"]] == ["RPR101"]
