"""The retired devtools surfaces stay retired.

Each class pins one deletion: a CLI target or flag that is now a usage
error, a module or file that is gone, a rule code that left the catalog,
or a pragma that is now an inert comment.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
REPO_SRC = REPO / "src"


class TestRetiredGateSurface:
    """``repro check``, the analysis baseline and the ``--fail-on``
    severity threshold are deleted: ``repro lint`` and ``repro analyze``
    fail on any finding a ``# repro: noqa`` pragma does not silence."""

    def test_check_command_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2
        assert "invalid choice: 'check'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lint", "analyze"])
    @pytest.mark.parametrize(
        "flag",
        [
            ["--baseline", "analysis-baseline.json"],
            ["--write-baseline"],
            ["--fail-on", "error"],
        ],
        ids=["baseline", "write-baseline", "fail-on"],
    )
    def test_removed_flag_is_a_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_modules_and_baseline_file_are_gone(self):
        assert not (REPO_SRC / "repro/devtools/check.py").exists()
        assert not (REPO_SRC / "repro/devtools/analysis/baseline.py").exists()
        assert not (REPO / "analysis-baseline.json").exists()

    def test_baseline_exports_are_gone(self):
        import repro.devtools.analysis as analysis

        for name in ("BASELINE_SCHEMA", "BaselineEntry", "apply_baseline",
                     "load_baseline", "write_baseline"):
            assert not hasattr(analysis, name), name
            assert name not in analysis.__all__

    def test_report_and_runner_take_no_baseline(self):
        import inspect
        from dataclasses import fields

        from repro.devtools.analysis import (
            AnalysisReport,
            analyze_project,
            filter_findings,
        )

        assert [f.name for f in fields(AnalysisReport)] == [
            "findings", "suppressed", "analyzers",
        ]
        for function in (analyze_project, filter_findings):
            assert "baseline_path" not in inspect.signature(function).parameters

    def test_severity_model_is_gone(self):
        from dataclasses import fields

        from repro.devtools import catalog
        from repro.devtools.lint.findings import Finding
        from repro.devtools.report import finding_to_dict

        for name in ("SEVERITIES", "_SEVERITY_OVERRIDES", "severity_for",
                     "severity_rank", "fails"):
            assert not hasattr(catalog, name), name
        assert "severity" not in {f.name for f in fields(catalog.RuleInfo)}
        row = finding_to_dict(Finding("x.py", 1, 0, "RPR006", "m"))
        assert set(row) == {"path", "line", "col", "rule", "message"}


class TestRetiredDomainsAnalyzer:
    """The index-domain analyzer is deleted; nothing of its CLI is left."""

    def test_domains_target_is_unknown(self, capsys):
        assert main(["analyze", "domains", "--root", str(REPO_SRC)]) == 2
        assert "unknown analyze target(s): domains" in capsys.readouterr().err

    def test_domains_out_flag_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "dom.json"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--domains-out", str(out)])
        assert exc.value.code == 2
        assert "--domains-out" in capsys.readouterr().err
        assert not out.exists()


class TestRetiredEffectsContracts:
    """RPR137, its contracts and the repro-effects/1 inventory are deleted."""

    def test_effects_target_is_unknown(self, capsys):
        assert main(["analyze", "effects", "--root", str(REPO_SRC)]) == 2
        assert "unknown analyze target(s): effects" in capsys.readouterr().err

    def test_effects_out_flag_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "fx.json"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--effects-out", str(out)])
        assert exc.value.code == 2
        assert "--effects-out" in capsys.readouterr().err
        assert not out.exists()

    def test_rule_and_inventory_are_gone(self):
        from repro.devtools import catalog
        from repro.devtools.analysis import ANALYZERS, effects

        assert "effects" not in ANALYZERS
        assert "RPR137" not in catalog.rule_catalog()
        assert not hasattr(effects, "RULES")
        assert not hasattr(effects.EffectAnalysis, "report")
        assert not (REPO / "effects-snapshot.json").exists()
        assert not (REPO / "scripts" / "diff_effects.py").exists()

    def test_contract_pragma_is_an_inert_comment(self, make_project, capsys):
        # A def-line `# repro: effects[]` used to declare a contract; now
        # the analyzers read nothing from it.
        root = make_project(
            {
                "repro/simulation/mod.py": '''
                    import time

                    def stamp():  # repro: effects[]
                        return time.time()
                '''
            }
        )
        assert main(["analyze", "--root", str(root), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []


class TestRetiredConcurrencyRules:
    """RPR131-136, the concurrency analyzer and the effect labels only it
    read are deleted."""

    RETIRED = ("RPR131", "RPR132", "RPR133", "RPR134", "RPR135", "RPR136")

    def test_concurrency_target_is_unknown(self, capsys):
        assert main(["analyze", "concurrency", "--root", str(REPO_SRC)]) == 2
        assert (
            "unknown analyze target(s): concurrency" in capsys.readouterr().err
        )

    def test_codes_and_labels_are_gone(self):
        from repro.devtools import catalog
        from repro.devtools.analysis import ANALYZERS, EffectAnalysis, effects

        assert "concurrency" not in ANALYZERS
        assert not set(self.RETIRED) & set(catalog.rule_catalog())
        assert not (REPO_SRC / "repro/devtools/analysis/concurrency.py").exists()
        for name in ("IO", "BLOCKING", "MUTATES_GLOBAL", "propagate"):
            assert not hasattr(effects, name), name
        assert not hasattr(EffectAnalysis, "precise_graph")

    def test_codes_are_out_of_the_docs_rule_index(self):
        for doc in ("DEVTOOLS.md", "ANALYSIS.md"):
            rows = [
                line
                for line in (REPO / "docs" / doc).read_text().splitlines()
                if line.startswith("| RPR13")
            ]
            assert rows == [], doc

    def test_retired_pragmas_are_inert(self, make_project, capsys):
        # The pool-initializer idiom RPR131/132 flagged, with the pragmas
        # that used to silence it: it analyzes clean and they suppress
        # nothing.
        root = make_project(
            {
                "repro/parallel/__init__.py": "",
                "repro/parallel/runner.py": '''
                    from multiprocessing import Pool

                    _TRACE = None  # repro: noqa[RPR132]

                    def _init_worker(trace):
                        global _TRACE
                        _TRACE = trace  # repro: noqa[RPR131]

                    def _run_task(config):
                        return (config, _TRACE)

                    def sweep(trace, configs):
                        with Pool(initializer=_init_worker, initargs=(trace,)) as pool:
                            return pool.imap_unordered(_run_task, configs)
                ''',
            }
        )
        assert main(["analyze", "--root", str(root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == [] and payload["suppressed"] == 0
