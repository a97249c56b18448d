"""Coverage for ``repro check``, the shared ``--fail-on`` severity gate,
lint baseline support, and the retired analyzers' absent CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.check import run_check

REPO = Path(__file__).resolve().parents[2]
REPO_SRC = REPO / "src"

DIRTY_MODULE = (
    '"""A module."""\n\n\ndef tie(a_age, b_age):\n    """Compare ages."""\n'
    "    return a_age == b_age\n"
)


class TestRunCheck:
    def test_shipped_tree_is_clean(self):
        report = run_check(REPO_SRC, extra_paths=("tests",))
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"unexpected findings:\n{rendered}"
        assert report.analyzers == (
            "parity", "determinism", "configflow",
        )
        assert report.linted_modules > 50
        assert report.linted_files > 10

    def test_lint_findings_from_model_modules(self, make_project):
        root = make_project({"repro/simulation/dirty.py": DIRTY_MODULE})
        report = run_check(root)
        assert "RPR003" in [f.rule for f in report.findings]

    def test_extra_paths_do_not_double_lint_model_files(self, make_project):
        root = make_project({"repro/simulation/dirty.py": DIRTY_MODULE})
        once = run_check(root)
        twice = run_check(root, extra_paths=(str(root),))
        assert once.findings == twice.findings
        assert twice.linted_files == 0

    def test_unparseable_extra_file_yields_rpr000(self, make_project, tmp_path):
        root = make_project()
        broken = tmp_path / "script.py"
        broken.write_text("def broken(:\n")
        report = run_check(root, extra_paths=(str(broken),))
        assert "RPR000" in [f.rule for f in report.findings]


class TestCheckCli:
    def test_shipped_tree_clean_via_cli(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        assert main(["check"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_envelope(self, make_project, capsys):
        root = make_project({"repro/simulation/dirty.py": DIRTY_MODULE})
        assert main(["check", "--root", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-findings/1"
        assert payload["tool"] == "check"
        assert payload["fail_on"] == "note"
        assert "linted_modules" in payload
        assert any(f["rule"] == "RPR003" for f in payload["findings"])

    def test_fail_on_error_ignores_notes(self, make_project, capsys):
        # The fixture tree's modules carry no docstrings, so lint emits
        # RPR006 notes and nothing stronger; the analyzers are clean.
        root = make_project()
        assert main(["check", "--root", str(root)]) == 1
        assert main(["check", "--root", str(root), "--fail-on", "warn"]) == 0
        assert main(["check", "--root", str(root), "--fail-on", "error"]) == 0
        capsys.readouterr()


class TestMissingPath:
    @pytest.mark.parametrize("command", ["lint", "check"])
    def test_missing_path_is_an_error(self, command, monkeypatch, capsys):
        # A typo in a CI path must fail the step, not lint nothing and pass.
        monkeypatch.chdir(REPO)
        assert main([command, "src", "no_such_dir"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "no_such_dir" in captured.err
        assert "clean" not in captured.out


class TestFailOnWarn:
    def test_warn_threshold_passes_note_findings(
        self, make_project, tmp_path, capsys
    ):
        # RPR007 is warn and RPR006 (the fixture's missing docstrings) is
        # note; a tree with nothing stronger passes --fail-on error but
        # fails --fail-on warn.
        root = make_project(
            {
                "repro/simulation/mod.py": '''
                    """Mod."""

                    def collect(item, into=[]):
                        """Append and return."""
                        into.append(item)
                        return into
                '''
            }
        )
        args = ["check", "--root", str(root),
                "--baseline", str(tmp_path / "none.json")]
        assert main(args + ["--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"RPR006", "RPR007"}
        assert main(args + ["--fail-on", "warn"]) == 1
        assert main(args + ["--fail-on", "error"]) == 0
        capsys.readouterr()


class TestLintBaseline:
    def test_baseline_absorbs_and_stale_fails(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "simulation"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text(DIRTY_MODULE)
        baseline = tmp_path / "lint-baseline.json"
        target = str(pkg)

        assert main(["lint", target]) == 1
        assert main(
            ["lint", target, "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        assert main(["lint", target, "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

        (pkg / "dirty.py").write_text('"""Fixed."""\n')
        assert main(["lint", target, "--baseline", str(baseline)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_write_baseline_requires_baseline_path(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err


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

    def test_contract_pragma_is_an_inert_comment(
        self, make_project, tmp_path, capsys
    ):
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
        assert main(
            ["analyze", "--root", str(root), "--json",
             "--baseline", str(tmp_path / "none.json")]
        ) == 0
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

    def test_retired_pragmas_are_inert(self, make_project, tmp_path, capsys):
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
        assert main(
            ["analyze", "--root", str(root), "--json",
             "--baseline", str(tmp_path / "none.json")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == [] and payload["suppressed"] == 0
