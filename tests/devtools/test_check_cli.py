"""Coverage for ``repro check``, the shared ``--fail-on`` severity gate,
lint baseline support, and the effect-inventory snapshot tooling."""

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
            "parity", "determinism", "configflow", "effects", "concurrency",
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


class TestFailOnAnalyze:
    def test_warn_threshold_passes_note_findings(self, tmp_path, capsys):
        # RPR137 is warn; a tree with only contract drift passes
        # --fail-on error but fails --fail-on warn.
        pkg = tmp_path / "src" / "repro" / "simulation"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text('"""Pkg."""\n')
        (pkg / "mod.py").write_text(
            '"""Mod."""\nimport time\n\n\n'
            "def stamp():  # repro: effects[]\n"
            '    """Clock."""\n    return time.time()\n'
        )
        root = str(tmp_path / "src")
        args = ["analyze", "effects", "--root", root,
                "--baseline", str(tmp_path / "none.json")]
        assert main(args) == 1
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


class TestEffectsSnapshot:
    def test_effects_out_writes_schema(self, tmp_path, capsys):
        out = tmp_path / "fx.json"
        assert main(
            ["analyze", "effects", "--root", str(REPO_SRC),
             "--baseline", str(REPO / "analysis-baseline.json"),
             "--effects-out", str(out)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro-effects/1"
        assert payload["functions"]
        assert payload["totals"]["pure"] > 0

    def test_checked_in_snapshot_matches_tree(self, tmp_path, capsys):
        """The committed effects-snapshot.json must not drift from src."""
        import sys

        sys.path.insert(0, str(REPO / "scripts"))
        try:
            import diff_effects
        finally:
            sys.path.pop(0)

        out = tmp_path / "fx.json"
        assert main(
            ["analyze", "effects", "--root", str(REPO_SRC),
             "--baseline", str(REPO / "analysis-baseline.json"),
             "--effects-out", str(out)]
        ) == 0
        capsys.readouterr()
        code = diff_effects.main(
            [str(out), str(REPO / "effects-snapshot.json")]
        )
        drift = capsys.readouterr().out
        assert code == 0, f"snapshot drift:\n{drift}"

    def test_diff_detects_drift(self, tmp_path, capsys):
        import sys

        sys.path.insert(0, str(REPO / "scripts"))
        try:
            import diff_effects
        finally:
            sys.path.pop(0)

        current = {
            "schema": "repro-effects/1",
            "functions": {"m:f": {"direct": ["io"], "effects": ["io"]}},
            "totals": {},
        }
        snapshot = {
            "schema": "repro-effects/1",
            "functions": {"m:f": {"direct": [], "effects": ["time"]}},
            "totals": {},
        }
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(current))
        b.write_text(json.dumps(snapshot))
        assert diff_effects.main([str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "effects changed: m:f" in out


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

