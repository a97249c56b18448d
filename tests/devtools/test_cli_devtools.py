"""CLI coverage for ``repro lint`` and ``repro simulate --sanitize``."""

from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]

CLEAN_MODULE = '"""A module."""\n\n\ndef helper(now):\n    """Return now."""\n    return now\n'
DIRTY_MODULE = (
    '"""A module."""\n\n\ndef tie(a_age, b_age):\n    """Compare ages."""\n'
    "    return a_age == b_age\n"
)


@pytest.fixture
def fake_tree(tmp_path):
    """A miniature src/repro/simulation tree the package-scoped rules see."""
    pkg = tmp_path / "src" / "repro" / "simulation"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(CLEAN_MODULE)
    return pkg


class TestLintCommand:
    def test_clean_tree_exits_zero(self, fake_tree, capsys):
        assert main(["lint", str(fake_tree)]) == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_violation_exits_nonzero_and_is_printed(self, fake_tree, capsys):
        (fake_tree / "dirty.py").write_text(DIRTY_MODULE)
        assert main(["lint", str(fake_tree)]) == 1
        out = capsys.readouterr().out
        assert "RPR003" in out
        assert "dirty.py" in out
        assert "1 finding(s)" in out

    def test_select_restricts_rules(self, fake_tree, capsys):
        (fake_tree / "dirty.py").write_text(DIRTY_MODULE)
        assert main(["lint", "--select", "RPR005", str(fake_tree)]) == 0
        assert main(["lint", "--select", "RPR003", str(fake_tree)]) == 1
        capsys.readouterr()

    def test_unknown_select_code_exits_two(self, fake_tree, capsys):
        assert main(["lint", "--select", "RPR999", str(fake_tree)]) == 2
        assert "RPR999" in capsys.readouterr().err

    def test_list_rules_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR003", "RPR005", "RPR006", "RPR007", "RPR011", "RPR012"):
            assert code in out
        for retired in ("RPR001", "RPR002", "RPR004"):
            assert retired not in out

    def test_repo_tree_is_clean(self, capsys):
        # The acceptance bar for this PR: the linter passes on its own repo.
        assert main(["lint", "src", "tests"]) == 0
        capsys.readouterr()


class TestMissingPath:
    def test_missing_path_is_an_error(self, monkeypatch, capsys):
        # A typo in a CI path must fail the step, not lint nothing and pass.
        monkeypatch.chdir(REPO)
        assert main(["lint", "src", "no_such_dir"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "no_such_dir" in captured.err
        assert "clean" not in captured.out


class TestEveryFindingFails:
    """With default flags, a finding of any rule fails its run (exit 1)."""

    @pytest.mark.parametrize(
        "rule, body",
        [
            ("RPR006", '"""m."""\n\n\ndef public():\n    return 1\n'),
            ("RPR007", '"""m."""\n\n\ndef f(items=[]):\n    """D."""\n'),
        ],
    )
    def test_lint_finding_fails(self, fake_tree, rule, body, capsys):
        (fake_tree / "seeded.py").write_text(body)
        assert main(["lint", str(fake_tree)]) == 1
        out = capsys.readouterr().out
        assert rule in out and "1 finding(s)" in out

    def test_wall_clock_on_a_replay_path_fails_analyze(self, make_project, capsys):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    import time
                    from dataclasses import dataclass

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        started = time.time()
                        used = (config.scheme, config.window_size, config.sanitize)
                        return used, started
                '''
            }
        )
        assert main(["analyze", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "RPR111" in out and "time.time" in out


class TestSimulateSanitize:
    def test_sanitized_tiny_run_reports_no_violations(self, capsys):
        code = main(
            ["simulate", "--sanitize", "--scale", "tiny", "--capacity", "1MB"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 invariant violations" in out

    def test_unsanitized_run_prints_no_sanitizer_line(self, capsys):
        code = main(["simulate", "--scale", "tiny", "--capacity", "1MB"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sanitizer:" not in out
