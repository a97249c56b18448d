"""Meta-tests: the shipped tree analyzes clean, and seeded drift is caught.

These run the whole-program analyzers against the *real* ``src`` tree —
the same invocation CI gates on — plus regression tests that copy the
tree, introduce exactly the drift the analyzers exist to catch, and
assert the right rule fires. That last part is the acceptance bar for
the parity analyzer: a config field added to the object core but not to
the fastpath or the fallback matrix must fail the analysis.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import fields as dataclass_fields
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.analysis import analyze_project
from repro.fastpath import COLUMNAR_NEUTRAL_FIELDS, FALLBACK_MATRIX
from repro.simulation.simulator import SimulationConfig

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: The anchor the drift tests graft a new field onto; if the seed field
#: is ever renamed, update the drift fixtures below alongside it.
_ANCHOR = "seed: int = 0"


def _copy_src(tmp_path: Path) -> Path:
    root = tmp_path / "src"
    shutil.copytree(REPO_SRC / "repro", root / "repro")
    return root


def _graft_config_field(root: Path, extra_read: str) -> None:
    """Add a field to SimulationConfig and an object-core read of it."""
    simulator = root / "repro" / "simulation" / "simulator.py"
    source = simulator.read_text(encoding="utf-8")
    assert _ANCHOR in source, "anchor field missing; update the drift test"
    simulator.write_text(
        source.replace(_ANCHOR, f"{_ANCHOR}\n    drift_knob: int = 0", 1),
        encoding="utf-8",
    )
    (root / "repro" / "simulation" / "_driftprobe.py").write_text(
        extra_read, encoding="utf-8"
    )


class TestShippedTreeIsClean:
    def test_analyze_project_clean(self):
        report = analyze_project(REPO_SRC)
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"unexpected findings:\n{rendered}"
        assert report.stale_baseline == []

    def test_cli_analyze_clean_with_checked_in_baseline(self, capsys):
        assert main(["analyze"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_checked_in_baseline_is_empty(self):
        baseline = REPO_SRC.parent / "analysis-baseline.json"
        document = json.loads(baseline.read_text(encoding="utf-8"))
        assert document["schema"] == "repro-analysis-baseline/1"
        assert document["entries"] == []


class TestSeededDriftRegression:
    def test_object_core_only_field_fails_parity(self, tmp_path):
        root = _copy_src(tmp_path)
        _graft_config_field(
            root,
            '"""Drift probe: reads a config field the fastpath ignores."""\n'
            "\n"
            "\n"
            "def probe(config):\n"
            '    """Read the drifted knob like an engine would."""\n'
            "    return config.drift_knob\n",
        )
        report = analyze_project(root, analyzers=["parity"])
        assert [f.rule for f in report.findings] == ["RPR101"]
        assert "drift_knob" in report.findings[0].message

    def test_declaring_the_field_in_the_matrix_restores_clean(self, tmp_path):
        root = _copy_src(tmp_path)
        _graft_config_field(
            root,
            '"""Drift probe: reads a config field the fastpath ignores."""\n'
            "\n"
            "\n"
            "def probe(config):\n"
            '    """Read the drifted knob like an engine would."""\n'
            "    return config.drift_knob\n",
        )
        fastpath_init = root / "repro" / "fastpath" / "__init__.py"
        source = fastpath_init.read_text(encoding="utf-8")
        marker = "FALLBACK_MATRIX: Tuple[FallbackRule, ...] = ("
        assert marker in source
        fastpath_init.write_text(
            source.replace(
                marker,
                marker
                + '\n    FallbackRule(\n        field="drift_knob",\n'
                + "        supported=(0,),\n"
                + '        reason="drift_knob={value} needs the object engine",\n'
                + "    ),",
                1,
            ),
            encoding="utf-8",
        )
        report = analyze_project(root, analyzers=["parity"])
        assert report.findings == []

    def test_unplumbed_field_fails_configflow(self, tmp_path):
        root = _copy_src(tmp_path)
        simulator = root / "repro" / "simulation" / "simulator.py"
        source = simulator.read_text(encoding="utf-8")
        simulator.write_text(
            source.replace(_ANCHOR, f"{_ANCHOR}\n    dead_knob: int = 0", 1),
            encoding="utf-8",
        )
        report = analyze_project(root, analyzers=["configflow"])
        assert [f.rule for f in report.findings] == ["RPR121"]
        assert "dead_knob" in report.findings[0].message


class TestMatrixConsistency:
    def test_every_declared_field_exists_on_config(self):
        config_fields = {f.name for f in dataclass_fields(SimulationConfig)}
        for rule in FALLBACK_MATRIX:
            assert rule.field in config_fields
        for name, _why in COLUMNAR_NEUTRAL_FIELDS:
            assert name in config_fields

    def test_matrix_and_neutral_do_not_overlap(self):
        declared = [rule.field for rule in FALLBACK_MATRIX]
        neutral = [name for name, _why in COLUMNAR_NEUTRAL_FIELDS]
        assert not set(declared) & set(neutral)

    def test_matrix_rules_have_reasons_and_support_sets(self):
        for rule in FALLBACK_MATRIX:
            assert rule.reason
            assert isinstance(rule.supported, tuple)


class TestAnalyzeCli:
    def test_json_uses_shared_schema(self, capsys):
        assert main(["analyze", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-findings/1"
        assert payload["tool"] == "analyze"
        assert payload["count"] == 0
        assert payload["analyzers"] == [
            "parity", "determinism", "configflow", "effects", "concurrency",
        ]

    def test_single_analyzer_selection(self, capsys):
        assert main(["analyze", "determinism"]) == 0
        assert "[determinism]" in capsys.readouterr().out

    def test_findings_exit_nonzero_and_render(self, tmp_path, capsys):
        root = _copy_src(tmp_path)
        _graft_config_field(
            root,
            '"""Drift probe: reads a config field the fastpath ignores."""\n'
            "\n"
            "\n"
            "def probe(config):\n"
            '    """Read the drifted knob like an engine would."""\n'
            "    return config.drift_knob\n",
        )
        assert main(["analyze", "parity", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out and "drift_knob" in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = _copy_src(tmp_path)
        _graft_config_field(
            root,
            '"""Drift probe: reads a config field the fastpath ignores."""\n'
            "\n"
            "\n"
            "def probe(config):\n"
            '    """Read the drifted knob like an engine would."""\n'
            "    return config.drift_knob\n",
        )
        baseline = tmp_path / "baseline.json"
        assert main(
            [
                "analyze", "parity", "--root", str(root),
                "--baseline", str(baseline), "--write-baseline",
            ]
        ) == 0
        assert main(
            ["analyze", "parity", "--root", str(root), "--baseline", str(baseline)]
        ) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_stale_baseline_fails(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": "repro-analysis-baseline/1",
                    "entries": [
                        {
                            "rule": "RPR101",
                            "path": "src/repro/simulation/simulator.py",
                            "message": "long-fixed finding",
                            "why": "obsolete",
                        }
                    ],
                }
            )
        )
        assert main(["analyze", "--baseline", str(baseline)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out


class TestLintJsonCli:
    def test_lint_json_shares_schema(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "simulation"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text(
            '"""A module."""\n\n\ndef tie(a_age, b_age):\n'
            '    """Compare ages."""\n    return a_age == b_age\n'
        )
        assert main(["lint", "--json", str(pkg)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-findings/1"
        assert payload["tool"] == "lint"
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "RPR003"
        assert payload["findings"][0]["severity"] == "error"
        assert set(payload["findings"][0]) == {
            "path", "line", "col", "rule", "severity", "message",
        }
