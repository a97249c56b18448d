"""The Python shown in README.md and docs/*.md names code that exists.

Every ```` ```python ```` block must parse; every ``from repro... import
name`` in one must resolve; every keyword passed to ``SimulationConfig(``
must be a config field. A rename or a retired field then fails here
instead of leaving the docs teaching code that raises.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import re
from pathlib import Path

from repro.simulation.simulator import SimulationConfig

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
_FIELDS = {f.name for f in dataclasses.fields(SimulationConfig)}


def _blocks():
    for path in DOCS:
        text = path.read_text(encoding="utf-8")
        for match in _BLOCK.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield f"{path.relative_to(ROOT)}:{line}", match.group(1)


BLOCKS = list(_blocks())


def _resolves(module_name: str, name: str) -> bool:
    try:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def _problems(where: str, source: str):
    tree = ast.parse(source, filename=where)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                if not _resolves(node.module, alias.name):
                    yield f"{where}: from {node.module} import {alias.name} does not resolve"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SimulationConfig":
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in _FIELDS:
                    yield f"{where}: SimulationConfig has no field {keyword.arg!r}"


def test_docs_code_names_real_code():
    assert len(BLOCKS) >= 10
    problems = [p for where, source in BLOCKS for p in _problems(where, source)]
    assert problems == []


def test_checker_reports_an_unresolved_import():
    source = "from repro.simulation import CooperativeSimulator, NoSuchThing\n"
    assert list(_problems("snippet", source)) == [
        "snippet: from repro.simulation import NoSuchThing does not resolve"
    ]


def test_checker_reports_an_unknown_config_keyword():
    source = "SimulationConfig(scheme='ea', keep_outcomes=True, **extra)\n"
    assert list(_problems("snippet", source)) == [
        "snippet: SimulationConfig has no field 'keep_outcomes'"
    ]
