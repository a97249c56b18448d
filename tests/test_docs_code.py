"""The code the docs describe is the code that exists.

Every ```` ```python ```` block in README.md and docs/*.md must parse;
every ``from repro... import name`` in one must resolve; every keyword
passed to ``SimulationConfig(`` must be a config field, and every keyword
passed to a group constructor or ``build_caches(`` a parameter of its
signature. A rename or a retired field then fails here instead of
leaving the docs teaching code that raises. docs/PERFORMANCE.md's
fallback tables must be the rows of ``FALLBACK_MATRIX`` and
``COLUMNAR_NEUTRAL_FIELDS``, and its fast-loop coverage table the
reasons ``batch_fastloop_reason`` gives.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import io
import itertools
import re
from pathlib import Path

from repro.architecture import (
    DistributedGroup,
    HashRoutedGroup,
    HierarchicalGroup,
    build_caches,
)
from repro.digest import DigestDistributedGroup
from repro.fastpath import COLUMNAR_NEUTRAL_FIELDS, FALLBACK_MATRIX, batch_fastloop_reason
from repro.obs.events import RunRecorder
from repro.simulation.simulator import RETIRED_ECHO, SimulationConfig

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
_FIELDS = {f.name for f in dataclasses.fields(SimulationConfig)}
_PARAMETERS = {
    built.__name__: set(inspect.signature(built).parameters)
    for built in (
        DistributedGroup,
        HierarchicalGroup,
        HashRoutedGroup,
        DigestDistributedGroup,
        build_caches,
    )
}


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
        called = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
        if called == "SimulationConfig":
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in _FIELDS:
                    yield f"{where}: SimulationConfig has no field {keyword.arg!r}"
        elif called in _PARAMETERS:
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in _PARAMETERS[called]:
                    yield f"{where}: {called} has no parameter {keyword.arg!r}"


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


def test_checker_reports_every_retired_keyword():
    retired = [name for keys in RETIRED_ECHO.values() for name in keys]
    assert len(retired) == 9
    for name in retired:
        source = f"SimulationConfig({name}=None)\n"
        assert list(_problems("snippet", source)) == [
            f"snippet: SimulationConfig has no field {name!r}"
        ]


def test_checker_reports_an_unknown_group_keyword():
    source = (
        "group = DistributedGroup(caches, scheme, seed=1, responder_strategy='max_age')\n"
        "caches = build_caches(4, 1 << 20, policy_kwargs={}, **extra)\n"
    )
    assert list(_problems("snippet", source)) == [
        "snippet: DistributedGroup has no parameter 'responder_strategy'",
        "snippet: build_caches has no parameter 'policy_kwargs'",
    ]


def test_checker_reports_every_retired_group_keyword():
    retired = {
        "DistributedGroup": ("latency_model", "bus", "responder_strategy"),
        "HierarchicalGroup": ("latency_model", "bus", "responder_strategy"),
        "HashRoutedGroup": ("latency_model", "bus"),
        "DigestDistributedGroup": ("latency_model", "bus", "responder_strategy"),
        "build_caches": ("policy_kwargs",),
    }
    for called, names in retired.items():
        for name in names:
            assert list(_problems("snippet", f"{called}({name}=None)\n")) == [
                f"snippet: {called} has no parameter {name!r}"
            ]


def _section(title: str) -> str:
    text = (ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
    start = text.index(f"### {title}\n")
    return text[start : text.index("\n### ", start + 1)]


def _quoted(values) -> str:
    return ", ".join(f"`{value!r}`" for value in values)


def _matrix_rows():
    for rule in FALLBACK_MATRIX:
        when = "always"
        if rule.when is not None:
            field, values = rule.when
            when = f"when `{field}` is {_quoted(values)}"
        yield f"| `{rule.field}` | {_quoted(rule.supported)} | {rule.reason} | {when} |"
    for name, why in COLUMNAR_NEUTRAL_FIELDS:
        yield f"| `{name}` | {why} |"


def test_performance_doc_tables_are_the_fallback_matrix():
    documented = [
        line for line in _section("Fallback matrix").splitlines() if line.startswith("| `")
    ]
    assert documented == list(_matrix_rows())


def _coverage_reasons():
    """The reason column of the "Fast-loop coverage" table, in row order."""
    rows = [line for line in _section("Fast-loop coverage").splitlines() if line.startswith("| ")]
    return [row.split(" | ")[1] for row in rows[1:]]  # rows[0] is the header


def _fastloop_reasons(monkeypatch):
    """Every answer of ``batch_fastloop_reason`` over the configs and
    observers that could select a row, with numpy and without it."""
    observers = (None, RunRecorder(io.StringIO()), RunRecorder(io.StringIO(), 600.0))
    grid = itertools.product(
        ("distributed", "hierarchical"), ("lru", "lfu"), ("adhoc", "ea"),
        ("requester", "responder"), ("count", "cumulative", "time"),
    )
    reasons = set()
    for architecture, policy, scheme, tie_break, window_mode in grid:
        config = SimulationConfig(
            architecture=architecture, policy=policy, scheme=scheme,
            tie_break=tie_break, window_mode=window_mode,
        )
        for no_numpy in ("", "1"):
            monkeypatch.setenv("REPRO_NO_NUMPY", no_numpy)
            reasons.update(batch_fastloop_reason(config, obs) for obs in observers)
    return reasons


def test_performance_doc_coverage_table_is_the_fastloop_reasons(monkeypatch):
    documented = _coverage_reasons()
    assert documented[-1] == "None"  # the "otherwise" row: the regimes run
    found = _fastloop_reasons(monkeypatch) - {None}
    assert sorted(documented[:-1]) == sorted(found)
