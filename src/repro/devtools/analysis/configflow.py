"""Config-flow coverage (``repro analyze configflow``, RPR121-123).

Every :class:`~repro.simulation.simulator.SimulationConfig` field should
be *plumbed*: read by at least one engine (or declared as a fallback
trigger), and — because the sweep memo keys on
``sha256(config_hash(config) + Trace.fingerprint())`` — every
:class:`~repro.trace.record.TraceRecord` field must flow into
``Trace.fingerprint``. A field that misses either pipe fails silently:
a dead config knob ships as documentation-only, and a fingerprint gap
lets two different traces share a memo entry (poisoned cache hits).

* **RPR121** — dead config field: no engine reads it and the fallback
  matrix does not mention it.
* **RPR122** — one-sided field: read by the columnar engine but not by
  the object core (the reference engine must cover a superset; the
  reverse direction is RPR101's parity check).
* **RPR123** — ``TraceRecord`` field absent from ``Trace.fingerprint``:
  traces differing only in that field would collide in the memo store.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.devtools.analysis import decls
from repro.devtools.analysis.dataflow import union_config_reads
from repro.devtools.analysis.model import ProjectModel
from repro.devtools.lint.findings import Finding

#: Rule code -> one-line summary (the catalog / docs-index source of truth).
RULES = {
    "RPR121": "dead config field: no engine reads it and the fallback "
    "matrix does not mention it",
    "RPR122": "one-sided config field: read by the columnar engine but "
    "not by the object core",
    "RPR123": "TraceRecord field absent from Trace.fingerprint (memo-key "
    "collision risk)",
}

#: Coverage status -> (rule, message template) for the statuses that are
#: configflow findings.
_STATUS_FINDINGS: Dict[str, Tuple[str, str]] = {
    "dead": (
        "RPR121",
        "config field `{name}` is never read by either engine and is not "
        "in the fallback matrix; it is dead — plumb it or remove it",
    ),
    "fastpath-only": (
        "RPR122",
        "config field `{name}` is read only by the columnar engine; the "
        "object core is the reference — plumb it there first",
    ),
}


def analyze_configflow(model: ProjectModel) -> List[Finding]:
    """Run the three config-flow checks over ``model``; findings sorted."""
    return sorted(
        coverage_findings(model, _STATUS_FINDINGS) + _fingerprint_findings(model)
    )


def coverage_table(model: ProjectModel) -> List[Tuple[str, str]]:
    """Plumbing status per config field: the one coverage classification.

    Returns ``(field, status)`` rows where status is one of ``both`` /
    ``object+fallback`` / ``object-only`` / ``fastpath-only`` /
    ``fallback-declared`` / ``dead``. RPR101 reads ``object-only``, RPR121
    ``dead`` and RPR122 ``fastpath-only`` off these rows.
    """
    config_fields, _ = decls.config_field_table(model)
    field_names = set(config_fields)
    matrix, _ = decls.matrix_declarations(model)
    neutral, _ = decls.neutral_declarations(model)
    declared = set(matrix) | set(neutral)
    fastpath_reads = union_config_reads(
        list(model.iter_package(decls.FASTPATH_PACKAGE)), field_names
    )
    object_modules = [
        module
        for package in decls.OBJECT_CORE_PACKAGES
        for module in model.iter_package(package)
    ]
    object_reads = union_config_reads(object_modules, field_names)

    rows: List[Tuple[str, str]] = []
    for name in sorted(config_fields):
        in_object = name in object_reads
        in_fast = name in fastpath_reads
        if in_object and in_fast:
            status = "both"
        elif in_object:
            status = "object+fallback" if name in declared else "object-only"
        elif in_fast:
            status = "fastpath-only"
        elif name in declared:
            status = "fallback-declared"
        else:
            status = "dead"
        rows.append((name, status))
    return rows


def coverage_findings(
    model: ProjectModel, rules: Dict[str, Tuple[str, str]]
) -> List[Finding]:
    """One finding per config field whose coverage status is in ``rules``,
    anchored at the field's definition line."""
    config_fields, config_path = decls.config_field_table(model)
    return [
        Finding(
            path=config_path,
            line=config_fields[name],
            col=0,
            rule=rules[status][0],
            message=rules[status][1].format(name=name),
        )
        for name, status in coverage_table(model)
        if status in rules
    ]


def _fingerprint_findings(model: ProjectModel) -> List[Finding]:
    """RPR123: TraceRecord fields missing from ``Trace.fingerprint``."""
    record_fields, record_path = decls.trace_record_fields(model)
    func = decls.fingerprint_function(model)[0]
    if func is None or not record_fields:
        return []
    used = _attribute_names(func)
    findings: List[Finding] = []
    for name in sorted(set(record_fields) - used):
        findings.append(
            Finding(
                path=record_path,
                line=record_fields[name],
                col=0,
                rule="RPR123",
                message=(
                    f"TraceRecord field `{name}` is not hashed by "
                    "Trace.fingerprint; traces differing only in it would "
                    "collide in the sweep memo store — add it to the "
                    "fingerprint"
                ),
            )
        )
    return findings


def _attribute_names(func: ast.AST) -> Set[str]:
    """Every attribute name read anywhere inside ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names
