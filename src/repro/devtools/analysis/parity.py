"""Engine-parity drift detection (``repro analyze parity``, RPR101-103).

The dual-engine contract — the columnar engine is byte-identical to the
object core for every supported config — is only as strong as its
coverage. Differential tests sample the config space; this analyzer closes
it by construction:

* **RPR101** — a ``SimulationConfig`` field the object core reads but the
  columnar engine neither reads nor declares in ``FALLBACK_MATRIX`` /
  ``COLUMNAR_NEUTRAL_FIELDS``. This is exactly the "new config field
  handled in one engine, silently ignored by the other" drift that ships
  green until a differential test happens to toggle it.
* **RPR102** — a declared field that no longer exists on
  ``SimulationConfig`` (a stale matrix row survives refactors silently).
* **RPR103** — a result-dataclass field (:class:`GroupMetrics`,
  :class:`MessageCounters`, :class:`CacheStats`,
  :class:`SimulationResult`) never populated by the columnar engine's
  result assembly; a counter added to the object core would default to
  zero there and drift byte-for-byte.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.devtools.analysis import decls
from repro.devtools.analysis.configflow import coverage_findings
from repro.devtools.analysis.model import ProjectModel
from repro.devtools.lint.findings import Finding

#: Rule code -> one-line summary (the catalog / docs-index source of truth).
RULES: Dict[str, str] = {
    "RPR101": "config field read by the object core but unknown to the "
    "columnar engine and the fallback matrix",
    "RPR102": "fallback-matrix / neutral-list entry naming a config field "
    "that no longer exists",
    "RPR103": "result-dataclass field never populated by the columnar "
    "result assembly",
}

#: Result dataclasses whose columnar construction must stay field-complete:
#: class name -> defining module.
RESULT_DATACLASSES: Tuple[Tuple[str, str], ...] = (
    ("GroupMetrics", "repro.simulation.metrics"),
    ("MessageCounters", "repro.network.bus"),
    ("CacheStats", "repro.cache.stats"),
    ("SimulationResult", "repro.simulation.results"),
)


#: The coverage status parity flags (RPR101), read off
#: :func:`~repro.devtools.analysis.configflow.coverage_table`.
_STATUS_FINDINGS: Dict[str, Tuple[str, str]] = {
    "object-only": (
        "RPR101",
        "config field `{name}` is read by the object core but the columnar "
        "engine neither reads it nor declares it in FALLBACK_MATRIX / "
        "COLUMNAR_NEUTRAL_FIELDS; port it or declare the fallback",
    ),
}


def analyze_parity(model: ProjectModel) -> List[Finding]:
    """Run the three parity checks over ``model``; findings sorted."""
    findings = coverage_findings(model, _STATUS_FINDINGS)
    field_names = set(decls.config_field_table(model)[0])
    matrix, matrix_path = decls.matrix_declarations(model)
    neutral, neutral_path = decls.neutral_declarations(model)
    for name, line, path in sorted(
        [(n, ln, matrix_path) for n, ln in matrix.items() if n not in field_names]
        + [(n, ln, neutral_path) for n, ln in neutral.items() if n not in field_names]
    ):
        findings.append(
            Finding(
                path=path,
                line=line,
                col=0,
                rule="RPR102",
                message=(
                    f"declared field `{name}` does not exist on "
                    "SimulationConfig; remove the stale declaration"
                ),
            )
        )
    findings.extend(_result_field_findings(model))
    return sorted(findings)


def _result_field_findings(model: ProjectModel) -> List[Finding]:
    """RPR103: columnar result construction missing dataclass fields."""
    field_tables: Dict[str, Dict[str, int]] = {}
    for class_name, module_name in RESULT_DATACLASSES:
        info = model.get(module_name)
        if info is None or class_name not in info.classes:
            continue
        field_tables[class_name] = info.dataclass_fields(class_name)

    findings: List[Finding] = []
    for module in model.iter_package(decls.FASTPATH_PACKAGE):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute) else ""
            )
            table = field_tables.get(name)
            if table is None:
                continue
            # Positional args or **kwargs defeat static field accounting.
            if node.args or any(kw.arg is None for kw in node.keywords):
                continue
            passed = {kw.arg for kw in node.keywords}
            for missing in sorted(set(table) - passed):
                findings.append(
                    Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="RPR103",
                        message=(
                            f"`{name}` field `{missing}` is never populated by "
                            "the columnar engine here; a silently defaulted "
                            "counter is engine drift — pass it explicitly"
                        ),
                    )
                )
    return findings
