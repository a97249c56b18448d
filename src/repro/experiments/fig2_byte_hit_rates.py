"""Figure 2 — cumulative byte hit rates, ad-hoc vs EA (4-cache group).

"Byte hit rate patterns are similar to those of document hit rates"
(Section 4.2): EA above ad-hoc, gap widest at small aggregate sizes.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.experiments.sweep import SweepResult, capacity_sweep_driver

EXPERIMENT_ID = "fig2"


def build_report(sweep: SweepResult) -> ExperimentReport:
    """Project a completed sweep into the Figure 2 series."""
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Figure 2: Byte hit rates (cumulative), ad-hoc vs EA",
        headers=["aggregate", "adhoc_byte_hit_rate", "ea_byte_hit_rate", "ea_minus_adhoc"],
    )
    for label in sweep.capacity_labels:
        adhoc = sweep.get("adhoc", label).result.metrics.byte_hit_rate
        ea = sweep.get("ea", label).result.metrics.byte_hit_rate
        report.add_row(label, adhoc, ea, ea - adhoc)
    return report


run = capacity_sweep_driver(
    build_report,
    "Regenerate Figure 2 (4-cache distributed group, LRU, both schemes).",
)
