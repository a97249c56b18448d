"""Figure 1 — cumulative document hit rates, ad-hoc vs EA (4-cache group).

Reproduces the paper's Figure 1: hit rate of both placement schemes at
aggregate cache sizes of 100 KB ... 1 GB. The expected shape: EA above
ad-hoc everywhere, with the gap largest at small sizes and shrinking as the
aggregate size approaches the workload footprint.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.experiments.sweep import SweepResult, capacity_sweep_driver

EXPERIMENT_ID = "fig1"


def build_report(sweep: SweepResult) -> ExperimentReport:
    """Project a completed sweep into the Figure 1 series."""
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Figure 1: Document hit rates (cumulative), ad-hoc vs EA",
        headers=["aggregate", "adhoc_hit_rate", "ea_hit_rate", "ea_minus_adhoc"],
    )
    for label in sweep.capacity_labels:
        adhoc = sweep.get("adhoc", label).result.metrics.hit_rate
        ea = sweep.get("ea", label).result.metrics.hit_rate
        report.add_row(label, adhoc, ea, ea - adhoc)
    return report


run = capacity_sweep_driver(
    build_report,
    "Regenerate Figure 1 (4-cache distributed group, LRU, both schemes).",
)
