"""Table 1 — average cache expiration age (seconds), 4-cache group.

The paper tabulates the group's average cache expiration age for both
schemes at 100 KB ... 100 MB (no 1 GB row: with the workload fitting in the
aggregate space there are no evictions, so the age is undefined/infinite).
Expected shape: EA's ages substantially above ad-hoc's — "with EA scheme the
documents stay for much longer", i.e. EA reduces disk-space contention.
"""

from __future__ import annotations

import math

from repro.experiments.report import ExperimentReport
from repro.experiments.sweep import SweepResult, capacity_sweep_driver
from repro.experiments.workload import TABLE1_CAPACITIES

EXPERIMENT_ID = "table1"


def build_report(sweep: SweepResult) -> ExperimentReport:
    """Project a completed sweep into Table 1 (ages in seconds)."""
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Table 1: Average cache expiration age (seconds), ad-hoc vs EA",
        headers=["aggregate", "adhoc_exp_age_s", "ea_exp_age_s", "ea_over_adhoc"],
    )
    for label in sweep.capacity_labels:
        adhoc = sweep.get("adhoc", label).result.avg_cache_expiration_age
        ea = sweep.get("ea", label).result.avg_cache_expiration_age
        if math.isinf(adhoc) or math.isinf(ea):
            report.add_row(label, adhoc, ea, float("nan"))
            report.add_note(
                f"{label}: at least one scheme evicted nothing (age undefined); "
                "the paper's Table 1 likewise omits its largest size"
            )
        else:
            ratio = ea / adhoc if adhoc > 0 else float("inf")
            report.add_row(label, adhoc, ea, ratio)
    return report


run = capacity_sweep_driver(
    build_report,
    "Regenerate Table 1 (capacities stop at 100 MB, as in the paper).",
    capacity_labels=[label for label, _ in TABLE1_CAPACITIES],
)
