"""Figure 3 — estimated average latency, ad-hoc vs EA (4-cache group).

Latency comes from the paper's Eq. 6 with its measured constants
(LHL = 146 ms, RHL = 342 ms, ML = 2784 ms). Expected shape: EA clearly lower
while miss latency dominates (small caches); converging — and EA *slightly
worse* — once caches are large enough that the extra remote hits (342 ms vs
146 ms) outweigh the small miss-rate advantage (the paper's 1 GB crossover).
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.experiments.sweep import SweepResult, capacity_sweep_driver

EXPERIMENT_ID = "fig3"


def build_report(sweep: SweepResult) -> ExperimentReport:
    """Project a completed sweep into the Figure 3 series (milliseconds)."""
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Figure 3: Estimated average latency (ms), ad-hoc vs EA (Eq. 6)",
        headers=["aggregate", "adhoc_latency_ms", "ea_latency_ms", "ea_minus_adhoc_ms"],
    )
    for label in sweep.capacity_labels:
        adhoc = sweep.get("adhoc", label).result.estimated_latency * 1000.0
        ea = sweep.get("ea", label).result.estimated_latency * 1000.0
        report.add_row(label, adhoc, ea, ea - adhoc)
    return report


run = capacity_sweep_driver(
    build_report,
    "Regenerate Figure 3 (4-cache distributed group, LRU, both schemes).",
)
