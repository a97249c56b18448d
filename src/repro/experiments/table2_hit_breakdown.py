"""Table 2 — local/remote hit breakdown and estimated latency, 4-cache group.

Reproduces the paper's Table 2: for each aggregate size, the local hit rate,
remote hit rate, and Eq. 6 latency of both schemes side by side. Expected
shape: EA trades local hits for remote hits (it declines local copies that
would die young), raising the remote-hit rate substantially — the paper
reports 32.02 % (EA) vs 11.06 % (ad-hoc) remote hits at 1 GB — while its
miss rate stays at or below ad-hoc's.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.experiments.sweep import SweepResult, capacity_sweep_driver

EXPERIMENT_ID = "table2"


def build_report(sweep: SweepResult) -> ExperimentReport:
    """Project a completed sweep into Table 2 (rates in %, latency in ms)."""
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Table 2: Ad-hoc vs EA — local/remote hits (%) and latency (ms)",
        headers=[
            "aggregate",
            "adhoc_local_%",
            "adhoc_remote_%",
            "adhoc_latency_ms",
            "ea_local_%",
            "ea_remote_%",
            "ea_latency_ms",
        ],
    )
    for label in sweep.capacity_labels:
        adhoc = sweep.get("adhoc", label).result
        ea = sweep.get("ea", label).result
        report.add_row(
            label,
            adhoc.metrics.local_hit_rate * 100.0,
            adhoc.metrics.remote_hit_rate * 100.0,
            adhoc.estimated_latency * 1000.0,
            ea.metrics.local_hit_rate * 100.0,
            ea.metrics.remote_hit_rate * 100.0,
            ea.estimated_latency * 1000.0,
        )
    return report


run = capacity_sweep_driver(
    build_report,
    "Regenerate Table 2 (4-cache distributed group, LRU, both schemes).",
)
