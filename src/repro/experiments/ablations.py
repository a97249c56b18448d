"""Ablation experiments for the design choices DESIGN.md calls out.

The paper under-specifies three knobs and skips evaluating a fourth; each
gets an ablation driver here:

* :func:`run_window_ablation` — the expiration-age window ("a finite time
  period"): cumulative vs last-K-evictions vs trailing-time.
* :func:`run_tie_break_ablation` — requester-wins vs responder-wins when
  both expiration ages are equal (notably during cold start, when both are
  infinite).
* :func:`run_policy_ablation` — the claim that the EA scheme "works well
  with various document replacement algorithms": LRU vs LFU vs GDSF.
* :func:`run_architecture_ablation` — the hierarchical architecture of
  Section 3.3, described but never evaluated in the paper.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

from repro.experiments.report import ExperimentReport
from repro.experiments.sweep import run_capacity_sweep
from repro.experiments.workload import resolve_workload
from repro.simulation.simulator import SimulationConfig
from repro.trace.record import Trace


def run_window_ablation(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    window_modes: Sequence[str] = ("cumulative", "count", "time"),
) -> ExperimentReport:
    """EA hit rate under each expiration-age window interpretation."""
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ablation-window",
        title="Ablation: EA hit rate by expiration-age window mode",
        headers=["aggregate", *[f"ea_{mode}" for mode in window_modes]],
    )
    sweeps = {
        mode: run_capacity_sweep(
            trace,
            capacities,
            schemes=("ea",),
            base_config=SimulationConfig(window_mode=mode),
        )
        for mode in window_modes
    }
    for label, _ in capacities:
        report.add_row(
            label,
            *[sweeps[mode].get("ea", label).result.metrics.hit_rate for mode in window_modes],
        )
    return report


def run_tie_break_ablation(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
) -> ExperimentReport:
    """EA hit rate with requester-wins vs responder-wins tie breaking."""
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ablation-ties",
        title="Ablation: EA hit rate by tie-break rule (equal expiration ages)",
        headers=["aggregate", "ea_requester_wins", "ea_responder_wins", "delta"],
    )
    sweeps = {
        tie: run_capacity_sweep(
            trace,
            capacities,
            schemes=("ea",),
            base_config=SimulationConfig(tie_break=tie),
        )
        for tie in ("requester", "responder")
    }
    for label, _ in capacities:
        requester = sweeps["requester"].get("ea", label).result.metrics.hit_rate
        responder = sweeps["responder"].get("ea", label).result.metrics.hit_rate
        report.add_row(label, requester, responder, requester - responder)
    return report


def run_policy_ablation(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    policies: Sequence[str] = ("lru", "lfu", "gdsf"),
) -> ExperimentReport:
    """EA-minus-ad-hoc hit-rate delta under different replacement policies.

    The paper claims scheme/policy independence but evaluates only LRU; a
    positive delta under LFU and GDSF supports the claim.
    """
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ablation-policy",
        title="Ablation: EA benefit (hit-rate delta vs ad-hoc) by replacement policy",
        headers=["aggregate", *[f"delta_{p}" for p in policies]],
    )
    sweeps = {
        policy: run_capacity_sweep(
            trace,
            capacities,
            base_config=SimulationConfig(policy=policy),
        )
        for policy in policies
    }
    for label, _ in capacities:
        deltas = []
        for policy in policies:
            sweep = sweeps[policy]
            deltas.append(
                sweep.get("ea", label).result.metrics.hit_rate
                - sweep.get("adhoc", label).result.metrics.hit_rate
            )
        report.add_row(label, *deltas)
    return report


def run_measure_ablation(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
) -> ExperimentReport:
    """Expiration age vs Average Document Life Time as the contention signal.

    Section 3.1 argues lifetime "doesn't accurately reflect the cache
    contention" because it ignores hits; this ablation runs the identical
    EA machinery on both measures (and ad-hoc as the reference) so the
    argument is empirical rather than rhetorical.
    """
    from repro.architecture.base import build_caches
    from repro.architecture.distributed import DistributedGroup
    from repro.core.placement import make_scheme
    from repro.simulation.replay import replay_trace

    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ablation-measure",
        title="Ablation: contention measure — expiration age vs document lifetime",
        headers=["aggregate", "adhoc", "ea_expiration_age", "ea_lifetime"],
    )
    for label, capacity in capacities:
        rates = {}
        for name, scheme_name, measure in (
            ("adhoc", "adhoc", None),
            ("expage", "ea", None),
            ("lifetime", "ea", "lifetime"),
        ):
            group = DistributedGroup(
                build_caches(num_caches, capacity, contention_measure=measure),
                make_scheme(scheme_name),
                seed=seed,
            )
            rates[name] = replay_trace(group, trace).hit_rate
        report.add_row(label, rates["adhoc"], rates["expage"], rates["lifetime"])
    return report


def run_architecture_ablation(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_parents: int = 1,
) -> ExperimentReport:
    """Distributed vs hierarchical groups under both schemes.

    The hierarchical group adds ``num_parents`` parent caches above the
    leaves; the aggregate capacity is split across *all* caches, so this
    also probes whether spending disk on a shared parent beats spreading it
    across peers.
    """
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ablation-architecture",
        title="Ablation: hit rate by architecture (distributed vs hierarchical)",
        headers=[
            "aggregate",
            "adhoc_distributed",
            "ea_distributed",
            "adhoc_hierarchical",
            "ea_hierarchical",
        ],
    )
    distributed = run_capacity_sweep(
        trace, capacities, base_config=SimulationConfig(architecture="distributed")
    )
    hierarchical = run_capacity_sweep(
        trace,
        capacities,
        base_config=SimulationConfig(
            architecture="hierarchical", num_parents=num_parents
        ),
    )
    for label, _ in capacities:
        report.add_row(
            label,
            distributed.get("adhoc", label).result.metrics.hit_rate,
            distributed.get("ea", label).result.metrics.hit_rate,
            hierarchical.get("adhoc", label).result.metrics.hit_rate,
            hierarchical.get("ea", label).result.metrics.hit_rate,
        )
    return report
