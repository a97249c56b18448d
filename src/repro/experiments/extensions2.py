"""Second wave of extension experiments: coherence, demotion, heterogeneity.

* :func:`run_coherence_study` — the EA-vs-ad-hoc comparison with a TTL +
  If-Modified-Since consistency layer on both (does coherence traffic eat
  the placement benefit?).
* :func:`run_demotion_study` — the EA scheme with and without last-copy
  demotion on eviction (a global-memory-style extension the paper's related
  work [2, 7] suggests).
* :func:`run_heterogeneity_study` — skewed per-cache capacities. The EA
  scheme's entire premise is that contention differs across caches; a
  heterogeneous group makes that signal strong and persistent, so EA's
  advantage should *grow* relative to the homogeneous split.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.architecture.base import build_caches
from repro.architecture.distributed import DistributedGroup
from repro.coherence.group import CoherentGroup
from repro.coherence.model import ChangeModel, TTLModel
from repro.core.demotion import DemotionGroup
from repro.core.placement import make_scheme
from repro.experiments.report import ExperimentReport
from repro.experiments.sweep import run_capacity_sweep
from repro.experiments.workload import resolve_workload
from repro.simulation.replay import replay_trace
from repro.simulation.simulator import SimulationConfig
from repro.trace.record import Trace


def run_coherence_study(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
    base_ttl: float = 1800.0,
    mean_change_interval: float = 86_400.0,
) -> ExperimentReport:
    """Placement comparison with a TTL/validation consistency layer."""
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ext-coherence",
        title=f"Extension: placement under coherence (TTL={base_ttl:.0f}s)",
        headers=[
            "aggregate",
            "scheme",
            "hit_rate",
            "validations",
            "304_rate",
            "coherence_misses",
        ],
    )
    for label, capacity in capacities:
        for scheme_name in ("adhoc", "ea"):
            group = DistributedGroup(
                build_caches(num_caches, capacity), make_scheme(scheme_name), seed=seed
            )
            coherent = CoherentGroup(
                group,
                ttl_model=TTLModel(base_ttl=base_ttl),
                change_model=ChangeModel(mean_change_interval=mean_change_interval),
            )
            metrics = replay_trace(coherent, trace)
            report.add_row(
                label,
                scheme_name,
                metrics.hit_rate,
                coherent.stats.validations,
                coherent.stats.validation_hit_rate,
                coherent.stats.coherence_misses,
            )
    return report


def run_demotion_study(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
) -> ExperimentReport:
    """EA alone vs naive demotion (all victims) vs filtered (re-referenced).

    Naive last-copy demotion floods the roomiest cache with one-timer
    victims and *hurts*; filtering to victims that were re-referenced at
    least once (``min_hits=2``) keeps only documents with demonstrated
    reuse. Both variants are reported against plain EA.
    """
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ext-demotion",
        title="Extension: EA scheme with last-copy demotion (naive vs filtered)",
        headers=[
            "aggregate",
            "ea_hit_rate",
            "naive_hit_rate",
            "filtered_hit_rate",
            "naive_demoted",
            "filtered_demoted",
        ],
    )
    for label, capacity in capacities:
        plain_group = DistributedGroup(
            build_caches(num_caches, capacity), make_scheme("ea"), seed=seed
        )
        plain = replay_trace(plain_group, trace)
        rates = {}
        counts = {}
        for kind, min_hits in (("naive", 1), ("filtered", 2)):
            demo_group = DistributedGroup(
                build_caches(num_caches, capacity), make_scheme("ea"), seed=seed
            )
            demotion = DemotionGroup(demo_group, min_hits=min_hits)
            rates[kind] = replay_trace(demotion, trace).hit_rate
            counts[kind] = demotion.stats.demoted
        report.add_row(
            label,
            plain.hit_rate,
            rates["naive"],
            rates["filtered"],
            counts["naive"],
            counts["filtered"],
        )
    return report


def run_replica_cap_study(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
    cap_fraction: float = 0.05,
    engine: Optional[str] = None,
) -> ExperimentReport:
    """EA with and without the size-aware replica cap.

    The cap (an extension, not in the paper) refuses to replicate any
    document bigger than ``cap_fraction`` of the requester's capacity,
    handing the fresh lease to the responder instead. Expected: small or
    neutral document-hit effect with a byte-hit improvement when the
    workload has heavy-tailed sizes.
    """
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ext-replica-cap",
        title=f"Extension: EA size-aware replica cap ({cap_fraction:.0%} of cache)",
        headers=[
            "aggregate",
            "ea_hit",
            "capped_hit",
            "ea_byte_hit",
            "capped_byte_hit",
        ],
    )
    sweeps = {
        kind: run_capacity_sweep(
            trace,
            capacities,
            schemes=("ea",),
            base_config=SimulationConfig(
                num_caches=num_caches, seed=seed, max_replica_fraction=fraction
            ),
            engine=engine,
        )
        for kind, fraction in (("plain", None), ("capped", cap_fraction))
    }
    for label, _ in capacities:
        plain = sweeps["plain"].get("ea", label).result.metrics
        capped = sweeps["capped"].get("ea", label).result.metrics
        report.add_row(
            label,
            plain.hit_rate,
            capped.hit_rate,
            plain.byte_hit_rate,
            capped.byte_hit_rate,
        )
    return report


def run_admission_study(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
) -> ExperimentReport:
    """EA hit rate under admission gates: none / size-threshold / second-hit.

    Admission composes with placement: the scheme decides *where* a copy
    should live, the gate can veto the local write. One-hit-wonder
    filtering (second-hit) should help at contended sizes — web workloads
    are dominated by one-timer documents that waste cache bytes.
    """
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    gates = (
        ("none", None, None),
        ("size64k", "size-threshold", {"max_bytes": 64 * 1024}),
        ("second_hit", "second-hit", None),
    )
    report = ExperimentReport(
        experiment_id="ext-admission",
        title="Extension: EA hit rate by admission gate",
        headers=["aggregate", *[f"ea_{name}" for name, _, _ in gates]],
    )
    for label, capacity in capacities:
        rates = []
        for _name, admission_name, admission_kwargs in gates:
            group = DistributedGroup(
                build_caches(
                    num_caches,
                    capacity,
                    admission_name=admission_name,
                    admission_kwargs=admission_kwargs,
                ),
                make_scheme("ea"),
                seed=seed,
            )
            rates.append(replay_trace(group, trace).hit_rate)
        report.add_row(label, *rates)
    return report


def run_heterogeneity_study(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
    skew: Sequence[float] = (1.0, 1.0, 3.0, 7.0),
) -> ExperimentReport:
    """EA-vs-ad-hoc deltas on equal vs skewed capacity splits."""
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    if len(skew) != num_caches:
        raise ValueError("skew must have one weight per cache")
    report = ExperimentReport(
        experiment_id="ext-heterogeneous",
        title=f"Extension: heterogeneous capacities (shares {list(skew)})",
        headers=[
            "aggregate",
            "delta_equal",
            "delta_skewed",
            "ea_equal",
            "ea_skewed",
        ],
    )
    for label, capacity in capacities:
        deltas = {}
        ea_rates = {}
        for kind, shares in (("equal", None), ("skewed", skew)):
            rates = {}
            for scheme_name in ("adhoc", "ea"):
                group = DistributedGroup(
                    build_caches(num_caches, capacity, capacity_shares=shares),
                    make_scheme(scheme_name),
                    seed=seed,
                )
                rates[scheme_name] = replay_trace(group, trace).hit_rate
            deltas[kind] = rates["ea"] - rates["adhoc"]
            ea_rates[kind] = rates["ea"]
        report.add_row(
            label, deltas["equal"], deltas["skewed"], ea_rates["equal"], ea_rates["skewed"]
        )
    return report
