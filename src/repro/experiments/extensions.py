"""Extension experiments beyond the paper's evaluation.

Four studies using the substrates the paper cites as related work or future
directions:

* :func:`run_locator_comparison` — ICP probing vs Summary-Cache Bloom
  digests: hit rate lost to digest staleness/false positives vs protocol
  bytes saved.
* :func:`run_baseline_comparison` — ad-hoc vs EA vs consistent-hash routing
  (Karger et al.): replication spectrum from everywhere to nowhere.
* :func:`run_prefetch_study` — lazy vs eager (Markov-prefetched) placement
  under both schemes.
* :func:`run_loss_resilience` — EA-vs-ad-hoc gap as ICP reply loss grows
  (ICP rides UDP; replies can vanish).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.architecture.base import build_caches
from repro.architecture.distributed import DistributedGroup
from repro.architecture.hashrouted import HashRoutedGroup
from repro.core.placement import make_scheme
from repro.digest.group import DigestDistributedGroup
from repro.experiments.report import ExperimentReport
from repro.experiments.workload import resolve_workload, workload_trace
from repro.prefetch.engine import PrefetchEngine
from repro.simulation.replay import replay_trace
from repro.trace.record import Trace


def run_locator_comparison(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
    rebuild_interval: float = 60.0,
) -> ExperimentReport:
    """EA scheme under ICP location vs Bloom-digest location."""
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ext-locator",
        title="Extension: ICP vs Summary-Cache digests (EA scheme)",
        headers=[
            "aggregate",
            "icp_hit_rate",
            "digest_hit_rate",
            "icp_proto_kb",
            "digest_proto_kb",
            "digest_false_pos",
        ],
    )
    for label, capacity in capacities:
        icp_group = DistributedGroup(
            build_caches(num_caches, capacity), make_scheme("ea"), seed=seed
        )
        icp_metrics = replay_trace(icp_group, trace)
        digest_group = DigestDistributedGroup(
            build_caches(num_caches, capacity),
            make_scheme("ea"),
            rebuild_interval=rebuild_interval,
        )
        digest_metrics = replay_trace(digest_group, trace)
        icp_proto = icp_group.bus.counters.icp_bytes + icp_group.bus.counters.http_header_bytes
        digest_proto = (
            digest_group.bus.counters.http_header_bytes
            + digest_group.directory.stats.publish_bytes
        )
        report.add_row(
            label,
            icp_metrics.hit_rate,
            digest_metrics.hit_rate,
            icp_proto / 1024.0,
            digest_proto / 1024.0,
            digest_group.directory.stats.false_positives,
        )
    return report


def run_baseline_comparison(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
) -> ExperimentReport:
    """Ad-hoc vs EA vs consistent-hash routing across the capacity grid."""
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ext-baselines",
        title="Extension: placement spectrum — ad-hoc / EA / hash-routed",
        headers=[
            "aggregate",
            "adhoc_hit",
            "ea_hit",
            "hash_hit",
            "adhoc_latency_ms",
            "ea_latency_ms",
            "hash_latency_ms",
        ],
    )
    for label, capacity in capacities:
        metrics = {}
        for name in ("adhoc", "ea"):
            group = DistributedGroup(
                build_caches(num_caches, capacity), make_scheme(name), seed=seed
            )
            metrics[name] = replay_trace(group, trace)
        hash_group = HashRoutedGroup(build_caches(num_caches, capacity))
        metrics["hash"] = replay_trace(hash_group, trace)
        report.add_row(
            label,
            metrics["adhoc"].hit_rate,
            metrics["ea"].hit_rate,
            metrics["hash"].hit_rate,
            metrics["adhoc"].estimated_latency() * 1000.0,
            metrics["ea"].estimated_latency() * 1000.0,
            metrics["hash"].estimated_latency() * 1000.0,
        )
    return report


def run_prefetch_study(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
) -> ExperimentReport:
    """Lazy vs eager (Markov prefetch) placement under both schemes."""
    trace, capacities = resolve_workload(scale, seed, trace, capacities)
    report = ExperimentReport(
        experiment_id="ext-prefetch",
        title="Extension: lazy vs eager placement (first-order Markov prefetch)",
        headers=[
            "aggregate",
            "scheme",
            "lazy_hit",
            "eager_hit",
            "prefetch_precision",
            "prefetch_mb",
        ],
    )
    for label, capacity in capacities:
        for scheme_name in ("adhoc", "ea"):
            lazy_group = DistributedGroup(
                build_caches(num_caches, capacity), make_scheme(scheme_name), seed=seed
            )
            lazy = replay_trace(lazy_group, trace)
            eager_group = DistributedGroup(
                build_caches(num_caches, capacity), make_scheme(scheme_name), seed=seed
            )
            engine = PrefetchEngine(eager_group)
            eager = replay_trace(engine, trace)
            report.add_row(
                label,
                scheme_name,
                lazy.hit_rate,
                eager.hit_rate,
                engine.stats.precision,
                engine.stats.bytes_prefetched / (1024.0 * 1024.0),
            )
    return report


def run_loss_resilience(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacity: int = 1 << 20,
    loss_rates: Sequence[float] = (0.0, 0.05, 0.2, 0.5),
    num_caches: int = 4,
) -> ExperimentReport:
    """EA-vs-ad-hoc hit rates as ICP reply loss grows (failure injection)."""
    trace = trace if trace is not None else workload_trace(scale, seed)
    report = ExperimentReport(
        experiment_id="ext-loss",
        title=f"Extension: ICP reply loss resilience ({capacity // 1024} KB aggregate)",
        headers=["loss_rate", "adhoc_hit", "ea_hit", "ea_minus_adhoc", "replies_lost"],
    )
    for loss in loss_rates:
        rates = {}
        lost = 0
        for name in ("adhoc", "ea"):
            group = DistributedGroup(
                build_caches(num_caches, capacity),
                make_scheme(name),
                seed=seed,
                icp_loss_rate=loss,
            )
            rates[name] = replay_trace(group, trace).hit_rate
            lost += group.icp_replies_lost
        report.add_row(loss, rates["adhoc"], rates["ea"], rates["ea"] - rates["adhoc"], lost)
    return report
