"""Trace-driven cooperative caching simulator.

:class:`CooperativeSimulator` wires every substrate together: it builds the
cache group described by a :class:`SimulationConfig`, partitions the trace's
clients across the proxies, replays each record through the group in
timestamp order, and assembles a
:class:`~repro.simulation.results.SimulationResult`.

This mirrors the paper's methodology (Section 4.1): equal per-cache shares
of the aggregate disk space, distributed architecture, LRU replacement,
zero-size records patched to 4 KB, and requests replayed in timestamp order.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

from repro.architecture.base import CooperativeGroup, build_caches
from repro.architecture.distributed import DistributedGroup
from repro.architecture.hierarchical import HierarchicalGroup
from repro.cache.expiration import WINDOW_MODES
from repro.core.placement import make_scheme
from repro.errors import SimulationError
from repro.network.topology import two_level_tree
from repro.simulation.metrics import GroupMetrics, average_cache_expiration_age
from repro.simulation.results import SimulationResult
from repro.trace.partition import (
    HashPartitioner,
    Partitioner,
    RoundRobinClientPartitioner,
    RoundRobinRequestPartitioner,
)
from repro.trace.record import (
    DEFAULT_PATCH_SIZE,
    Trace,
    patch_zero_sizes,
    require_positive_int,
)

ARCHITECTURES = ("distributed", "hierarchical")
PARTITIONERS = ("hash", "round-robin-client", "round-robin-request")
ENGINES = ("object", "columnar", "batch")

#: Logger for engine dispatch; fallback reasons are logged at INFO here.
_fastpath_logger = logging.getLogger("repro.fastpath")

#: Nine retired config fields, echoed at the only value any run gave them,
#: keyed by the live field they stood before. The echo feeds every
#: result's ``to_json``, and through
#: :func:`repro.obs.manifest.config_hash` the memo keys and the
#: ``repro-events/1`` run header; dropping the keys would change all of
#: those bytes, and is a format change of its own.
RETIRED_ECHO = {
    "tie_break": {"responder_strategy": "first"},
    "patch_size": {"latency": "constant", "latency_sigma": 0.25, "icp_loss_rate": 0.0},
    "sanitize": {
        "keep_outcomes": False,
        "use_engine": False,
        "warmup_requests": 0,
        "collect_histogram": False,
        "timeseries_window": 0.0,
    },
}


@dataclass(frozen=True)
class SimulationConfig:
    """Declarative description of one simulation run.

    Attributes:
        scheme: Placement scheme: ``"adhoc"`` or ``"ea"``.
        num_caches: Caches receiving client requests (leaves, for the
            hierarchical architecture).
        aggregate_capacity: Total group disk space in bytes, split equally.
        policy: Replacement policy name (see ``repro.cache.make_policy``).
        architecture: ``"distributed"`` (paper's evaluation) or
            ``"hierarchical"``.
        num_parents: Parent caches added above the leaves (hierarchical
            only); they join the equal capacity split.
        partitioner: How clients map to proxies.
        tie_break: EA tie-break rule (``"requester"`` or ``"responder"``).
        max_replica_fraction: EA size-aware replica cap (extension; None
            reproduces the paper's size-blind rule).
        window_mode / window_size / window_seconds: Expiration-age window
            (see :class:`repro.cache.ExpirationAgeTracker`).
        patch_size: Replacement size for zero-size records (paper: 4 KB).
        seed: Seed of the object core's group RNG (no paper mechanism
            draws from it).
        engine: Execution engine: ``"object"`` (the reference core) or
            ``"batch"`` (the replay kernel, :mod:`repro.fastpath.batch`:
            interned ids, array state, vector regimes, numpy-accelerated
            when available). ``"columnar"`` is not a third engine but a
            reference setting of the kernel, with its vector regimes off,
            that tests and cross-engine diffs compare against. Results are
            byte-identical on all three. Configurations the kernel does
            not support fall back to the object core with a logged reason
            (see :func:`repro.fastpath.columnar_unsupported_reason`).
        sanitize: Instrument the run with the runtime invariant sanitizer
            (:class:`~repro.devtools.sanitizer.SimulationSanitizer`): byte
            accounting, LRU recency order, victim expiration ages, the EA
            one-fresh-lease rule, and event ordering are checked after
            every operation. Violations are collected on
            ``simulator.sanitizer.report``; results are unchanged.
    """

    scheme: str = "ea"
    num_caches: int = 4
    aggregate_capacity: int = 10 * 1024 * 1024
    policy: str = "lru"
    architecture: str = "distributed"
    num_parents: int = 1
    partitioner: str = "hash"
    tie_break: str = "requester"
    max_replica_fraction: Optional[float] = None
    window_mode: str = "count"
    window_size: int = 1000
    window_seconds: float = 3600.0
    patch_size: int = DEFAULT_PATCH_SIZE
    seed: int = 0
    sanitize: bool = False
    engine: str = "object"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise SimulationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.architecture not in ARCHITECTURES:
            raise SimulationError(
                f"architecture must be one of {ARCHITECTURES}, got {self.architecture!r}"
            )
        if self.partitioner not in PARTITIONERS:
            raise SimulationError(
                f"partitioner must be one of {PARTITIONERS}, got {self.partitioner!r}"
            )
        if self.window_mode not in WINDOW_MODES:
            raise SimulationError(f"window_mode must be one of {WINDOW_MODES}")
        for name in ("num_caches", "num_parents"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, int):
                raise SimulationError(f"{name} must be an int, got {count!r}")
        if self.num_caches <= 0:
            raise SimulationError("num_caches must be positive")
        if self.aggregate_capacity <= 0:
            raise SimulationError("aggregate_capacity must be positive")
        if self.architecture == "hierarchical" and self.num_parents <= 0:
            raise SimulationError("hierarchical architecture needs num_parents >= 1")

    def with_scheme(self, scheme: str) -> "SimulationConfig":
        """Copy of this config running a different placement scheme."""
        return replace(self, scheme=scheme)

    def with_capacity(self, aggregate_capacity: int) -> "SimulationConfig":
        """Copy of this config with a different aggregate capacity."""
        return replace(self, aggregate_capacity=aggregate_capacity)

    def to_dict(self) -> Dict:
        """Plain-dict echo for result serialisation.

        Carries :data:`RETIRED_ECHO`'s keys at their old positions, so the
        echo has the same keys, order and values as before they retired.
        """
        echo: Dict = {}
        for name, value in asdict(self).items():
            echo.update(RETIRED_ECHO.get(name, ()))
            echo[name] = value
        return echo


def _make_partitioner(name: str, num_targets: int) -> Partitioner:
    if name == "hash":
        return HashPartitioner(num_targets)
    if name == "round-robin-client":
        return RoundRobinClientPartitioner(num_targets)
    return RoundRobinRequestPartitioner(num_targets)


class CooperativeSimulator:
    """Builds a cache group from a config and replays traces through it.

    Args:
        obs: Optional :class:`repro.obs.events.RunRecorder`. Passed out of
            band (not on :class:`SimulationConfig`) so observing a run can
            never perturb memo keys, fallback decisions, or results. When
            set, the simulator emits the ``repro-events/1`` stream —
            request outcomes, placement/promotion verdicts, evictions,
            snapshot ticks — at the same protocol points the replay
            kernel mirrors.
    """

    def __init__(self, config: SimulationConfig, obs=None):
        self.config = config
        self.observer = obs
        self.group = self._build_group()
        if obs is not None:
            self.group.observer = obs
            for cache_index, cache in enumerate(self.group.caches):
                cache.eviction_observer = obs.eviction_hook(cache_index)
        self.metrics = GroupMetrics()
        #: Runtime invariant sanitizer (when config.sanitize is set).
        self.sanitizer = None
        if config.sanitize:
            from repro.devtools.sanitizer import SimulationSanitizer

            self.sanitizer = SimulationSanitizer(self.group)
        # Client requests land on leaves only; for the distributed
        # architecture every cache is a leaf.
        self._leaves = self.group.topology.leaves()
        self._partitioner = _make_partitioner(config.partitioner, len(self._leaves))

    def _build_group(self) -> CooperativeGroup:
        config = self.config
        scheme_kwargs = {}
        if config.scheme == "ea":
            scheme_kwargs["tie_break"] = config.tie_break
            if config.max_replica_fraction is not None:
                scheme_kwargs["max_replica_fraction"] = config.max_replica_fraction
        scheme = make_scheme(config.scheme, **scheme_kwargs)
        if config.architecture == "distributed":
            caches = build_caches(
                config.num_caches,
                config.aggregate_capacity,
                policy_name=config.policy,
                window_mode=config.window_mode,
                window_size=config.window_size,
                window_seconds=config.window_seconds,
            )
            return DistributedGroup(caches, scheme, seed=config.seed)
        topology = two_level_tree(config.num_caches, config.num_parents)
        caches = build_caches(
            topology.num_caches,
            config.aggregate_capacity,
            policy_name=config.policy,
            window_mode=config.window_mode,
            window_size=config.window_size,
            window_seconds=config.window_seconds,
        )
        return HierarchicalGroup(caches, scheme, topology, seed=config.seed)

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def run(self, trace: Trace) -> SimulationResult:
        """Replay ``trace`` in timestamp order and return the result.

        Records stream straight from the patching iterator, so memory
        stays flat regardless of trace length.
        """
        records = patch_zero_sizes(iter(trace), self.config.patch_size)
        for leaf_position, record in self._partitioner.split(records):
            self._process(leaf_position, record)
        return self.result()

    def _process(self, leaf_position: int, record) -> None:
        obs = self.observer
        if obs is not None:
            obs.maybe_snapshot(record.timestamp, self._snapshot_rows)
        index = self._leaves[leaf_position]
        outcome = self.group.process(index, record)
        if self.sanitizer is not None:
            self.sanitizer.observe(outcome)
        self.metrics.observe(outcome)
        if obs is not None:
            obs.request(
                outcome.timestamp,
                outcome.requester,
                outcome.url,
                outcome.kind.value,
                outcome.size,
                outcome.responder,
                outcome.stored_at_requester,
                outcome.responder_refreshed,
                outcome.hops,
            )

    def _snapshot_rows(self, due: float):
        """Per-cache gauge rows for one obs snapshot tick at time ``due``."""
        rows = []
        for cache in self.group.caches:
            stats = cache.stats
            rows.append(
                (
                    cache.expiration_age(due),
                    cache.used_bytes,
                    len(cache),
                    stats.lookups,
                    stats.local_hits,
                    stats.remote_hits_served,
                    stats.evictions,
                )
            )
        return rows

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def result(self) -> SimulationResult:
        """Snapshot the current state as a :class:`SimulationResult`."""
        ages = self.group.expiration_ages()
        return SimulationResult(
            config=self.config.to_dict(),
            metrics=self.metrics,
            message_counters=self.group.bus.counters,
            cache_stats=[cache.stats for cache in self.group.caches],
            expiration_ages=ages,
            avg_cache_expiration_age=average_cache_expiration_age(ages),
            unique_documents=self.group.unique_documents(),
            total_copies=self.group.total_copies(),
            replication_factor=self.group.replication_factor(),
            estimated_latency=self.metrics.estimated_latency(),
        )


def resolved_engine(config: SimulationConfig) -> str:
    """The engine that will actually run ``config`` (fallback applied).

    The requested ``"batch"`` or ``"columnar"`` only when the kernel
    supports ``config``, else ``"object"``; the run manifest records this
    next to the requested engine so fallback is observable.
    """
    if config.engine in ("columnar", "batch"):
        from repro.fastpath import columnar_unsupported_reason

        if columnar_unsupported_reason(config) is None:
            return config.engine
    return "object"


def run_simulation(
    config: SimulationConfig,
    trace: Trace,
    obs=None,
    chunk_size: Optional[int] = None,
    regimes: Optional[dict] = None,
    spans=None,
    timeseries=None,
) -> SimulationResult:
    """One-shot convenience: replay ``trace`` under ``config``.

    Dispatches on ``config.engine``: ``"batch"`` runs the replay kernel
    (:mod:`repro.fastpath.batch`), ``"columnar"`` the same kernel with its
    vector regimes off, ``"object"`` the reference core. Results are
    byte-identical on all three. A kernel request the kernel does not
    support falls back to the object core transparently, logging the
    reason on the ``repro.fastpath`` logger.

    ``trace`` may also be a *streamed source* (any object exposing
    ``interned_chunks(chunk_size)``; see :mod:`repro.trace.stream`) —
    packed columnar readers, synthetic streams — in which case the replay
    holds O(chunk) request memory. Streamed sources require a chunked
    engine; a config that would fall back to the object engine raises
    :class:`~repro.errors.SimulationError` instead of silently
    materialising an unbounded stream.

    Args:
        obs: Optional :class:`repro.obs.events.RunRecorder`; both engines
            feed it the same event stream (see ``docs/OBSERVABILITY.md``).
        chunk_size: Interned-chunk granularity for the chunked engines;
            results are chunking-invariant, so this shapes memory only.
            Checked on every engine and source: anything but a positive
            ``int`` raises :class:`~repro.errors.TraceError`.
        regimes: Optional dict; with ``engine="batch"`` it receives the
            per-regime request counts (``cold`` / ``hit_run`` /
            ``scalar``, or ``fallback_reason``) after the run — see
            :func:`repro.fastpath.batch.simulate_batch`. Ignored by the
            other engines.
        spans: Optional :class:`repro.obs.spans.SpanTracer`, threaded
            through the chunked engines (source pulls, chunk replay,
            batch regime segments); the object engine records one
            ``engine:object`` span. Out of band like ``obs``: results
            and event bytes are identical with or without it.
        timeseries: Optional
            :class:`repro.obs.timeseries.TimeseriesRecorder` fed one
            per-chunk sample by the chunked engines (the object engine
            has no chunk boundary and ignores it).
    """
    if chunk_size is not None:
        require_positive_int("chunk_size", chunk_size)
    streamed = not isinstance(trace, Trace) and hasattr(trace, "interned_chunks")
    if config.engine in ("columnar", "batch"):
        from repro.fastpath import (
            columnar_unsupported_reason,
            simulate_batch,
            simulate_columnar,
        )

        reason = columnar_unsupported_reason(config)
        if reason is None:
            if config.engine == "batch":
                return simulate_batch(
                    config, trace, obs=obs, chunk_size=chunk_size,
                    regimes=regimes, spans=spans, timeseries=timeseries,
                )
            return simulate_columnar(
                config, trace, obs=obs, chunk_size=chunk_size,
                spans=spans, timeseries=timeseries,
            )
        if streamed:
            raise SimulationError(
                f"streamed trace sources require a chunked engine, but the "
                f"{config.engine!r} engine is unavailable for this config "
                f"({reason}); the object-engine fallback would materialise "
                f"the whole stream"
            )
        _fastpath_logger.info(
            "%s engine unavailable for this config; "
            "falling back to the object engine: %s",
            config.engine,
            reason,
        )
    elif streamed:
        raise SimulationError(
            "streamed trace sources require a chunked engine "
            "(engine='columnar' or 'batch'); the object engine replays "
            "materialised Trace objects only"
        )
    simulator = CooperativeSimulator(config, obs=obs)
    if spans is not None:
        spans.begin("engine:object", "engine")
        try:
            return simulator.run(trace)
        finally:
            spans.end()
    return simulator.run(trace)
