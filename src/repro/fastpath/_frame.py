"""The replay frame the fast engines' kernel runs inside.

Everything *around* the request loop of :func:`repro.fastpath.batch.replay`
lives here: the envelope guards, the topology and capacity split, the
per-cache tally columns, the scheme and latency constants, client→leaf
growth, the per-run leaf/size/digit columns of a chunk (the list
derivation the loop reads with its vector regimes off, the numpy one
their precompute reads), the span-wrapped chunk stream, the per-chunk
timeseries sample and the :class:`SimulationResult` assembly. The kernel
extends a frame with its state, binds the fields its loop touches to
locals once (so the hot closures still see plain locals), replays, and
asks the frame for the result.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.cache.stats import CacheStats
from repro.errors import SimulationError, TraceError
from repro.fastpath import columnar_unsupported_reason
from repro.fastpath.interning import InternedChunk, client_leaf_positions
from repro.fastpath.numeric import decimal_digits
from repro.network.bus import MessageCounters
from repro.network.latency import ComponentLatencyModel, ConstantLatencyModel
from repro.network.topology import StarTopology, two_level_tree
from repro.simulation.metrics import GroupMetrics, average_cache_expiration_age
from repro.simulation.results import SimulationResult
from repro.trace.record import Trace


#: Requests per chunk when replaying a streamed source that does not name
#: a chunk size. Large enough to amortise per-chunk column building,
#: small enough that the resident columns stay tens of megabytes.
DEFAULT_CHUNK_SIZE = 1 << 18


def _chunk_stream(
    trace, chunk_size: Optional[int], spans=None
) -> Iterator[InternedChunk]:
    """The chunks the replay loop consumes, in trace order.

    A materialised :class:`Trace` replayed whole is its one interned chunk
    — the only chunk with a ``memo``, so the per-run columns derived from
    it (record sizes, digits, leaf assignment) are kept for the next
    replay. Slices of it and streamed sources (anything exposing
    ``interned_chunks(chunk_size)``) give chunks that are replayed once;
    their columns are derived from the intern deltas and dropped.

    ``spans`` (an optional :class:`repro.obs.spans.SpanTracer`) is handed
    to sources that accept it, so generation/decoding work inside the
    source shows up as child spans of the engine's source spans; sources
    without span support are called plain.
    """
    if isinstance(trace, Trace) and (
        chunk_size is None or chunk_size >= max(len(trace), 1)
    ):
        if spans is not None:
            with spans.span("intern", "source"):
                return iter((trace.interned(),))
        return iter((trace.interned(),))
    size = chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE
    if spans is not None:
        try:
            # Generator functions validate keywords at call time, so an
            # unsupported source raises here, not mid-iteration.
            return trace.interned_chunks(size, spans=spans)
        except TypeError:
            pass  # a source without span support: called plain
    return trace.interned_chunks(size)


def check_envelope(config, engine: str) -> None:
    """Raise unless ``config`` is inside the shared fast-engine envelope."""
    reason = columnar_unsupported_reason(config)
    if reason is not None:
        raise SimulationError(
            f"config unsupported by the {engine} engine: {reason}"
        )
    if config.patch_size <= 0:
        # Same guard (and message) patch_zero_sizes raises in the object path.
        raise TraceError(f"patch_size must be positive, got {config.patch_size}")


class ReplayFrame:
    """Config-derived constants and per-cache tallies of one replay."""

    def __init__(self, config, engine: str):
        check_envelope(config, engine)
        self.config = config
        self.engine = engine
        self.patch = config.patch_size
        self.partitioner = config.partitioner

        # Topology, capacities, partitioning.
        self.hierarchical = config.architecture == "hierarchical"
        if self.hierarchical:
            topology = two_level_tree(config.num_caches, config.num_parents)
        else:
            topology = StarTopology(config.num_caches)
        self.num_caches = num_caches = topology.num_caches
        self.leaves = leaves = topology.leaves()
        self.num_leaves = len(leaves)
        self.parent = [topology.parent_of(i) for i in range(num_caches)]
        self.probe_targets: List[tuple] = [() for _ in range(num_caches)]
        for leaf in leaves:
            targets = list(topology.siblings_of(leaf))
            if self.hierarchical and self.parent[leaf] is not None:
                targets.append(self.parent[leaf])
            self.probe_targets[leaf] = tuple(targets)

        # Equal split, same arithmetic as build_caches with unit weights.
        weights = [1.0] * num_caches
        total_weight = sum(weights)
        self.capacity = [
            int(config.aggregate_capacity * w / total_weight) for w in weights
        ]
        if any(share <= 0 for share in self.capacity):
            raise SimulationError(
                f"aggregate capacity {config.aggregate_capacity} too small for "
                f"{num_caches} caches with shares {weights}"
            )

        # "cacheN" Via-header lengths, matching build_caches' naming.
        self.sender_len = [5 + len(str(i)) for i in range(num_caches)]

        # Client id -> leaf, grown with the client intern table (and its
        # numpy image, rebuilt by chunk_columns_np when the table grew).
        self.client_leaf: List[int] = []
        self._client_leaf_np = None

        # Per-cache occupancy and stats columns (CacheStats fields).
        self.used = [0] * num_caches
        self.copies = [0] * num_caches
        self.st_lookups = [0] * num_caches
        self.st_local_hits = [0] * num_caches
        self.st_local_misses = [0] * num_caches
        self.st_remote_served = [0] * num_caches
        self.st_admissions = [0] * num_caches
        self.st_rejections = [0] * num_caches
        self.st_evictions = [0] * num_caches
        self.st_bytes_local = [0] * num_caches
        self.st_bytes_remote = [0] * num_caches
        self.st_bytes_admitted = [0] * num_caches
        self.st_bytes_evicted = [0] * num_caches
        self.st_declined = [0] * num_caches
        self.st_promo_granted = [0] * num_caches
        self.st_promo_withheld = [0] * num_caches

        # Bus counters: [icp_q, icp_r, http_req, http_resp, icp_B, hdr_B, body_B]
        self.bus = [0, 0, 0, 0, 0, 0, 0]
        # Metrics: [requests, local, remote, miss, B_req, B_local, B_remote, B_miss]
        self.met = [0, 0, 0, 0, 0, 0, 0, 0]
        self.latency_sum = 0.0

        # Scheme / latency / strategy parameters.
        self.ea = config.scheme == "ea"
        self.tie_requester = config.tie_break == "requester"
        self.replica_cap = config.max_replica_fraction if self.ea else None
        self.max_age_strategy = config.responder_strategy == "max_age"
        self.constant_latency = config.latency == "constant"
        if self.constant_latency:
            model = ConstantLatencyModel()
            self.lat_local = model.local_hit
            self.lat_remote = model.remote_hit
            self.lat_miss = model.miss
            self.lan_bw = self.wan_bw = 1.0  # unused
        else:
            model = ComponentLatencyModel()
            self.lat_local = model.local_service
            self.lat_remote = model.icp_rtt + model.proxy_http_setup
            self.lat_miss = model.icp_rtt + model.origin_http_setup
            self.lan_bw = model.lan_bandwidth
            self.wan_bw = model.wan_bandwidth
        self.warmup = config.warmup_requests

    def chunks(
        self, trace, chunk_size: Optional[int], spans
    ) -> Iterator[InternedChunk]:
        """The replay's chunk stream (see :func:`_chunk_stream`).

        With a span tracer the stream is bracketed by one
        ``engine:<name>`` span, every source pull (generation/decoding)
        is timed, and each chunk's replay — the consumer's loop body —
        runs inside a ``chunk`` span.
        """
        stream = _chunk_stream(trace, chunk_size, spans)
        if spans is None:
            yield from stream
            return
        # Imported lazily so untraced replay never touches repro.obs.
        from repro.obs.spans import source_label

        requests = 0
        spans.begin(f"engine:{self.engine}", "engine")
        for chunk in spans.wrap_source(stream, source_label(trace)):
            spans.begin("chunk", "replay")
            yield chunk
            requests += chunk.num_records
            spans.end(records=chunk.num_records)
        spans.end(requests=requests)

    def _client_leaves(self, chunk) -> List[int]:
        """The client -> leaf table, grown by the chunk's new clients."""
        client_leaf = self.client_leaf
        leaves = self.leaves
        num_leaves = self.num_leaves
        new_clients = chunk.new_client_names
        if self.partitioner == "hash":
            client_leaf.extend(
                leaves[pos]
                for pos in client_leaf_positions(new_clients, num_leaves)
            )
        else:  # round-robin-client: intern order == appearance order
            base_client = len(client_leaf)
            client_leaf.extend(
                leaves[(base_client + i) % num_leaves]
                for i in range(len(new_clients))
            )
        return client_leaf

    def _leaf_list(self, chunk) -> List[int]:
        """Cache index receiving each chunk request.

        The three partitioners over interned client ids: the hash
        partitioner's MD5 is computed once per distinct client;
        round-robin by client is first-appearance order — exactly the
        intern order — modulo the leaf count; round-robin by request is
        the global record index.
        """
        if self.partitioner == "round-robin-request":
            leaves = self.leaves
            num_leaves = self.num_leaves
            base_record = chunk.base_records
            return [
                leaves[(base_record + i) % num_leaves]
                for i in range(chunk.num_records)
            ]
        client_leaf = self._client_leaves(chunk)
        return [client_leaf[client] for client in chunk.clients]

    def _size_lists(self, chunk) -> Tuple[List[int], List[int]]:
        """Patched record sizes and their Content-Length digit counts.

        A chunk without zero-size records shares its raw ``sizes`` column.
        """
        record_sizes = chunk.sizes
        if 0 in record_sizes:
            patch = self.patch
            record_sizes = [patch if size == 0 else size for size in record_sizes]
        return record_sizes, [len(str(size)) for size in record_sizes]

    def chunk_columns(self, chunk) -> Tuple[List[int], List[int], List[int]]:
        """``(leaf, record size, size digits)`` per chunk request, as lists.

        The list route of the per-run columns (:meth:`chunk_columns_np` is
        the numpy one), kept in the chunk's memo when it has one: per
        (partitioner, leaf layout) and per patch size.
        """
        leaf_column = chunk.memoised(
            "leaf", (self.partitioner, tuple(self.leaves)),
            lambda: self._leaf_list(chunk),
        )
        record_sizes, size_digits = chunk.memoised(
            "sizes", self.patch, lambda: self._size_lists(chunk)
        )
        return leaf_column, record_sizes, size_digits

    def chunk_columns_np(self, np, chunk, clients_np, sizes_np) -> tuple:
        """:meth:`chunk_columns` over numpy columns.

        ``clients_np`` / ``sizes_np`` are the chunk's own columns
        (:meth:`InternedChunk.columns_np`). The leaf column is one take
        through the client -> leaf table (or the record index modulo the
        leaf count), the patched sizes one ``np.where``, the digit counts
        :func:`~repro.fastpath.numeric.decimal_digits`. Not memoised here:
        the batch precompute, the only consumer, keeps what it builds from
        them (:meth:`repro.fastpath.batch._FastState.columns`).
        """
        if self.partitioner == "round-robin-request":
            leaves_np = np.array(self.leaves, dtype=np.intp)
            index = np.arange(
                chunk.base_records,
                chunk.base_records + chunk.num_records,
                dtype=np.int64,
            )
            leaf_np = leaves_np[index % self.num_leaves]
        else:
            client_leaf = self._client_leaves(chunk)
            table = self._client_leaf_np
            if table is None or len(table) != len(client_leaf):
                table = self._client_leaf_np = np.array(client_leaf, dtype=np.intp)
            leaf_np = table[clients_np]
        rsz_np = np.where(sizes_np == 0, self.patch, sizes_np)
        return leaf_np, rsz_np, decimal_digits(np, rsz_np)

    def sample(self, timeseries, requests: int, t_last: float, **regimes) -> None:
        """Hand ``timeseries`` one cumulative counter reading."""
        timeseries.sample(
            requests=requests,
            local_hits=sum(self.st_local_hits),
            remote_hits=sum(self.st_remote_served),
            evictions=sum(self.st_evictions),
            admissions=sum(self.st_admissions),
            declined=sum(self.st_declined),
            promoted=sum(self.st_promo_granted),
            bytes_local=sum(self.st_bytes_local),
            bytes_remote=sum(self.st_bytes_remote),
            body_bytes=self.bus[6],
            residency_bytes=sum(self.used),
            t_last=t_last,
            **regimes,
        )

    def result(self, ages: List[float], unique_documents: int) -> SimulationResult:
        """Assemble the object-core result dataclasses from the tallies."""
        met = self.met
        bus = self.bus
        metrics = GroupMetrics(
            requests=met[0],
            local_hits=met[1],
            remote_hits=met[2],
            misses=met[3],
            bytes_requested=met[4],
            bytes_local_hit=met[5],
            bytes_remote_hit=met[6],
            bytes_miss=met[7],
            total_measured_latency=self.latency_sum,
        )
        counters = MessageCounters(
            icp_queries=bus[0],
            icp_replies=bus[1],
            http_requests=bus[2],
            http_responses=bus[3],
            icp_bytes=bus[4],
            http_header_bytes=bus[5],
            http_body_bytes=bus[6],
        )
        cache_stats = [
            CacheStats(
                lookups=self.st_lookups[c],
                local_hits=self.st_local_hits[c],
                local_misses=self.st_local_misses[c],
                remote_hits_served=self.st_remote_served[c],
                admissions=self.st_admissions[c],
                rejections=self.st_rejections[c],
                evictions=self.st_evictions[c],
                bytes_served_local=self.st_bytes_local[c],
                bytes_served_remote=self.st_bytes_remote[c],
                bytes_admitted=self.st_bytes_admitted[c],
                bytes_evicted=self.st_bytes_evicted[c],
                placements_declined=self.st_declined[c],
                promotions_granted=self.st_promo_granted[c],
                promotions_withheld=self.st_promo_withheld[c],
            )
            for c in range(self.num_caches)
        ]
        total_copies = sum(self.copies)
        replication = total_copies / unique_documents if unique_documents else 0.0
        return SimulationResult(
            config=self.config.to_dict(),
            metrics=metrics,
            message_counters=counters,
            cache_stats=cache_stats,
            expiration_ages=ages,
            avg_cache_expiration_age=average_cache_expiration_age(ages),
            unique_documents=unique_documents,
            total_copies=total_copies,
            replication_factor=replication,
            estimated_latency=metrics.estimated_latency(),
            manifest=None,
        )
