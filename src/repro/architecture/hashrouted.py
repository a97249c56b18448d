"""Hash-routed cooperative caching — a zero-replication baseline.

Consistent-hashing cooperation (Karger et al., CARP-style) assigns each URL
one *home* cache; a proxy receiving a client request forwards it straight to
the home cache — no ICP, no replication, perfect aggregate-disk efficiency,
but every non-home request pays the inter-proxy hop even for the hottest
documents.

This is the opposite design point from ad-hoc's replicate-everywhere, which
makes it a useful third baseline around the EA scheme's middle ground: EA
should beat hash routing on latency for hot documents (local copies exist
where they pay off) while approaching its aggregate-disk efficiency.

Request flow at proxy ``i`` for URL ``u`` with home ``h(u)``:

* ``i == h(u)``: local lookup; miss → origin fetch stored at home.
* ``i != h(u)``: forward to ``h(u)`` (one HTTP round-trip); home hit →
  remote hit; home miss → home fetches origin, stores, relays → miss.

The placement scheme is fixed by the architecture (store at home only), so
no ``PlacementScheme`` is taken.
"""

from __future__ import annotations

from typing import Sequence

from repro.architecture.base import CooperativeGroup
from repro.cache.document import Document
from repro.cache.store import ProxyCache
from repro.core.outcomes import RequestOutcome
from repro.core.placement import AdHocScheme
from repro.errors import SimulationError
from repro.network.consistent_hash import ConsistentHashRing
from repro.network.latency import (
    PAPER_LOCAL_HIT_LATENCY,
    PAPER_MISS_LATENCY,
    PAPER_REMOTE_HIT_LATENCY,
    ServiceKind,
)
from repro.network.topology import StarTopology
from repro.protocol import http as sim_http
from repro.trace.record import TraceRecord


class HashRoutedGroup(CooperativeGroup):
    """Consistent-hash-routed group (no ICP, no replication)."""

    def __init__(
        self,
        caches: Sequence[ProxyCache],
        ring_replicas: int = 64,
        seed: int = 0,
    ):
        super().__init__(
            caches=caches,
            # Placement is architectural here; AdHocScheme only fills the
            # slot for the base class's unused hooks.
            scheme=AdHocScheme(),
            topology=StarTopology(len(caches)),
            seed=seed,
        )
        self.ring = ConsistentHashRing(range(len(caches)), replicas=ring_replicas)

    def home_of(self, url: str) -> int:
        """The cache index owning ``url``."""
        return self.ring.node_for(url)

    def process(self, index: int, record: TraceRecord) -> RequestOutcome:
        """Resolve one client request via hash routing."""
        if record.size <= 0:
            raise SimulationError(
                f"record for {record.url!r} has non-positive size; patch the trace first"
            )
        now = record.timestamp
        home = self.home_of(record.url)

        if home == index:
            entry = self.caches[index].lookup(record.url, now)
            if entry is not None:
                return RequestOutcome(
                    timestamp=now,
                    requester=index,
                    url=record.url,
                    size=entry.size,
                    kind=ServiceKind.LOCAL_HIT,
                    latency=PAPER_LOCAL_HIT_LATENCY,
                )
            stored = self._origin_fetch(index, record.url, record.size, now)
            return RequestOutcome(
                timestamp=now,
                requester=index,
                url=record.url,
                size=record.size,
                kind=ServiceKind.MISS,
                latency=PAPER_MISS_LATENCY,
                stored_at_requester=stored,
            )

        # Forward to the home cache. The requester's local stats record the
        # lookup so per-cache accounting still balances.
        self.caches[index].lookup(record.url, now)
        request = sim_http.HttpRequest(url=record.url, sender=self.caches[index].name)
        self.bus.send_http_request(request)

        home_cache = self.caches[home]
        entry = home_cache.serve_remote(record.url, now, refresh=True)
        if entry is not None:
            self.bus.send_http_response(
                sim_http.HttpResponse(
                    url=record.url, body_size=entry.size, sender=home_cache.name
                )
            )
            return RequestOutcome(
                timestamp=now,
                requester=index,
                url=record.url,
                size=entry.size,
                kind=ServiceKind.REMOTE_HIT,
                responder=home,
                latency=PAPER_REMOTE_HIT_LATENCY,
            )

        # Home miss: home fetches from origin, stores, relays downstream.
        origin_request = sim_http.HttpRequest(url=record.url, sender=home_cache.name)
        self.bus.send_http_request(origin_request)
        self.bus.send_http_response(
            sim_http.HttpResponse(url=record.url, body_size=record.size, sender="origin")
        )
        home_cache.admit(Document(record.url, record.size), now)
        self.bus.send_http_response(
            sim_http.HttpResponse(
                url=record.url, body_size=record.size, sender=home_cache.name
            )
        )
        return RequestOutcome(
            timestamp=now,
            requester=index,
            url=record.url,
            size=record.size,
            kind=ServiceKind.MISS,
            responder=home,
            latency=PAPER_MISS_LATENCY,
        )
