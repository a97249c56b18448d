"""Distributed (flat) cooperative caching — the paper's evaluated setup.

"Cooperative caching architecture of these cache groups is distributed
cooperative caching. So all the caches in the group are at the same level of
hierarchy. For any misses in the cache group, it is assumed that the cache
where the request originated retrieves the document from the origin server."
(Section 4.1)
"""

from __future__ import annotations

from typing import Sequence

from repro.architecture.base import CooperativeGroup
from repro.cache.store import ProxyCache
from repro.core.outcomes import RequestOutcome
from repro.core.placement import PlacementScheme
from repro.errors import SimulationError
from repro.network.latency import (
    PAPER_LOCAL_HIT_LATENCY,
    PAPER_MISS_LATENCY,
    PAPER_REMOTE_HIT_LATENCY,
    ServiceKind,
)
from repro.network.topology import StarTopology
from repro.trace.record import TraceRecord


class DistributedGroup(CooperativeGroup):
    """Flat group of sibling caches probed via ICP on every local miss."""

    def __init__(
        self,
        caches: Sequence[ProxyCache],
        scheme: PlacementScheme,
        seed: int = 0,
        icp_loss_rate: float = 0.0,
    ):
        super().__init__(
            caches=caches,
            scheme=scheme,
            topology=StarTopology(len(caches)),
            seed=seed,
            icp_loss_rate=icp_loss_rate,
        )
        # Sibling sets are static; resolving them per miss is pure overhead.
        self._siblings = [
            tuple(self.topology.siblings_of(i)) for i in range(len(self.caches))
        ]

    def process(self, index: int, record: TraceRecord) -> RequestOutcome:
        """Resolve one client request at cache ``index``.

        Local hit → serve. Local miss → ICP-probe every sibling; a positive
        reply triggers the remote-hit exchange (with the scheme's placement
        decisions); all-negative triggers an origin fetch stored locally.
        """
        if record.size <= 0:
            raise SimulationError(
                f"record for {record.url!r} has non-positive size; patch the trace first"
            )
        now = record.timestamp
        cache = self.caches[index]

        entry = cache.lookup(record.url, now)
        if entry is not None:
            return RequestOutcome(
                timestamp=now,
                requester=index,
                url=record.url,
                size=entry.size,
                kind=ServiceKind.LOCAL_HIT,
                latency=PAPER_LOCAL_HIT_LATENCY,
            )

        holders = self._icp_probe(index, self._siblings[index], record.url)
        if holders:
            responder = self._choose_responder(holders)
            document, audit = self._remote_fetch(index, responder, record.url, now)
            return RequestOutcome(
                timestamp=now,
                requester=index,
                url=record.url,
                size=document.size,
                kind=ServiceKind.REMOTE_HIT,
                responder=responder,
                latency=PAPER_REMOTE_HIT_LATENCY,
                stored_at_requester=audit.stored_at_requester,
                responder_refreshed=audit.responder_refreshed,
                requester_age=audit.requester_age,
                responder_age=audit.responder_age,
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
