"""Digest-located distributed group: Summary Cache instead of ICP.

Identical to :class:`~repro.architecture.distributed.DistributedGroup`
except that local misses consult the :class:`DigestDirectory` (no per-miss
ICP traffic). A false-positive candidate costs a wasted inter-proxy HTTP
round-trip (the peer answers 404); a stale negative silently downgrades a
would-be remote hit to an origin fetch. Placement decisions (ad-hoc or EA)
are unchanged — location and placement compose independently, which is the
point of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.architecture.distributed import DistributedGroup
from repro.cache.store import ProxyCache
from repro.core.outcomes import RequestOutcome
from repro.core.placement import PlacementScheme
from repro.digest.directory import DigestDirectory
from repro.errors import SimulationError
from repro.network.latency import (
    PAPER_LOCAL_HIT_LATENCY,
    PAPER_MISS_LATENCY,
    PAPER_REMOTE_HIT_LATENCY,
    ServiceKind,
)
from repro.protocol import http as sim_http
from repro.trace.record import TraceRecord


class DigestDistributedGroup(DistributedGroup):
    """Flat cooperative group using Bloom-filter digests for location.

    Args:
        rebuild_interval: Simulated seconds between digest publishes.
        false_positive_rate: Target Bloom FP rate for each digest.
        (remaining args as for DistributedGroup)
    """

    def __init__(
        self,
        caches: Sequence[ProxyCache],
        scheme: PlacementScheme,
        seed: int = 0,
        rebuild_interval: float = 60.0,
        false_positive_rate: float = 0.01,
    ):
        super().__init__(caches=caches, scheme=scheme, seed=seed)
        self.directory = DigestDirectory(
            caches,
            rebuild_interval=rebuild_interval,
            false_positive_rate=false_positive_rate,
        )
        #: Wasted HTTP round-trips caused by digest false positives.
        self.failed_fetch_attempts = 0

    def process(self, index: int, record: TraceRecord) -> RequestOutcome:
        """Resolve a request using digest candidates instead of ICP probes."""
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

        candidates = self.directory.candidates(record.url, exclude=index, now=now)
        # Try candidates cheapest-first (same ordering rule as ICP replies).
        for candidate in sorted(candidates):
            if record.url in self.caches[candidate]:
                document, audit = self._remote_fetch(index, candidate, record.url, now)
                return RequestOutcome(
                    timestamp=now,
                    requester=index,
                    url=record.url,
                    size=document.size,
                    kind=ServiceKind.REMOTE_HIT,
                    responder=candidate,
                    latency=PAPER_REMOTE_HIT_LATENCY,
                    stored_at_requester=audit.stored_at_requester,
                    responder_refreshed=audit.responder_refreshed,
                    requester_age=audit.requester_age,
                    responder_age=audit.responder_age,
                )
            self._failed_fetch(index, candidate, record.url, now)

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

    def _failed_fetch(self, requester: int, candidate: int, url: str, now: float) -> None:
        """Account the wasted round-trip of a false-positive candidate."""
        self.failed_fetch_attempts += 1
        request = sim_http.HttpRequest(url=url, sender=self.caches[requester].name)
        request.with_expiration_age(self.caches[requester].expiration_age(now))
        self.bus.send_http_request(request)
        self.bus.send_http_response(
            sim_http.HttpResponse(
                url=url, status=404, body_size=0, sender=self.caches[candidate].name
            )
        )
