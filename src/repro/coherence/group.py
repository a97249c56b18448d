"""Coherent cooperative group: TTL freshness + If-Modified-Since validation.

Wraps the placement-aware request flow with the consistency layer real
proxies run (Squid-style TTL expiry and origin revalidation):

* A cached copy is **fresh** while ``now - fetched_at < ttl(url)``: hits on
  fresh copies behave exactly as in the base group.
* A **stale** copy triggers a validation round-trip to the origin:
  ``304 Not Modified`` (the common case) renews the copy's freshness and
  serves it — latency between a hit and a miss; ``200`` (the origin copy
  changed) refetches the body, replacing every group copy's staleness with
  a demand fetch at the requester — a *coherence miss*.

The wrapper keeps the base group's placement semantics untouched, so the
EA-vs-ad-hoc comparison stays apples-to-apples with coherence traffic
layered on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.architecture.base import CooperativeGroup
from repro.coherence.model import ChangeModel, TTLModel
from repro.core.outcomes import RequestOutcome
from repro.errors import CacheConfigurationError
from repro.network.latency import PAPER_MISS_LATENCY, ServiceKind
from repro.protocol import http as sim_http
from repro.trace.record import TraceRecord

#: Default validation round-trip: an origin RTT without a body transfer.
DEFAULT_VALIDATION_LATENCY = 0.8


@dataclass
class CoherenceStats:
    """Counters for the consistency layer."""

    fresh_hits: int = 0
    validations: int = 0
    not_modified: int = 0
    coherence_misses: int = 0

    @property
    def validation_hit_rate(self) -> float:
        """Fraction of validations answered 304 (copy still valid)."""
        return self.not_modified / self.validations if self.validations else 0.0


class CoherentGroup:
    """Consistency wrapper around any cooperative group.

    Args:
        group: The placement-aware group serving requests.
        ttl_model: Freshness lifetimes.
        change_model: Origin change process.
        validation_latency: Seconds for an If-Modified-Since round-trip.
    """

    def __init__(
        self,
        group: CooperativeGroup,
        ttl_model: Optional[TTLModel] = None,
        change_model: Optional[ChangeModel] = None,
        validation_latency: float = DEFAULT_VALIDATION_LATENCY,
    ):
        if validation_latency < 0:
            raise CacheConfigurationError("validation_latency must be non-negative")
        self.group = group
        self.ttl_model = ttl_model if ttl_model is not None else TTLModel()
        self.change_model = change_model if change_model is not None else ChangeModel()
        self.validation_latency = validation_latency
        self.stats = CoherenceStats()
        # (cache_index, url) -> origin-fetch timestamp backing that copy.
        self._fetched_at: Dict[Tuple[int, str], float] = {}

    # ------------------------------------------------------------------ #
    # Freshness bookkeeping
    # ------------------------------------------------------------------ #

    def _record_copies(self, outcome: RequestOutcome, now: float) -> None:
        """Track origin-fetch times for copies created by this outcome."""
        if outcome.kind is ServiceKind.MISS:
            source_time = now
        elif outcome.responder is not None:
            source_time = self._fetched_at.get(
                (outcome.responder, outcome.url), now
            )
        else:
            return
        if outcome.stored_at_requester:
            self._fetched_at[(outcome.requester, outcome.url)] = source_time
        if outcome.kind is ServiceKind.MISS and outcome.responder is not None:
            # Hierarchical miss resolved through a parent that may have
            # kept a copy as well.
            self._fetched_at[(outcome.responder, outcome.url)] = source_time

    def _is_fresh(self, index: int, url: str, now: float) -> bool:
        fetched_at = self._fetched_at.get((index, url))
        if fetched_at is None:
            # Copy predates the wrapper (or provenance untracked): treat the
            # cache entry's own timestamp as the fetch time.
            entry = self.group.caches[index].get_entry(url)
            if entry is None:
                return False
            fetched_at = entry.entry_time
            self._fetched_at[(index, url)] = fetched_at
        return now - fetched_at < self.ttl_model.ttl_for(url)

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #

    def process(self, index: int, record: TraceRecord) -> RequestOutcome:
        """Serve one request with freshness checks layered on placement."""
        now = record.timestamp
        outcome = self.group.process(index, record)
        self._record_copies(outcome, now)
        if outcome.kind is ServiceKind.MISS:
            return outcome

        serving_cache = (
            outcome.requester
            if outcome.kind is ServiceKind.LOCAL_HIT
            else outcome.responder
        )
        assert serving_cache is not None
        if self._is_fresh(serving_cache, record.url, now):
            self.stats.fresh_hits += 1
            return outcome

        # Stale copy: validate with the origin.
        self.stats.validations += 1
        request = sim_http.HttpRequest(
            url=record.url, sender=self.group.caches[serving_cache].name
        )
        request.headers["If-Modified-Since"] = f"{self._fetched_at[(serving_cache, record.url)]:.3f}"
        self.group.bus.send_http_request(request)

        fetched_at = self._fetched_at[(serving_cache, record.url)]
        if not self.change_model.changed_between(record.url, fetched_at, now):
            # 304: renew freshness everywhere this copy's provenance is known.
            self.stats.not_modified += 1
            self.group.bus.send_http_response(
                sim_http.HttpResponse(url=record.url, status=304, body_size=0, sender="origin")
            )
            self._fetched_at[(serving_cache, record.url)] = now
            if outcome.stored_at_requester:
                self._fetched_at[(outcome.requester, record.url)] = now
            return RequestOutcome(
                timestamp=outcome.timestamp,
                requester=outcome.requester,
                url=outcome.url,
                size=outcome.size,
                kind=outcome.kind,
                responder=outcome.responder,
                latency=outcome.latency + self.validation_latency,
                stored_at_requester=outcome.stored_at_requester,
                responder_refreshed=outcome.responder_refreshed,
                requester_age=outcome.requester_age,
                responder_age=outcome.responder_age,
                hops=outcome.hops,
            )

        # 200: the document changed — a coherence miss. The body is
        # refetched from the origin and every tracked copy becomes current.
        self.stats.coherence_misses += 1
        self.group.bus.send_http_response(
            sim_http.HttpResponse(url=record.url, body_size=outcome.size, sender="origin")
        )
        for cache_index, cache in enumerate(self.group.caches):
            if record.url in cache:
                self._fetched_at[(cache_index, record.url)] = now
        return RequestOutcome(
            timestamp=outcome.timestamp,
            requester=outcome.requester,
            url=outcome.url,
            size=outcome.size,
            kind=ServiceKind.MISS,
            responder=None,
            latency=PAPER_MISS_LATENCY,
            stored_at_requester=outcome.stored_at_requester,
        )
