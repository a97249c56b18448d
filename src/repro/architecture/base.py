"""Shared machinery for cooperative cache groups.

A :class:`CooperativeGroup` owns N proxy caches, a placement scheme, a
topology and a message bus, and exposes one operation —
:meth:`CooperativeGroup.process` — that resolves a client request exactly
the way the paper's Section 3.3 walks through it: local lookup, ICP probe,
HTTP fetch from a responder or the origin, and the scheme's placement
decisions on the way back.

Subclasses (:class:`~repro.architecture.distributed.DistributedGroup`,
:class:`~repro.architecture.hierarchical.HierarchicalGroup`) differ only in
who gets probed and how group-wide misses escalate.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.cache.document import Document
from repro.cache.admission import make_admission
from repro.cache.expiration import ExpirationAgeTracker
from repro.cache.replacement import make_policy
from repro.cache.store import ProxyCache
from repro.core.outcomes import RequestOutcome
from repro.core.placement import PlacementScheme
from repro.errors import SimulationError
from repro.network.bus import MessageBus
from repro.network.topology import Topology
from repro.protocol import http as sim_http
from repro.protocol import icp
from repro.trace.record import TraceRecord


class CooperativeGroup:
    """Base class for cooperative cache groups.

    Args:
        caches: The member proxy caches (index == topology index).
        scheme: Placement scheme making store/refresh decisions.
        topology: Who is sibling/parent of whom.
        seed: Seed for ICP reply loss injection.
        icp_loss_rate: Probability that an individual ICP reply datagram is
            lost (ICP rides UDP). A lost positive reply makes the requester
            believe that peer misses — a *false miss* — so it may fetch from
            the origin despite a group copy existing. 0.0 (default) models
            the paper's lossless LAN.
    """

    def __init__(
        self,
        caches: Sequence[ProxyCache],
        scheme: PlacementScheme,
        topology: Topology,
        seed: int = 0,
        icp_loss_rate: float = 0.0,
    ):
        if len(caches) != topology.num_caches:
            raise SimulationError(
                f"{len(caches)} caches but topology declares {topology.num_caches}"
            )
        if not 0.0 <= icp_loss_rate <= 1.0:
            raise SimulationError(
                f"icp_loss_rate must be within [0, 1], got {icp_loss_rate}"
            )
        self.icp_loss_rate = icp_loss_rate
        #: ICP replies dropped by loss injection (false misses may follow).
        self.icp_replies_lost = 0
        self.caches: List[ProxyCache] = list(caches)
        self.scheme = scheme
        self.topology = topology
        self.bus = MessageBus()
        #: Optional :class:`repro.obs.events.RunRecorder`; when set, the
        #: protocol steps below emit placement/promotion events at the
        #: exact decision points. Reporting only — never consulted for
        #: behaviour.
        self.observer = None
        self._rng = random.Random(seed)
        self._request_number = 0

    # ------------------------------------------------------------------ #
    # Request entry point
    # ------------------------------------------------------------------ #

    def process(self, index: int, record: TraceRecord) -> RequestOutcome:
        """Resolve the client request in ``record`` arriving at cache ``index``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared protocol steps
    # ------------------------------------------------------------------ #

    def _next_request_number(self) -> int:
        self._request_number = (self._request_number + 1) % 0xFFFFFFFF
        return self._request_number

    def _icp_probe(self, requester: int, targets: Sequence[int], url: str) -> List[int]:
        """Send an ICP query to every target; return indices that hold ``url``.

        One query datagram per neighbour plus one reply each — identical
        message counts for both schemes, which is how the bus substantiates
        the paper's zero-overhead claim. The exchange is accounted in bulk
        via :meth:`MessageBus.count_icp_probe` rather than one datagram
        object per neighbour; counters and holder sets are identical to the
        datagram-by-datagram path.
        """
        self._next_request_number()
        holders: List[int] = []
        caches = self.caches
        loss_rate = self.icp_loss_rate
        for target in targets:
            has_doc = url in caches[target]
            if loss_rate and self._rng.random() < loss_rate:
                # The reply left the responder but never reached the
                # requester; the requester treats this peer as a miss.
                self.icp_replies_lost += 1
                continue
            if has_doc:
                holders.append(target)
        self.bus.count_icp_probe(
            len(targets), icp.query_wire_length(url), icp.reply_wire_length(url)
        )
        return holders

    def _choose_responder(self, holders: Sequence[int]) -> int:
        """The positive replier that serves the remote hit.

        The lowest index: a deterministic stand-in for "the first ICP
        reply" (Section 3.3).
        """
        if not holders:
            raise SimulationError("cannot choose a responder from no holders")
        return min(holders)

    def _remote_fetch(
        self, requester: int, responder: int, url: str, now: float
    ) -> Tuple[Document, "RemoteHitAudit"]:
        """Full remote-hit exchange: HTTP request + response with EA piggyback.

        The requester's expiration age rides the request; the responder's
        rides the response (Section 3.3). The scheme decides storage and
        refresh; this method applies the responder side (refresh or not)
        and admission at the requester.
        """
        requester_cache = self.caches[requester]
        responder_cache = self.caches[responder]
        resident = responder_cache.get_entry(url)
        if resident is None:
            raise SimulationError(
                f"responder {responder} lost {url!r} between ICP reply and HTTP fetch"
            )
        decision = self.scheme.remote_hit(
            requester_cache, responder_cache, now, size=resident.size
        )

        request = sim_http.HttpRequest(url=url, sender=requester_cache.name)
        request.with_expiration_age(decision.requester_age)
        self.bus.send_http_request(request)

        entry = responder_cache.serve_remote(url, now, refresh=decision.refresh_responder)
        assert entry is not None  # checked above
        response = sim_http.HttpResponse(
            url=url, body_size=entry.size, sender=responder_cache.name
        )
        response.with_expiration_age(decision.responder_age)
        self.bus.send_http_response(response)

        obs = self.observer
        if obs is not None:
            obs.promotion(
                now,
                responder,
                url,
                decision.requester_age,
                decision.responder_age,
                decision.refresh_responder,
            )
        document = entry.document
        stored = False
        if decision.store_at_requester:
            stored = requester_cache.admit(document, now).admitted
        else:
            requester_cache.stats.placements_declined += 1
        if obs is not None:
            obs.placement_remote(
                now,
                requester,
                url,
                entry.size,
                decision.requester_age,
                decision.responder_age,
                stored,
                decision.refresh_responder,
            )
        return document, RemoteHitAudit(
            stored_at_requester=stored,
            responder_refreshed=decision.refresh_responder,
            requester_age=decision.requester_age,
            responder_age=decision.responder_age,
        )

    def _origin_fetch(self, requester: int, url: str, size: int, now: float) -> bool:
        """Fetch ``url`` from the origin server into cache ``requester``.

        Returns whether a copy was stored (the scheme decides; both schemes
        store at the requester on a distributed-architecture miss).
        """
        requester_cache = self.caches[requester]
        request = sim_http.HttpRequest(url=url, sender=requester_cache.name)
        self.bus.send_http_request(request)
        response = sim_http.HttpResponse(url=url, body_size=size, sender="origin")
        self.bus.send_http_response(response)
        decision = self.scheme.origin_fetch(requester_cache, now)
        stored = False
        if decision.store:
            stored = requester_cache.admit(Document(url, size), now).admitted
        else:
            requester_cache.stats.placements_declined += 1
        obs = self.observer
        if obs is not None:
            obs.placement_origin(now, requester, url, size, decision.own_age, stored)
        return stored

    # ------------------------------------------------------------------ #
    # Group-level introspection
    # ------------------------------------------------------------------ #

    def expiration_ages(self, now: Optional[float] = None) -> List[float]:
        """Each member cache's expiration age."""
        return [cache.expiration_age(now) for cache in self.caches]

    def unique_documents(self) -> int:
        """Distinct URLs cached anywhere in the group."""
        urls = set()
        for cache in self.caches:
            urls.update(cache.urls())
        return len(urls)

    def total_copies(self) -> int:
        """Total cached entries across the group (counting replicas)."""
        return sum(len(cache) for cache in self.caches)

    def replication_factor(self) -> float:
        """Mean copies per distinct cached document (1.0 = no replication)."""
        unique = self.unique_documents()
        if unique == 0:
            return 0.0
        return self.total_copies() / unique


class RemoteHitAudit:
    """Audit data produced by :meth:`CooperativeGroup._remote_fetch`."""

    __slots__ = (
        "stored_at_requester",
        "responder_refreshed",
        "requester_age",
        "responder_age",
    )

    def __init__(
        self,
        stored_at_requester: bool,
        responder_refreshed: bool,
        requester_age: float,
        responder_age: float,
    ):
        self.stored_at_requester = stored_at_requester
        self.responder_refreshed = responder_refreshed
        self.requester_age = requester_age
        self.responder_age = responder_age


def split_capacity(
    aggregate_capacity: int,
    num_caches: int,
    capacity_shares: Optional[Sequence[float]] = None,
) -> List[int]:
    """Each cache's byte capacity, splitting ``aggregate_capacity``.

    By default each cache gets the equal X/N share the paper uses
    (Section 4.1). Pass ``capacity_shares`` — positive weights, one per
    cache — for heterogeneous groups (a small departmental proxy next to a
    big one); weights are normalised, so ``[1, 3]`` gives a 25 %/75 % split.
    Both cores split through here, so they refuse the same too-small
    capacity with the same message.
    """
    if num_caches <= 0:
        raise SimulationError("num_caches must be positive")
    if capacity_shares is None:
        weights = [1.0] * num_caches
    else:
        if len(capacity_shares) != num_caches:
            raise SimulationError(
                f"capacity_shares has {len(capacity_shares)} entries for "
                f"{num_caches} caches"
            )
        if any(share <= 0 for share in capacity_shares):
            raise SimulationError("capacity_shares must all be positive")
        weights = list(capacity_shares)
    total_weight = sum(weights)
    capacities = [int(aggregate_capacity * w / total_weight) for w in weights]
    if any(capacity <= 0 for capacity in capacities):
        raise SimulationError(
            f"aggregate capacity {aggregate_capacity} too small for "
            f"{num_caches} caches with shares {weights}"
        )
    return capacities


def build_caches(
    num_caches: int,
    aggregate_capacity: int,
    policy_name: str = "lru",
    window_mode: str = "count",
    window_size: int = 1000,
    window_seconds: float = 3600.0,
    capacity_shares: Optional[Sequence[float]] = None,
    admission_name: Optional[str] = None,
    admission_kwargs: Optional[dict] = None,
    contention_measure: Optional[str] = None,
) -> List[ProxyCache]:
    """Construct a group's caches splitting ``aggregate_capacity``.

    The split is :func:`split_capacity`'s: equal X/N shares unless
    ``capacity_shares`` weights them.

    ``contention_measure`` overrides the tracker's scoring formula
    (normally derived from the replacement policy): pass ``"lifetime"`` to
    run the EA machinery on Section 3.1's rejected Average Document Life
    Time measure (the ``ablation-measure`` experiment).
    """
    caches = []
    for i, capacity in enumerate(
        split_capacity(aggregate_capacity, num_caches, capacity_shares)
    ):
        policy = make_policy(policy_name)
        tracker = ExpirationAgeTracker(
            kind=contention_measure or policy.expiration_age_kind,
            window_mode=window_mode,
            window_size=window_size,
            window_seconds=window_seconds,
        )
        admission = (
            make_admission(admission_name, **(admission_kwargs or {}))
            if admission_name is not None
            else None
        )
        caches.append(
            ProxyCache(
                capacity,
                policy=policy,
                tracker=tracker,
                name=f"cache{i}",
                admission=admission,
            )
        )
    return caches
