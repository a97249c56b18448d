"""Hierarchical cooperative caching (paper Section 3.3, second half).

Leaves receive client requests. On a local miss a leaf ICP-probes its
siblings *and* its parent; if every probe is negative the leaf sends an HTTP
request — carrying its cache expiration age — up to its parent, which is now
"responsible to resolve the miss": it serves from its own cache if it can,
otherwise recurses toward the origin through its own parent, and on the way
back down each node applies the scheme's parent-store rule before forwarding
the document with its own expiration age piggybacked.

Chain semantics (the paper only spells out one parent level): every HTTP hop
carries the *sender's* expiration age, and every node compares itself to the
age on the request it received — i.e. to its immediate child. This is the
natural composition of the paper's two-node rule and is documented as a
design decision in DESIGN.md.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.architecture.base import CooperativeGroup
from repro.cache.document import Document
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
from repro.network.topology import TreeTopology
from repro.protocol import http as sim_http
from repro.trace.record import TraceRecord


class HierarchicalGroup(CooperativeGroup):
    """Tree-structured cooperative cache group."""

    def __init__(
        self,
        caches: Sequence[ProxyCache],
        scheme: PlacementScheme,
        topology: TreeTopology,
        seed: int = 0,
        icp_loss_rate: float = 0.0,
    ):
        if not isinstance(topology, TreeTopology):
            raise SimulationError("HierarchicalGroup requires a TreeTopology")
        super().__init__(
            caches=caches,
            scheme=scheme,
            topology=topology,
            seed=seed,
            icp_loss_rate=icp_loss_rate,
        )

    def process(self, index: int, record: TraceRecord) -> RequestOutcome:
        """Resolve one client request at cache ``index`` (normally a leaf)."""
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

        # "A cache that experiences a local miss sends out an ICP query to
        # all its siblings and parents."
        probe_targets = list(self.topology.siblings_of(index))
        parent = self.topology.parent_of(index)
        if parent is not None:
            probe_targets.append(parent)
        holders = self._icp_probe(index, probe_targets, record.url)

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
                hops=1,
            )

        if parent is None:
            # Top-level miss: fetch from origin directly (distributed rule).
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

        requester_age = cache.expiration_age(now)
        request = sim_http.HttpRequest(url=record.url, sender=cache.name)
        request.with_expiration_age(requester_age)
        self.bus.send_http_request(request)

        document, found_at, upstream_age, hops = self._resolve_at(
            parent, record.url, record.size, requester_age, now
        )

        child_decision = self.scheme.child_store(cache, upstream_age, now)
        stored = False
        if child_decision.store:
            stored = cache.admit(document, now).admitted
        else:
            cache.stats.placements_declined += 1
        obs = self.observer
        if obs is not None:
            obs.placement_node(
                now,
                "child",
                index,
                record.url,
                document.size,
                child_decision.own_age,
                upstream_age,
                stored,
            )

        if found_at is not None:
            kind, latency = ServiceKind.REMOTE_HIT, PAPER_REMOTE_HIT_LATENCY
        else:
            kind, latency = ServiceKind.MISS, PAPER_MISS_LATENCY
        return RequestOutcome(
            timestamp=now,
            requester=index,
            url=record.url,
            size=document.size,
            kind=kind,
            responder=found_at,
            latency=latency,
            stored_at_requester=stored,
            requester_age=requester_age,
            responder_age=upstream_age,
            hops=hops,
        )

    def _resolve_at(
        self, node_index: int, url: str, size: int, requester_age: float, now: float
    ) -> Tuple[Document, Optional[int], float, int]:
        """Resolve a miss at ``node_index`` on behalf of a downstream cache.

        Returns ``(document, found_at, node_age, hops)`` where ``found_at``
        is the index of the cache that held the document (None → origin)
        and ``node_age`` is this node's expiration age, piggybacked on its
        HTTP response to the child.
        """
        node = self.caches[node_index]

        if url in node:
            refresh = self.scheme.serve_refresh(node, requester_age, now)
            entry = node.serve_remote(url, now, refresh=refresh)
            assert entry is not None  # guarded by the membership check
            node_age = node.expiration_age(now)
            response = sim_http.HttpResponse(url=url, body_size=entry.size, sender=node.name)
            response.with_expiration_age(node_age)
            self.bus.send_http_response(response)
            obs = self.observer
            if obs is not None:
                obs.promotion(now, node_index, url, requester_age, node_age, refresh)
            return entry.document, node_index, node_age, 1

        grandparent = self.topology.parent_of(node_index)
        node_age = node.expiration_age(now)
        if grandparent is None:
            # Root of the hierarchy: retrieve from the origin server.
            origin_request = sim_http.HttpRequest(url=url, sender=node.name)
            self.bus.send_http_request(origin_request)
            origin_response = sim_http.HttpResponse(url=url, body_size=size, sender="origin")
            self.bus.send_http_response(origin_response)
            document = Document(url, size)
            found_at: Optional[int] = None
            hops = 1
        else:
            request = sim_http.HttpRequest(url=url, sender=node.name)
            request.with_expiration_age(node_age)
            self.bus.send_http_request(request)
            document, found_at, _upstream_age, above = self._resolve_at(
                grandparent, url, size, node_age, now
            )
            hops = above + 1

        decision = self.scheme.parent_store(node, requester_age, now)
        stored_here = False
        if decision.store:
            stored_here = node.admit(document, now).admitted
        else:
            node.stats.placements_declined += 1
        obs = self.observer
        if obs is not None:
            obs.placement_node(
                now,
                "parent",
                node_index,
                url,
                document.size,
                decision.own_age,
                requester_age,
                stored_here,
            )
        node_age = node.expiration_age(now)
        response = sim_http.HttpResponse(url=url, body_size=document.size, sender=node.name)
        response.with_expiration_age(node_age)
        self.bus.send_http_response(response)
        return document, found_at, node_age, hops
