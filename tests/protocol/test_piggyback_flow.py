"""End-to-end piggyback fidelity: the ages on the wire match the decisions.

The EA scheme's correctness rests on the expiration ages travelling inside
ordinary HTTP messages. These tests capture the actual messages a group
sends (via a recording bus) and verify the piggybacked header values equal
the ages the placement decision used — i.e. the simulation isn't cheating
by reading state the protocol wouldn't carry.
"""

from __future__ import annotations

import math

import pytest

from repro.architecture.base import build_caches
from repro.architecture.distributed import DistributedGroup
from repro.cache.document import Document
from repro.core.placement import EAScheme
from repro.network.bus import MessageBus
from repro.protocol.http import EXPIRATION_AGE_HEADER
from repro.trace.record import TraceRecord


class RecordingBus(MessageBus):
    """MessageBus that keeps every message for inspection."""

    def __init__(self):
        super().__init__()
        self.http_requests = []
        self.http_responses = []

    def send_http_request(self, request):
        self.http_requests.append(request)
        return super().send_http_request(request)

    def send_http_response(self, response):
        self.http_responses.append(response)
        return super().send_http_response(response)


def rec(ts: float, url: str = "http://x/D") -> TraceRecord:
    return TraceRecord(timestamp=ts, client_id="c", url=url, size=100)


def make_group():
    group = DistributedGroup(build_caches(2, 2000), EAScheme())
    group.bus = bus = RecordingBus()
    return group, bus


class TestPiggybackFidelity:
    def test_cold_remote_hit_carries_inf_ages(self):
        group, bus = make_group()
        group.process(0, rec(1.0))
        bus.http_requests.clear()
        bus.http_responses.clear()
        outcome = group.process(1, rec(2.0))
        # The inter-proxy request carries the requester's (infinite) age.
        [request] = bus.http_requests
        assert math.isinf(request.expiration_age)
        [response] = bus.http_responses
        assert math.isinf(response.expiration_age)
        assert outcome.requester_age == request.expiration_age

    def test_warm_ages_match_decision_audit(self):
        group, bus = make_group()
        # Warm both caches to distinct, finite expiration ages.
        group.caches[0].admit(Document("http://warm/a", 10), 0.0)
        group.caches[0].evict("http://warm/a", 30.0)  # responder age 30
        group.caches[1].admit(Document("http://warm/b", 10), 0.0)
        group.caches[1].evict("http://warm/b", 7.0)   # requester age 7
        group.caches[0].admit(Document("http://x/D", 100), 40.0)
        bus.http_requests.clear()
        bus.http_responses.clear()

        outcome = group.process(1, rec(50.0))
        [request] = bus.http_requests
        [response] = bus.http_responses
        assert request.expiration_age == pytest.approx(outcome.requester_age)
        assert response.expiration_age == pytest.approx(outcome.responder_age)
        assert request.expiration_age == pytest.approx(7.0)
        assert response.expiration_age == pytest.approx(30.0)

    def test_header_survives_wire_round_trip(self):
        group, bus = make_group()
        group.process(0, rec(1.0))
        bus.http_requests.clear()
        group.process(1, rec(2.0))
        from repro.protocol.http import decode_request

        [request] = bus.http_requests
        decoded = decode_request(request.encode())
        assert decoded.get_header(EXPIRATION_AGE_HEADER) is not None
        assert math.isinf(decoded.expiration_age)

    def test_origin_fetch_carries_no_age(self):
        group, bus = make_group()
        group.process(0, rec(1.0))  # group-wide miss
        [request] = bus.http_requests
        assert request.expiration_age is None
