"""Failure-injection tests: ICP reply loss."""

from __future__ import annotations

import pytest

from repro.architecture.base import build_caches
from repro.architecture.distributed import DistributedGroup
from repro.core.placement import AdHocScheme
from repro.errors import SimulationError
from repro.network.latency import ServiceKind
from repro.simulation.replay import replay_trace
from repro.trace.record import TraceRecord
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace


def rec(ts: float, url: str = "http://x/D") -> TraceRecord:
    return TraceRecord(timestamp=ts, client_id="c", url=url, size=100)


class TestLossValidation:
    def test_rate_bounds(self):
        with pytest.raises(SimulationError):
            DistributedGroup(build_caches(2, 2000), AdHocScheme(), icp_loss_rate=1.5)
        with pytest.raises(SimulationError):
            DistributedGroup(build_caches(2, 2000), AdHocScheme(), icp_loss_rate=-0.1)


class TestLossBehaviour:
    def test_total_loss_forces_false_misses(self):
        group = DistributedGroup(
            build_caches(3, 30_000), AdHocScheme(), icp_loss_rate=1.0
        )
        group.process(0, rec(1.0))
        outcome = group.process(1, rec(2.0))
        # Cache 0 has the document but every reply is lost.
        assert outcome.kind is ServiceKind.MISS
        assert group.icp_replies_lost > 0

    def test_zero_loss_is_default_behaviour(self):
        group = DistributedGroup(build_caches(3, 30_000), AdHocScheme())
        group.process(0, rec(1.0))
        assert group.process(1, rec(2.0)).kind is ServiceKind.REMOTE_HIT
        assert group.icp_replies_lost == 0

    def test_loss_is_deterministic_per_seed(self):
        trace = generate_trace(
            SyntheticTraceConfig(num_requests=1000, num_documents=150, num_clients=8, seed=5)
        )
        rates = []
        for _ in range(2):
            group = DistributedGroup(
                build_caches(3, 30_000), AdHocScheme(), icp_loss_rate=0.3, seed=11
            )
            rates.append(replay_trace(group, trace).hit_rate)
        assert rates[0] == rates[1]

    def test_hit_rate_degrades_with_loss(self):
        trace = generate_trace(
            SyntheticTraceConfig(num_requests=2000, num_documents=200, num_clients=8, seed=5)
        )
        hit_rates = {}
        for loss in (0.0, 0.9):
            group = DistributedGroup(
                build_caches(4, 100_000), AdHocScheme(), icp_loss_rate=loss, seed=1
            )
            hit_rates[loss] = replay_trace(group, trace).hit_rate
        assert hit_rates[0.9] < hit_rates[0.0]

    def test_requests_still_served_under_loss(self):
        trace = generate_trace(
            SyntheticTraceConfig(num_requests=500, num_documents=80, num_clients=4, seed=5)
        )
        group = DistributedGroup(
            build_caches(3, 30_000), AdHocScheme(), icp_loss_rate=0.5, seed=2
        )
        metrics = replay_trace(group, trace)
        # Loss never loses *requests*; misses go to the origin.
        assert metrics.requests == len(trace)
        assert metrics.local_hits + metrics.remote_hits + metrics.misses == len(trace)
