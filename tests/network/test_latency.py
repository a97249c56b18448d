"""The paper's latency constants, and every group charging them."""

from __future__ import annotations

import pytest

from repro.architecture.base import build_caches
from repro.architecture.distributed import DistributedGroup
from repro.architecture.hashrouted import HashRoutedGroup
from repro.architecture.hierarchical import HierarchicalGroup
from repro.core.placement import AdHocScheme
from repro.digest.group import DigestDistributedGroup
from repro.network.latency import (
    PAPER_LOCAL_HIT_LATENCY,
    PAPER_MISS_LATENCY,
    PAPER_REMOTE_HIT_LATENCY,
    ServiceKind,
)
from repro.network.topology import two_level_tree
from repro.trace.record import TraceRecord

CHARGED = {
    ServiceKind.LOCAL_HIT: PAPER_LOCAL_HIT_LATENCY,
    ServiceKind.REMOTE_HIT: PAPER_REMOTE_HIT_LATENCY,
    ServiceKind.MISS: PAPER_MISS_LATENCY,
}


def test_paper_constants():
    assert (PAPER_LOCAL_HIT_LATENCY, PAPER_REMOTE_HIT_LATENCY, PAPER_MISS_LATENCY) == (
        0.146,
        0.342,
        2.784,
    )


def test_ordering_invariant():
    assert PAPER_LOCAL_HIT_LATENCY < PAPER_REMOTE_HIT_LATENCY < PAPER_MISS_LATENCY


def _distributed():
    return DistributedGroup(build_caches(2, 20_000), AdHocScheme()), (0, 1)


def _digest():
    caches = build_caches(2, 20_000)
    return DigestDistributedGroup(caches, AdHocScheme(), rebuild_interval=0.5), (0, 1)


def _hierarchical():
    tree = two_level_tree(2, 1)
    caches = build_caches(tree.num_caches, 30_000)
    return HierarchicalGroup(caches, AdHocScheme(), tree), tuple(tree.leaves())


def _hashrouted():
    group = HashRoutedGroup(build_caches(2, 20_000))
    home = group.home_of("http://x/a")
    return group, (home, 1 - home)


@pytest.mark.parametrize("build", [_distributed, _digest, _hierarchical, _hashrouted])
def test_every_group_charges_the_constant_of_its_service_kind(build):
    """A miss, a local hit and a remote hit of one URL each cost their
    kind's paper constant, whatever the document's size."""
    group, (first, second) = build()
    url = "http://x/a"
    outcomes = [
        group.process(first, TraceRecord(1.0, "c", url, 5000)),
        group.process(first, TraceRecord(2.0, "c", url, 5000)),
        group.process(second, TraceRecord(3.0, "c", url, 5000)),
    ]
    kinds = [o.kind for o in outcomes]
    assert kinds[:2] == [ServiceKind.MISS, ServiceKind.LOCAL_HIT]
    assert kinds[2] is not ServiceKind.LOCAL_HIT
    assert ServiceKind.REMOTE_HIT in kinds
    assert [o.latency for o in outcomes] == [CHARGED[k] for k in kinds]
