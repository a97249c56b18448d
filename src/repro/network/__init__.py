"""Network substrate: the paper's latency constants, topologies, message accounting."""

from repro.network.bus import MessageBus, MessageCounters
from repro.network.consistent_hash import ConsistentHashRing
from repro.network.latency import (
    PAPER_LOCAL_HIT_LATENCY,
    PAPER_MISS_LATENCY,
    PAPER_REMOTE_HIT_LATENCY,
    ServiceKind,
)
from repro.network.topology import (
    StarTopology,
    Topology,
    TreeTopology,
    two_level_tree,
)

__all__ = [
    "ConsistentHashRing",
    "MessageBus",
    "MessageCounters",
    "PAPER_LOCAL_HIT_LATENCY",
    "PAPER_MISS_LATENCY",
    "PAPER_REMOTE_HIT_LATENCY",
    "ServiceKind",
    "StarTopology",
    "Topology",
    "TreeTopology",
    "two_level_tree",
]
