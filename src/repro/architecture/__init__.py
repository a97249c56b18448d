"""Cooperative cache group architectures: distributed (flat) and hierarchical."""

from repro.architecture.base import (
    CooperativeGroup,
    RemoteHitAudit,
    build_caches,
)
from repro.architecture.distributed import DistributedGroup
from repro.architecture.hashrouted import HashRoutedGroup
from repro.architecture.hierarchical import HierarchicalGroup

__all__ = [
    "CooperativeGroup",
    "DistributedGroup",
    "HashRoutedGroup",
    "HierarchicalGroup",
    "RemoteHitAudit",
    "build_caches",
]
