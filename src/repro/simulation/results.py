"""Simulation result container with JSON serialisation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.cache.stats import CacheStats
from repro.errors import SimulationError
from repro.network.bus import MessageCounters
from repro.simulation.metrics import GroupMetrics


def _jsonable(value: float) -> Any:
    """JSON has no Infinity literal; encode it as the string 'inf'."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _revive(value: Any) -> Any:
    """Inverse of :func:`_jsonable`."""
    if value == "inf":
        return math.inf
    return value


def _flat_asdict(stats) -> Dict[str, Any]:
    """``dataclasses.asdict`` for the flat stats blocks, without the
    recursive deep-copy machinery — the manifest digest serialises every
    result, so this sits on the obs layer's fixed per-run cost."""
    return {name: getattr(stats, name) for name in stats.__dataclass_fields__}


def _dataclass_from(cls, payload: Dict[str, Any]):
    """Rebuild a stats dataclass from a dict, ignoring derived extras.

    :meth:`SimulationResult.to_dict` mixes computed rates into the metrics
    block; only real fields feed the constructor.
    """
    names = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in payload.items() if key in names})


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes:
        config: The run's configuration as a plain dict (JSON-safe echo).
        metrics: Group request-resolution counters and rates.
        message_counters: Protocol traffic accounting.
        cache_stats: Per-cache counter blocks, index-aligned with the group.
        expiration_ages: Per-cache expiration age at end of run.
        avg_cache_expiration_age: Group mean (Table 1's metric).
        unique_documents: Distinct URLs cached anywhere at end of run.
        total_copies: Cached entries including replicas at end of run.
        replication_factor: ``total_copies / unique_documents``.
        estimated_latency: Paper Eq. 6 value with the paper's constants.
        manifest: Optional ``repro-manifest/1`` provenance record attached
            by :mod:`repro.obs.session`. Deliberately **excluded** from
            ``to_dict``/``to_json``/``from_dict``: it carries wall time —
            the one non-deterministic quantity — and serialised results
            must stay byte-comparable across engines, runs, and the memo
            store (which persists manifests as a sidecar instead).
    """

    config: Dict[str, Any]
    metrics: GroupMetrics
    message_counters: MessageCounters
    cache_stats: List[CacheStats]
    expiration_ages: List[float]
    avg_cache_expiration_age: float
    unique_documents: int
    total_copies: int
    replication_factor: float
    estimated_latency: float
    manifest: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to JSON-serialisable primitives."""
        return {
            "config": self.config,
            "metrics": {
                **_flat_asdict(self.metrics),
                "hit_rate": self.metrics.hit_rate,
                "byte_hit_rate": self.metrics.byte_hit_rate,
                "local_hit_rate": self.metrics.local_hit_rate,
                "remote_hit_rate": self.metrics.remote_hit_rate,
                "miss_rate": self.metrics.miss_rate,
                "mean_measured_latency": self.metrics.mean_measured_latency,
            },
            "message_counters": _flat_asdict(self.message_counters),
            "cache_stats": [_flat_asdict(stats) for stats in self.cache_stats],
            "expiration_ages": [_jsonable(age) for age in self.expiration_ages],
            "avg_cache_expiration_age": _jsonable(self.avg_cache_expiration_age),
            "unique_documents": self.unique_documents,
            "total_copies": self.total_copies,
            "replication_factor": self.replication_factor,
            "estimated_latency": self.estimated_latency,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output.

        The round trip is exact: ``from_dict(json.loads(r.to_json()))``
        serialises back to byte-identical JSON (floats survive via repr
        round-tripping; infinities via the ``"inf"`` sentinel). The memo
        store relies on this to make cached sweeps indistinguishable from
        fresh simulations.

        Raises:
            SimulationError: when the payload is missing required blocks.
        """
        try:
            return cls(
                config=dict(payload["config"]),
                metrics=_dataclass_from(GroupMetrics, payload["metrics"]),
                message_counters=_dataclass_from(
                    MessageCounters, payload["message_counters"]
                ),
                cache_stats=[
                    _dataclass_from(CacheStats, block)
                    for block in payload["cache_stats"]
                ],
                expiration_ages=[_revive(age) for age in payload["expiration_ages"]],
                avg_cache_expiration_age=_revive(payload["avg_cache_expiration_age"]),
                unique_documents=payload["unique_documents"],
                total_copies=payload["total_copies"],
                replication_factor=payload["replication_factor"],
                estimated_latency=payload["estimated_latency"],
            )
        except (KeyError, TypeError) as exc:
            raise SimulationError(f"malformed simulation result payload: {exc}") from exc

    def summary(self) -> str:
        """One-line human summary for logs and CLI output."""
        m = self.metrics
        age = self.avg_cache_expiration_age
        age_text = "inf" if math.isinf(age) else f"{age:.1f}s"
        return (
            f"scheme={self.config.get('scheme', '?')} "
            f"requests={m.requests} hit_rate={m.hit_rate:.4f} "
            f"byte_hit_rate={m.byte_hit_rate:.4f} "
            f"local={m.local_hit_rate:.4f} remote={m.remote_hit_rate:.4f} "
            f"miss={m.miss_rate:.4f} est_latency={self.estimated_latency*1000:.0f}ms "
            f"exp_age={age_text} replication={self.replication_factor:.3f}"
        )
