"""Run manifests: the ``repro-manifest/1`` provenance record.

A manifest pins down everything needed to reproduce or audit one
simulation run: the config hash (same canonical-JSON digest the sweep memo
store keys on), the trace fingerprint, which engine was requested and
which actually ran (fallback is observable), why a batch run left its
fast loop (``fastloop_reason``), the seed, measured wall time,
and — when an event stream was written — the file's SHA-256, line count,
and per-type event counts.

Wall time is the one non-deterministic field, which is why the manifest is
attached to :class:`~repro.simulation.results.SimulationResult` as a
*side-channel* attribute excluded from ``to_dict``/``to_json``: results
stay byte-comparable across engines and runs while provenance rides along.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.atomicio import atomic_write_text

#: Schema identifier for manifest payloads.
MANIFEST_SCHEMA = "repro-manifest/1"


def _canonical_digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1024)
def config_hash(config) -> str:
    """SHA-256 of the config's *simulation semantics* in canonical JSON.

    The ``engine`` field is excluded: it selects an execution strategy
    with byte-identical results and byte-identical event streams, so two
    runs of the same workload on different engines must share one config
    hash (the ``run`` header is part of the cross-engine stream-identity
    contract; which engine actually ran is recorded separately in the
    manifest as ``engine_requested`` / ``engine_resolved``).

    Memoised by config value — :class:`SimulationConfig` is a frozen
    dataclass, and a sweep hashes the same config once per point, so the
    cache keeps repeated observed runs off the ≤2% overhead budget.
    """
    payload = config.to_dict()
    payload.pop("engine", None)
    return _canonical_digest(payload)


def result_digest(result) -> str:
    """SHA-256 of the result's serialised form — the cross-engine identity.

    Hashes the *compact* JSON form (``indent=None``): byte-for-byte it
    differs from the pretty ``to_json()`` default only in whitespace, so
    it carries the same identity, and the compact encoder keeps this off
    the obs layer's ≤2% disabled-overhead budget.
    """
    return hashlib.sha256(result.to_json(indent=None).encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    """SHA-256 of a file's bytes (event streams, memo artifacts)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    config,
    trace_fingerprint: str,
    engine_requested: str,
    engine_resolved: str,
    wall_time_s: float,
    result,
    snapshot_interval: float = 0.0,
    events_path: Optional[str] = None,
    event_counts: Optional[Dict[str, int]] = None,
    peak_memory_bytes: Optional[int] = None,
    fastloop_reason: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble a ``repro-manifest/1`` dict for one completed run.

    ``fastloop_reason`` is what
    :func:`repro.fastpath.batch.batch_fastloop_reason` returned for a
    batch run whose kernel ran with its vector regimes off (``None`` when
    they ran, and for the other engines): whether they run depends on the
    platform as well as the config, so ``engine_resolved`` alone does not
    say.

    ``peak_memory_bytes`` is the :mod:`tracemalloc` high-water mark when
    the session tracked it (``None`` otherwise) — like wall time, an
    execution fact rather than a result, so it lives here out-of-band.
    """
    events: Optional[Dict[str, Any]] = None
    if events_path is not None:
        counts = dict(sorted((event_counts or {}).items()))
        events = {
            "path": events_path,
            "sha256": file_digest(events_path),
            "lines": sum(counts.values()),
            "counts": counts,
        }
    return {
        "schema": MANIFEST_SCHEMA,
        "config": config_hash(config),
        "trace": trace_fingerprint,
        "engine_requested": engine_requested,
        "engine_resolved": engine_resolved,
        "fastloop_reason": fastloop_reason,
        "seed": config.seed,
        "wall_time_s": wall_time_s,
        "peak_memory_bytes": peak_memory_bytes,
        "snapshot_interval": snapshot_interval,
        "events": events,
        "result_sha256": result_digest(result),
    }


def write_manifest(manifest: Dict[str, Any], path: str) -> None:
    """Write a manifest as stable, human-diffable JSON, atomically."""
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
