"""Content-addressed memoization of simulation results.

A sweep point is fully determined by its :class:`SimulationConfig` and the
trace it replays, so ``sha256(config_hash + trace_fingerprint)`` is a sound
content address: equal keys mean byte-identical results, and any change to
either input (capacity, scheme, seed, trace records, ...) lands on a fresh
key. The engine is not part of the key — :func:`repro.obs.manifest.config_hash`
drops it, because every engine produces the same bytes — so one entry
serves every engine. There is no explicit invalidation — stale entries are
simply never addressed again.

The on-disk layer is :class:`repro.experiments.store.SimulationResultStore`;
this module adds the key derivation and an in-process cache so repeated
lookups within one run never touch the filesystem twice.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.experiments.store import SimulationResultStore
from repro.obs.manifest import config_hash
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import SimulationConfig
from repro.trace.record import Trace
from repro.trace.stream import source_fingerprint

#: Bump when the result schema or key derivation changes incompatibly; old
#: artifacts then miss instead of reviving into the wrong shape.
#: v2: CacheStats grew the EA decision counters (placements_declined,
#: promotions_granted, promotions_withheld), changing the result round trip.
#: v3: the config part of the key is ``config_hash``, which drops ``engine``.
MEMO_SCHEMA_VERSION = 3


def sweep_memo_key(config: SimulationConfig, trace: Trace) -> str:
    """Content address of the simulation ``(config, trace)`` would produce.

    ``trace`` may be a streamed source, provided it carries a real
    fingerprint (packed readers and synthetic streams do); an opaque
    stream raises rather than aliasing every unfingerprinted workload
    onto one key. Note a synthetic *stream* and the *materialised* trace
    of the same records fingerprint in different namespaces — sound
    (never a false hit), merely no sharing between the two forms.
    """
    payload = json.dumps(
        {
            "schema": MEMO_SCHEMA_VERSION,
            "config": config_hash(config),
            "trace": source_fingerprint(trace, strict=True),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SweepMemoStore:
    """Memo cache of sweep-point results, keyed by config + trace.

    Args:
        root: Directory holding the content-addressed JSON artifacts
            (created on demand). Share one root across drivers and
            invocations — that is the whole point.
    """

    def __init__(self, root: Union[str, Path]):
        self.store = SimulationResultStore(root)
        self._hot: Dict[str, SimulationResult] = {}
        #: Memo hits / misses observed through this handle (introspection
        #: for tests and the CLI's cache-report line).
        self.hits = 0
        self.misses = 0

    @property
    def root(self) -> Path:
        """Directory backing this memo."""
        return self.store.root

    def key(self, config: SimulationConfig, trace: Trace) -> str:
        """Content address for one sweep point."""
        return sweep_memo_key(config, trace)

    def get(self, config: SimulationConfig, trace: Trace) -> Optional[SimulationResult]:
        """The memoized result for ``(config, trace)``, or None on a miss.

        A hit echoes ``config.engine``, whichever engine filled the entry,
        so its ``to_json()`` is the bytes a fresh run would produce.
        """
        key = sweep_memo_key(config, trace)
        result = self._hot.get(key)
        if result is None:
            result = self.store.load(key)
            if result is not None:
                self._hot[key] = result
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        if result.config.get("engine") != config.engine:
            result = dataclasses.replace(
                result, config={**result.config, "engine": config.engine}
            )
        return result

    def put(
        self, config: SimulationConfig, trace: Trace, result: SimulationResult
    ) -> Path:
        """Persist a freshly simulated result; returns the artifact path.

        When the result carries a run manifest (``repro.obs``), it is
        persisted alongside as ``<key>.manifest.json`` — manifests hold
        wall time and so must stay out of the content-addressed artifact
        itself, which is byte-compared across runs.
        """
        key = sweep_memo_key(config, trace)
        self._hot[key] = result
        path = self.store.save(key, result)
        if result.manifest is not None:
            from repro.obs.manifest import write_manifest

            write_manifest(result.manifest, path.with_name(f"{key}.manifest.json"))
        return path

    def manifest_path(self, config: SimulationConfig, trace: Trace) -> Path:
        """Where :meth:`put` writes the manifest sidecar for this point."""
        key = sweep_memo_key(config, trace)
        return self.store.root / f"{key}.manifest.json"

    def __len__(self) -> int:
        return len(self.store.keys())
