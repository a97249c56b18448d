"""The serialisation oracle: ``RunRecorder`` as it was before line templates.

``repro.obs.events.RunRecorder`` formats the per-decision lines directly;
its contract is byte identity with one ``json.dumps`` of the payload dict
per line. This module is that reference, kept outside the code it checks:
the class below is the parent commit's recorder moved here verbatim
(dict-building emitters, ``_emit``, framing, snapshots, eviction hook),
with its own copy of ``age_json`` so a change to the sentinel in
``events.py`` cannot move both sides at once. ``age_ranks`` and
``classify_age_comparison`` are not serialisation and are shared. One
method was added since: ``requests``, the kernel's range form of
``request``, written as a loop over this class's own ``request``.
``tests/obs/test_line_templates.py`` drives both recorders with the same
calls and compares the streams line by line.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.placement import classify_age_comparison
from repro.obs.events import EVENTS_SCHEMA, SnapshotRow, age_ranks


def age_json(age: float) -> Any:
    """Expiration age as a JSON-safe value (``+inf`` → the string "inf")."""
    if math.isinf(age):
        return "inf"
    return age


class ReferenceRecorder:
    """The parent commit's ``RunRecorder``: one dict and one ``json.dumps`` per line.

    Args:
        sink: File-like object with ``write`` (text mode). The recorder
            writes one compact JSON object per line and never closes the
            sink — the owning session does.
        snapshot_interval: Simulation-time seconds between ``snapshot``
            events; ``0`` disables snapshots. The timer arms on the first
            request (first tick due one interval after the first
            timestamp), so streams do not depend on wall clocks or trace
            start offsets.
    """

    __slots__ = ("snapshot_interval", "counts", "_write", "_next_snapshot", "_requests")

    def __init__(self, sink, snapshot_interval: float = 0.0):
        if snapshot_interval < 0:
            snapshot_interval = 0.0
        self.snapshot_interval = snapshot_interval
        #: Lines emitted so far, by event type (feeds the run manifest).
        self.counts: Dict[str, int] = {}
        self._write = sink.write
        self._next_snapshot: Optional[float] = None
        self._requests = 0

    # ------------------------------------------------------------------ #
    # Emission core
    # ------------------------------------------------------------------ #

    def _emit(self, kind: str, payload: Dict[str, Any]) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._write(json.dumps(payload, separators=(",", ":")) + "\n")

    # ------------------------------------------------------------------ #
    # Stream framing
    # ------------------------------------------------------------------ #

    def begin(self, config_hash: str, trace_fingerprint: str) -> None:
        """Emit the ``run`` header. Call once, before any other event."""
        self._emit(
            "run",
            {
                "e": "run",
                "schema": EVENTS_SCHEMA,
                "config": config_hash,
                "trace": trace_fingerprint,
                "snapshot_interval": self.snapshot_interval,
            },
        )

    def end(self) -> None:
        """Emit the ``end`` trailer with the request-event count."""
        self._emit("end", {"e": "end", "requests": self._requests})

    # ------------------------------------------------------------------ #
    # Per-request events (called by both engines at mirrored points)
    # ------------------------------------------------------------------ #

    def request(
        self,
        t: float,
        cache: int,
        url: str,
        kind: str,
        size: int,
        responder: Optional[int],
        stored: bool,
        refreshed: bool,
        hops: int,
    ) -> None:
        """Final outcome of one client request (last event per request)."""
        self._requests += 1
        self._emit(
            "request",
            {
                "e": "request",
                "t": t,
                "cache": cache,
                "url": url,
                "kind": kind,
                "size": size,
                "responder": responder,
                "stored": stored,
                "refreshed": refreshed,
                "hops": hops,
            },
        )

    def requests(
        self, lo, hi, ts, caches, docs, urls, outcomes, served, responders, refreshed,
        remote_hops, miss_hops,
    ) -> None:
        """The kernel's range form of :meth:`request`, as one call per row.

        Not the parent commit's code (the kernel called ``request`` per
        row then): ``urls`` holds each URL's JSON text, so it is decoded
        back and the row goes through the ``json.dumps`` above, keeping
        this an independent serialiser.
        """
        for i in range(lo, hi):
            code = outcomes[i]
            cache = caches[i]
            responder = None
            refresh = False
            if code == 0:
                kind, hops = "local_hit", 0
            elif code & 3 == 2:
                kind, hops = "remote_hit", remote_hops
                responder = responders[i]
                refresh = refreshed[i] == 1
            else:
                kind, hops = "miss", miss_hops[cache]
            self.request(
                ts[i], cache, json.loads(urls[docs[i]]), kind, served[i], responder,
                code != 0 and code < 4, refresh, hops,
            )

    def placement_remote(
        self,
        t: float,
        cache: int,
        url: str,
        size: int,
        requester_age: float,
        responder_age: float,
        stored: bool,
        refreshed: bool,
    ) -> None:
        """Requester-side verdict of a remote-hit exchange.

        ``stored`` is what actually happened (admission can still reject a
        scheme-approved copy); ``cmp`` orders requester vs responder age.
        """
        self._emit(
            "placement",
            {
                "e": "placement",
                "t": t,
                "role": "remote",
                "cache": cache,
                "url": url,
                "size": size,
                "requester_age": age_json(requester_age),
                "responder_age": age_json(responder_age),
                "cmp": classify_age_comparison(requester_age, responder_age),
                "stored": stored,
                "refreshed": refreshed,
            },
        )

    def placement_origin(
        self, t: float, cache: int, url: str, size: int, own_age: float, stored: bool
    ) -> None:
        """Store verdict for a document fetched directly from the origin."""
        self._emit(
            "placement",
            {
                "e": "placement",
                "t": t,
                "role": "origin",
                "cache": cache,
                "url": url,
                "size": size,
                "own_age": age_json(own_age),
                "stored": stored,
            },
        )

    def placement_node(
        self,
        t: float,
        role: str,
        cache: int,
        url: str,
        size: int,
        own_age: float,
        peer_age: float,
        stored: bool,
    ) -> None:
        """Hierarchical store verdict: ``role`` is ``"parent"`` or ``"child"``.

        ``peer_age`` is the expiration age piggybacked on the HTTP hop the
        node compared itself against (the child's request age for a parent,
        the upstream response age for a child).
        """
        self._emit(
            "placement",
            {
                "e": "placement",
                "t": t,
                "role": role,
                "cache": cache,
                "url": url,
                "size": size,
                "own_age": age_json(own_age),
                "peer_age": age_json(peer_age),
                "cmp": classify_age_comparison(own_age, peer_age),
                "stored": stored,
            },
        )

    def promotion(
        self,
        t: float,
        cache: int,
        url: str,
        requester_age: float,
        responder_age: float,
        granted: bool,
    ) -> None:
        """Responder-side fresh-lease verdict on a remote serve."""
        self._emit(
            "promotion",
            {
                "e": "promotion",
                "t": t,
                "cache": cache,
                "url": url,
                "requester_age": age_json(requester_age),
                "responder_age": age_json(responder_age),
                "cmp": classify_age_comparison(responder_age, requester_age),
                "granted": granted,
            },
        )

    def eviction(self, t: float, cache: int, url: str, size: int, age: float) -> None:
        """One victim removed, with the document age fed to the EA tracker."""
        self._emit(
            "evict",
            {
                "e": "evict",
                "t": t,
                "cache": cache,
                "url": url,
                "size": size,
                "age": age_json(age),
            },
        )

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def maybe_snapshot(
        self, now: float, rows_fn: Callable[[float], Sequence[SnapshotRow]]
    ) -> None:
        """Emit every snapshot tick due at or before ``now``.

        ``rows_fn(due)`` is called per tick with the tick's timestamp so
        ages are read at the tick time; in the time-window mode those reads
        trim the tracker window early, which is value-neutral (the same
        subtractions happen in the same order either way) — and both
        engines perform them identically, so results and streams agree.
        """
        interval = self.snapshot_interval
        if interval <= 0:
            return
        due = self._next_snapshot
        if due is None:
            self._next_snapshot = now + interval
            return
        while now >= due:
            self.snapshot(due, rows_fn(due))
            due += interval
        self._next_snapshot = due

    def snapshot(self, t: float, rows: Sequence[SnapshotRow]) -> None:
        """Emit one per-proxy gauge snapshot at tick time ``t``."""
        ranks = age_ranks([row[0] for row in rows])
        caches = []
        for index, (age, used, docs, lookups, local_hits, remote_served, evictions) in (
            enumerate(rows)
        ):
            caches.append(
                {
                    "cache": index,
                    "age": age_json(age),
                    "rank": ranks[index],
                    "used": used,
                    "docs": docs,
                    "lookups": lookups,
                    "local_hits": local_hits,
                    "remote_served": remote_served,
                    "evictions": evictions,
                }
            )
        self._emit("snapshot", {"e": "snapshot", "t": t, "caches": caches})

    def eviction_hook(self, cache_index: int):
        """Per-cache eviction callback for ``ProxyCache.eviction_observer``."""

        def hook(record, age: float) -> None:
            self.eviction(record.evict_time, cache_index, record.url, record.size, age)

        return hook
