"""Structured event emission: the ``repro-events/1`` JSONL stream.

One simulation run, observed, is one JSON-Lines file: a ``run`` header,
then per-decision events in replay order (``request`` outcomes, EA
``placement``/``promotion`` verdicts carrying both piggybacked expiration
ages, ``evict`` records with the victim's age, periodic ``snapshot``
ticks), then an ``end`` trailer. The stream is the inspectable form of the
EA scheme's internal dynamics — the drifting per-proxy expiration ages and
one-sided placement decisions the paper's argument rests on.

Byte identity across engines is achieved *by construction*: the object
core and the replay kernel (:mod:`repro.fastpath.batch`) call the same
:class:`RunRecorder` emitters, at protocol-equivalent points, with scalar
arguments, and every line is serialised here. The exceptions are the
kernel's column writers: the object core writes a ``request`` line per
request with :meth:`RunRecorder.request`, the kernel in ranges of its
chunk columns with :meth:`RunRecorder.requests`, and every line of its
vectorised cold prefix with :meth:`RunRecorder.cold_requests`. The
differential tests in ``tests/obs`` then only need to compare file text.

Serialisation contract. Every line equals
``json.dumps(payload, separators=(",", ":")) + "\\n"`` for the payload dict
whose keys are that event type's row of :data:`repro.obs.schema._FIELDS`,
in that order, with the ``"inf"`` sentinel for infinite ages (the same
convention as :meth:`repro.simulation.results.SimulationResult.to_dict`),
and the recorder issues exactly one ``sink.write`` per line (sinks count
lines by writes). The six per-decision emitters — an observed replay calls
them a few hundred thousand times — do not build that dict: each is one
format expression with fixed key text, ``float.__repr__`` / ``int.__repr__``
for numbers (what :mod:`json` itself calls), ``encode_basestring_ascii``
for strings and the ``true`` / ``false`` / ``null`` literals. That is
exact for what an engine passes (finite ``float``/``int`` times, ``int``
cache/size/hops/responder, ``float`` ages including ±inf, real ``bool``
verdicts, any ``str``); a value outside it — another type, a subclass, a
non-finite non-age float — is handed to ``json.dumps`` on its own, so the
line is the oracle's for those too. The range writer
:meth:`RunRecorder.requests` applies the same key text and the same
per-value tests row by row, still one ``sink.write`` per line; it reads a
URL's JSON text from a table the kernel fills once per document with
:func:`string_json` (the template's own converter), and the kind and
``stored`` from the kernel's outcome byte. The cold writer does the same
for the regime in which every age is ``inf``: its ``promotion`` and
``placement`` lines carry the age and ``cmp`` text as constants. The
lines of one request carry
one timestamp object, so the recorder keeps the text of the last float it
formatted and reuses it when the same object comes back (an identity test,
exact by construction). Only the framing
events ``run``, ``end`` and ``snapshot`` still go through ``json.dumps``
whole: they are O(1) / O(ticks) per run and ``snapshot`` carries a nested
list.

Determinism rules (docs/ANALYSIS.md) apply to event payloads: timestamps
are **simulation time only** — the recorder never reads a wall clock.

Tie classification is delegated to
:func:`repro.core.placement.classify_age_comparison` /
:func:`repro.core.placement.ages_equal`, so an event labelled ``"eq"`` can
never disagree with the tie-break the simulator actually took.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.placement import ages_equal, classify_age_comparison
from repro.obs.registry import ObsError

#: Schema identifier carried by every stream's ``run`` header.
EVENTS_SCHEMA = "repro-events/1"

#: Snapshot row: (age, used_bytes, docs, lookups, local_hits,
#: remote_served, evictions) for one cache, index-aligned with the group.
SnapshotRow = Tuple[float, int, int, int, int, int, int]


def age_json(age: float) -> Any:
    """Expiration age as a JSON-safe value (``+inf`` → the string "inf")."""
    if math.isinf(age):
        return "inf"
    return age


_INF = math.inf
_NO_TIME = object()  # what ``RunRecorder._time`` holds before its first float
# The converters the templates call: what ``json`` itself uses for an exact
# ``float`` / ``int`` / ``str``, and ``json.dumps`` for any other value.
_float = float.__repr__
_int = int.__repr__
_quote = encode_basestring_ascii
_FLAG = ("false", "true")
_other = json.dumps

#: JSON text of :func:`age_json`'s sentinel. A cache that has not evicted
#: yet reports ``+inf`` on every exchange, so at a capacity that fits the
#: working set most ages are this string.
_AGE_INF = _other(age_json(_INF))
#: JSON text of the ``cmp`` of two ``+inf`` ages (what every cold exchange carries).
_CMP_INF = _quote(classify_age_comparison(_INF, _INF))


def _age(age: Any) -> str:
    """JSON text of an expiration age, as ``json.dumps(age_json(age))``."""
    if type(age) is float:
        if -_INF < age < _INF:
            return _float(age)
        if age == _INF or age == -_INF:
            return _AGE_INF
    return _other(age_json(age))


def string_json(value: Any) -> str:
    """JSON text of a string field (a URL), as every line template writes it."""
    return _quote(value) if type(value) is str else _other(value)


def age_ranks(ages: Sequence[float]) -> List[int]:
    """Dense 1-based ranks by descending expiration age; ties share a rank.

    Tie detection goes through :func:`ages_equal` — the sanctioned tie test
    — so snapshot rank labels agree with the EA tie-break by construction
    (two cold caches both reporting ``+inf`` share rank 1).
    """
    order = sorted(range(len(ages)), key=lambda i: ages[i], reverse=True)
    ranks = [0] * len(ages)
    rank = 0
    previous: Optional[float] = None
    for index in order:
        if previous is None or not ages_equal(ages[index], previous):
            rank += 1
            previous = ages[index]
        ranks[index] = rank
    return ranks


class RunRecorder:
    """Serialises one run's event stream to a text sink.

    Args:
        sink: File-like object with ``write`` (text mode). The recorder
            writes one compact JSON object per line and never closes the
            sink — the owning session does.
        snapshot_interval: Simulation-time seconds between ``snapshot``
            events; ``0`` disables snapshots. The timer arms on the first
            request (first tick due one interval after the first
            timestamp), so streams do not depend on wall clocks or trace
            start offsets.

    Raises :class:`~repro.obs.registry.ObsError` for a negative or
    non-finite ``snapshot_interval``: the ``run`` header carries it, and
    JSON has no NaN or Infinity.
    """

    __slots__ = (
        "snapshot_interval", "counts", "_write", "_next_snapshot", "_requests",
        "_last_t", "_last_t_text",
    )

    def __init__(self, sink, snapshot_interval: float = 0.0):
        if not 0 <= snapshot_interval < _INF:  # NaN fails both
            raise ObsError(
                f"snapshot interval must be a finite number of seconds >= 0, "
                f"got {snapshot_interval!r}"
            )
        self.snapshot_interval = snapshot_interval
        #: Lines emitted so far, by event type (feeds the run manifest).
        self.counts: Dict[str, int] = {}
        self._write = sink.write
        self._next_snapshot: Optional[float] = None
        self._requests = 0
        self._last_t: Any = _NO_TIME
        self._last_t_text = ""

    # ------------------------------------------------------------------ #
    # Emission core
    # ------------------------------------------------------------------ #

    def _emit(self, kind: str, payload: Dict[str, Any]) -> None:
        """Serialise a framing event (``run``, ``end``, ``snapshot``).

        Only those three come through here — once per run or per snapshot
        tick. The per-decision emitters below format their line directly
        (module docstring) and call :meth:`_line`.
        """
        self._line(kind, json.dumps(payload, separators=(",", ":")) + "\n")

    def _line(self, kind: str, line: str) -> None:
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        self._write(line)

    def _time(self, t: Any) -> str:
        """JSON text of a timestamp; a float's is kept for the next line.

        ``float.__repr__`` is the dearest conversion on a line, and every
        line of one request carries the same float object, so its text is
        made once. The test is identity with an object the recorder holds,
        so a different value can never match.
        """
        if t is self._last_t:
            return self._last_t_text
        if type(t) is float and -_INF < t < _INF:
            self._last_t = t
            self._last_t_text = text = _float(t)
            return text
        return _other(t)

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
    # Per-request events (called by both engines at mirrored points, but
    # for ``request``: the kernel writes those through ``requests``)
    #
    # One template per event type, one key per source line: the value's
    # exact type picks the converter ``json`` would use, anything else is
    # ``json.dumps``-ed on its own. The tests are spelt out in the template
    # rather than wrapped in helpers: at ~10 values a line, a Python-level
    # call per value was a tenth of an observed replay. Only ages, which a
    # quarter of the lines carry, go through one (``_age``), and timestamps
    # (``_time``), where the call saves a repeated ``float.__repr__``.
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
        if responder is None:
            who = "null"
        else:
            who = _int(responder) if type(responder) is int else _other(responder)
        self._line(
            "request",
            f'{{"e":"request"'
            f',"t":{self._time(t)}'
            f',"cache":{_int(cache) if type(cache) is int else _other(cache)}'
            f',"url":{_quote(url) if type(url) is str else _other(url)}'
            f',"kind":{_quote(kind) if type(kind) is str else _other(kind)}'
            f',"size":{_int(size) if type(size) is int else _other(size)}'
            f',"responder":{who}'
            f',"stored":{_FLAG[stored] if type(stored) is bool else _other(stored)}'
            f',"refreshed":{_FLAG[refreshed] if type(refreshed) is bool else _other(refreshed)}'
            f',"hops":{_int(hops) if type(hops) is int else _other(hops)}'
            f'}}\n',
        )

    def requests(
        self,
        lo: int,
        hi: int,
        ts: Sequence[float],
        caches: Sequence[int],
        docs: Sequence[int],
        urls: Sequence[str],
        outcomes: Sequence[int],
        served: Sequence[int],
        responders: Sequence[int],
        refreshed: Sequence[int],
        remote_hops: int,
        miss_hops: Sequence[int],
    ) -> None:
        """The ``request`` lines of rows ``lo..hi-1`` of the kernel's columns.

        Row ``i`` is the request at ``ts[i]`` from cache ``caches[i]`` for
        document ``docs[i]``, whose URL's JSON text is ``urls[docs[i]]``
        (:func:`string_json`). ``outcomes[i]`` is the kernel's outcome byte
        (:mod:`repro.fastpath.batch`): its low two bits are the kind (0
        local hit, 2 remote hit, 3 miss), and a copy was stored iff it is
        below 4. ``served[i]`` is the size served. A remote hit's
        responder and promotion verdict are ``responders[i]`` and
        ``refreshed[i]`` (0 or 1), and it travelled ``remote_hops``; a miss
        at cache ``c`` travelled ``miss_hops[c]``. Each line is the one
        :meth:`request` writes for those values.
        """
        if hi <= lo:
            return
        write = self._write
        last_t, last_t_text = self._last_t, self._last_t_text
        for i in range(lo, hi):
            t = ts[i]
            cache = caches[i]
            size = served[i]
            code = outcomes[i]
            # Row ``lo`` is usually the request whose decision lines were
            # just written, so its timestamp text is the one ``_time`` kept.
            t_text = (
                last_t_text if t is last_t
                else _float(t) if type(t) is float and -_INF < t < _INF
                else _other(t)
            )
            cache_text = _int(cache) if type(cache) is int else _other(cache)
            size_text = _int(size) if type(size) is int else _other(size)
            if not code:
                write(
                    f'{{"e":"request","t":{t_text},"cache":{cache_text}'
                    f',"url":{urls[docs[i]]},"kind":"local_hit","size":{size_text}'
                    f',"responder":null,"stored":false,"refreshed":false,"hops":0}}\n'
                )
            elif code & 3 == 2:
                who = responders[i]
                write(
                    f'{{"e":"request","t":{t_text},"cache":{cache_text}'
                    f',"url":{urls[docs[i]]},"kind":"remote_hit","size":{size_text}'
                    f',"responder":{_int(who) if type(who) is int else _other(who)}'
                    f',"stored":{_FLAG[code < 4]}'
                    f',"refreshed":{_FLAG[refreshed[i]]}'
                    f',"hops":{_int(remote_hops) if type(remote_hops) is int else _other(remote_hops)}'
                    f'}}\n'
                )
            else:
                hops = miss_hops[cache]
                write(
                    f'{{"e":"request","t":{t_text},"cache":{cache_text}'
                    f',"url":{urls[docs[i]]},"kind":"miss","size":{size_text}'
                    f',"responder":null,"stored":{_FLAG[code < 4]},"refreshed":false'
                    f',"hops":{_int(hops) if type(hops) is int else _other(hops)}}}\n'
                )
        counts = self.counts
        counts["request"] = counts.get("request", 0) + hi - lo
        self._requests += hi - lo

    def cold_requests(
        self,
        ts: Sequence[float],
        caches: Sequence[int],
        docs: Sequence[int],
        urls: Sequence[str],
        outcomes: Sequence[int],
        served: Sequence[int],
        responders: Sequence[int],
        granted: bool,
    ) -> None:
        """Every line of a block of rows of the kernel's cold regime.

        The columns are :meth:`requests`'s, one row per request, from row
        0. While no cache has evicted, every age is ``inf``, every
        placement is stored, a responder's promotion verdict is
        ``granted`` for every remote hit (a constant of the scheme), and
        the group is flat (every hop count is 0). So a row's outcome byte
        (0 local hit, 2 remote hit, 3 miss) decides its lines: a remote
        hit writes its ``promotion``, ``placement`` and ``request`` lines,
        a miss its ``placement`` and ``request`` lines, a local hit its
        ``request`` line, each the line the per-decision emitter writes
        for those values, in the object core's order.
        """
        rows = len(outcomes)
        if not rows:
            return
        write = self._write
        flag = _FLAG[granted]
        for t, cache, doc, code, size, who in zip(
            ts, caches, docs, outcomes, served, responders
        ):
            t_text = _float(t) if type(t) is float and -_INF < t < _INF else _other(t)
            cache_text = _int(cache) if type(cache) is int else _other(cache)
            size_text = _int(size) if type(size) is int else _other(size)
            url = urls[doc]
            if not code:
                write(
                    f'{{"e":"request","t":{t_text},"cache":{cache_text}'
                    f',"url":{url},"kind":"local_hit","size":{size_text}'
                    f',"responder":null,"stored":false,"refreshed":false,"hops":0}}\n'
                )
            elif code == 2:
                who_text = _int(who) if type(who) is int else _other(who)
                write(
                    f'{{"e":"promotion","t":{t_text},"cache":{who_text},"url":{url}'
                    f',"requester_age":{_AGE_INF},"responder_age":{_AGE_INF}'
                    f',"cmp":{_CMP_INF},"granted":{flag}}}\n'
                )
                write(
                    f'{{"e":"placement","t":{t_text},"role":"remote","cache":{cache_text}'
                    f',"url":{url},"size":{size_text}'
                    f',"requester_age":{_AGE_INF},"responder_age":{_AGE_INF}'
                    f',"cmp":{_CMP_INF},"stored":true,"refreshed":{flag}}}\n'
                )
                write(
                    f'{{"e":"request","t":{t_text},"cache":{cache_text}'
                    f',"url":{url},"kind":"remote_hit","size":{size_text}'
                    f',"responder":{who_text},"stored":true,"refreshed":{flag},"hops":0}}\n'
                )
            else:
                write(
                    f'{{"e":"placement","t":{t_text},"role":"origin","cache":{cache_text}'
                    f',"url":{url},"size":{size_text},"own_age":{_AGE_INF},"stored":true}}\n'
                )
                write(
                    f'{{"e":"request","t":{t_text},"cache":{cache_text}'
                    f',"url":{url},"kind":"miss","size":{size_text}'
                    f',"responder":null,"stored":true,"refreshed":false,"hops":0}}\n'
                )
        remote = outcomes.count(2)
        counts = self.counts
        counts["request"] = counts.get("request", 0) + rows
        if remote:
            counts["promotion"] = counts.get("promotion", 0) + remote
        decided = rows - outcomes.count(0)
        if decided:
            counts["placement"] = counts.get("placement", 0) + decided
        self._requests += rows

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
        self._line(
            "placement",
            f'{{"e":"placement"'
            f',"t":{self._time(t)}'
            f',"role":"remote"'
            f',"cache":{_int(cache) if type(cache) is int else _other(cache)}'
            f',"url":{_quote(url) if type(url) is str else _other(url)}'
            f',"size":{_int(size) if type(size) is int else _other(size)}'
            f',"requester_age":{_age(requester_age)}'
            f',"responder_age":{_age(responder_age)}'
            f',"cmp":{_quote(classify_age_comparison(requester_age, responder_age))}'
            f',"stored":{_FLAG[stored] if type(stored) is bool else _other(stored)}'
            f',"refreshed":{_FLAG[refreshed] if type(refreshed) is bool else _other(refreshed)}'
            f'}}\n',
        )

    def placement_origin(
        self, t: float, cache: int, url: str, size: int, own_age: float, stored: bool
    ) -> None:
        """Store verdict for a document fetched directly from the origin."""
        self._line(
            "placement",
            f'{{"e":"placement"'
            f',"t":{self._time(t)}'
            f',"role":"origin"'
            f',"cache":{_int(cache) if type(cache) is int else _other(cache)}'
            f',"url":{_quote(url) if type(url) is str else _other(url)}'
            f',"size":{_int(size) if type(size) is int else _other(size)}'
            f',"own_age":{_age(own_age)}'
            f',"stored":{_FLAG[stored] if type(stored) is bool else _other(stored)}'
            f'}}\n',
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
        self._line(
            "placement",
            f'{{"e":"placement"'
            f',"t":{self._time(t)}'
            f',"role":{_quote(role) if type(role) is str else _other(role)}'
            f',"cache":{_int(cache) if type(cache) is int else _other(cache)}'
            f',"url":{_quote(url) if type(url) is str else _other(url)}'
            f',"size":{_int(size) if type(size) is int else _other(size)}'
            f',"own_age":{_age(own_age)}'
            f',"peer_age":{_age(peer_age)}'
            f',"cmp":{_quote(classify_age_comparison(own_age, peer_age))}'
            f',"stored":{_FLAG[stored] if type(stored) is bool else _other(stored)}'
            f'}}\n',
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
        self._line(
            "promotion",
            f'{{"e":"promotion"'
            f',"t":{self._time(t)}'
            f',"cache":{_int(cache) if type(cache) is int else _other(cache)}'
            f',"url":{_quote(url) if type(url) is str else _other(url)}'
            f',"requester_age":{_age(requester_age)}'
            f',"responder_age":{_age(responder_age)}'
            f',"cmp":{_quote(classify_age_comparison(responder_age, requester_age))}'
            f',"granted":{_FLAG[granted] if type(granted) is bool else _other(granted)}'
            f'}}\n',
        )

    def eviction(self, t: float, cache: int, url: str, size: int, age: float) -> None:
        """One victim removed, with the document age fed to the EA tracker."""
        self._line(
            "evict",
            f'{{"e":"evict"'
            f',"t":{self._time(t)}'
            f',"cache":{_int(cache) if type(cache) is int else _other(cache)}'
            f',"url":{_quote(url) if type(url) is str else _other(url)}'
            f',"size":{_int(size) if type(size) is int else _other(size)}'
            f',"age":{_age(age)}'
            f'}}\n',
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

    # ------------------------------------------------------------------ #
    # Wiring helpers
    # ------------------------------------------------------------------ #

    def eviction_hook(self, cache_index: int):
        """Per-cache eviction callback for ``ProxyCache.eviction_observer``."""

        def hook(record, age: float) -> None:
            self.eviction(record.evict_time, cache_index, record.url, record.size, age)

        return hook
