"""The columnar replay engine.

One function, :func:`simulate_columnar`, replays a trace through the exact
protocol sequence of the object core — local lookup, ICP probe, remote or
origin HTTP fetch, placement decisions, hierarchical escalation — over
columnar state: per-cache parallel arrays indexed by dense doc id, an
array-backed intrusive LRU list or an LFU heap of one record per resident
doc for victim order, and the object core's expiration-age tracker per cache.
The replay loop performs no per-request allocation (lint rule RPR009
enforces this statically): a hit, under either policy, is a handful of
list writes — the LFU heap is touched by admissions (one push), evictions
(one pop) and the re-key of a stale top at the victim search, never by a
hit (see :class:`repro.fastpath.structures.LFUVictimHeap`, whose columns
the admission step binds and works on directly).

A replay is a stream of :class:`repro.fastpath.interning.InternedChunk` —
one chunk for a materialised trace replayed whole (its per-run columns
are memoised on it), O(chunk) memory for slices and streamed sources:
every per-doc state array grows by exactly the chunk's intern-table delta
before its requests replay, so chunked and whole-trace replay are
byte-identical for any chunk size (the chunking differential tests assert
this, events included).

Byte identity with the object core is the contract, not an aspiration:

* Every expiration-age *read* the object core performs is mirrored here.
  With ``window_mode`` ``count`` or ``cumulative`` a cache's age changes
  only when that cache records an eviction, so the admission step
  refreshes one cell per cache after its eviction loop (the value
  :meth:`repro.cache.expiration.ExpirationAgeTracker.record` hands back)
  and every read — placement and promotion decisions, responder choice,
  snapshot rows — is a list read; the length of the age's wire text is a second cell, formatted at
  the first header that carries the refreshed age (so
  ``format_expiration_age`` still checks every distinct age that reaches
  the wire), and the digit count of a stored size is memoised per size.
  With ``window_mode="time"`` a read trims the window — a side effect,
  and the order of trims and records shows in the float sum — so there
  every read stays a tracker call in the object core's order, including
  the reads whose value is unused (the ad-hoc scheme's audit fields), and
  no cell is consulted.
* The trackers are the object core's own class, fed pre-computed victim
  ages, so window sums and ages are the same floats.
* HTTP/ICP wire lengths use the same arithmetic as
  :class:`repro.protocol.http.HttpRequest` / ``HttpResponse`` /
  :mod:`repro.protocol.icp` (asserted by tests against the real classes).
* Metric and latency accumulation orders match ``GroupMetrics.observe``.

Configurations outside the engine's envelope (custom policies, the
sanitizer, stochastic latency, ICP loss injection, per-request outcome
consumers) report a reason via
:func:`repro.fastpath.columnar_unsupported_reason`, which interprets the
declared :data:`repro.fastpath.FALLBACK_MATRIX`; ``run_simulation`` logs
it and falls back to the object engine.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heapreplace
from typing import List, Optional

from repro.cache.expiration import ExpirationAgeTracker
from repro.errors import CacheConfigurationError
from repro.fastpath._frame import ReplayFrame
from repro.fastpath.structures import IntrusiveLRUList, LFUVictimHeap
from repro.protocol.http import format_expiration_age
from repro.simulation.results import SimulationResult


def simulate_columnar(
    config, trace, obs=None, chunk_size: Optional[int] = None,
    spans=None, timeseries=None,
) -> SimulationResult:
    """Replay ``trace`` under ``config`` on the columnar engine.

    Raises :class:`SimulationError` when the config is outside the
    engine's envelope — use
    :func:`repro.simulation.simulator.run_simulation` for transparent
    fallback.

    Args:
        trace: A :class:`~repro.trace.record.Trace`, or any streamed
            source exposing ``interned_chunks(chunk_size)`` (packed
            columnar readers, chunked synthetic generators). Streamed
            sources replay with O(chunk) memory.
        obs: Optional :class:`repro.obs.events.RunRecorder`. Emission
            points mirror the object core exactly — same events, same
            order, same scalar payloads — so both engines produce
            byte-identical ``repro-events/1`` streams (enforced by the
            differential tests in ``tests/obs``). ``None`` keeps the loop
            on its zero-overhead path (one hoisted bool guard per branch).
        chunk_size: Replay the trace in interned chunks of this many
            requests. ``None`` replays a materialised trace whole (and a
            streamed source in
            :data:`repro.fastpath._frame.DEFAULT_CHUNK_SIZE` chunks).
            Results and event streams are byte-identical for every choice.
        spans: Optional :class:`repro.obs.spans.SpanTracer`. The engine
            opens one ``engine:columnar`` span, times each source pull
            (generation/decoding) and each chunk replay, and attaches
            request counters. Pure telemetry: results, event bytes, and
            digests are identical with or without it (differential tests
            in ``tests/obs``); ``None`` costs nothing.
        timeseries: Optional
            :class:`repro.obs.timeseries.TimeseriesRecorder`; receives
            one cumulative counter reading per replayed chunk. Same
            out-of-band contract as ``spans``.
    """
    frame = ReplayFrame(config, "columnar")
    num_caches = frame.num_caches
    parent = frame.parent
    probe_targets = frame.probe_targets
    capacity = frame.capacity
    sender_len = frame.sender_len

    # ---------------------------------------------------------------- #
    # Per-cache columnar state — empty, grown by each chunk's intern delta
    # ---------------------------------------------------------------- #
    num_docs = 0
    lru_kind = config.policy == "lru"
    present = [bytearray() for _ in range(num_caches)]
    doc_size: List[List[int]] = [[] for _ in range(num_caches)]
    entry_time: List[List[float]] = [[] for _ in range(num_caches)]
    last_hit: List[List[float]] = [[] for _ in range(num_caches)]
    hit_count: List[List[int]] = [[] for _ in range(num_caches)]
    used = frame.used
    copies = frame.copies
    if lru_kind:
        order: List = [IntrusiveLRUList(0) for _ in range(num_caches)]
    else:
        order = [LFUVictimHeap(0) for _ in range(num_caches)]
    trackers = [
        ExpirationAgeTracker(
            kind="lru" if lru_kind else "lfu",
            window_mode=config.window_mode,
            window_size=config.window_size,
            window_seconds=config.window_seconds,
        )
        for _ in range(num_caches)
    ]
    age_of = [tracker.cache_expiration_age for tracker in trackers]
    # One cache's state columns, bound once for _admit (the lists and
    # bytearrays grow in place, so the bindings stay valid across chunks).
    columns = [
        (present[c], doc_size[c], entry_time[c], last_hit[c], hit_count[c],
         order[c], trackers[c].record)
        for c in range(num_caches)
    ]
    # Age cells (module docstring): refreshed by _admit after an eviction
    # loop, read everywhere else — unless the window is a time window,
    # where every read is a tracker call and the cells are never consulted.
    pure_window = config.window_mode != "time"
    cur_age = [math.inf] * num_caches
    # Wire-text length of cur_age: len("inf") to start with; -1 sends the
    # reader to _age_text_len (after a refresh; in time mode, always).
    age_len = [3 if pure_window else -1] * num_caches
    size_len: dict = {}  # stored size -> len(str(size)), bounded by doc count

    # Per-doc protocol columns, grown with the intern table (engine-owned
    # copies; chunk deltas append here).
    url_len: List[int] = []
    icp_pair: List[int] = []
    url_of: List[str] = []

    st_lookups = frame.st_lookups
    st_local_hits = frame.st_local_hits
    st_local_misses = frame.st_local_misses
    st_remote_served = frame.st_remote_served
    st_admissions = frame.st_admissions
    st_rejections = frame.st_rejections
    st_evictions = frame.st_evictions
    st_bytes_local = frame.st_bytes_local
    st_bytes_remote = frame.st_bytes_remote
    st_bytes_admitted = frame.st_bytes_admitted
    st_bytes_evicted = frame.st_bytes_evicted
    st_declined = frame.st_declined
    st_promo_granted = frame.st_promo_granted
    st_promo_withheld = frame.st_promo_withheld
    bus = frame.bus
    met = frame.met
    latency_sum = 0.0

    ea = frame.ea
    tie_requester = frame.tie_requester
    replica_cap = frame.replica_cap
    max_age_strategy = frame.max_age_strategy
    constant_latency = frame.constant_latency
    lat_local = frame.lat_local
    lat_remote = frame.lat_remote
    lat_miss = frame.lat_miss
    lan_bw = frame.lan_bw
    wan_bw = frame.wan_bw
    fmt_age = format_expiration_age
    warmup = frame.warmup

    # ---------------------------------------------------------------- #
    # Observability (hoisted: the disabled path costs one bool test)
    # ---------------------------------------------------------------- #
    rec = obs
    emit = rec is not None
    probe_hit_hops = 1 if frame.hierarchical else 0
    kind_local = "local_hit"
    kind_remote = "remote_hit"
    kind_miss = "miss"

    def _snapshot_rows(due: float):
        """Per-cache gauge rows mirroring CooperativeSimulator._snapshot_rows."""
        return [
            (
                cur_age[c] if pure_window else age_of[c](due),
                used[c],
                copies[c],
                st_lookups[c],
                st_local_hits[c],
                st_remote_served[c],
                st_evictions[c],
            )
            for c in range(num_caches)
        ]

    # ---------------------------------------------------------------- #
    # Shared operations (closures over the columnar state)
    # ---------------------------------------------------------------- #

    def _age_text_len(cache: int, age: float) -> int:
        """Wire length of ``cache``'s expiration age, for a reader that found
        ``age_len[cache]`` unset: the first use since a refresh in the pure
        window modes (which fills the cell), every use in time mode."""
        length = len(fmt_age(age))
        if pure_window:
            age_len[cache] = length
        return length

    def _admit(cache: int, doc: int, size: int, now: float) -> bool:
        """Mirror of ProxyCache.admit; returns AdmitOutcome.admitted."""
        held, sizes_c, entry_c, last_c, hits_c, order_c, record_c = columns[cache]
        if held[doc]:
            # Already cached: refresh instead of re-admitting.
            last_c[doc] = now
            bumped = hits_c[doc] + 1
            hits_c[doc] = bumped
            if lru_kind:
                order_c.touch(doc)
            else:
                order_c.push(doc, bumped)
            return True
        cap = capacity[cache]
        if size > cap:
            st_rejections[cache] += 1
            return False
        in_use = used[cache]
        if not lru_kind:
            # LFUVictimHeap's columns: the victim search, the pop and the
            # admission push below are its victim / remove / push, run on
            # these bindings without the three calls per eviction.
            heap = order_c.heap
            live_count = order_c.live_count
            live_seq = order_c.live_seq
        if in_use + size > cap:
            evicted = 0
            evicted_bytes = 0
            while in_use + size > cap:
                if lru_kind:
                    victim = order_c.head()
                    order_c.remove(victim)
                    age = now - last_c[victim]
                else:
                    if not heap:
                        raise CacheConfigurationError(
                            "heap policy state corrupted: no live records"
                        )
                    while True:
                        _count, seq, victim = heap[0]
                        live = live_seq[victim]
                        if live == seq:
                            break
                        heapreplace(heap, (live_count[victim], live, victim))  # stale key
                    heappop(heap)
                    live_seq[victim] = -1
                    age = (now - entry_c[victim]) / hits_c[victim]
                held[victim] = 0
                victim_size = sizes_c[victim]
                in_use -= victim_size
                refreshed = record_c(age, now)
                if emit:
                    rec.eviction(now, cache, url_of[victim], victim_size, age)
                evicted += 1
                evicted_bytes += victim_size
            st_evictions[cache] += evicted
            st_bytes_evicted[cache] += evicted_bytes
            copies[cache] -= evicted
            if pure_window:
                cur_age[cache] = refreshed
                age_len[cache] = -1
        held[doc] = 1
        sizes_c[doc] = size
        entry_c[doc] = now
        last_c[doc] = now
        hits_c[doc] = 1
        used[cache] = in_use + size
        if lru_kind:
            order_c.push(doc)
        else:
            seq = order_c.seq + 1
            order_c.seq = seq
            live_seq[doc] = seq
            live_count[doc] = 1
            heappush(heap, (1, seq, doc))
        st_admissions[cache] += 1
        st_bytes_admitted[cache] += size
        copies[cache] += 1
        return True

    def _serve_remote(cache: int, doc: int, now: float, refresh: bool) -> int:
        """Mirror of ProxyCache.serve_remote; returns the entry size."""
        size = doc_size[cache][doc]
        st_remote_served[cache] += 1
        st_bytes_remote[cache] += size
        if refresh:
            st_promo_granted[cache] += 1
            last_hit[cache][doc] = now
            bumped = hit_count[cache][doc] + 1
            hit_count[cache][doc] = bumped
            if lru_kind:
                order[cache].touch(doc)
            else:
                order[cache].push(doc, bumped)
        else:
            st_promo_withheld[cache] += 1
        return size

    def _resolve(node: int, doc: int, record_size: int, digits: int,
                 requester_age: float, now: float):
        """Mirror of HierarchicalGroup._resolve_at.

        Returns ``(size, found_at, node_age, hops)``; ``found_at`` None →
        origin.
        """
        if present[node][doc]:
            # EA promotes only a longer-lived copy; ad-hoc always refreshes
            # (and performs no age read for the decision).
            if not ea:
                refresh = True
            elif pure_window:
                refresh = cur_age[node] > requester_age
            else:
                refresh = age_of[node](now) > requester_age
            size = _serve_remote(node, doc, now, refresh)
            node_age = cur_age[node] if pure_window else age_of[node](now)
            text_len = age_len[node]
            if text_len < 0:
                text_len = _age_text_len(node, node_age)
            digits_len = size_len.get(size)
            if digits_len is None:
                digits_len = size_len[size] = len(str(size))
            bus[3] += 1
            bus[5] += 70 + digits_len + sender_len[node] + text_len
            bus[6] += size
            if emit:
                rec.promotion(now, node, url_of[doc], requester_age, node_age, refresh)
            return size, node, node_age, 1

        grandparent = parent[node]
        node_age = cur_age[node] if pure_window else age_of[node](now)
        if grandparent is None:
            # Root: fetch from the origin (request and response carry no age).
            bus[2] += 1
            bus[5] += url_len[doc] + sender_len[node] + 24
            bus[3] += 1
            bus[5] += 50 + digits
            bus[6] += record_size
            size = record_size
            found_at = None
            hops = 1
        else:
            text_len = age_len[node]
            if text_len < 0:
                text_len = _age_text_len(node, node_age)
            bus[2] += 1
            bus[5] += url_len[doc] + sender_len[node] + text_len + 50
            size, found_at, _upstream, above = _resolve(
                grandparent, doc, record_size, digits, node_age, now
            )
            hops = above + 1
        # Parent-store rule: both schemes read the node's own age.
        own_age = cur_age[node] if pure_window else age_of[node](now)
        if (own_age > requester_age) if ea else True:
            stored_node = _admit(node, doc, size, now)
        else:
            st_declined[node] += 1
            stored_node = False
        if emit:
            rec.placement_node(
                now, "parent", node, url_of[doc], size, own_age, requester_age,
                stored_node,
            )
        node_age = cur_age[node] if pure_window else age_of[node](now)
        text_len = age_len[node]
        if text_len < 0:
            text_len = _age_text_len(node, node_age)
        digits_len = size_len.get(size)
        if digits_len is None:
            digits_len = size_len[size] = len(str(size))
        bus[3] += 1
        bus[5] += 70 + digits_len + sender_len[node] + text_len
        bus[6] += size
        return size, found_at, node_age, hops

    # ---------------------------------------------------------------- #
    # Chunked replay — state grows per intern delta, then the zero-
    # allocation request loop runs over the chunk's columns
    # ---------------------------------------------------------------- #
    processed = 0
    for chunk in frame.chunks(trace, chunk_size, spans):
        new_urls = chunk.new_urls
        if new_urls:
            add = len(new_urls)
            num_docs += add
            url_of.extend(new_urls)
            url_len.extend(chunk.new_url_lens)
            icp_pair.extend(chunk.new_icp_probe_bytes)
            zero_bytes = bytes(add)
            zero_ints = [0] * add
            zero_floats = [0.0] * add
            for c in range(num_caches):
                present[c].extend(zero_bytes)
                doc_size[c].extend(zero_ints)
                entry_time[c].extend(zero_floats)
                last_hit[c].extend(zero_floats)
                hit_count[c].extend(zero_ints)
                order[c].grow(num_docs)

        leaf_column, record_sizes, size_digits = frame.chunk_columns(chunk)

        for cache, doc, now, record_size, digits in zip(
            leaf_column, chunk.doc_ids, chunk.timestamps, record_sizes, size_digits
        ):
            if emit:
                rec.maybe_snapshot(now, _snapshot_rows)
            st_lookups[cache] += 1
            held = present[cache]
            if held[doc]:
                # Local hit: record_hit + policy refresh, then observe.
                size = doc_size[cache][doc]
                st_local_hits[cache] += 1
                st_bytes_local[cache] += size
                last_hit[cache][doc] = now
                bumped = hit_count[cache][doc] + 1
                hit_count[cache][doc] = bumped
                if lru_kind:
                    order[cache].touch(doc)
                else:
                    order[cache].push(doc, bumped)
                processed += 1
                if processed > warmup:
                    met[0] += 1
                    met[4] += size
                    latency_sum += lat_local
                    met[1] += 1
                    met[5] += size
                if emit:
                    rec.request(
                        now, cache, url_of[doc], kind_local, size, None, False,
                        False, 0,
                    )
                continue

            st_local_misses[cache] += 1
            targets = probe_targets[cache]
            holders = [t for t in targets if present[t][doc]]
            num_targets = len(targets)
            bus[0] += num_targets
            bus[1] += num_targets
            bus[4] += num_targets * icp_pair[doc]

            if holders:
                # Remote hit via probe (same path for both architectures).
                if max_age_strategy:
                    responder = holders[0]
                    best_age = cur_age[responder] if pure_window else age_of[responder](now)
                    for candidate in holders[1:]:
                        candidate_age = (
                            cur_age[candidate] if pure_window else age_of[candidate](now)
                        )
                        if candidate_age > best_age:
                            responder = candidate
                            best_age = candidate_age
                else:  # "first": lowest index
                    responder = min(holders)
                # Scheme decision (both schemes read requester then responder).
                if pure_window:
                    requester_age = cur_age[cache]
                    responder_age = cur_age[responder]
                else:
                    requester_age = age_of[cache](now)
                    responder_age = age_of[responder](now)
                if ea:
                    if requester_age > responder_age:
                        store = True
                    elif requester_age == responder_age:
                        store = tie_requester
                    else:
                        store = False
                    refresh = responder_age > requester_age
                else:
                    store = True
                    refresh = True
                size = doc_size[responder][doc]
                if (
                    store
                    and replica_cap is not None
                    and size > replica_cap * capacity[cache]
                ):
                    store = False
                    refresh = True
                text_len = age_len[cache]
                if text_len < 0:
                    text_len = _age_text_len(cache, requester_age)
                bus[2] += 1
                bus[5] += url_len[doc] + sender_len[cache] + text_len + 50
                _serve_remote(responder, doc, now, refresh)
                text_len = age_len[responder]
                if text_len < 0:
                    text_len = _age_text_len(responder, responder_age)
                digits_len = size_len.get(size)
                if digits_len is None:
                    digits_len = size_len[size] = len(str(size))
                bus[3] += 1
                bus[5] += 70 + digits_len + sender_len[responder] + text_len
                bus[6] += size
                if emit:
                    rec.promotion(
                        now, responder, url_of[doc], requester_age, responder_age,
                        refresh,
                    )
                if store:
                    stored_here = _admit(cache, doc, size, now)
                else:
                    st_declined[cache] += 1
                    stored_here = False
                if emit:
                    rec.placement_remote(
                        now, cache, url_of[doc], size, requester_age, responder_age,
                        stored_here, refresh,
                    )
                processed += 1
                if processed > warmup:
                    met[0] += 1
                    met[4] += size
                    if constant_latency:
                        latency_sum += lat_remote
                    else:
                        latency_sum += lat_remote + size / lan_bw
                    met[2] += 1
                    met[6] += size
                if emit:
                    rec.request(
                        now, cache, url_of[doc], kind_remote, size, responder,
                        stored_here, refresh, probe_hit_hops,
                    )
                continue

            up = parent[cache]
            if up is None:
                # Group-wide miss (or hierarchy root): origin fetch, store local.
                bus[2] += 1
                bus[5] += url_len[doc] + sender_len[cache] + 24
                bus[3] += 1
                bus[5] += 50 + digits
                bus[6] += record_size
                # origin_fetch decision reads the own age
                own_age = cur_age[cache] if pure_window else age_of[cache](now)
                stored_here = _admit(cache, doc, record_size, now)
                if emit:
                    rec.placement_origin(
                        now, cache, url_of[doc], record_size, own_age, stored_here
                    )
                processed += 1
                if processed > warmup:
                    met[0] += 1
                    met[4] += record_size
                    if constant_latency:
                        latency_sum += lat_miss
                    else:
                        latency_sum += lat_miss + record_size / wan_bw
                    met[3] += 1
                    met[7] += record_size
                if emit:
                    rec.request(
                        now, cache, url_of[doc], kind_miss, record_size, None,
                        stored_here, False, 0,
                    )
                continue

            # Hierarchical escalation: all probes negative, parent resolves.
            requester_age = cur_age[cache] if pure_window else age_of[cache](now)
            text_len = age_len[cache]
            if text_len < 0:
                text_len = _age_text_len(cache, requester_age)
            bus[2] += 1
            bus[5] += url_len[doc] + sender_len[cache] + text_len + 50
            size, found_at, upstream_age, hops = _resolve(
                up, doc, record_size, digits, requester_age, now
            )
            # Child-store rule (both schemes read the child's own age).
            child_age = cur_age[cache] if pure_window else age_of[cache](now)
            if ea:
                if child_age > upstream_age:
                    store = True
                elif child_age == upstream_age:
                    store = tie_requester
                else:
                    store = False
            else:
                store = True
            if store:
                stored_here = _admit(cache, doc, size, now)
            else:
                st_declined[cache] += 1
                stored_here = False
            if emit:
                rec.placement_node(
                    now, "child", cache, url_of[doc], size, child_age, upstream_age,
                    stored_here,
                )
            processed += 1
            if processed > warmup:
                met[0] += 1
                met[4] += size
                if found_at is not None:
                    if constant_latency:
                        latency_sum += lat_remote
                    else:
                        latency_sum += lat_remote + size / lan_bw
                    met[2] += 1
                    met[6] += size
                else:
                    if constant_latency:
                        latency_sum += lat_miss
                    else:
                        latency_sum += lat_miss + size / wan_bw
                    met[3] += 1
                    met[7] += size
            if emit:
                rec.request(
                    now, cache, url_of[doc],
                    kind_remote if found_at is not None else kind_miss,
                    size, found_at, stored_here, False, hops,
                )

        if timeseries is not None:
            frame.sample(
                timeseries, processed,
                float(chunk.timestamps[-1]) if chunk.num_records else 0.0,
            )

    # _resolve refers to itself, so its closure cell is a reference cycle
    # that would pin every state column above until the cyclic collector
    # runs; clearing the cell lets the state die by refcount on return.
    _resolve = None
    frame.latency_sum = latency_sum
    ages = [age_of[c](None) for c in range(num_caches)]
    unique_documents = sum(1 for held in zip(*present) if any(held))
    return frame.result(ages, unique_documents)
