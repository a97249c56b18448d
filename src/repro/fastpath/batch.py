"""The replay kernel of both fast engines: one request loop, vector regimes.

:func:`replay` replays the object core's protocol sequence — local
lookup, ICP probe, remote or origin fetch, the placement decisions,
hierarchical escalation — over flat columnar state. It is the only
request loop in :mod:`repro.fastpath`; the two engines are two settings
of it:

* ``engine="batch"`` (:func:`simulate_batch`) switches the **vector
  regimes** on wherever :func:`batch_fastloop_reason` allows them —
  distributed architecture, LRU, a ``count`` or ``cumulative`` window,
  no observer, numpy present: a numpy precompute per chunk, a vectorised
  cold prefix, and the numpy body of the post-pass.
* ``engine="columnar"`` (:func:`repro.fastpath.engine.simulate_columnar`),
  and ``engine="batch"`` everywhere else, is the same loop with them off:
  it reads :meth:`ReplayFrame.chunk_columns
  <repro.fastpath._frame.ReplayFrame.chunk_columns>` lists, one request
  per iteration, and the post-pass runs its pure-Python body. That is the
  only path when numpy is absent (``REPRO_NO_NUMPY``).

The state and its loop:

* **Flat slot addressing** — per-(cache, doc) state lives in flat columns
  indexed ``slot = doc * num_caches + cache``: a ``bytearray`` residency
  bitmap and an ``array('q')`` of resident copy sizes.
* **Victim order** — LRU is one ``collections.OrderedDict`` per cache
  mapping ``slot -> last-touch timestamp`` (a hit is ``od[slot] = ts;
  od.move_to_end(slot)``, an eviction ``od.popitem(last=False)``). LFU is
  a heap per cache of one ``(hit count, seq, slot)`` record per resident
  copy, a sequence counter per cache, and the live count and seq per
  slot. A hit advances only the live pair; the victim search re-keys a
  stale top in place and stops at the first current record. Counts and
  seqs only rise, so that record holds the lowest live key: the victim
  order of :class:`repro.cache.replacement.LFUPolicy`, whose heap grows
  with hits where this one never outgrows the residents.
* **Runs** — :func:`warm_loop` walks ``(slot, first, end, timestamp)``
  runs. A resident run is all local hits: one LRU touch at its last
  member's timestamp, or k ticks of the LFU sequence for k members. Any
  other run goes to :func:`miss_path`, the scalar protocol path: per
  member an ICP probe scan, remote serve + placement or origin fetch (or,
  in a hierarchy, escalation to the parent, which stores by the same age
  test), then the one admission-and-eviction site, until a copy sticks.
  The vector regimes segment a chunk into runs of equal slots; with them
  off every request is a run of one.
* **Age cells** — in the ``count`` and ``cumulative`` windows an eviction
  folds the victim's age into its cache's window (``deque(maxlen=W)`` +
  running sum, the ``+=``/``-=`` sequence of
  :meth:`repro.cache.expiration.ExpirationAgeTracker.record`, so sums are
  bit-equal) and marks the age stale; :meth:`_FastState.refresh_age`
  divides at the next read, :meth:`_FastState.wire_len` formats for
  headers. A time window trims on every read, and the order of trims and
  records shows in the float sum, so there every read and every fold is
  a call on the object core's own tracker, in the object core's order.
* **Outcome post-pass** — the loop records one byte per request and the
  served size. The low two bits are the class (0 local hit / 2 remote hit
  / 3 origin miss); 4 marks a declined placement and 8 a copy larger than
  the cache. Per-cache lookups, hits, admissions, rejections and
  declines, the bus counters and the metrics come from those columns in
  one post-pass (:func:`_post_pass`, with a numpy body and a Python body
  of the same tallies); ``copies`` is the residents count, and evictions
  follow by conservation. The loop tallies inline only what needs the
  responder, a live age or the parent: remote serves, promotions,
  age-dependent header bytes, the hop through a parent. The latency is
  folded in request order (``np.add.accumulate`` is a strict left fold),
  bit-identical to the serial ``+=`` sequence.
* **Observer** — with a :class:`~repro.obs.events.RunRecorder` attached
  the loop emits at the object core's decision sites, per request; a
  snapshot row is the frame's tallies plus a fold of the chunk's outcome
  bytes so far.

The vector regimes:

* **Batch precompute** — leaf assignment, patched record sizes, digit
  counts, URL and ICP byte columns per request in one numpy pass
  (:func:`_columns_np`), kept in the memo of a whole-trace chunk, the one
  kind of chunk replayed more than once (:meth:`_FastState.columns`).
* **The cold regime** — while no cache has ever filled, every expiration
  age is ``inf``, EA placement decisions are constants, every admission
  succeeds, and a request can change cache state only if it is the first
  occurrence of its slot. :func:`_cold_prefix` finds those vectorially,
  computes where the regime provably ends (the first admission that
  would evict, reject or trip the replica cap) and replays the prefix as
  array operations; local hits are pure post-pass arithmetic. The loop
  takes over at the split (:meth:`_FastState.leave_cold`).

Byte identity with the object core is the contract: the differential
matrix in ``tests/fastpath`` and the generated differentials in
``tests/property`` assert equal ``to_json`` text (and event streams)
across engines, regimes and chunkings. Configs outside the shared
envelope raise (``run_simulation`` falls back to the object core).
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict, deque
from heapq import heappop, heappush, heapreplace
from itertools import islice
from operator import add
from typing import List, Optional

from repro.cache.expiration import ExpirationAgeTracker
from repro.fastpath._frame import ReplayFrame, check_envelope
from repro.fastpath.numeric import decimal_digits, load_numpy
from repro.protocol.http import format_expiration_age
from repro.simulation.results import SimulationResult

_INF = math.inf


def batch_fastloop_reason(config, obs=None) -> Optional[str]:
    """Why ``config`` replays with the kernel's vector regimes off, or None
    when ``engine="batch"`` runs them.

    Purely informational (results are byte-identical either way); the run
    manifest and ``repro analyze`` surface it so their coverage is
    observable. The last row reads the platform, not the config: the
    vector regimes are numpy code.
    """
    if obs is not None:
        why = "an attached observer needs events from every request"
    elif config.architecture != "distributed":
        why = "hierarchical escalation is not vectorised"
    elif config.policy != "lru":
        why = "lfu victim accounting is not vectorised"
    elif config.window_mode not in ("count", "cumulative"):
        why = "time-window age reads have trim side effects"
    elif load_numpy() is None:
        why = "numpy unavailable (not installed, or REPRO_NO_NUMPY set)"
    else:
        return None
    return f"{why} (no cold prefix, numpy precompute or numpy post-pass)"


def simulate_batch(
    config, trace, obs=None, chunk_size: Optional[int] = None,
    regimes: Optional[dict] = None, spans=None, timeseries=None,
) -> SimulationResult:
    """Replay ``trace`` under ``config`` on the kernel, vector regimes on
    wherever :func:`batch_fastloop_reason` allows them.

    Args:
        trace: A :class:`~repro.trace.record.Trace`, or any streamed
            source exposing ``interned_chunks(chunk_size)`` (packed
            columnar readers, chunked synthetic generators); streamed
            sources replay with O(chunk) memory.
        obs: Optional :class:`repro.obs.events.RunRecorder`. Emission
            points mirror the object core — same events, same order, same
            payloads — so every engine produces byte-identical
            ``repro-events/1`` streams.
        chunk_size: Replay in interned chunks of this many requests.
            ``None`` replays a materialised trace whole (and a streamed
            source in :data:`repro.fastpath._frame.DEFAULT_CHUNK_SIZE`
            chunks). Results and event streams are identical for every
            choice.
        regimes: When given a dict, receives the per-regime request counts
            after the run: ``cold`` (vectorised first-occurrence replay),
            ``hit_run`` (members of resident runs) and ``scalar`` (the
            per-request protocol path) — or only ``fallback_reason`` when
            the vector regimes are off. Counts only — the kernel never
            reads a clock; ``repro profile`` reads wall time from the
            regime segments of ``spans``.
        spans: Optional :class:`repro.obs.spans.SpanTracer`: one
            ``engine:<name>`` span, each source pull and chunk, and — with
            the vector regimes on — the precompute, regime and post-pass
            segments. Out of band: results and event bytes are identical
            with or without it.
        timeseries: Optional
            :class:`repro.obs.timeseries.TimeseriesRecorder`; receives one
            cumulative counter reading per replayed chunk. Out of band.

    Raises :class:`SimulationError` for configs outside the shared engine
    envelope — use ``run_simulation`` for transparent fallback.
    """
    check_envelope(config, "batch")
    reason = batch_fastloop_reason(config, obs)
    if reason is not None and regimes is not None:
        regimes["fallback_reason"] = reason
    return replay(
        config, trace, None if reason else load_numpy(), obs, chunk_size,
        regimes, spans, timeseries,
    )


class _FastState(ReplayFrame):
    """The replay frame plus the kernel's flat doc-major state.

    ``slot = doc * NC + cache``; growth per chunk is a pure extend, so
    slot numbering never changes. ``np`` is numpy with the vector regimes
    on, None with them off (the frame then runs as ``engine="columnar"``).
    Recency has one representation per regime: while cold, the
    ``lh``/``seq`` columns (last-touch timestamp and global request index,
    written by vectorised scatters); from the transition on, ``lru[c]``
    (see :meth:`leave_cold`).
    """

    def __init__(self, config, np, obs=None):
        super().__init__(config, "columnar" if np is None else "batch")
        self.np = np
        num_caches = self.num_caches
        self.cap = self.capacity[0]  # equal shares: one scalar serves every admit check
        self.num_docs = 0
        # Per-slot metadata lives in buffer-protocol columns — ``array`` /
        # ``bytearray`` — so the scalar path gets Python-speed element
        # access, while the cold regime takes zero-copy ``np.frombuffer``
        # views for bulk scatters. Views are created where needed and
        # dropped before the next growth (a buffer with an exported view
        # cannot be resized). ``array("d")`` holds C doubles, so timestamp
        # arithmetic stays bit- and serialisation-identical to floats.
        self.present_b = bytearray()  # residency bitmap
        self.dsz = array("q")  # resident copy size
        self.lh = array("d")  # last-touch timestamp (cold regime only)
        self.seq = array("q")  # last-touch global request index (cold only)
        # Per cache: resident slot -> last-touch timestamp, least recently
        # touched first. Empty until the cold regime ends, and under LFU.
        self.lru: List[OrderedDict] = [OrderedDict() for _ in range(num_caches)]
        # LFU: a heap and a sequence counter per cache; per slot the entry
        # time, the live hit count and the live heap sequence.
        self.lfu = config.policy == "lfu"
        self.heaps: List[list] = [[] for _ in range(num_caches)]
        self.hseq = [0] * num_caches
        self.entry = array("d")
        self.hits = array("q")
        self.live_seq = array("q")
        # Expiration-age window per cache: ``wsum`` is the running sum
        # the admission site folds victim ages into — the count window's
        # (``win[c]`` holds its ages) or the cumulative one (``wtot[c]``
        # evictions). The age and its wire-text length are cells
        # (:meth:`refresh_age`); a time window reads the trackers instead
        # and keeps ``age_len`` at -1, so every reader asks.
        self.count_mode = config.window_mode == "count"
        self.win = [deque(maxlen=config.window_size) for _ in range(num_caches)]
        self.wsum = [0.0] * num_caches
        self.wtot = [0] * num_caches
        self.cur_age = [_INF] * num_caches
        self.trackers = None
        if config.window_mode == "time":
            self.trackers = [
                ExpirationAgeTracker(
                    kind=config.policy, window_mode="time",
                    window_seconds=config.window_seconds,
                )
                for _ in range(num_caches)
            ]
        self.age_len = [3 if self.trackers is None else -1] * num_caches  # len("inf")
        # Per outcome class (0 local / 2 remote / 3 miss): the latency a
        # request adds is lat + size / bw (bw inf: no transfer term).
        self.lat_class = [self.lat_local, 0.0, self.lat_remote, self.lat_miss]
        self.bw_class = [_INF, _INF, _INF, _INF]
        if not self.constant_latency:
            self.bw_class[2:] = [self.lan_bw, self.wan_bw]
        self.url_of = None if obs is None else []  # event lines name the URL

        if np is None:
            # Per-doc protocol columns, grown per chunk.
            self.url_len: List[int] = []
            self.icp: List[int] = []
            self.cold = False
            return
        self.url_len_g = _NpGrow(np)
        self.icp_g = _NpGrow(np)
        self.first_size_g = _NpGrow(np)  # -1 until a doc's first request lands
        self.sender_np = np.array(self.sender_len, dtype=np.int64)
        self.lat_np = np.array(self.lat_class)
        self.bw_np = np.array(self.bw_class)
        # Cold regime (see module docstring): sound while no eviction has
        # ever happened anywhere, which the kernel guarantees by
        # construction — the flag latches off *before* the first request
        # that could evict runs. EA with tie_break="responder" never
        # stores on a remote hit, so seen slots would not all be resident;
        # that shape replays on the loop.
        self.cold = not self.ea or self.tie_requester
        # Per doc: min leaf holding a copy (-1 until first seen). Cold-only.
        self.first_min_g = _NpGrow(np)
        # Deferred last-touch fixups from cold segments: (slot, touch
        # index, timestamp) arrays, applied only if the loop (which needs
        # exact recency at evictions) ever takes over. ``seq`` is
        # touch-monotone, so replaying fixups oldest-first under a
        # ``g > seq[slot]`` guard commutes with any direct writes the cold
        # replay already made (responder promotions). Slots are unique
        # within each tuple, so the masked scatters are conflict-free.
        self.pending: List[tuple] = []

    def grow(self, chunk) -> None:
        """Extend every per-doc/per-slot column by the chunk's intern delta."""
        new_urls = chunk.new_urls
        if not new_urls:
            return
        add_docs = len(new_urls)
        self.num_docs += add_docs
        grown = add_docs * self.num_caches
        self.present_b.extend(bytes(grown))
        # Zero-fill appends (8-byte elements); no numpy view of these
        # buffers is live here — the vector paths create theirs after
        # growth and drop them before the next chunk.
        zeros = bytes(8 * grown)
        self.dsz.frombytes(zeros)
        if self.cold:
            self.lh.frombytes(zeros)
            self.seq.frombytes(zeros)
        if self.lfu:
            self.entry.frombytes(zeros)
            self.hits.frombytes(zeros)
            self.live_seq.frombytes(zeros)
        if self.url_of is not None:
            self.url_of.extend(new_urls)
        np = self.np
        if np is None:
            self.url_len.extend(chunk.new_url_lens)
            self.icp.extend(chunk.new_icp_probe_bytes)
            return
        self.first_min_g.extend(np, np.full(add_docs, -1, dtype=np.int64))
        self.url_len_g.extend(np, chunk.new_url_lens)
        self.icp_g.extend(np, chunk.new_icp_probe_bytes)
        self.first_size_g.extend(np, np.full(add_docs, -1, dtype=np.int64))

    def columns(self, chunk):
        """The chunk's batch precompute (see :func:`_columns_np`).

        Kept in the memo of a whole-trace chunk — sweeps re-replay the
        same trace at many capacities — per everything that shapes it.
        """
        key = (self.patch, self.partitioner, tuple(self.leaves), self.num_caches)
        return chunk.memoised("batch_cols", key, lambda: _columns_np(self, chunk))

    def refresh_age(self, c: int, wire: bool = False, now=None) -> float:
        """Cache ``c``'s age: a tracker read at ``now`` in a time window,
        otherwise the cell, recomputed from its window if stale.

        The one place a window sum becomes an age: a reader of ``cur_age``
        / ``age_len`` comes here first when ``age_len[c]`` is negative
        (stale: an eviction happened, so the divisor is not zero; or a
        time window, where nothing is cached) or, for a header, 0 (a fresh
        age nobody needed as text yet). Only headers ask for ``wire``
        (:meth:`wire_len`), so ``format_expiration_age`` checks exactly
        the ages the object core puts on the wire.
        """
        if self.trackers is not None:
            age = self.cur_age[c] = self.trackers[c].cache_expiration_age(now)
            return age
        if self.age_len[c] < 0:
            evictions = len(self.win[c]) if self.count_mode else self.wtot[c]
            # Floored like the trackers' reads: a running sum of
            # non-negative ages can end a few ulps below zero.
            self.cur_age[c] = max(0.0, self.wsum[c] / evictions)
            self.age_len[c] = 0
        if wire:
            self.age_len[c] = len(format_expiration_age(self.cur_age[c]))
        return self.cur_age[c]

    def wire_len(self, c: int, now) -> int:
        """Length of cache ``c``'s age as header text (a read of the age)."""
        age = self.refresh_age(c, True, now)
        if self.trackers is None:
            return self.age_len[c]
        return len(format_expiration_age(age))

    def residents(self, c: int) -> int:
        """Copies cache ``c`` holds (while cold, nothing was ever evicted)."""
        if self.cold:
            return self.st_admissions[c]
        return len(self.heaps[c] if self.lfu else self.lru[c])

    def leave_cold(self) -> None:
        """End the cold regime: hand recency from the columns to ``lru``.

        Applies the cold segments' deferred last-touch fixups, then fills
        each cache's ``OrderedDict`` with its resident slots in ascending
        ``seq`` order (a request touches at most one slot per cache, so
        the order is total). O(residents), once per replay; the columns
        are released — nothing reads them again.
        """
        np = self.np
        seq_v = np.frombuffer(self.seq, dtype=np.int64)
        lh_v = np.frombuffer(self.lh)
        for slots_p, gs_p, tss_p in self.pending:
            m = gs_p > seq_v[slots_p]
            sm = slots_p[m]
            seq_v[sm] = gs_p[m]
            lh_v[sm] = tss_p[m]
        self.pending.clear()
        resident = np.flatnonzero(np.frombuffer(self.present_b, dtype=np.uint8))
        resident = resident[np.argsort(seq_v[resident])]
        owner = resident % self.num_caches
        for c, od in enumerate(self.lru):
            mine = resident[owner == c]
            od.update(zip(mine.tolist(), lh_v[mine].tolist()))
        self.cold = False
        self.lh = self.seq = None


def replay(
    config, trace, np, obs=None, chunk_size: Optional[int] = None,
    regimes: Optional[dict] = None, spans=None, timeseries=None,
) -> SimulationResult:
    """The request loop of both fast engines (module docstring).

    ``np`` is numpy to run the vector regimes with, or None to run the
    loop alone; the caller has checked that the config allows them
    (:func:`simulate_batch`). The other arguments are
    :func:`simulate_batch`'s.
    """
    st = _FastState(config, np, obs)
    vector = np is not None

    # Frame and state fields the loop touches, bound once so its closures
    # see plain locals.
    NC = st.num_caches
    parent = st.parent
    probe_targets = st.probe_targets
    flat = not st.hierarchical  # no parents: every group-wide miss goes to the origin
    # The "first" responder over every sibling is one search of the slots;
    # otherwise the probe scans the targets.
    scan = st.max_age_strategy or not flat
    cap = st.cap
    sender_len = st.sender_len
    present_b = st.present_b
    dsz = st.dsz
    lru = st.lru
    lfu = st.lfu
    heaps = st.heaps
    hseq = st.hseq
    entry = st.entry
    hits = st.hits
    live_seq = st.live_seq
    used = st.used
    st_remote_served = st.st_remote_served
    st_bytes_remote = st.st_bytes_remote
    st_promo_granted = st.st_promo_granted
    st_promo_withheld = st.st_promo_withheld
    st_admissions = st.st_admissions
    st_bytes_admitted = st.st_bytes_admitted
    st_rejections = st.st_rejections
    st_declined = st.st_declined
    bus = st.bus
    ea = st.ea
    tie_requester = st.tie_requester
    rc_limit = _INF if st.replica_cap is None else st.replica_cap * cap
    max_age_strategy = st.max_age_strategy
    count_mode = st.count_mode
    W = config.window_size
    win = st.win
    wsum = st.wsum
    wtot = st.wtot
    trackers = st.trackers
    timed = trackers is not None
    cur_age = st.cur_age
    age_len = st.age_len
    refresh_age = st.refresh_age
    wire_len = st.wire_len
    url_len = None if vector else st.url_len
    sdig: dict = {}  # stored-size -> len(str(size)), bounded by doc count
    rec = obs
    emit = rec is not None
    audit = emit or timed  # reads whose value only events use
    url_of = st.url_of
    probe_hops = 1 if st.hierarchical else 0

    # Rebound per chunk; the closures read them as free variables.
    out = bytearray()
    served = array("q")
    leaf_l = rsz = ts_l = docs_l = digits_l = None
    # Lean mode (vector regimes only) is sound while *every* request so
    # far matched its doc's first-seen size: one deviating chunk can leave
    # a stored size that differs from the size column, so it latches off.
    lean = vector
    # The snapshot fold (observer only): chunk requests before ``cursor``
    # are folded into the per-cache seen / local / admitted counts.
    cursor = folded = 0
    seen = local = admitted = None

    def miss_path(slot: int, i: int, e: int, now: float) -> int:
        """Members ``i..e`` of a run whose slot is not resident.

        One member at a time until a copy sticks: the ICP probe scan,
        remote serve + placement decision, origin fetch, or escalation to
        the parent, then the admission site unless the placement was
        declined. Returns the first member left for the hit path (``e``:
        none). Everything a request's outcome byte classifies (module
        docstring) is left to the post-pass.
        """
        cache = leaf_l[i]
        base = slot - cache
        while True:
            if scan:
                rslot = -1
                for t in probe_targets[cache]:
                    if present_b[base + t]:
                        if max_age_strategy:
                            t_age = cur_age[t] if age_len[t] >= 0 else refresh_age(t, False, now)
                            if rslot < 0 or t_age > best_age:
                                rslot = base + t
                                best_age = t_age
                        elif rslot < 0 or base + t < rslot:
                            rslot = base + t
            else:
                # The lowest holder (the requester's own byte is 0).
                rslot = present_b.find(1, base, base + NC)

            target = cache  # where the admission site stores first
            if rslot >= 0:
                # Remote hit. The scheme reads the requester's age, then
                # the responder's; both ride on the exchange's headers.
                responder = rslot - base
                req_len = age_len[cache]
                if req_len <= 0:
                    req_len = wire_len(cache, now)
                peer_len = age_len[responder]
                if peer_len <= 0:
                    peer_len = wire_len(responder, now)
                req_age = cur_age[cache]
                peer_age = cur_age[responder]
                size = dsz[rslot]
                code = 2
                refresh = True
                if ea:
                    refresh = peer_age > req_age
                    if refresh or (req_age == peer_age and not tie_requester):
                        code = 6  # placement declined
                    elif size > rc_limit:  # EA's size-aware replica cap
                        code = 6
                        refresh = True
                sd = sdig.get(size)
                if sd is None:
                    sd = sdig[size] = len(str(size))
                bus[5] += req_len + peer_len + 70 + sd + sender_len[responder]
                # serve_remote at the responder.
                st_remote_served[responder] += 1
                st_bytes_remote[responder] += size
                if refresh:
                    st_promo_granted[responder] += 1
                    if lfu:
                        hits[rslot] += 1
                        tick = hseq[responder] + 1
                        hseq[responder] = tick
                        live_seq[rslot] = tick
                    else:
                        od = lru[responder]
                        od[rslot] = now
                        od.move_to_end(rslot)
                else:
                    st_promo_withheld[responder] += 1
                served[i] = size
                if emit:
                    rec.promotion(
                        now, responder, url_of[docs_l[i]], req_age, peer_age, refresh
                    )
            elif flat or parent[cache] is None:
                # Group-wide miss: origin fetch, stored at the requester.
                # The fetch decision's own-age read has an effect only in
                # a time window (it trims, before the admission's records)
                # and a reader only in the placement event.
                size = rsz[i]
                code = 3
                if audit:
                    req_age = cur_age[cache] if age_len[cache] >= 0 else refresh_age(cache, False, now)
            else:
                # Hierarchical escalation: every probe missed, the parent's
                # included, so the leaf asks its parent, with its age on
                # the request. The parent is a root (two_level_tree): it
                # fetches from the origin and stores by the same age test
                # (the admission site's first pass), then answers with its
                # own age (below). Its reads of the leaf's age and its own
                # repeat at the same instant with no eviction between, so
                # they are the values already read.
                up = parent[cache]
                size = rsz[i]
                req_len = age_len[cache]
                if req_len <= 0:
                    req_len = wire_len(cache, now)
                req_age = cur_age[cache]
                own_age = cur_age[up] if age_len[up] >= 0 else refresh_age(up, False, now)
                code = 7 if ea and not own_age > req_age else 3
                target = up

            # The admission site: ProxyCache.admit of a copy the cache does
            # not hold (its refresh branch is unreachable after a local
            # miss), unless the placement was declined. An escalated miss
            # passes twice, parent first. A stored copy keeps code < 4.
            while True:
                if code < 4:
                    if size > cap:
                        code += 8  # larger than the cache: rejected
                    else:
                        tslot = base + target
                        in_use = used[target] + size
                        od = lru[target]
                        if in_use > cap:
                            s = wsum[target]
                            dq = win[target]
                            while in_use > cap:
                                if lfu:
                                    heap = heaps[target]
                                    while True:
                                        _count, tick, victim = heap[0]
                                        live = live_seq[victim]
                                        if live == tick:
                                            break
                                        heapreplace(heap, (hits[victim], live, victim))  # stale key
                                    heappop(heap)
                                    age = (now - entry[victim]) / hits[victim]
                                else:
                                    victim, last = od.popitem(False)
                                    age = now - last
                                present_b[victim] = 0
                                in_use -= dsz[victim]
                                if timed:
                                    trackers[target].record(age, now)
                                else:
                                    # The +=/-= sequence of
                                    # ExpirationAgeTracker.record: bit-equal sums.
                                    s += age
                                    if count_mode:
                                        if len(dq) == W:
                                            s -= dq[0]
                                        dq.append(age)
                                    else:
                                        wtot[target] += 1
                                if emit:
                                    rec.eviction(now, target, url_of[victim // NC], dsz[victim], age)
                            # (Both unread in a time window: s is its
                            # unchanged sum and age_len stays -1.)
                            wsum[target] = s
                            age_len[target] = -1
                        present_b[tslot] = 1
                        dsz[tslot] = size
                        used[target] = in_use
                        if lfu:
                            entry[tslot] = now
                            hits[tslot] = 1
                            tick = hseq[target] + 1
                            hseq[target] = tick
                            live_seq[tslot] = tick
                            heappush(heaps[target], (1, tick, tslot))
                        else:
                            od[tslot] = now
                if target == cache:
                    break
                # The parent's outcome (its tallies are not in the leaf's
                # outcome byte) and its answer. The post-pass counts the
                # leaf's side as an origin fetch (its request, the origin's
                # response); the hop through the parent adds a request and
                # a response, the parent's Via headers and the two ages.
                if code < 4:
                    st_admissions[up] += 1
                    st_bytes_admitted[up] += size
                elif code & 8:
                    st_rejections[up] += 1
                else:
                    st_declined[up] += 1
                if emit:
                    rec.placement_node(
                        now, "parent", up, url_of[docs_l[i]], size, own_age, req_age,
                        code < 4,
                    )
                peer_len = age_len[up]
                if peer_len <= 0:
                    peer_len = wire_len(up, now)
                peer_age = cur_age[up]
                bus[2] += 1
                bus[3] += 1
                bus[5] += (
                    req_len + peer_len + url_len[docs_l[i]] + 2 * sender_len[up] + 120
                    + digits_l[i]
                )
                bus[6] += size
                # The child-store rule, then the leaf's pass.
                if not ea or req_age > peer_age or (req_age == peer_age and tie_requester):
                    code = 3
                else:
                    code = 7
                target = cache

            out[i] = code
            if emit:
                url = url_of[docs_l[i]]
                stored = code < 4
                if rslot >= 0:
                    rec.placement_remote(
                        now, cache, url, size, req_age, peer_age, stored, refresh
                    )
                    rec.request(
                        now, cache, url, "remote_hit", size, responder, stored, refresh,
                        probe_hops,
                    )
                elif flat or parent[cache] is None:
                    rec.placement_origin(now, cache, url, size, req_age, stored)
                    rec.request(now, cache, url, "miss", size, None, stored, False, 0)
                else:
                    rec.placement_node(
                        now, "child", cache, url, size, req_age, peer_age, stored
                    )
                    rec.request(now, cache, url, "miss", size, None, stored, False, 1)
            if code < 4:
                return i + 1
            i += 1
            if i == e:
                return e
            now = ts_l[i]

    def warm_loop(runs) -> None:
        """The stateful part of one chunk (all of it with the vector
        regimes off): one pass over its runs.

        A run whose slot is resident is all local hits (outcome byte 0),
        whose only state effect is one LRU touch at the last member's
        timestamp — ``now``, the run's first, for the 99% of runs with one
        member — or, under LFU, k ticks of the heap sequence for k members;
        any other run goes to :func:`miss_path` first, and what it leaves is
        such a run. With a recorder attached every run is one request, and
        its events are emitted where the object core emits them.
        """
        nonlocal cursor
        for slot, i, e, now in runs:
            if emit:
                cursor = i
                rec.maybe_snapshot(now, snapshot_rows)
            if not present_b[slot]:
                i = miss_path(slot, i, e, now)
                if i == e:
                    continue
                now = ts_l[i]
            cache = leaf_l[i]
            if e - i > 1:
                now = ts_l[e - 1]
                if not lean:
                    served[i + 1 : e] = array("q", [dsz[slot]]) * (e - i - 1)
            if not lean:
                served[i] = dsz[slot]
            if lfu:
                hits[slot] += e - i
                tick = hseq[cache] + e - i
                hseq[cache] = tick
                live_seq[slot] = tick
            else:
                od = lru[cache]
                od[slot] = now
                od.move_to_end(slot)
            if emit:
                rec.request(
                    now, cache, url_of[docs_l[i]], "local_hit", dsz[slot], None,
                    False, False, 0,
                )

    def snapshot_rows(due: float):
        """Per-cache gauge rows (CooperativeSimulator._snapshot_rows) before
        request ``cursor`` of the chunk: the frame's tallies plus a fold of
        the chunk's outcome bytes so far."""
        nonlocal folded
        for leaf, code in zip(leaf_l[folded:cursor], out[folded:cursor]):
            seen[leaf] += 1
            if code == 0:
                local[leaf] += 1
            elif code < 4:
                admitted[leaf] += 1
        folded = cursor
        rows = []
        for c in range(NC):
            copies = st.residents(c)
            rows.append((
                cur_age[c] if age_len[c] >= 0 else refresh_age(c, False, due),
                used[c],
                copies,
                st.st_lookups[c] + seen[c],
                st.st_local_hits[c] + local[c],
                st_remote_served[c],
                st_admissions[c] + admitted[c] - copies,
            ))
        return rows

    # Requests handled per regime (see ``regimes``).
    tally = {"cold": 0, "hit_run": 0, "scalar": 0}

    # ---------------------------------------------------------------- #
    # Chunked replay
    # ---------------------------------------------------------------- #
    traced = vector and spans is not None
    for chunk in st.chunks(trace, chunk_size, spans):
        n = chunk.num_records
        st.grow(chunk)
        if not n:
            continue
        gbase = chunk.base_records
        w_start = min(max(st.warmup - gbase, 0), n)  # first measured request
        out = bytearray(n)

        if not vector:
            # The loop alone: list columns, one request per run.
            leaf_l, rsz, digits_l = st.chunk_columns(chunk)
            docs_l = chunk.doc_ids
            ts_l = chunk.timestamps
            served = array("q", rsz)
            cursor = folded = 0
            seen, local, admitted = [0] * NC, [0] * NC, [0] * NC
            # slot = doc * NC + leaf per request, zipped without a list.
            slots = map(add, map(NC.__mul__, docs_l), leaf_l)
            warm_loop(zip(slots, range(n), range(1, n + 1), ts_l))
            _post_pass(st, *_tally_py(st, w_start, out, served, leaf_l, docs_l, digits_l))
            if timeseries is not None:
                st.sample(timeseries, gbase + n, float(ts_l[-1]))
            continue

        # Batch precompute: the per-request numpy columns.
        if traced:
            spans.begin("columns", "replay")
        cols = st.columns(chunk)
        if traced:
            spans.end()
        npx = cols.npx
        lean = lean and cols.lean
        tail_start = 0  # first request index the loop replays

        # Cold-regime prefix: replay first-slot-occurrences only, up to
        # the split where an admission would first evict/reject/decline.
        if st.cold:
            if traced:
                spans.begin("cold", "regime")
            tail_start = _cold_prefix(st, n, gbase, cols, out)
            if traced:
                spans.end(requests=tail_start)
        tally["cold"] += tail_start

        # While cold every copy holds its doc's first size, and a lean
        # tail serves the size column, which equals it: ``npx[3]`` (never
        # mutated: may be memo-shared) unless a non-lean tail runs.
        served_np = npx[3]

        # The stateful tail (see warm_loop), the only consumer of Python
        # lists: a chunk that stayed cold never builds them. The loop
        # stores served sizes into an ``array`` at Python speed. Lean mode
        # never reads it; otherwise it starts as the cold prefix's first
        # sizes, then the request sizes — what an origin miss serves —
        # and the loop overwrites the hits with their copy's size.
        if tail_start < n:
            if traced:
                spans.begin("warm", "regime")
            leaf_l, rsz = cols.scalar_columns()
            ts_l = chunk.timestamps
            starts_l, sslots_l, sts_l, ends_l = cols.runs(np, tail_start)
            served = array("q", (0,)) * n
            if not lean:
                served_np = np.frombuffer(served, dtype=np.int64)
                served_np[:tail_start] = npx[3][:tail_start]
                served_np[tail_start:] = cols.post[4][tail_start:]
            warm_loop(zip(sslots_l, starts_l, ends_l, sts_l))
            # Every scalar request wrote a non-zero outcome byte.
            hit_req = out.count(0, tail_start)
            scal_req = n - tail_start - hit_req
            tally["hit_run"] += hit_req
            tally["scalar"] += scal_req
            if traced:
                spans.end(hit_run=hit_req, scalar=scal_req)

        # Outcome post-pass: bus, per-cache stats, metrics, latency.
        if traced:
            spans.begin("post", "replay")
        _post_pass(st, *_tally_np(st, w_start, out, served_np, cols.post))
        if traced:
            spans.end()
        if timeseries is not None:
            st.sample(timeseries, gbase + n, float(npx[2][n - 1]), **tally)

    if regimes is not None and vector:
        regimes.update(tally)
    # A document counts once however many caches hold it: any() over each
    # doc's NC residency bytes.
    unique_documents = sum(map(any, zip(*[iter(present_b)] * NC)))
    return st.result([refresh_age(c) for c in range(NC)], unique_documents)


def _cold_prefix(st, n, gbase, cols, out):
    """Replay the cold-regime prefix of one chunk, fully vectorised.

    Writes the prefix's outcome bytes into ``out`` (its admissions are
    codes 2 and 3, counted by the post-pass), and its admissions, remote
    serves and deferred touch fixups into ``st``. Returns the split: the
    first request index the loop must replay (``n`` when the whole chunk
    stayed cold — the regime latches off otherwise).
    """
    np = st.np
    NC = st.num_caches
    cap = st.cap
    ea = st.ea
    replica_cap = st.replica_cap
    present_b = st.present_b
    dsz = st.dsz
    lh = st.lh
    seq = st.seq
    used = st.used
    sender_np = st.sender_np
    first_min = st.first_min_g.view()
    leaf_np = cols.post[0]
    docs_np, slots_np, ts_np, fsreq_np = cols.npx
    grp_slot, grp_first, grp_last = cols.groups(np)
    # Cold invariant: a slot was seen before iff it is resident.
    # (No reference to the frombuffer view may outlive this
    # statement — present_b.extend() would raise BufferError.)
    new_g = np.frombuffer(present_b, dtype=np.uint8)[grp_slot] == 0
    ev_ord = np.argsort(grp_first[new_g])
    ev_idx = grp_first[new_g][ev_ord]
    ev_slot = grp_slot[new_g][ev_ord]
    ev_doc = docs_np[ev_idx]
    ev_size = fsreq_np[ev_idx]  # admitted size is always the first size
    ev_leaf = leaf_np[ev_idx]
    split = n
    bad = ev_size > cap
    if replica_cap is not None:
        bad = bad | (ev_size > replica_cap * cap)
    if bool(bad.any()):
        split = int(ev_idx[int(np.argmax(bad))])
    for c in range(NC):
        cm = ev_leaf == c
        cs = np.cumsum(ev_size[cm], dtype=np.int64)
        k = int(np.searchsorted(cs, cap - used[c], side="right"))
        if k < len(cs):
            oidx = int(ev_idx[cm][k])
            if oidx < split:
                split = oidx
    if split:
        ecount = int(np.searchsorted(ev_idx, split))
        if ecount:
            # Vectorised first-occurrence replay. Events are
            # regrouped by doc (stable sort keeps time order
            # inside each group); the serving sibling of every
            # non-compulsory event is the doc's running-minimum
            # holding leaf — the ascending probe scan under
            # all-inf ages picks the minimum holding sibling —
            # seeded with the carried-over ``first_min`` state.
            e_idx = ev_idx[:ecount]
            e_slot = ev_slot[:ecount]
            e_leaf = ev_leaf[:ecount]
            e_size = ev_size[:ecount]
            e_ts = ts_np[e_idx]
            e_g = e_idx + gbase
            dorder = np.argsort(ev_doc[:ecount], kind="stable")
            d_doc = ev_doc[:ecount][dorder]
            d_leaf = e_leaf[dorder]
            gstart = np.empty(ecount, dtype=bool)
            gstart[0] = True
            gstart[1:] = d_doc[1:] != d_doc[:-1]
            # bool input would otherwise promote to the platform
            # default integer (int32 on Windows).
            gid = np.cumsum(gstart, dtype=np.int64) - 1
            # Segmented inclusive running minimum of the leaf
            # column via offset max-accumulate: group offsets
            # dominate the encoded values, so earlier groups can
            # never leak into later ones. NC encodes "no holder".
            enc = gid * (NC + 1) + (NC - d_leaf)
            run_incl = NC - (np.maximum.accumulate(enc) - gid * (NC + 1))
            seed = first_min[d_doc[gstart]]
            seed = np.where(seed < 0, NC, seed)
            shifted = np.empty(ecount, dtype=np.int64)
            shifted[0] = NC
            shifted[1:] = run_incl[:-1]
            before = np.minimum(
                seed[gid], np.where(gstart, NC, shifted)
            )
            compulsory = before >= NC
            gendm = np.empty(ecount, dtype=bool)
            gendm[:-1] = gstart[1:]
            gendm[-1] = True
            first_min[d_doc[gstart]] = np.minimum(
                seed, run_incl[gendm]
            )
            d_idx = e_idx[dorder]
            ov = np.frombuffer(out, dtype=np.uint8)
            ov[d_idx] = np.where(compulsory, 3, 2)
            del ov
            rem = ~compulsory
            if bool(rem.any()):
                fm_r = before[rem]
                sz_r = e_size[dorder][rem]
                # 76 + Content-Length digits + sender header.
                st.bus[5] += int(
                    (decimal_digits(np, sz_r) + 76 + sender_np[fm_r]).sum()
                )
                rcnt = np.bincount(fm_r, minlength=NC)
                rbyt = np.bincount(fm_r, weights=sz_r, minlength=NC)
                for c in range(NC):
                    k = int(rcnt[c])
                    if k:
                        st.st_remote_served[c] += k
                        st.st_bytes_remote[c] += int(rbyt[c])
                        if ea:
                            # Equal (inf) ages: never granted.
                            st.st_promo_withheld[c] += k
                        else:
                            st.st_promo_granted[c] += k
            # Admissions: slots are unique (first occurrences),
            # so the scatters are conflict-free. (The residency
            # view must not outlive this block.)
            pb = np.frombuffer(present_b, dtype=np.uint8)
            pb[e_slot] = 1
            del pb
            dszv = np.frombuffer(dsz, dtype=np.int64)
            lhv = np.frombuffer(lh)
            seqv = np.frombuffer(seq, dtype=np.int64)
            dszv[e_slot] = e_size
            lhv[e_slot] = e_ts
            seqv[e_slot] = e_g
            abyt = np.bincount(e_leaf, weights=e_size, minlength=NC)
            for c in range(NC):
                used[c] += int(abyt[c])
            if not ea and bool(rem.any()):
                # Responder promotions touch the serving slot.
                # Applied *after* the admission scatter: a slot
                # admitted earlier in this batch can be
                # promotion-touched later, and the latest touch
                # must win. Duplicates share a doc group, so
                # array order is time order and fancy assignment
                # resolves last-wins.
                rslot_r = e_slot[dorder][rem] - d_leaf[rem] + fm_r
                lhv[rslot_r] = e_ts[dorder][rem]
                seqv[rslot_r] = e_g[dorder][rem]
            del dszv, lhv, seqv
        if split == n:
            st.pending.append((grp_slot, grp_last + gbase, ts_np[grp_last]))
        else:
            p_slot, _p_first, p_last = _slot_groups(np, slots_np[:split])
            st.pending.append((p_slot, p_last + gbase, ts_np[p_last]))
    if split < n:
        # The next admission can evict: ages stop being inf, so the regime
        # is over for good. The loop needs the exact recency order.
        st.leave_cold()
    return split


def _tally_py(st, w_start, out, served, leaf_l, docs_l, digits_l):
    """The post-pass's Python body: the tallies of :func:`_tally_np` from
    the chunk's list columns, one request at a time."""
    num_caches = st.num_caches
    count = [0] * (16 * num_caches)
    size = [0] * (16 * num_caches)
    icp = [0] * num_caches
    hdr = 0
    url_len = st.url_len
    icp_pair = st.icp
    for leaf, doc, code, served_size, digits in zip(leaf_l, docs_l, out, served, digits_l):
        key = leaf << 4 | code
        count[key] += 1
        size[key] += served_size
        if code:
            icp[leaf] += icp_pair[doc]
            hdr += url_len[doc] + digits if code & 1 else url_len[doc]
    lat = st.lat_class
    bw = st.bw_class
    per_class = [0] * 4
    class_bytes = [0] * 4
    latency = st.latency_sum
    for code, served_size in zip(islice(out, w_start, None), islice(served, w_start, None)):
        cls = code & 3
        per_class[cls] += 1
        class_bytes[cls] += served_size
        latency += lat[cls] + served_size / bw[cls]
    return count, size, icp, hdr, per_class, class_bytes, latency


def _tally_np(st, w_start, out, served_np, post):
    """The post-pass's numpy body over one chunk's outcome columns.

    Returns, like :func:`_tally_py`: the ``(leaf, outcome byte)``
    histogram by count and by served bytes (16 buckets per cache), the
    ICP probe bytes per leaf and the URL + Content-Length header bytes of
    the requests that left their leaf, and the measured window's count
    and served bytes per outcome class, and ``st.latency_sum`` with the
    window's latencies folded on in request order.
    """
    np = st.np
    NC = st.num_caches
    leaf_np, icp_req_np, url_req_np, digits_np, _rsz_np = post
    out_np = np.frombuffer(out, dtype=np.uint8)
    key = leaf_np * 16 + out_np
    count = np.bincount(key, minlength=16 * NC).tolist()
    size = np.bincount(key, weights=served_np, minlength=16 * NC).tolist()
    cls = out_np & 3
    left = cls != 0
    icp = np.bincount(leaf_np[left], weights=icp_req_np[left], minlength=NC).tolist()
    hdr = int(url_req_np[left].sum()) + int(digits_np[cls == 3].sum())
    cls_w = cls[w_start:]
    served_w = served_np[w_start:]
    per_class = np.bincount(cls_w, minlength=4).tolist()
    class_bytes = np.bincount(cls_w, weights=served_w, minlength=4).tolist()
    fold = np.empty(len(cls_w) + 1, dtype=np.float64)
    fold[0] = st.latency_sum
    fold[1:] = st.lat_np[cls_w] + served_w / st.bw_np[cls_w]
    np.add.accumulate(fold, out=fold)
    return count, size, icp, hdr, per_class, class_bytes, float(fold[-1])


def _post_pass(st, count, size, icp, hdr, per_class, class_bytes, latency):
    """Fold one chunk's outcome tallies into the frame's.

    The tallies come from :func:`_tally_np` or :func:`_tally_py`. The
    outcome byte is the only record of a leaf's admission (2 or 3), its
    declined placement (6 or 7) or rejected copy (10 or 11); a parent's
    are tallied inline. Every admitted copy is resident or was evicted,
    so evictions and evicted bytes follow from conservation. Sums of
    served bytes may arrive as floats (numpy's weighted bincount); they
    are exact integers.
    """
    bus = st.bus
    for c in range(st.num_caches):
        row = count[16 * c : 16 * c + 16]
        nbytes = size[16 * c : 16 * c + 16]
        lookups = sum(row)
        misses = lookups - row[0]
        targets = len(st.probe_targets[c])
        st.st_lookups[c] += lookups
        st.st_local_hits[c] += row[0]
        st.st_local_misses[c] += misses
        st.st_bytes_local[c] += int(nbytes[0])
        st.st_admissions[c] += row[2] + row[3]
        st.st_bytes_admitted[c] += int(nbytes[2] + nbytes[3])
        st.st_declined[c] += row[6] + row[7]
        st.st_rejections[c] += row[10] + row[11]
        # Per local miss: a probe of every target, then one HTTP exchange
        # whose headers carry the URL, the sender and (origin) 24 bytes
        # and the Content-Length.
        bus[0] += targets * misses
        bus[1] += targets * misses
        bus[2] += misses
        bus[3] += misses
        bus[4] += targets * int(icp[c])
        bus[5] += (st.sender_len[c] + 50) * misses + 24 * (row[3] + row[7] + row[11])
        bus[6] += int(sum(nbytes) - nbytes[0])
        copies = st.copies[c] = st.residents(c)
        st.st_evictions[c] = st.st_admissions[c] - copies
        st.st_bytes_evicted[c] = st.st_bytes_admitted[c] - st.used[c]
    bus[5] += hdr
    met = st.met
    met[0] += sum(per_class)
    met[1] += per_class[0]
    met[2] += per_class[2]
    met[3] += per_class[3]
    met[4] += int(sum(class_bytes))
    met[5] += int(class_bytes[0])
    met[6] += int(class_bytes[2])
    met[7] += int(class_bytes[3])
    st.latency_sum = latency


class _NpGrow:
    """Amortised-growth int64 numpy column.

    Streamed replay extends per-doc/per-slot columns every chunk;
    rebuilding a numpy array from the python list each time would be
    O(docs x chunks). This doubles capacity instead, so total copy work
    is O(docs). Callers re-fetch :meth:`view` after every extend — the
    buffer may have been reallocated.
    """

    __slots__ = ("buf", "used")

    def __init__(self, np):
        self.buf = np.empty(1024, dtype=np.int64)
        self.used = 0

    def extend(self, np, values) -> None:
        need = self.used + len(values)
        capacity = len(self.buf)
        if need > capacity:
            while capacity < need:
                capacity *= 2
            grown = np.empty(capacity, dtype=self.buf.dtype)
            grown[: self.used] = self.buf[: self.used]
            self.buf = grown
        self.buf[self.used : need] = values
        self.used = need

    def view(self):
        return self.buf[: self.used]


def _segments(np, values):
    """``(starts, ends)`` of the maximal runs of equal consecutive values."""
    n = len(values)
    change = np.empty(n, dtype=bool)
    change[0] = True
    if n > 1:
        change[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(change)
    ends = np.empty(len(starts), dtype=np.intp)
    ends[:-1] = starts[1:]
    ends[-1] = n
    return starts, ends


def _slot_groups(np, slots):
    """``(slot, first index, last index)`` per distinct slot in ``slots``."""
    order = np.argsort(slots, kind="stable")
    ss = slots[order]
    # Stable sort keeps each group's original indices ascending, so group
    # boundaries give first/last occurrence directly.
    gpos, gend = _segments(np, ss)
    return ss[gpos], order[gpos], order[gend - 1]


def _run_columns(np, slots_np, ts_np, lo, n):
    """Run-length segmentation of requests ``lo..n`` by slot.

    Returns the list columns ``(starts_l, sslots_l, sts_l, ends_l)`` —
    run start, slot, first timestamp, run end — that ``warm_loop`` walks.
    """
    starts_np = _segments(np, slots_np[lo:n])[0]
    starts_np += lo
    starts_l = starts_np.tolist()
    ends_l = starts_l[1:]  # shares the int objects with starts_l
    ends_l.append(n)
    return starts_l, slots_np[starts_np].tolist(), ts_np[starts_np].tolist(), ends_l


class _ChunkColumns:
    """One chunk's batch precompute (see :func:`_columns_np`).

    ``post`` and ``npx`` are the numpy columns the cold regime and the
    post-pass consume; ``lean`` says every request matched its doc's
    first-seen size. What only one regime asks for — the Python lists
    ``warm_loop`` / ``miss_path`` index (per-request leaf and patched
    size, the run columns) and the cold regime's slot groups — is built
    on first request and kept (the object lives in the memo of a
    whole-trace chunk), so a chunk that stays cold allocates no
    per-request Python object. It does not refer to its chunk.
    """

    __slots__ = ("post", "npx", "lean", "_scalar", "_runs", "_groups")

    def __init__(self, post, npx, lean):
        self.post = post
        self.npx = npx
        self.lean = lean
        self._scalar = None
        self._runs = None
        self._groups = None

    def scalar_columns(self):
        """``(leaf_l, rsz_q)``: per-request leaf and patched size as the
        scalar path indexes them. Leaves are a list (small ints: no object
        per request); sizes an ``array('q')`` — an int is made at each
        origin miss that reads one, none is kept per request."""
        if self._scalar is None:
            self._scalar = (
                self.post[0].tolist(), array("q", self.post[4].tobytes()),
            )
        return self._scalar

    def groups(self, np):
        """:func:`_slot_groups` of the chunk's slot column."""
        if self._groups is None:
            self._groups = _slot_groups(np, self.npx[1])
        return self._groups

    def runs(self, np, lo):
        """Run columns of requests ``lo..n`` (see :func:`_run_columns`).

        A tail cut by the cold split is re-segmented from ``lo`` — a run
        straddling the split re-enters as a fresh run start, which the
        loop handles identically; the whole-chunk segmentation is kept.
        """
        if lo or self._runs is None:
            _docs_np, slots_np, ts_np, _known = self.npx
            runs = _run_columns(np, slots_np, ts_np, lo, len(slots_np))
            if lo:
                return runs
            self._runs = runs
        return self._runs


def _columns_np(st, chunk):
    """Vectorised per-chunk columns (a :class:`_ChunkColumns`).

    Numpy from the chunk's own columns on
    (:meth:`InternedChunk.columns_np`: views of a packed chunk's buffers,
    one conversion per list otherwise).
    """
    np = st.np
    NC = st.num_caches
    url_len = st.url_len_g.view()
    icp = st.icp_g.view()
    docs_np, sizes_np, ts_np, clients_np = chunk.columns_np(np)
    leaf_np, rsz_np, digits_np = st.chunk_columns_np(np, chunk, clients_np, sizes_np)
    # Lean-mode eligibility: every doc's patched size constant so far.
    # First-occurrence assignment: reversed fancy indexing makes the
    # earliest duplicate win; docs seen in prior chunks keep their value.
    fs = st.first_size_g.view()
    known = fs[docs_np]
    unseen = known < 0
    if bool(unseen.any()):
        fs[docs_np[unseen][::-1]] = rsz_np[unseen][::-1]
        known = fs[docs_np]
    lean = bool((known == rsz_np).all())
    slots_np = docs_np * NC + leaf_np
    post = (leaf_np, icp[docs_np], url_len[docs_np], digits_np, rsz_np)
    # ``known`` is the per-request first-seen-size column — the size any
    # resident copy of the doc holds while the cold regime lasts.
    npx = (docs_np, slots_np, ts_np, known)
    return _ChunkColumns(post, npx, lean)
