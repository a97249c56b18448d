"""The replay kernel of both fast engines: one request loop, vector regimes.

:func:`replay` replays the object core's protocol sequence — local
lookup, ICP probe, remote or origin fetch, the placement decisions,
hierarchical escalation — over flat columnar state. It is the only
request loop in :mod:`repro.fastpath`; the two engines are two settings
of it:

* ``engine="batch"`` (:func:`simulate_batch`) switches the **vector
  regimes** on wherever :func:`batch_fastloop_reason` allows them — any
  architecture, policy and window, no snapshot ticks, numpy present: a
  numpy precompute per chunk and the run segmentation it feeds, a
  vectorised cold prefix where its own latch allows one, and the numpy
  body of the post-pass.
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
  divides at the next read, :meth:`_FastState.wire_len` divides and
  formats for a header. A time window trims on every read, and the order
  of trims and records shows in the float sum, so there every read and
  every fold is a call on the object core's own tracker, in the object
  core's order.
* **Outcome post-pass** — the loop records one byte per request and the
  served size. The low two bits are the class (0 local hit / 2 remote hit
  / 3 origin miss); 4 marks a declined placement and 8 a copy larger than
  the cache. Per-cache lookups, hits, admissions, rejections and
  declines, the bus counters and the metrics come from those columns in
  one post-pass (:func:`_post_pass`, with a numpy body and a Python body
  of the same tallies); ``copies`` is the residents count, and evictions
  follow by conservation; a leaf with a parent escalates each origin miss
  once, so the hop's messages and fixed bytes follow too. The loop tallies
  inline only what needs the responder, a live age or the parent: remote
  serves, promotions, age header bytes, the parent's admissions. The
  latency is folded in request order (``np.add.accumulate`` is a strict
  left fold), bit-identical to the serial ``+=`` sequence.
* **Observer** — with a :class:`~repro.obs.events.RunRecorder` attached
  the loop emits the decision lines (``promotion``, ``evict``,
  ``placement``) at the object core's decision sites. ``request`` lines
  are data: a local hit writes nothing, a remote hit also notes its
  responder and promotion verdict in two per-chunk columns, and the
  recorder writes the lines of requests ``pend..i-1`` from the outcome
  and ``served`` columns (:meth:`~repro.obs.events.RunRecorder.requests`)
  before request ``i``'s first decision line, before a due snapshot tick
  and at the chunk's end — every other line comes from :func:`miss_path`
  or a snapshot, so the stream keeps the object core's order. A snapshot
  row is the frame's tallies plus a fold of the chunk's outcome bytes so
  far. The cold prefix has no decision site of its own: its requests'
  lines, decision lines included, are written whole after it from the
  outcome bytes and a responder column it fills (:func:`_cold_lines`).

The vector regimes:

* **Batch precompute** — leaf assignment, slots, timestamps and patched
  record sizes per request, each doc's first size, in one numpy pass
  (:func:`_columns_np`), kept in the memo of a whole-trace chunk, the one
  kind of chunk replayed more than once (:meth:`_FastState.columns`), in
  the narrowest type that holds them (a byte per leaf, int32 slots and
  sizes where they fit). Digit counts and the URL and ICP byte columns
  are read per block in the post-pass and not kept.
* **The cold regime** — while no cache has ever filled, every expiration
  age is ``inf``, EA placement decisions are constants, every admission
  succeeds, and a request can change cache state only if it is the first
  occurrence of its slot. :func:`_cold_prefix` finds those vectorially,
  computes where the regime provably ends (the first admission that
  would evict, reject or trip the replica cap) and replays the prefix as
  array operations; local hits are pure post-pass arithmetic. The loop
  takes over at the split (:meth:`_FastState.leave_cold`). Its latch is
  off from the start in a hierarchy, under LFU and under EA with
  ``tie_break="responder"``: the loop replays those from request 0.

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
from itertools import chain
from operator import add
from typing import List, Optional

from repro.cache.expiration import ExpirationAgeTracker
from repro.fastpath._frame import ReplayFrame, check_envelope
from repro.fastpath.numeric import decimal_digits, load_numpy
from repro.obs.events import string_json
from repro.protocol.http import format_expiration_age
from repro.simulation.results import SimulationResult

_INF = math.inf
# Runs per block of the warm regime's run iterator (see _runs).
_RUN_BLOCK = 1024
# Requests per block of the post-pass tallies and the cold prefix's lines.
_BLOCK = 1 << 14


def batch_fastloop_reason(config, obs=None) -> Optional[str]:
    """Why ``config`` replays with the kernel's vector regimes off, or None
    when ``engine="batch"`` runs them.

    Purely informational (results are byte-identical either way); the run
    manifest and ``repro analyze`` surface it so their coverage is
    observable. Neither row reads the config: the first reads the
    observer (a snapshot tick can fall between two members of a run), the
    second the platform (the vector regimes are numpy code).
    """
    if obs is not None and obs.snapshot_interval > 0:
        why = "an attached observer takes snapshots between any two requests"
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
    (see :meth:`leave_cold`). ``cold`` is the cold regime's latch (module
    docstring).
    """

    def __init__(self, config, np, obs=None):
        super().__init__(config, "columnar" if np is None else "batch")
        self.np = np
        num_caches = self.num_caches
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
        # (``win[c]`` holds its ages; None in other modes, where a
        # window size is never read) or the cumulative one (``wtot[c]``
        # evictions). The age and its wire-text length are cells
        # (:meth:`refresh_age`); a time window reads the trackers instead
        # and keeps ``age_len`` at -1, so every reader asks.
        self.count_mode = config.window_mode == "count"
        self.win = [
            deque(maxlen=config.window_size) if self.count_mode else None
            for _ in range(num_caches)
        ]
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
        # request adds.
        self.lat_class = [self.lat_local, 0.0, self.lat_remote, self.lat_miss]
        # Event lines name the URL; ``request`` lines read its JSON text.
        self.url_of = None if obs is None else []
        self.url_json = None if obs is None else []

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
        # Cold regime (see module docstring): sound while no eviction has
        # ever happened anywhere — the flag latches off *before* the first
        # request that could evict runs. It stores only at the requester
        # (EA with tie_break="responder" would not store on a remote hit)
        # and builds no parent copy or LFU heap; those shapes run the loop.
        self.cold = not (self.hierarchical or self.lfu) and (not self.ea or self.tie_requester)
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
        self.largest = 0  # the largest patched size replayed so far

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
            self.url_json.extend(map(string_json, new_urls))
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

    def refresh_age(self, c: int, now=None) -> float:
        """Cache ``c``'s age: a tracker read at ``now`` in a time window,
        otherwise the cell, recomputed from its window if stale.

        A reader of ``cur_age`` comes here first when ``age_len[c]`` is
        negative (stale: an eviction happened, so the divisor is not zero;
        or a time window, where nothing is cached). A recomputed cell reads
        0 in ``age_len``: a fresh age nobody needed as text yet.
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
        return self.cur_age[c]

    def wire_len(self, c: int, now) -> int:
        """Length of cache ``c``'s age as header text (a read of the age),
        for a reader that found ``age_len[c]`` not positive: one call, so a
        stale cell is recomputed here as in :meth:`refresh_age`, and the
        text is ``format_expiration_age``'s (a cell age is never negative).
        """
        if self.trackers is not None:
            return len(format_expiration_age(self.refresh_age(c, now)))
        if self.age_len[c] < 0:
            evictions = len(self.win[c]) if self.count_mode else self.wtot[c]
            self.cur_age[c] = max(0.0, self.wsum[c] / evictions)
        age = self.cur_age[c]
        length = self.age_len[c] = 3 if age == _INF else len(f"{age:.6f}")
        return length

    def residents(self, c: int) -> int:
        """Copies cache ``c`` holds (while cold, nothing was ever evicted)."""
        if self.cold:
            return self.st_admissions[c]
        return len(self.heaps[c] if self.lfu else self.lru[c])

    def leave_cold(self, cols=None, split: int = 0, gbase: int = 0) -> None:
        """End the cold regime before request ``split`` of the chunk whose
        columns are ``cols`` (global index ``gbase`` at its request 0):
        hand recency from the columns to ``lru``.

        Applies the deferred last-touch fixups of earlier cold chunks, then
        the touches of this chunk's cold prefix: every request there
        touched its own slot, so a slot's last touch is its largest index
        (``np.maximum.at`` applies every one), and its timestamp is read
        at that index (duplicate slots write equal values). Then fills
        each cache's ``OrderedDict`` with its resident slots in ascending
        ``seq`` order (a request touches at most one slot per cache, so
        the order is total). O(residents + split), once per replay, a
        block at a time; the columns are released — nothing reads them
        again.
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
        if split:
            slots = cols.slots
            for b in range(0, split, _BLOCK):
                e = min(b + _BLOCK, split)
                touches = np.arange(b + gbase, e + gbase, dtype=np.int64)
                np.maximum.at(seq_v, slots[b:e], touches)
            for b in range(0, split, _BLOCK):
                touched = slots[b : min(b + _BLOCK, split)]
                lh_v[touched] = cols.ts[seq_v[touched] - gbase]
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
    sdig: dict = {}  # stored-size -> len(str(size)), bounded by doc count
    rec = obs
    emit = rec is not None
    snapshots = emit and rec.snapshot_interval > 0
    audit = emit or timed  # reads whose value only events use
    url_of = st.url_of
    url_json = st.url_json
    probe_hops = 1 if st.hierarchical else 0
    miss_hops = [0 if flat or parent[c] is None else 1 for c in range(NC)]

    # Rebound per chunk; the closures read them as free variables.
    out = bytearray()
    served = array("q")
    leaf_l = rsz = ts_l = docs_l = None
    # Lean mode (vector regimes only) is sound while *every* request so
    # far matched its doc's first-seen size: one deviating chunk can leave
    # a stored size that differs from the size column, so it latches off.
    lean = vector
    # The snapshot fold (observer only): chunk requests before ``cursor``
    # are folded into the per-cache seen / local / admitted counts.
    cursor = folded = 0
    seen = local = admitted = None
    # Request lines (observer only): requests before ``pend`` have theirs;
    # a remote hit's responder and promotion verdict, per chunk request.
    pend = 0
    resp = refr = None

    def flush(i: int) -> None:
        """Write the ``request`` lines of chunk requests ``pend..i-1``."""
        nonlocal pend
        if pend < i:
            rec.requests(
                pend, i, ts_l, leaf_l, docs_l, url_json, out, served, resp, refr,
                probe_hops, miss_hops,
            )
            pend = i

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
            if flat:
                # The lowest holder (the requester's own byte is 0).
                rslot = present_b.find(1, base, base + NC)
            else:
                # A hierarchy's probe scans its targets, the parent among them.
                rslot = -1
                for t in probe_targets[cache]:
                    if present_b[base + t] and (rslot < 0 or base + t < rslot):
                        rslot = base + t

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
                    flush(i)
                    resp[i] = responder
                    refr[i] = refresh
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
                    req_age = cur_age[cache] if age_len[cache] >= 0 else refresh_age(cache, now)
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
                own_age = cur_age[up] if age_len[up] >= 0 else refresh_age(up, now)
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
                                    flush(i)
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
                # leaf's side as an origin fetch and the hop through the
                # parent (its request and response, Via headers, URL,
                # Content-Length and body); only the two ages are live.
                if code < 4:
                    st_admissions[up] += 1
                    st_bytes_admitted[up] += size
                elif code & 8:
                    st_rejections[up] += 1
                else:
                    st_declined[up] += 1
                if emit:
                    flush(i)
                    rec.placement_node(
                        now, "parent", up, url_of[docs_l[i]], size, own_age, req_age,
                        code < 4,
                    )
                peer_len = age_len[up]
                if peer_len <= 0:
                    peer_len = wire_len(up, now)
                peer_age = cur_age[up]
                bus[5] += req_len + peer_len
                # The child-store rule, then the leaf's pass.
                if not ea or req_age > peer_age or (req_age == peer_age and tie_requester):
                    code = 3
                else:
                    code = 7
                target = cache

            out[i] = code
            if emit:
                flush(i)
                url = url_of[docs_l[i]]
                stored = code < 4
                if rslot >= 0:
                    rec.placement_remote(
                        now, cache, url, size, req_age, peer_age, stored, refresh
                    )
                elif flat or parent[cache] is None:
                    rec.placement_origin(now, cache, url, size, req_age, stored)
                else:
                    rec.placement_node(
                        now, "child", cache, url, size, req_age, peer_age, stored
                    )
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
        its decision lines are emitted where the object core emits them
        (its ``request`` line by a later :func:`flush`).
        """
        nonlocal cursor
        for slot, i, e, now in runs:
            if snapshots:
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
                    served[i + 1 : e] = array(served.typecode, [dsz[slot]]) * (e - i - 1)
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

    def snapshot_rows(due: float):
        """Per-cache gauge rows (CooperativeSimulator._snapshot_rows) before
        request ``cursor`` of the chunk: the frame's tallies plus a fold of
        the chunk's outcome bytes so far. Called only when a tick is due,
        so the requests before the tick get their lines first."""
        nonlocal folded
        flush(cursor)
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
                cur_age[c] if age_len[c] >= 0 else refresh_age(c, due),
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
        out = bytearray(n)
        if emit:
            # A cache index fits a byte in every group but a huge one.
            resp = bytearray(n) if NC <= 256 else array("q", bytes(8 * n))
            refr = bytearray(n)

        if not vector:
            # The loop alone: list columns, one request per run.
            leaf_l, rsz, digits = st.chunk_columns(chunk)
            docs_l = chunk.doc_ids
            ts_l = chunk.timestamps
            served = array("q", rsz)
            if emit:
                cursor = folded = pend = 0
                seen, local, admitted = [0] * NC, [0] * NC, [0] * NC
            # slot = doc * NC + leaf per request, zipped without a list.
            slots = map(add, map(NC.__mul__, docs_l), leaf_l)
            warm_loop(zip(slots, range(n), range(1, n + 1), ts_l))
            if emit:
                flush(n)
            _post_pass(st, *_tally_py(st, out, served, leaf_l, docs_l, digits))
            if timeseries is not None:
                st.sample(timeseries, gbase + n, float(ts_l[-1]))
            continue

        # Batch precompute: the per-request numpy columns.
        if traced:
            spans.begin("columns", "replay")
        cols = st.columns(chunk)
        if traced:
            spans.end()
        lean = lean and cols.lean
        st.largest = max(st.largest, cols.largest)
        tail_start = 0  # first request index the loop replays
        if emit:
            docs_l = chunk.doc_ids
            ts_l = chunk.timestamps

        # Cold-regime prefix: replay first-slot-occurrences only, up to
        # the split where an admission would first evict/reject/decline.
        # Its lines are written here, whole: it has no other decision site.
        if st.cold:
            if traced:
                spans.begin("cold", "regime")
            tail_start = _cold_prefix(st, n, gbase, cols, out, resp)
            if tail_start < n:
                # The next admission can evict: ages stop being inf, so the
                # regime is over for good. The loop needs the exact recency
                # order.
                st.leave_cold(cols, tail_start, gbase)
            if emit:
                _cold_lines(st, rec, tail_start, ts_l, docs_l, out, cols, resp)
            if traced:
                spans.end(requests=tail_start)
        tally["cold"] += tail_start
        pend = tail_start

        # While cold every copy holds its doc's first size; a lean chunk's
        # requests all have it, so it serves the size column ``cols.rsz``
        # (never mutated: may be memo-shared) unless a non-lean tail runs.
        served_np = cols.rsz

        # The stateful tail (see warm_loop), the only consumer of Python
        # lists: a chunk that stayed cold never builds them. The loop
        # stores served sizes into an ``array`` at Python speed. Lean mode
        # never reads it; otherwise it starts as the cold prefix's first
        # sizes, then the request sizes — what an origin miss serves —
        # and the loop overwrites the hits with their copy's size. The
        # ``request`` lines read the tail's served sizes in either mode: a
        # lean hit serves its request size.
        if tail_start < n:
            if traced:
                spans.begin("warm", "regime")
            leaf_l, rsz = cols.scalar_columns()
            ts_l = chunk.timestamps
            # A copy holds some request's size, so the largest so far
            # bounds every size served.
            served = _size_array(st.largest, n)
            if not lean or emit:
                served_v = np.frombuffer(served, dtype=f"i{served.itemsize}")
                served_v[tail_start:] = cols.rsz[tail_start:]
                if not lean:
                    cols.first_sizes(0, tail_start, served_v)
                    served_np = served_v
                del served_v
            warm_loop(cols.runs(np, tail_start))
            if emit:
                flush(n)
            # Every scalar request wrote a non-zero outcome byte.
            hit_req = out.count(0, tail_start)
            scal_req = n - tail_start - hit_req
            tally["hit_run"] += hit_req
            tally["scalar"] += scal_req
            if traced:
                spans.end(hit_run=hit_req, scalar=scal_req)
        elif not lean:
            served_np = cols.first_sizes(0, n, np.empty(n, dtype=np.int64))

        # Outcome post-pass: bus, per-cache stats, metrics, latency.
        if traced:
            spans.begin("post", "replay")
        _post_pass(st, *_tally_np(st, out, served_np, cols))
        if traced:
            spans.end()
        if timeseries is not None:
            st.sample(timeseries, gbase + n, float(cols.ts[n - 1]), **tally)

    if regimes is not None and vector:
        regimes.update(tally)
    # A document counts once however many caches hold it: any() over each
    # doc's NC residency bytes.
    unique_documents = sum(map(any, zip(*[iter(present_b)] * NC)))
    return st.result([refresh_age(c) for c in range(NC)], unique_documents)


def _cold_prefix(st, n, gbase, cols, out, resp):
    """Replay the cold-regime prefix of one chunk, fully vectorised.

    Writes the prefix's outcome bytes into ``out`` (its admissions are
    codes 2 and 3, counted by the post-pass), the responder of each remote
    hit into ``resp`` (the observer's column; None without one), and its
    admissions, remote serves and deferred touch fixups into ``st``.
    Returns the split: the first request index the loop must replay
    (``n`` when the whole chunk stayed cold; otherwise the caller ends
    the regime, :meth:`_FastState.leave_cold`).
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
    slots_np = cols.slots
    ts_np = cols.ts
    grp_slot, grp_first, grp_last = cols.groups(np)
    # Cold invariant: a slot was seen before iff it is resident.
    # (No reference to the frombuffer view may outlive this
    # statement — present_b.extend() would raise BufferError.)
    new_g = np.frombuffer(present_b, dtype=np.uint8)[grp_slot] == 0
    ev_ord = np.argsort(grp_first[new_g])
    ev_idx = grp_first[new_g][ev_ord]
    ev_slot = grp_slot[new_g][ev_ord]
    ev_doc = ev_slot // NC
    ev_size = cols.first_size[ev_doc]  # admitted size is always the first size
    ev_leaf = ev_slot - ev_doc * NC
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
            e_g = e_idx.astype(np.int64) + gbase
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
                if resp is not None:
                    dtype = np.uint8 if type(resp) is bytearray else np.int64
                    np.frombuffer(resp, dtype=dtype)[d_idx[rem]] = fm_r
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
            st.pending.append((grp_slot, grp_last.astype(np.int64) + gbase, ts_np[grp_last]))
    return split


def _cold_lines(st, rec, split, ts_l, docs_l, out, cols, resp):
    """Write every line of chunk requests ``0..split-1``, the cold prefix
    (:meth:`~repro.obs.events.RunRecorder.cold_requests`), one block of
    ``_BLOCK`` rows at a time: the numpy columns become Python values a
    block at a time. While cold, every request is served its doc's first
    size."""
    granted = not st.ea  # a promotion under EA needs an age above inf
    urls = st.url_json
    sizes = cols.first_sizes
    for b in range(0, split, _BLOCK):
        e = min(b + _BLOCK, split)
        rec.cold_requests(
            ts_l[b:e], cols.leaf[b:e].tolist(), docs_l[b:e], urls, out[b:e],
            sizes(b, e).tolist(), resp[b:e], granted,
        )


def _tally_py(st, out, served, leaf_l, docs_l, digits_l):
    """The post-pass's Python body: the tallies of :func:`_tally_np` from
    the chunk's list columns, one request at a time."""
    num_caches = st.num_caches
    count = [0] * (16 * num_caches)
    size = [0] * (16 * num_caches)
    icp = [0] * num_caches
    hdr = 0
    legs = [1 if up is None else 2 for up in st.parent]  # an escalation's hop is a second leg
    url_len = st.url_len
    icp_pair = st.icp
    lat = st.lat_class
    latency = st.latency_sum
    for leaf, doc, code, served_size, digits in zip(leaf_l, docs_l, out, served, digits_l):
        key = leaf << 4 | code
        count[key] += 1
        size[key] += served_size
        latency += lat[code & 3]
        if code:
            icp[leaf] += icp_pair[doc]
            hdr += (url_len[doc] + digits) * legs[leaf] if code & 1 else url_len[doc]
    return count, size, icp, hdr, latency


def _tally_np(st, out, served_np, cols):
    """The post-pass's numpy body over one chunk's outcome columns.

    Returns, like :func:`_tally_py`: the ``(leaf, outcome byte)``
    histogram by count and by served bytes (16 buckets per cache), the
    ICP probe bytes per leaf, the URL + Content-Length header bytes of the
    requests that left their leaf (an escalated miss's twice: its hop
    carries them too), and ``st.latency_sum`` with the chunk's latencies
    folded on in request order. One block of ``_BLOCK`` requests at a
    time, so no temporary is as long as the chunk; the per-document byte
    columns are gathered per block, and the fold carries its running sum
    from block to block (the same strict left fold as one pass).
    """
    np = st.np
    NC = st.num_caches
    n = len(out)
    out_np = np.frombuffer(out, dtype=np.uint8)
    url_len = st.url_len_g.view()
    icp_pair = st.icp_g.view()
    count = np.zeros(16 * NC, dtype=np.int64)
    size = np.zeros(16 * NC, dtype=np.int64)
    icp = np.zeros(NC, dtype=np.int64)
    hdr = 0
    escalates = np.array([up is not None for up in st.parent]) if st.hierarchical else None
    latency = st.latency_sum
    for b in range(0, n, _BLOCK):
        e = min(b + _BLOCK, n)
        leaf = cols.leaf[b:e].astype(np.intp)
        code = out_np[b:e]
        served = served_np[b:e]
        key = leaf * 16 + code
        count += np.bincount(key, minlength=16 * NC)
        size += np.bincount(key, weights=served, minlength=16 * NC).astype(np.int64)
        cls = code & 3
        left = cls != 0
        docs = cols.slots[b:e][left] // NC
        icp += np.bincount(leaf[left], weights=icp_pair[docs], minlength=NC).astype(np.int64)
        hdr += int(url_len[docs].sum())
        miss = cls == 3
        hdr += int(decimal_digits(np, cols.rsz[b:e][miss]).sum())
        if escalates is not None:
            esc = miss & escalates[leaf]
            hdr += int(url_len[cols.slots[b:e][esc] // NC].sum())
            hdr += int(decimal_digits(np, cols.rsz[b:e][esc]).sum())
        fold = np.empty(e - b + 1, dtype=np.float64)
        fold[0] = latency
        fold[1:] = st.lat_np[cls]
        np.add.accumulate(fold, out=fold)
        latency = float(fold[-1])
    return count.tolist(), size.tolist(), icp.tolist(), hdr, latency


def _post_pass(st, count, size, icp, hdr, latency):
    """Fold one chunk's outcome tallies into the frame's.

    The tallies come from :func:`_tally_np` or :func:`_tally_py`. The
    outcome byte is the only record of a leaf's admission (2 or 3), its
    declined placement (6 or 7) or rejected copy (10 or 11); a parent's
    are tallied inline. Every admitted copy is resident or was evicted,
    so evictions and evicted bytes follow from conservation. At a leaf
    with a parent every origin miss is one escalation, so its counts
    give the hop's. Sums of served bytes may arrive as floats (numpy's
    weighted bincount); they are exact integers.
    """
    bus = st.bus
    met = st.met
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
        up = st.parent[c]
        if up is not None:
            # The hop through the parent: a request and a response, Via
            # headers and the body (its URL and Content-Length are in hdr).
            escalations = sum(row[3::4])
            bus[2] += escalations
            bus[3] += escalations
            bus[5] += (2 * st.sender_len[up] + 120) * escalations
            bus[6] += int(sum(nbytes[3::4]))
        copies = st.copies[c] = st.residents(c)
        st.st_evictions[c] = st.st_admissions[c] - copies
        st.st_bytes_evicted[c] = st.st_bytes_admitted[c] - st.used[c]
        # The group metrics: requests and bytes per outcome class (the
        # byte's low two bits), local hit / remote hit / miss.
        met[0] += lookups
        met[4] += int(sum(nbytes))
        for m, cls in ((1, 0), (2, 2), (3, 3)):
            met[m] += sum(row[cls::4])
            met[m + 4] += int(sum(nbytes[cls::4]))
    bus[5] += hdr
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


def _size_array(largest: int, n: int) -> array:
    """A zeroed ``array`` of ``n`` sizes none above ``largest``: 4-byte
    ints (``"i"``) when they hold it, else ``"q"``."""
    code = "i" if largest < 1 << 31 and array("i").itemsize == 4 else "q"
    return array(code, bytes(array(code).itemsize * n))


def _slot_groups(np, slots):
    """``(slot, first index, last index)`` per distinct slot in ``slots``;
    the indices in the narrowest type that holds them (:func:`_narrow`)."""
    order = np.argsort(slots, kind="stable").astype(_narrow(np, len(slots)))
    ss = slots[order]
    # Stable sort keeps each group's original indices ascending, so group
    # boundaries give first/last occurrence directly.
    gpos, gend = _segments(np, ss)
    return ss[gpos], order[gpos], order[gend - 1]


def _narrow(np, bound: int):
    """int32 for indices below ``bound`` when it fits, else int64: the
    kept index columns take half the room in any trace that fits."""
    return np.int32 if bound <= 1 << 31 else np.int64


def _runs(np, starts, slots_np, ts_np, lo):
    """``(slot, start, end, first timestamp)`` per run of requests
    ``lo..n``, made from the chunk's run ``starts`` one block of
    ``_RUN_BLOCK`` runs at a time; no tuple or array outlives its block's
    walk.

    A tail cut at ``lo`` is ``lo`` plus the starts after it — a run
    straddling the cut re-enters as a fresh start, as segmenting
    ``slots[lo:n]`` would give; ends are the next start, then ``n``.
    """
    n = len(slots_np)
    k = int(np.searchsorted(starts, lo, "right"))
    count = len(starts) - k + 1  # runs in the tail: run r > 0 starts at starts[k + r - 1]

    def block(b):
        e = min(b + _RUN_BLOCK, count)
        if b:
            s = starts[k + b - 1 : k + e - 1]
        else:
            s = np.concatenate(((lo,), starts[k : k + e - 1]))
        ends = starts[k + b : k + e].tolist()
        if e == count:
            ends.append(n)
        return zip(slots_np[s].tolist(), s.tolist(), ends, ts_np[s].tolist())

    return chain.from_iterable(map(block, range(0, count, _RUN_BLOCK)))


class _ChunkColumns:
    """One chunk's batch precompute (see :func:`_columns_np`).

    Per request: ``leaf`` (``uint8`` in a group of up to 256 caches),
    ``slots``, ``ts`` and ``rsz``, the patched sizes — a view of the
    ``array`` the scalar path indexes (4-byte ints when they fit), so they
    are kept once, and ``largest`` of them. Per
    document: ``first_size``, the size every copy of it holds while the
    cold regime lasts (its first patched size); ``lean`` says every
    request has it. A request's document is its slot divided by the group
    size, so the per-document byte columns are gathered where they are
    read, a block at a time, and not kept. What only one regime asks
    for — the leaf column the scalar path indexes, the run starts and the
    cold regime's slot groups — is built on first request and kept (the
    object lives in the memo of a whole-trace chunk), so a chunk that
    stays cold allocates no per-request Python object. It does not refer
    to its chunk.
    """

    __slots__ = (
        "leaf", "slots", "ts", "rsz", "rsz_q", "largest", "first_size", "num_caches", "lean",
        "_leaf_l", "_starts", "_groups",
    )

    def __init__(self, leaf, slots, ts, rsz, rsz_q, largest, first_size, num_caches, lean):
        self.leaf = leaf
        self.slots = slots
        self.ts = ts
        self.rsz = rsz
        self.rsz_q = rsz_q
        self.largest = largest
        self.first_size = first_size
        self.num_caches = num_caches
        self.lean = lean
        self._leaf_l = None
        self._starts = None
        self._groups = None

    def scalar_columns(self):
        """``(leaf_l, rsz_q)``: per-request leaf and patched size as the
        scalar path indexes them. Leaves are ``bytes`` (a list in a group
        of more than 256 caches): small ints, no object per request;
        sizes the ``array`` — an int is made at each origin miss that
        reads one, none is kept per request."""
        if self._leaf_l is None:
            leaf = self.leaf
            self._leaf_l = leaf.tobytes() if leaf.itemsize == 1 else leaf.tolist()
        return self._leaf_l, self.rsz_q

    def first_sizes(self, lo, hi, out=None):
        """The first size of each request's doc, requests ``lo..hi-1``
        (what a copy serves while cold); written into ``out`` (an integer
        array of ``hi - lo``) one block at a time when given."""
        first, slots, num_caches = self.first_size, self.slots, self.num_caches
        if out is None:
            return first[slots[lo:hi] // num_caches]
        for b in range(lo, hi, _BLOCK):
            e = min(b + _BLOCK, hi)
            out[b - lo : e - lo] = first[slots[b:e] // num_caches]
        return out

    def groups(self, np):
        """:func:`_slot_groups` of the chunk's slot column."""
        if self._groups is None:
            self._groups = _slot_groups(np, self.slots)
        return self._groups

    def runs(self, np, lo):
        """:func:`_runs` of requests ``lo..n``; the chunk's run starts
        are segmented once and kept as one numpy column."""
        if self._starts is None:
            self._starts = _segments(np, self.slots)[0].astype(_narrow(np, len(self.slots)))
        return _runs(np, self._starts, self.slots, self.ts, lo)


def _columns_np(st, chunk):
    """Vectorised per-chunk columns (a :class:`_ChunkColumns`).

    Numpy from the chunk's own columns on
    (:meth:`InternedChunk.columns_np`: views of a packed chunk's buffers,
    one conversion per list otherwise); the doc and client columns and
    every temporary are dropped once the kept columns are made.
    """
    np = st.np
    NC = st.num_caches
    docs_np, sizes_np, ts_np, clients_np = chunk.columns_np(np)
    leaf_np, rsz_np = st.chunk_columns_np(np, chunk, clients_np, sizes_np)
    del sizes_np, clients_np
    # Sizes are kept as int32 when this chunk's fit (see _size_array).
    largest = int(rsz_np.max())
    rsz_q = _size_array(largest, len(rsz_np))
    rsz = np.frombuffer(rsz_q, dtype=f"i{rsz_q.itemsize}")
    rsz[:] = rsz_np
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
    del known, unseen, rsz_np
    slots_np = docs_np.astype(_narrow(np, st.num_docs * NC)) * NC + leaf_np
    return _ChunkColumns(leaf_np, slots_np, ts_np, rsz, rsz_q, largest, fs, NC, lean)
