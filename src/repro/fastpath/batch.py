"""The batch replay engine: vectorised precompute + run-compressed loop.

:func:`simulate_batch` (``engine="batch"``) replays the same protocol
sequence as the object core and the columnar engine, but hoists every
request-independent computation out of the per-request loop into
whole-chunk batch precomputation:

* **Leaf assignment, patched record sizes, Content-Length digit counts**
  — per-request columns computed in one vectorised numpy pass
  (:meth:`ReplayFrame.chunk_columns_np
  <repro.fastpath._frame.ReplayFrame.chunk_columns_np>`). The precompute
  built on them is kept in the memo of a whole-trace chunk, the one kind
  of chunk replayed more than once (:meth:`_FastState.columns`).
* **Wire-length components** — the request-header byte count of a remote
  fetch and the full origin request+response header bytes depend only on
  the (doc, leaf) pair, so they are precomputed per request and summed by
  outcome class after the loop.
* **Flat slot addressing** — per-(cache, doc) state lives in single flat
  arrays indexed ``slot = doc * num_caches + cache``, so the hit path
  costs one index computation, no nested list hops.
* **Exact O(1) LRU** — once any cache has filled, recency is one
  ``collections.OrderedDict`` per cache mapping ``slot -> last-touch
  timestamp`` (a C-implemented linked list, as in the object core's
  :class:`~repro.cache.replacement.LRUPolicy`): a local hit is
  ``od[slot] = ts; od.move_to_end(slot)``, an admission is
  ``od[slot] = now`` and an eviction is ``od.popitem(last=False)``. The
  order is the true touch order at every instant, so the victim (and
  therefore every expiration age) is the LRU list's victim by
  construction — no stale entries, nothing deferred.
* **Run-length segmentation** — consecutive requests for the same (doc,
  leaf) pair cannot change any observable decision after the first one
  resolves to a resident copy, so the stateful loop iterates *run starts*
  only; members are accounted in the vectorised post-pass.
* **Resident runs (the warm regime)** — ``warm_loop`` is one pass over
  the run columns. A run whose slot is resident (one ``present_b`` byte)
  is all local hits — most of a replay, under Zipf skew — and costs one
  LRU touch at its last member's timestamp. Any other run is one
  ``miss_path`` call, the scalar protocol path: per member a probe scan
  (``bytearray.find`` under ``responder_strategy="first"``), remote
  serve + placement or origin fetch, then admission and evictions
  inline, until a copy sticks. Local hits can never change placement in
  this protocol — EA placement and promotion decisions only happen on
  *remote* hits, which are local misses at the requesting leaf.
* **Lazy age cells** — an eviction folds the victim's age into its
  cache's window (``deque(maxlen=W)`` + running sum, the ``+=``/``-=``
  sequence of :meth:`repro.cache.expiration.ExpirationAgeTracker.record`,
  so sums are bit-equal) and
  marks the age stale; :meth:`_FastState.refresh_age` divides at the next
  *read* (a remote hit, a ``max_age`` scan, the result), formats for headers.
* **First-occurrence / compulsory-miss masks (the cold regime)** — while
  no cache has ever filled, every expiration age is ``inf``, EA placement
  decisions are constants, every admission succeeds, and a request can
  change cache state only if it is the *first occurrence of its (doc,
  leaf) slot*. Those first occurrences are found vectorially (one stable
  argsort per chunk, kept with the chunk's precompute), a split index is
  computed where the regime provably ends (first admission that would
  evict, reject, or trip the replica cap), and the prefix replays as
  array operations over first occurrences *only* — local hits are pure
  post-pass arithmetic. The general loop takes over at the split.
* **Outcome post-pass** — the loop records one byte per request and the
  served size (an ``array('q')`` in the warm regime: no numpy store per
  request). The low two bits are the class (0 local hit / 2 remote hit /
  3 origin miss); the warm regime adds 4 for a declined placement and 8
  for a copy larger than the cache. Metrics, per-cache stats, bus
  counters and the latency fold come from those columns in bulk; so do
  admissions, admitted bytes, rejections and declines (per-leaf counts
  of the bytes), and then ``copies = len(lru[c])``, ``evictions =
  admissions - copies`` and ``bytes_evicted = bytes_admitted - used`` by
  conservation. The loop tallies only what needs the responder or a live
  age: remote serves, promotions, age-dependent header bytes. The
  ordered float latency accumulation uses ``np.add.accumulate`` (a
  strict left fold), bit-identical to the serial ``+=`` sequence.

Byte identity with both existing engines is the contract: the
differential matrix in ``tests/fastpath`` asserts equal ``to_json`` text
across object/columnar/batch for every supported configuration and every
chunking choice.

The vectorised fast loop covers the paper's evaluation envelope —
distributed architecture, LRU replacement, pure expiration-age windows
(``count``/``cumulative``), no observer — and needs numpy (see
:mod:`repro.fastpath.numeric`). Everything else inside the engine
envelope (hierarchical escalation, LFU, time windows, an attached
``RunRecorder``, a platform without numpy) replays on the chunked
columnar core via
:func:`repro.fastpath.engine.simulate_columnar`, which is already
byte-identical — :func:`batch_fastloop_reason` reports which path a
config takes. Configs outside the shared envelope raise, exactly like
``simulate_columnar`` (``run_simulation`` falls back to the object core).
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict, deque
from typing import List, Optional

from repro.fastpath._frame import ReplayFrame, check_envelope
from repro.fastpath.engine import simulate_columnar
from repro.fastpath.numeric import decimal_digits, load_numpy
from repro.protocol.http import format_expiration_age
from repro.simulation.results import SimulationResult

_INF = math.inf


def batch_fastloop_reason(config, obs=None) -> Optional[str]:
    """Why ``config`` replays on the chunked columnar core instead of the
    batch fast loop, or None when the vectorised loop applies.

    Purely informational (both paths are byte-identical); the run
    manifest and ``repro analyze`` surface it so fast-loop coverage is
    observable. The last row reads the platform, not the config: the
    fast loop is numpy code.
    """
    if obs is not None:
        return "an attached observer requires the event-emitting columnar loop"
    if config.architecture != "distributed":
        return "hierarchical escalation replays on the columnar core"
    if config.policy != "lru":
        return "lfu victim accounting replays on the columnar core"
    if config.window_mode not in ("count", "cumulative"):
        return "time-window age reads have trim side effects; columnar core"
    if load_numpy() is None:
        return "numpy unavailable (not installed, or REPRO_NO_NUMPY set); columnar core"
    return None


def simulate_batch(
    config, trace, obs=None, chunk_size: Optional[int] = None,
    regimes: Optional[dict] = None, spans=None, timeseries=None,
) -> SimulationResult:
    """Replay ``trace`` under ``config`` on the batch engine.

    Accepts the same sources as :func:`simulate_columnar`: a materialised
    :class:`~repro.trace.record.Trace` or any streamed source exposing
    ``interned_chunks(chunk_size)`` (packed columnar readers, chunked
    synthetic generators); streamed sources replay with O(chunk) memory.
    Raises :class:`SimulationError` for configs outside the shared
    engine envelope — use ``run_simulation`` for transparent fallback.

    ``regimes``, when given a dict, receives the per-regime request
    counts after the run: ``cold`` (vectorised first-occurrence replay),
    ``hit_run`` (members of warm resident runs: local hits covered by
    one LRU touch per run), and ``scalar`` (per-request protocol path). Configs that replay on the chunked
    columnar core instead record ``fallback_reason``. Counts only — the
    engine never reads a clock; ``repro profile`` derives wall-time
    shares from the profiler's per-function attribution.

    ``spans`` / ``timeseries`` are the out-of-band telemetry channels
    shared with :func:`simulate_columnar` (span tracer; per-chunk sample
    recorder). Unlike an attached observer they do *not* force the
    columnar fallback — the fast loop reports into them at chunk/regime
    granularity, with the wall-clock reads quarantined inside
    ``repro.obs``. Results are byte-identical with or without them.
    """
    check_envelope(config, "batch")
    loop_reason = batch_fastloop_reason(config, obs)
    if loop_reason is not None:
        # Envelope configs the fast loop does not vectorise replay on the
        # chunked columnar core — byte-identical by its own contract.
        if regimes is not None:
            regimes["fallback_reason"] = loop_reason
        return simulate_columnar(
            config, trace, obs=obs, chunk_size=chunk_size,
            spans=spans, timeseries=timeseries,
        )
    return _simulate_fast(config, trace, chunk_size, regimes, spans, timeseries)


class _FastState(ReplayFrame):
    """The replay frame plus the fast loop's flat doc-major state.

    ``slot = doc * NC + cache``; growth per chunk is a pure extend, so
    slot numbering never changes. Recency has one representation per
    regime: while cold, the ``lh``/``seq`` columns (last-touch timestamp
    and global request index, written by vectorised scatters); from the
    transition on, ``lru[c]`` (see :meth:`leave_cold`).
    """

    def __init__(self, config, np):
        super().__init__(config, "batch")
        self.np = np
        self.cap = self.capacity[0]  # equal shares: one scalar serves every admit check
        self.num_docs = 0
        # Per-slot metadata lives in buffer-protocol columns — ``array`` /
        # ``bytearray`` — so the scalar protocol path (miss_path, which
        # runs once per *state-changing* request and dominates evicting
        # replay) gets Python-speed element access, while the
        # cold regime takes zero-copy ``np.frombuffer`` views for bulk
        # scatters. Views are created where needed and dropped before the
        # next growth (a buffer with an exported view cannot be resized).
        # ``array("d")`` holds C doubles, so ``lh`` arithmetic stays bit-
        # and serialisation-identical to the object core's floats.
        self.present_b = bytearray()  # residency bitmap
        self.dsz = array("q")  # resident copy size
        self.lh = array("d")  # last-touch timestamp (cold regime only)
        self.seq = array("q")  # last-touch global request index (cold only)
        # Per cache: resident slot -> last-touch timestamp, least recently
        # touched first. Empty until the cold regime ends.
        self.lru: List[OrderedDict] = [OrderedDict() for _ in range(self.num_caches)]
        # Expiration-age window per cache: ``wsum`` is the running sum
        # miss_path folds victim ages into — the count window's (``win[c]``
        # holds its ages) or the cumulative one (``wtot[c]`` evictions).
        # The age and its wire-text length are cells (:meth:`refresh_age`).
        self.count_mode = config.window_mode == "count"
        self.win = [deque(maxlen=config.window_size) for _ in range(self.num_caches)]
        self.wsum = [0.0] * self.num_caches
        self.wtot = [0] * self.num_caches
        self.cur_age = [_INF] * self.num_caches
        self.age_len = [3] * self.num_caches  # len("inf")

        # Per-doc protocol columns (engine-owned copies, grown per chunk).
        self.url_len_g = _NpGrow(np)
        self.icp_g = _NpGrow(np)
        self.first_size_g = _NpGrow(np)  # -1 until a doc's first request lands
        self.sender_np = np.array(self.sender_len, dtype=np.int64)
        # Outcome-code-indexed latency components (index 1 unused).
        self.lat_lookup = np.array(
            [self.lat_local, 0.0, self.lat_remote, self.lat_miss]
        )

        # Cold regime (see module docstring): sound while no eviction has
        # ever happened anywhere, which this engine guarantees by
        # construction — the flag latches off *before* the first request
        # that could evict runs. EA with tie_break="responder" never
        # stores on a remote hit, so seen slots would not all be resident;
        # that shape replays on the loop.
        self.cold = not self.ea or self.tie_requester
        # Per doc: min leaf holding a copy (-1 until first seen). Cold-only.
        self.first_min_g = _NpGrow(np)
        # Deferred last-touch fixups from cold segments: (slot, touch
        # index, timestamp) arrays, applied only if the general loop
        # (which needs exact recency at evictions) ever takes over. ``seq`` is
        # touch-monotone, so replaying fixups oldest-first under a
        # ``g > seq[slot]`` guard commutes with any direct writes the cold
        # replay already made (responder promotions). Slots are unique
        # within each tuple, so the masked scatters are conflict-free.
        self.pending: List[tuple] = []

    def grow(self, chunk) -> None:
        """Extend every per-doc/per-slot column by the chunk's intern delta."""
        new_urls = chunk.new_urls
        if new_urls:
            np = self.np
            add = len(new_urls)
            self.num_docs += add
            grown = add * self.num_caches
            self.present_b.extend(bytes(grown))
            # Zero-fill appends (8-byte elements for the q/d arrays); no
            # numpy view of these buffers is live here — the vector
            # paths create theirs after growth and drop them before the
            # next chunk.
            self.dsz.frombytes(bytes(8 * grown))
            if self.cold:
                self.lh.frombytes(bytes(8 * grown))
                self.seq.frombytes(bytes(8 * grown))
            self.first_min_g.extend(np, np.full(add, -1, dtype=np.int64))
            self.url_len_g.extend(np, chunk.new_url_lens)
            self.icp_g.extend(np, chunk.new_icp_probe_bytes)
            self.first_size_g.extend(np, np.full(add, -1, dtype=np.int64))

    def columns(self, chunk):
        """The chunk's batch precompute (see :func:`_columns_np`).

        Kept in the memo of a whole-trace chunk — sweeps re-replay the
        same trace at many capacities — per everything that shapes it.
        """
        key = (self.patch, self.partitioner, tuple(self.leaves), self.num_caches)
        return chunk.memoised("batch_cols", key, lambda: _columns_np(self, chunk))

    def refresh_age(self, c: int, wire: bool = False) -> float:
        """Cache ``c``'s age, recomputed from its window if stale.

        The one place a window sum becomes an age: a reader of ``cur_age``
        / ``age_len`` comes here first when ``age_len[c]`` is negative
        (stale: an eviction happened, so the divisor is not zero) or, for
        a header, 0 (a fresh age nobody needed as text yet). Only headers
        ask for ``wire``, so ``format_expiration_age`` checks exactly the
        ages the object core puts on the wire.
        """
        if self.age_len[c] < 0:
            evictions = len(self.win[c]) if self.count_mode else self.wtot[c]
            # Floored like the trackers' reads: a running sum of
            # non-negative ages can end a few ulps below zero.
            self.cur_age[c] = max(0.0, self.wsum[c] / evictions)
            self.age_len[c] = 0
        if wire:
            self.age_len[c] = len(format_expiration_age(self.cur_age[c]))
        return self.cur_age[c]

    def leave_cold(self) -> None:
        """End the cold regime: hand recency from the columns to ``lru``.

        Applies the cold segments' deferred last-touch fixups, then fills
        each cache's ``OrderedDict`` with its resident slots in ascending
        ``seq`` order (a request touches at most one slot per cache, so
        the order is total). O(residents), once per replay; the columns
        are released — nothing reads them again.
        """
        np = self.np
        # repro: domains[seq_v=cache-slot->global-seq:int64, lh_v=cache-slot->age-tick:float64]
        # repro: domains[slots_p=any->cache-slot:intp, resident=any->cache-slot:intp]
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


def _simulate_fast(
    config, trace, chunk_size: Optional[int], regimes: Optional[dict] = None,
    spans=None, timeseries=None,
) -> SimulationResult:
    """The vectorised fast loop (distributed + LRU + pure windows, no obs)."""
    np = load_numpy()
    st = _FastState(config, np)

    # Frame and state fields the per-request kernel touches, bound once so
    # its closures see plain locals.
    NC = st.num_caches
    probe_targets = st.probe_targets
    cap = st.cap
    sender_len = st.sender_len
    # repro: domains[present_b=cache-slot->any:uint8, dsz=cache-slot->byte-size:int64]
    present_b = st.present_b
    dsz = st.dsz
    lru = st.lru
    used = st.used
    st_remote_served = st.st_remote_served
    st_bytes_remote = st.st_bytes_remote
    st_promo_granted = st.st_promo_granted
    st_promo_withheld = st.st_promo_withheld
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
    cur_age = st.cur_age
    age_len = st.age_len
    refresh_age = st.refresh_age
    sdig: dict = {}  # stored-size -> len(str(size)), bounded by doc count

    # Rebound per chunk, like the scalar lists and run columns of a chunk
    # whose stateful tail runs; the kernel reads them as free variables.
    # repro: domains[out=chunk-offset->any:uint8, served=chunk-offset->byte-size:int64]
    out = bytearray()
    served = array("q")
    # Lean mode is only sound while *every* request so far matched its
    # doc's first-seen size: one deviating chunk can leave a stored size
    # that differs from the size column, so the flag latches off.
    lean = True

    def miss_path(slot: int, i: int, e: int, now: float) -> None:
        """Members ``i..e`` of a run whose slot is not resident.

        Mirrors the columnar engine's miss branch for the distributed
        architecture, one member at a time until a copy sticks: ICP probe
        scan, remote serve + placement decision or origin fetch, then
        ProxyCache.admit for a non-resident doc (its refresh branch is
        unreachable here, ``entry_time``/``hit_count`` are dead state
        under LRU). The rest of the run is local hits on the new copy:
        one recency write. Everything a request's outcome byte classifies
        (see the module docstring) is left to the post-pass.
        """
        cache = leaf_l[i]
        base = slot - cache
        while True:
            if max_age_strategy:
                rslot = -1
                best_age = 0.0
                for t in probe_targets[cache]:
                    if present_b[base + t]:
                        t_age = refresh_age(t) if age_len[t] < 0 else cur_age[t]
                        if rslot < 0 or t_age > best_age:
                            rslot = base + t
                            best_age = t_age
            else:
                # "first": the lowest holder (the requester's own byte is 0).
                rslot = present_b.find(1, base, base + NC)

            if rslot < 0:
                # Group-wide miss: origin fetch, store at the requester.
                # The engine's own-age decision read is side-effect-free
                # in pure window modes, so only the admission remains.
                size = rsz_q[i]
                code = 3
            else:
                # Remote hit. Scheme decision reads requester then
                # responder age; a stale cell is refreshed on the way.
                responder = rslot - base
                if age_len[cache] <= 0:
                    refresh_age(cache, True)
                if age_len[responder] <= 0:
                    refresh_age(responder, True)
                size = dsz[rslot]
                code = 2
                refresh = True
                if ea:
                    req_age = cur_age[cache]
                    resp_age = cur_age[responder]
                    refresh = resp_age > req_age
                    if refresh or (req_age == resp_age and not tie_requester):
                        code = 6  # placement declined
                    elif size > rc_limit:  # EA's size-aware replica cap
                        code = 6
                        refresh = True
                # Header bytes that need the responder / the live ages stay
                # inline; the (doc, leaf)-only request-header base is summed in
                # the post-pass from the precomputed column.
                sd = sdig.get(size)
                if sd is None:
                    sd = sdig[size] = len(str(size))
                bus[5] += age_len[cache] + age_len[responder] + 70 + sd + sender_len[responder]
                # serve_remote at the responder.
                st_remote_served[responder] += 1
                st_bytes_remote[responder] += size
                if refresh:
                    st_promo_granted[responder] += 1
                    od = lru[responder]
                    od[rslot] = now
                    od.move_to_end(rslot)
                else:
                    st_promo_withheld[responder] += 1
                served[i] = size

            if code != 6:
                if size <= cap:
                    in_use = used[cache] + size
                    od = lru[cache]
                    if in_use > cap:
                        # Window record per victim: the same +=/-= sequence
                        # as ExpirationAgeTracker.record, so sums are bit-equal.
                        s = wsum[cache]
                        dq = win[cache]
                        while in_use > cap:
                            victim, last = od.popitem(last=False)
                            present_b[victim] = 0
                            in_use -= dsz[victim]
                            age = now - last
                            s += age
                            if count_mode:
                                if len(dq) == W:
                                    s -= dq[0]
                                dq.append(age)
                            else:
                                wtot[cache] += 1
                        wsum[cache] = s
                        age_len[cache] = -1
                    present_b[slot] = 1
                    dsz[slot] = size
                    used[cache] = in_use
                    out[i] = code
                    if e - i > 1:  # the rest of the run hits the new copy
                        now = ts_l[e - 1]
                        if not lean:
                            served[i + 1 : e] = array("q", [size]) * (e - i - 1)
                    od[slot] = now
                    return
                code += 8  # larger than the cache: rejected
            out[i] = code
            i += 1
            if i == e:
                return
            now = ts_l[i]

    def warm_loop() -> None:
        """The stateful tail of one chunk: one pass over its run columns.

        A run whose slot is resident is all local hits (outcome byte 0),
        whose only state effect is one LRU touch at the last member's
        timestamp — ``now``, the run's first, for the 99% of runs with one
        member; any other run is one :func:`miss_path` call.
        """
        for slot, i, e, now in zip(sslots_l, starts_l, ends_l, sts_l):
            if present_b[slot]:
                if e - i > 1:
                    now = ts_l[e - 1]
                    if not lean:
                        served[i + 1 : e] = array("q", [dsz[slot]]) * (e - i - 1)
                od = lru[leaf_l[i]]
                od[slot] = now
                od.move_to_end(slot)
                if not lean:
                    served[i] = dsz[slot]
            else:
                miss_path(slot, i, e, now)

    # Requests handled per path (see ``regimes``).
    tally = {"cold": 0, "hit_run": 0, "scalar": 0}

    # ---------------------------------------------------------------- #
    # Chunked replay
    # ---------------------------------------------------------------- #
    traced = spans is not None
    for chunk in st.chunks(trace, chunk_size, spans):
        n = chunk.num_records
        st.grow(chunk)
        if not n:
            continue

        # Batch precompute: the per-request numpy columns.
        if traced:
            spans.begin("columns", "replay")
        cols = st.columns(chunk)
        if traced:
            spans.end()
        post = cols.post
        npx = cols.npx
        lean = lean and cols.lean
        gbase = chunk.base_records  # repro: domains[gbase=global-seq]
        out = bytearray(n)
        tail_start = 0  # first request index the general loop replays

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
            leaf_l, rsz_q = cols.scalar_columns()
            ts_l = chunk.timestamps
            starts_l, sslots_l, sts_l, ends_l = cols.runs(np, tail_start)
            served = array("q", (0,)) * n
            if not lean:
                served_np = np.frombuffer(served, dtype=np.int64)
                served_np[:tail_start] = npx[3][:tail_start]
                served_np[tail_start:] = post[4][tail_start:]
            warm_loop()
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
        _post_pass(st, n, gbase, out, served_np, post, tail_start)
        if traced:
            spans.end()
        if timeseries is not None:
            st.sample(timeseries, gbase + n, float(npx[2][n - 1]), **tally)

    if regimes is not None:
        regimes.update(tally)
    unique_documents = 0
    if st.num_docs:
        held = np.frombuffer(present_b, dtype=np.uint8)
        unique_documents = int(
            (held.reshape(st.num_docs, NC) != 0).any(axis=1).sum()
        )
    return st.result([refresh_age(c) for c in range(NC)], unique_documents)


# repro: domains[present_b=cache-slot->any:uint8, dsz=cache-slot->byte-size:int64]
# repro: domains[lh=cache-slot->age-tick:float64, seq=cache-slot->global-seq:int64]
# repro: domains[gbase=global-seq, out=chunk-offset->any:uint8]
# repro: domains[docs_np=chunk-offset->interned-id:intp]
# repro: domains[slots_np=chunk-offset->cache-slot:intp]
# repro: domains[ts_np=chunk-offset->age-tick:float64]
# repro: domains[fsreq_np=chunk-offset->byte-size:int64]
# repro: domains[leaf_np=chunk-offset->any:intp, first_min=interned-id->any:int64]
# repro: domains[sender_np=any->byte-size:int64]
def _cold_prefix(st, n, gbase, cols, out):
    """Replay the cold-regime prefix of one chunk, fully vectorised.

    Writes the prefix's outcome bytes into ``out`` and its admissions,
    remote serves and deferred touch fixups into ``st``. Returns the
    split: the first request index the stateful loop must replay (``n``
    when the whole chunk stayed cold — the regime latches off otherwise).
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
    # repro: domains[grp_slot=any->cache-slot:intp, grp_first=any->chunk-offset:intp]
    # repro: domains[grp_last=any->chunk-offset:intp]
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
            acnt = np.bincount(e_leaf, minlength=NC)
            abyt = np.bincount(e_leaf, weights=e_size, minlength=NC)
            for c in range(NC):
                k = int(acnt[c])
                if not k:
                    continue
                used[c] += int(abyt[c])
                st.st_admissions[c] += k
                st.st_bytes_admitted[c] += int(abyt[c])
                st.copies[c] += k
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
        # is over for good. The general loop needs the exact recency order.
        st.leave_cold()
    return split


# repro: domains[leaf_np=chunk-offset->any:intp]
# repro: domains[icp_req_np=chunk-offset->byte-size:int64]
# repro: domains[remote_base_np=chunk-offset->byte-size:int64]
# repro: domains[origin_hdr_np=chunk-offset->byte-size:int64]
# repro: domains[gbase=global-seq, out=chunk-offset->any:uint8]
# repro: domains[out_np=chunk-offset->any:uint8, key=chunk-offset->any:intp]
# repro: domains[served_np=chunk-offset->byte-size:int64]
def _post_pass(st, n, gbase, out, served_np, post, tail_start):
    """Fold one chunk's outcome columns into the frame's tallies.

    ``out`` holds one outcome byte per request (class in the low two
    bits: 0 local hit / 2 remote hit / 3 origin miss) and ``served_np``
    the served size; bus counters, per-cache lookup stats, metrics and
    the ordered latency fold are all computed from those columns in bulk.
    From ``tail_start`` on — the requests ``warm_loop`` replayed — the
    byte is also the only record of the admission (+4 declined, +8
    rejected): its tallies are counted here and the eviction ones follow
    from conservation. ``_cold_prefix`` tallies its own admissions.
    """
    np = st.np
    NC = st.num_caches
    num_targets = NC - 1  # every sibling is probed
    bus = st.bus
    met = st.met
    w_start = min(max(st.warmup - gbase, 0), n)  # first measured request
    leaf_np, icp_req_np, remote_base_np, origin_hdr_np, _rsz_np = post
    out_np = np.frombuffer(out, dtype=np.uint8)
    if tail_start < n:
        # One (leaf, outcome byte) histogram of the tail, by count and by
        # served bytes (an admitted copy has the size that was served).
        key = leaf_np[tail_start:] * 16 + out_np[tail_start:]
        count = np.bincount(key, minlength=16 * NC).reshape(NC, 16)
        size = np.bincount(
            key, weights=served_np[tail_start:], minlength=16 * NC
        ).reshape(NC, 16)
        for c in range(NC):
            st.st_admissions[c] += int(count[c, 2] + count[c, 3])
            st.st_bytes_admitted[c] += int(size[c, 2] + size[c, 3])
            st.st_rejections[c] += int(count[c, 10] + count[c, 11])
            st.st_declined[c] += int(count[c, 6])
            # Every admitted copy is resident or was evicted.
            st.copies[c] = len(st.lru[c])
            st.st_evictions[c] = st.st_admissions[c] - st.copies[c]
            st.st_bytes_evicted[c] = st.st_bytes_admitted[c] - st.used[c]
        out_np = out_np & 3
    nonlocal_mask = out_np != 0
    nl = int(nonlocal_mask.sum())
    if nl:
        remote_mask = out_np == 2
        miss_mask = out_np == 3
        bus[0] += num_targets * nl
        bus[1] += num_targets * nl
        bus[2] += nl
        bus[3] += nl
        bus[4] += num_targets * int(icp_req_np[nonlocal_mask].sum())
        bus[5] += int(remote_base_np[remote_mask].sum())
        bus[5] += int(origin_hdr_np[miss_mask].sum())
        bus[6] += int(served_np[nonlocal_mask].sum())
    local_mask = out_np == 0
    lookup_counts = np.bincount(leaf_np, minlength=NC)
    hit_counts = np.bincount(leaf_np[local_mask], minlength=NC)
    leaf_loc = leaf_np[local_mask]
    srv_loc = served_np[local_mask]
    for c in range(NC):
        st.st_lookups[c] += int(lookup_counts[c])
        hits_c = int(hit_counts[c])
        st.st_local_hits[c] += hits_c
        st.st_local_misses[c] += int(lookup_counts[c]) - hits_c
        st.st_bytes_local[c] += int(srv_loc[leaf_loc == c].sum())
    m = n - w_start
    if m:
        outm = out_np[w_start:]
        srvm = served_np[w_start:]
        loc_m = outm == 0
        rem_m = outm == 2
        mis_m = outm == 3
        met[0] += m
        met[1] += int(loc_m.sum())
        met[2] += int(rem_m.sum())
        met[3] += int(mis_m.sum())
        met[4] += int(srvm.sum())
        met[5] += int(srvm[loc_m].sum())
        met[6] += int(srvm[rem_m].sum())
        met[7] += int(srvm[mis_m].sum())
        vals = st.lat_lookup[outm]
        if not st.constant_latency:
            srvf = srvm.astype(np.float64)
            add_term = srvf / np.where(rem_m, st.lan_bw, st.wan_bw)
            vals = np.where(loc_m, vals, vals + add_term)
        fold = np.empty(m + 1, dtype=np.float64)
        fold[0] = st.latency_sum
        fold[1:] = vals
        np.add.accumulate(fold, out=fold)
        st.latency_sum = float(fold[m])


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


# repro: domains[slots=any->cache-slot:intp]
def _slot_groups(np, slots):
    """``(slot, first index, last index)`` per distinct slot in ``slots``."""
    order = np.argsort(slots, kind="stable")
    ss = slots[order]
    # Stable sort keeps each group's original indices ascending, so group
    # boundaries give first/last occurrence directly.
    gpos, gend = _segments(np, ss)
    return ss[gpos], order[gpos], order[gend - 1]


# repro: domains[slots_np=chunk-offset->cache-slot:intp]
# repro: domains[ts_np=chunk-offset->age-tick:float64]
# repro: domains[starts_np=any->chunk-offset:intp]
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


# repro: domains[sender_np=any->byte-size:int64]
# repro: domains[url_len=interned-id->byte-size:int64]
# repro: domains[icp=interned-id->byte-size:int64]
# repro: domains[fs=interned-id->byte-size:int64]
def _columns_np(st, chunk):
    """Vectorised per-chunk columns (a :class:`_ChunkColumns`).

    Numpy from the chunk's own columns on
    (:meth:`InternedChunk.columns_np`: views of a packed chunk's buffers,
    one conversion per list otherwise).
    """
    np = st.np
    NC = st.num_caches
    sender_np = st.sender_np
    url_len = st.url_len_g.view()
    icp = st.icp_g.view()
    # repro: domains[docs_np=chunk-offset->interned-id:intp, ts_np=chunk-offset->age-tick:float64]
    # repro: domains[leaf_np=chunk-offset->any:intp, rsz_np=chunk-offset->byte-size:int64]
    docs_np, sizes_np, ts_np, clients_np = chunk.columns_np(np)
    leaf_np, rsz_np, digits_np = st.chunk_columns_np(np, chunk, clients_np, sizes_np)
    remote_base_np = url_len[docs_np] + sender_np[leaf_np] + 50
    origin_hdr_np = remote_base_np + 24 + digits_np
    icp_req_np = icp[docs_np]
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
    slots_np = docs_np * NC + leaf_np  # repro: domains[slots_np=chunk-offset->cache-slot:intp]
    post = (leaf_np, icp_req_np, remote_base_np, origin_hdr_np, rsz_np)
    # ``known`` is the per-request first-seen-size column — the size any
    # resident copy of the doc holds while the cold regime lasts.
    npx = (docs_np, slots_np, ts_np, known)
    return _ChunkColumns(post, npx, lean)
