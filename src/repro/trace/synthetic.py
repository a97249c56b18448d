"""Synthetic workload generator standing in for the BU proxy traces.

The paper evaluates against the Boston University proxy traces (Nov 1994 -
Feb 1995; 575,775 requests, 46,830 unique documents, 591 users). Those traces
are not redistributable, so this module generates a *seeded, deterministic*
workload with the statistical properties that drive the paper's results:

* **Zipf-like document popularity** — the skew that makes the same popular
  documents get requested at several proxies, creating both remote-hit
  opportunities and the uncontrolled replication the EA scheme targets.
* **Heavy-tailed document sizes** — lognormal body sizes with a mean around
  the BU trace's 4 KB average; each document keeps a consistent size across
  requests.
* **Per-client sessions and temporal locality** — clients re-request
  recently seen documents (LRU-stack model), producing the local-hit
  component, and carry session identifiers like the BU condensed logs.
* **Zero-size records** — an optional fraction of records is emitted with
  size 0 to exercise the paper's 4 KB patch rule.

Determinism: all randomness flows from one ``random.Random(seed)`` instance;
identical configs yield identical traces.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace.record import Trace, TraceRecord


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Parameters of the synthetic BU-like workload.

    Attributes:
        num_requests: Total requests to generate.
        num_documents: Size of the document universe.
        num_clients: Number of distinct clients (BU trace: 591 users).
        zipf_alpha: Exponent of the Zipf popularity law (web traces cluster
            around 0.6-0.9; default 0.75).
        mean_size: Target mean document size in bytes (BU average: 4 KB).
        size_sigma: Lognormal shape parameter for sizes (higher = heavier tail).
        max_size: Hard cap on a single document size.
        temporal_locality: Probability a request re-references a document
            from the issuing client's recent-history stack instead of the
            global popularity law.
        locality_stack_depth: Depth of the per-client recency stack.
        mean_interarrival: Mean seconds between consecutive requests
            (global, exponential).
        session_gap: Idle seconds after which a client's next request opens
            a new session.
        zero_size_fraction: Fraction of emitted records whose size field is
            forced to 0 (to exercise the 4 KB patch rule); 0 disables.
        start_time: Timestamp of the first request.
        seed: PRNG seed; same seed + config = identical trace.
    """

    num_requests: int = 50_000
    num_documents: int = 5_000
    num_clients: int = 64
    zipf_alpha: float = 0.75
    mean_size: int = 4096
    size_sigma: float = 1.3
    max_size: int = 8 * 1024 * 1024
    temporal_locality: float = 0.3
    locality_stack_depth: int = 32
    mean_interarrival: float = 0.5
    session_gap: float = 1800.0
    zero_size_fraction: float = 0.0
    start_time: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise TraceError("num_requests must be positive")
        if self.num_documents <= 0:
            raise TraceError("num_documents must be positive")
        if self.num_clients <= 0:
            raise TraceError("num_clients must be positive")
        if self.zipf_alpha < 0:
            raise TraceError("zipf_alpha must be non-negative")
        if not 0.0 <= self.temporal_locality <= 1.0:
            raise TraceError("temporal_locality must be within [0, 1]")
        if not 0.0 <= self.zero_size_fraction <= 1.0:
            raise TraceError("zero_size_fraction must be within [0, 1]")
        if self.mean_interarrival <= 0:
            raise TraceError("mean_interarrival must be positive")
        if self.mean_size <= 0 or self.max_size < self.mean_size:
            raise TraceError("require 0 < mean_size <= max_size")

    def scaled(self, fraction: float) -> "SyntheticTraceConfig":
        """Return a config with request/document/client counts scaled down.

        Useful for fast tests: ``bu_like_config().scaled(0.01)``.
        """
        if not 0.0 < fraction <= 1.0:
            raise TraceError("fraction must be within (0, 1]")
        return replace(
            self,
            num_requests=max(1, int(self.num_requests * fraction)),
            num_documents=max(1, int(self.num_documents * fraction)),
            num_clients=max(1, int(self.num_clients * fraction)),
        )


def bu_like_config(seed: int = 42) -> SyntheticTraceConfig:
    """Config matching the BU trace's published aggregate shape.

    575,775 requests over 46,830 unique documents from 591 users
    (Section 4.1 of the paper). Generating the full-size trace takes a few
    seconds; experiments normally use ``bu_like_config().scaled(...)``.
    """
    return SyntheticTraceConfig(
        num_requests=575_775,
        num_documents=46_830,
        num_clients=591,
        zero_size_fraction=0.02,
        seed=seed,
    )


def _cdf(weights: List[float]) -> List[float]:
    """Running sum of ``weights`` normalised to end at exactly 1.0."""
    total = math.fsum(weights)
    cdf = list(itertools.accumulate([w / total for w in weights]))
    cdf[-1] = 1.0  # guard against float round-off
    return cdf


def _zipf_cdf(n: int, alpha: float) -> List[float]:
    """CDF over ranks 1..n with probability proportional to ``k**-alpha``."""
    return _cdf([k ** -alpha for k in range(1, n + 1)])


class ZipfSampler:
    """Draws ranks 1..n from a Zipf(alpha) law via inverse-CDF lookup.

    Probability of rank ``k`` is ``k**-alpha / H(n, alpha)``. The cumulative
    table costs O(n) memory and each draw is O(log n).
    """

    def __init__(self, n: int, alpha: float, rng: random.Random):
        if n <= 0:
            raise TraceError("ZipfSampler requires n >= 1")
        self._rng = rng
        self._cdf = _zipf_cdf(n, alpha)

    def sample(self) -> int:
        """Return a rank in [0, n)."""
        return bisect.bisect_left(self._cdf, self._rng.random())


def client_name(number: int) -> str:
    """Client id string of synthetic client ``number``."""
    return f"host{number % 37}/user{number}"


def document_url(number: int) -> str:
    """URL of synthetic document ``number``."""
    return f"http://origin{number % 97}.example.com/doc/{number}"


#: Requests the streaming record view draws at a time (bounds its memory).
_RECORD_VIEW_BLOCK = 4096

#: One drawn block, as parallel columns indexed by offset into the block:
#: timestamps, client numbers (``0..num_clients-1``), document numbers
#: (``0..num_documents-1``), sizes, and per-client session indices.
Block = Tuple[List[float], List[int], List[int], List[int], List[int]]


# repro: domains[numbers=chunk-offset->doc-id, dense_of=doc-id->interned-id]
# repro: domains[ids=chunk-offset->interned-id, number=doc-id, dense=interned-id]
def _densify(
    numbers: List[int], dense_of: List[int], base: int, name: Callable[[int], str]
) -> Tuple[List[int], List[str]]:
    """Map one block column of universe numbers to first-appearance ids.

    ``dense_of`` is the number -> dense id table (``-1`` = not seen yet),
    updated in place; ``base`` is how many ids are already assigned.
    Returns the dense column and the names of the numbers first seen in
    it, in id order — ``name`` is called only for those.
    """
    ids = [dense_of[number] for number in numbers]
    new_names: List[str] = []
    # Hop between the unseen positions at C speed; a number that repeats
    # within the block finds its id in the table the second time.
    at = -1
    try:
        while True:
            at = ids.index(-1, at + 1)
            number = numbers[at]
            dense = dense_of[number]
            if dense < 0:
                dense = dense_of[number] = base + len(new_names)
                new_names.append(name(number))
            ids[at] = dense
    except ValueError:
        return ids, new_names


class BULikeTraceGenerator:
    """Generates a deterministic BU-like synthetic trace.

    Usage::

        trace = BULikeTraceGenerator(SyntheticTraceConfig(seed=7)).generate()

    :meth:`draw_blocks` is the only place the request stream is drawn.
    :meth:`records_of` (the record view, behind :meth:`iter_records` and
    a generated trace's ``records``) and :meth:`drawn_chunks` (the chunk
    view, behind :meth:`generate` and
    :meth:`repro.trace.stream.SyntheticTraceStream.interned_chunks`) are
    two views over its columns, so they cannot disagree on a request.
    """

    def __init__(self, config: Optional[SyntheticTraceConfig] = None):
        self.config = config or SyntheticTraceConfig()

    def _document_sizes(self, rng: random.Random) -> List[int]:
        """Draw one consistent size per document (lognormal, capped).

        The lognormal ``mu`` is chosen so the distribution's mean equals
        ``config.mean_size``: mean = exp(mu + sigma^2/2).
        """
        cfg = self.config
        mu = math.log(cfg.mean_size) - cfg.size_sigma ** 2 / 2.0
        sigma, cap, lognormal = cfg.size_sigma, cfg.max_size, rng.lognormvariate
        sizes = []
        for _ in range(cfg.num_documents):
            size = int(lognormal(mu, sigma))
            # min(max(size, 64), cap), spelt without the two calls: every
            # stream open pays this once per document.
            if size < 64:
                size = 64
            sizes.append(cap if size > cap else size)
        return sizes

    # Block columns are indexed by offset into the block; documents are
    # raw universe numbers here, interning is the chunk view's business.
    # repro: domains[timestamps=chunk-offset->age-tick, documents=chunk-offset->doc-id]
    # repro: domains[sizes=chunk-offset->byte-size, doc_sizes=doc-id->byte-size]
    # repro: domains[doc_of_rank=any->doc-id, doc=doc-id]
    def draw_blocks(self, block_size: int) -> Iterator[Block]:
        """Draw the request stream, ``block_size`` requests at a time.

        All randomness flows from one ``random.Random(config.seed)``, in a
        fixed order: rank shuffle, document sizes, client weights, then per
        request the inter-arrival gap, the client, the re-reference coin
        (only when the client has history), the stack walk or the Zipf
        rank, and the zero-size coin (only when the fraction is non-zero).
        The block size never changes what is drawn, only where the columns
        are cut. Request memory is O(block); the per-document and
        per-client tables scale with the universe, not the request count.
        """
        cfg = self.config
        rng = random.Random(cfg.seed)
        rand = rng.random
        bisect_left = bisect.bisect_left
        rank_cdf = _zipf_cdf(cfg.num_documents, cfg.zipf_alpha)

        # Shuffle the rank->document mapping so popular documents are not
        # clustered at low ids (which would correlate with partitioners
        # that hash on the id).
        doc_of_rank = list(range(cfg.num_documents))
        rng.shuffle(doc_of_rank)
        doc_sizes = self._document_sizes(rng)

        # Client activity is itself skewed: a few heavy users dominate
        # real proxy traces. Lognormal weights reproduce that.
        client_cdf = _cdf([rng.lognormvariate(0.0, 1.0) for _ in range(cfg.num_clients)])

        # Per-client state, indexed by client number: the recency stack
        # (oldest first), the last request time, the session index.
        recents: List[List[int]] = [[] for _ in range(cfg.num_clients)]
        last_times = [-math.inf] * cfg.num_clients
        session_of = [0] * cfg.num_clients

        rate = 1.0 / cfg.mean_interarrival
        locality = cfg.temporal_locality
        depth = cfg.locality_stack_depth
        session_gap = cfg.session_gap
        zero_fraction = cfg.zero_size_fraction
        expovariate = rng.expovariate
        now = cfg.start_time

        for start in range(0, cfg.num_requests, block_size):
            timestamps: List[float] = []
            clients: List[int] = []
            documents: List[int] = []
            sizes: List[int] = []
            sessions: List[int] = []
            for _ in range(min(block_size, cfg.num_requests - start)):
                now += expovariate(rate)
                ci = bisect_left(client_cdf, rand())
                recent = recents[ci]

                if recent and rand() < locality:
                    # Re-reference: geometric preference for the most
                    # recent documents in the client's stack.
                    idx = len(recent) - 1
                    while idx > 0 and rand() < 0.5:
                        idx -= 1
                    doc = recent.pop(idx)
                    recent.append(doc)
                else:
                    doc = doc_of_rank[bisect_left(rank_cdf, rand())]
                    if doc in recent:
                        recent.remove(doc)
                    recent.append(doc)
                    if len(recent) > depth:
                        del recent[0]

                if now - last_times[ci] > session_gap:
                    session_of[ci] += 1
                last_times[ci] = now

                size = doc_sizes[doc]
                if zero_fraction and rand() < zero_fraction:
                    size = 0
                timestamps.append(now)
                clients.append(ci)
                documents.append(doc)
                sizes.append(size)
                sessions.append(session_of[ci])
            yield timestamps, clients, documents, sizes, sessions

    def drawn_chunks(self, chunk_size: int) -> Iterator[Tuple["InternedChunk", Block]]:
        """Draw the stream straight into ``chunk_size``-request chunks.

        The chunk view of :meth:`draw_blocks`: each drawn block *is* a
        chunk once its document and client numbers are mapped to
        first-appearance dense ids through two integer tables, and a URL
        or client name is formatted only when its number first appears —
        field for field what interning the record view would give, with no
        record, URL or session string built per request. Each chunk comes
        with the block it was cut from (they share the timestamp and size
        columns), which is all :meth:`records_of` needs.
        """
        # Imported here: repro.fastpath sits above the trace layer.
        from repro.fastpath.interning import InternedChunk

        dense_doc = [-1] * self.config.num_documents
        dense_client = [-1] * self.config.num_clients
        base_docs = base_clients = base_records = 0
        for block in self.draw_blocks(chunk_size):
            timestamps, clients, documents, sizes, _ = block
            doc_ids, new_urls = _densify(documents, dense_doc, base_docs, document_url)
            client_ids, new_client_names = _densify(
                clients, dense_client, base_clients, client_name
            )
            yield InternedChunk(
                doc_ids=doc_ids,
                sizes=sizes,
                timestamps=timestamps,
                clients=client_ids,
                new_urls=new_urls,
                new_client_names=new_client_names,
                base_docs=base_docs,
                base_clients=base_clients,
                base_records=base_records,
            ), block
            base_docs += len(new_urls)
            base_clients += len(new_client_names)
            base_records += len(doc_ids)

    def generate(self) -> Trace:
        """Produce the full trace as a :class:`~repro.trace.record.Trace`.

        Drawn here, once, as a single chunk the length of the trace: that
        chunk is the trace's finished interned view, and the block it
        was cut from is kept until the first record-level read turns it
        into :class:`TraceRecord` objects (see :meth:`Trace.from_interned`).
        """
        ((whole, block),) = self.drawn_chunks(self.config.num_requests)
        whole.memo = {}
        return Trace.from_interned(whole, partial(self.records_of, (block,)))

    def iter_records(self) -> Iterator[TraceRecord]:
        """Yield the trace's records one at a time, in trace order."""
        return self.records_of(self.draw_blocks(_RECORD_VIEW_BLOCK))

    def records_of(self, blocks: Iterable[Block]) -> Iterator[TraceRecord]:
        """The record view of drawn ``blocks``, consecutive from the first.

        Each drawn row wrapped in a :class:`TraceRecord`, with client, URL
        and session strings formatted once per client, document and
        session rather than once per request.
        """
        cfg = self.config
        names = [client_name(i) for i in range(cfg.num_clients)]
        urls: List[Optional[str]] = [None] * cfg.num_documents
        session_ids = [""] * cfg.num_clients
        session_seen = [-1] * cfg.num_clients
        for block in blocks:
            for now, ci, doc, size, session in zip(*block):
                url = urls[doc]
                if url is None:
                    url = urls[doc] = document_url(doc)
                if session != session_seen[ci]:
                    session_seen[ci] = session
                    session_ids[ci] = f"s{ci}.{session}"
                # Positional (timestamp, client_id, url, size, session_id):
                # keyword matching is a sixth of this call's cost.
                yield TraceRecord(now, names[ci], url, size, session_ids[ci])


def generate_trace(config: Optional[SyntheticTraceConfig] = None) -> Trace:
    """Convenience wrapper: ``generate_trace(cfg)`` == ``BULikeTraceGenerator(cfg).generate()``."""
    return BULikeTraceGenerator(config).generate()
