"""Canonical request-trace record used throughout the simulator.

All trace readers normalise their input into :class:`TraceRecord` instances;
the synthetic generator draws columns and builds records when a reader
asks for them (see :class:`Trace`). A record captures one HTTP
request observed at (or destined for) a proxy: who asked, when, for which
URL, and how large the response body was.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, List, Optional

from repro.errors import TraceError

#: Size (in bytes) substituted for zero-size log records, following the
#: paper's patch rule: "we made the size of each such record equal to average
#: document size of 4K bytes" (Section 4.1).
DEFAULT_PATCH_SIZE = 4096


@dataclass(frozen=True)
class TraceRecord:
    """One client HTTP request.

    Attributes:
        timestamp: Request arrival time in seconds (monotone within a trace;
            usually a Unix timestamp for real traces, simulated seconds for
            synthetic ones).
        client_id: Stable identifier of the requesting client (user or host).
        url: Requested URL; document identity for caching purposes.
        size: Response body size in bytes. ``0`` denotes an unknown size and
            is normally patched via :func:`patch_zero_sizes`.
        session_id: Optional browsing-session identifier (BU traces record
            one; synthetic traces generate one).
        method: HTTP method; only GETs are cacheable in this model.
        status: HTTP status code when the trace records one (Squid logs do).
    """

    timestamp: float
    client_id: str
    url: str
    size: int
    session_id: str = ""
    method: str = "GET"
    status: int = 200

    def __post_init__(self) -> None:
        if self.size < 0:
            raise TraceError(f"negative document size {self.size} for {self.url!r}")
        if not self.url:
            raise TraceError("trace record requires a non-empty URL")

    @property
    def is_cacheable(self) -> bool:
        """Whether this request can be served from / stored in a cache.

        Mirrors the common simulator convention: only successful GETs with
        http/ftp schemes and no query string are cacheable.
        """
        if self.method != "GET":
            return False
        if self.status not in (200, 203, 206, 300, 301, 304):
            return False
        if "?" in self.url or "cgi-bin" in self.url:
            return False
        return True

    def with_size(self, size: int) -> "TraceRecord":
        """Return a copy of this record with a different size."""
        return replace(self, size=size)

    def with_timestamp(self, timestamp: float) -> "TraceRecord":
        """Return a copy of this record with a different timestamp."""
        return replace(self, timestamp=timestamp)


def patch_zero_sizes(
    records: Iterable[TraceRecord], patch_size: int = DEFAULT_PATCH_SIZE
) -> Iterator[TraceRecord]:
    """Replace zero sizes with ``patch_size`` bytes.

    The BU traces contain records whose size field is zero; the paper
    substitutes the average document size of 4 KB for those (Section 4.1).
    """
    require_positive_int("patch_size", patch_size)
    for record in records:
        yield record.with_size(patch_size) if record.size == 0 else record


def sort_by_timestamp(records: Iterable[TraceRecord]) -> List[TraceRecord]:
    """Return records ordered by timestamp (stable for equal stamps)."""
    return sorted(records, key=lambda r: r.timestamp)


def validate_monotone(records: Iterable[TraceRecord]) -> List[TraceRecord]:
    """Materialise ``records``, raising if timestamps ever decrease.

    Simulators assume traces are replayed in arrival order; this guard makes
    a violated assumption loud instead of silently corrupting virtual time.
    """
    out: List[TraceRecord] = []
    last: Optional[float] = None
    for i, record in enumerate(records):
        if last is not None and record.timestamp < last:
            raise TraceError(
                f"timestamps not monotone at index {i}: "
                f"{record.timestamp} < {last}"
            )
        last = record.timestamp
        out.append(record)
    return out


def require_positive_int(name: str, value: int) -> None:
    """Raise :class:`TraceError` unless ``value``, the ``name`` argument,
    is a positive ``int`` (a ``bool`` is not one).

    It checks the sizes a replay counts in whole units: ``patch_size``
    (a patched record holds whole bytes) and ``chunk_size``. Every
    ``interned_chunks`` entry point calls it *before* returning its
    iterator, so a bad size fails at the call, not at the first pull.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TraceError(f"{name} must be an int, got {value!r}")
    if value <= 0:
        raise TraceError(f"{name} must be positive, got {value}")


class Trace:
    """A validated request trace: a record list, a columnar view, or both.

    A thin wrapper over a list of :class:`TraceRecord` adding the aggregate
    properties the paper reports for the BU trace (total requests, unique
    documents, unique clients) and convenience slicing. ``Trace(records)``
    validates and keeps the list, as every reader-built trace does.

    A generated trace is born the other way round (:meth:`from_interned`):
    its columnar view exists, and :attr:`records` is built and validated
    the first time a record-level reader asks — iteration, indexing,
    ``==``, the aggregates, :meth:`fingerprint`. ``len()``,
    :attr:`num_records`, :meth:`interned` and :meth:`interned_chunks` never
    build it, so the columnar and batch engines replay such a trace
    without constructing a record.
    """

    def __init__(self, records: Iterable[TraceRecord] = ()):
        self._records: Optional[List[TraceRecord]] = validate_monotone(records)
        self._build_records: Optional[Callable[[], Iterable[TraceRecord]]] = None
        self._interned = None
        self._fingerprint: Optional[str] = None

    @classmethod
    def from_interned(
        cls, interned, build_records: Callable[[], Iterable[TraceRecord]]
    ) -> "Trace":
        """A trace handed its finished whole-trace chunk; records deferred.

        ``build_records`` is called once, at the first read of
        :attr:`records`, then dropped with whatever it holds. It must
        pickle (a trace crosses the sweep pool's process boundary) and
        yield exactly the records ``interned`` was built from.
        """
        trace = cls()
        trace._records, trace._build_records = None, build_records
        trace._interned = interned
        return trace

    @property
    def records(self) -> List[TraceRecord]:
        """The record list (built and validated on first use if deferred)."""
        records = self._records
        if records is None:
            records = self._records = validate_monotone(self._build_records())
            self._build_records = None
        return records

    def __repr__(self) -> str:
        return f"Trace(records={self.records!r})"

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.records == other.records  # type: ignore[attr-defined]

    def __len__(self) -> int:
        if self._records is None:
            return self._interned.num_records
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.records[index])
        return self.records[index]

    @property
    def unique_urls(self) -> int:
        """Number of distinct documents requested."""
        return len({r.url for r in self.records})

    @property
    def unique_clients(self) -> int:
        """Number of distinct clients issuing requests."""
        return len({r.client_id for r in self.records})

    @property
    def total_bytes(self) -> int:
        """Sum of response sizes over all requests."""
        return sum(r.size for r in self.records)

    @property
    def duration(self) -> float:
        """Trace time span in seconds (0 for empty or single-record traces)."""
        if len(self.records) < 2:
            return 0.0
        return self.records[-1].timestamp - self.records[0].timestamp

    def head(self, n: int) -> "Trace":
        """First ``n`` records as a new Trace."""
        return Trace(self.records[:n])

    def interned(self):
        """Columnar view with URLs/clients interned to dense integer ids.

        Returns the whole trace as one
        :class:`repro.fastpath.interning.InternedChunk` (every base 0, the
        full intern tables as its deltas, a ``memo`` for derived columns).
        Computed once and kept on the instance (records are append-never
        after construction, same contract as :meth:`fingerprint`), so the
        columnar engine pays the interning cost once per trace even across
        many simulations — including pool workers that pin one trace. A
        trace made by :meth:`from_interned` was handed its view and never
        interns anything.
        """
        cached = self._interned
        if cached is None:
            # Imported here: repro.fastpath sits above the trace layer.
            from repro.fastpath.interning import InternedChunk

            cached = self._interned = InternedChunk.from_records(self.records)
        return cached

    def interned_chunks(self, chunk_size: int, spans=None):
        """Iterate the trace as :class:`InternedChunk` slices.

        ``spans`` (an optional :class:`repro.obs.spans.SpanTracer`) times
        the one-off interning pass as an ``intern`` span; the chunk
        slicing itself is pure column views and is not traced.

        Dense ids are global (identical to :meth:`interned`), and the
        intern-table deltas per chunk let a replay core grow its columnar
        state incrementally — replaying the chunks in order is
        byte-identical to replaying the whole trace, for any chunk size.
        Backed by the cached interned view, so chunking is pure column
        slicing. Streaming sources (packed columnar files, chunked
        synthetic generation) expose this same method without ever
        materialising the full trace; see :mod:`repro.trace.stream`.
        """
        require_positive_int("chunk_size", chunk_size)
        if spans is not None:
            with spans.span("intern", "source"):
                interned = self.interned()
            return interned.slices(chunk_size)
        return self.interned().slices(chunk_size)

    @property
    def num_records(self) -> int:
        """Total request count (the streamed-source protocol's spelling)."""
        return len(self)

    def fingerprint(self) -> str:
        """Stable content hash of every record (hex SHA-256).

        Two traces fingerprint equal iff they replay identically: every
        field that can influence a simulation is hashed, in order. Computed
        once and cached on the instance — records are append-never after
        construction, so the digest cannot go stale. The sweep memo store
        uses this as the trace half of its content address.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        digest = hashlib.sha256()
        for r in self.records:
            digest.update(
                f"{r.timestamp!r}|{r.client_id}|{r.url}|{r.size}|"
                f"{r.session_id}|{r.method}|{r.status}\n".encode("utf-8")
            )
        self._fingerprint = digest.hexdigest()
        return self._fingerprint
