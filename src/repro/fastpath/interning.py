"""Trace interning: map URLs and client ids to dense integers.

The object core keys every cache structure by URL string; each request
pays string hashing several times over (lookup, probe, policy order,
entry table). Interning assigns every distinct URL a dense ``doc id``
(first-appearance order) once, after which the replay loop works purely
with list indices. Clients intern the same way, which also makes the
round-robin-client partitioner a modulo over the client id.

Derived per-document columns that the protocol accounting needs — UTF-8
URL byte length and the ICP query+reply datagram size — are precomputed
here, the length with the protocol's own function and the datagram size
from that length through :mod:`repro.protocol.icp`'s overhead constants
(:func:`icp_probe_bytes`), so the engine never touches a URL string
during replay.

A whole trace is one chunk: :meth:`repro.trace.record.Trace.interned`
holds the :class:`InternedChunk` that starts at request 0, whose deltas
are the full intern tables. Only such a chunk carries a ``memo`` for the
derived *per-run* columns of :mod:`repro.fastpath._frame` (patched record
sizes, digit counts, leaf assignment, the batch precompute): a sweep
replays the same trace at many capacities, and recomputing an O(n)
column per point was measurable.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.protocol import icp
from repro.protocol.http import _utf8_length
from repro.trace.record import TraceRecord, require_chunk_size


#: The per-request columns of a chunk, in ``.rpct`` order, and the
#: ``array`` type code of each when it is held as a typed buffer.
COLUMN_NAMES = ("doc_ids", "sizes", "timestamps", "clients")
COLUMN_CODES = "qqdq"

#: ICP bytes of one probe (query + reply) beyond twice the URL's length.
_ICP_PROBE_OVERHEAD = icp.QUERY_OVERHEAD + icp.REPLY_OVERHEAD


def icp_probe_bytes(url_lens: Sequence[int]) -> List[int]:
    """ICP query + reply datagram bytes per URL, from UTF-8 URL lengths.

    ``query_wire_length(url) + reply_wire_length(url)`` is affine in the
    URL's byte length; both datagrams carry the URL once.
    """
    return [2 * length + _ICP_PROBE_OVERHEAD for length in url_lens]


def client_leaf_positions(client_names: Sequence[str], num_leaves: int) -> List[int]:
    """Leaf *position* (0..num_leaves-1) per interned client id.

    The hash partitioner's assignment, computed once per distinct client:
    the first 8 bytes of the URL-less MD5 of the client name, big-endian,
    modulo the leaf count — the same arithmetic as
    ``repro.architecture.partition.HashPartitioner``.
    """
    return [
        int.from_bytes(hashlib.md5(name.encode("utf-8")).digest()[:8], "big")
        % num_leaves
        for name in client_names
    ]


class InternedChunk:
    """One contiguous slice of an interned trace, with intern-table deltas.

    Ids are *global* (dense, first-appearance order over the whole stream),
    so feeding consecutive chunks to a replay core reproduces whole-trace
    interning exactly. ``new_urls`` / ``new_client_names`` carry the intern
    table entries first seen in this chunk (ids ``base_docs ..
    base_docs+len(new_urls)-1``, resp. clients); the consumer grows its
    per-doc state by exactly these deltas before replaying the chunk.

    **Column contract.** The four per-request columns are given either as
    Python lists (interners, the synthetic stream, slices of an interned
    trace) or as typed buffers — ``array('q')`` doc ids, sizes and
    clients, ``array('d')`` timestamps (:data:`COLUMN_CODES`), which is
    how the packed-trace reader hands them over. Whether a chunk is
    buffer-backed is this class's business alone; consumers pick the view
    they need and never convert themselves:

    * ``doc_ids`` / ``sizes`` / ``timestamps`` / ``clients`` are always
      lists. Over a buffer-backed chunk each is built on first access and
      kept, so a consumer that never asks (the batch engine while a chunk
      stays cold) allocates no per-request Python object.
    * :meth:`columns_np` gives the four columns as numpy arrays — views
      of the buffers, or one ``np.array`` per list.
    * :meth:`column_bytes` gives their ``.rpct`` byte images.

    Derived per-new-doc columns (UTF-8 URL length, ICP probe bytes) are
    computed lazily, once per chunk, unless the producer already holds
    them (the packed reader reads the lengths off the file's own string
    prefixes).

    **A whole trace** is the chunk with every base 0 (:meth:`from_records`,
    ``generate_trace``); :meth:`slices` cuts it into smaller ones. Only it
    is replayed more than once, so only its ``memo`` is a dict and not
    ``None`` (:meth:`memoised`).
    """

    __slots__ = (
        "_buffers",
        "_lists",
        "new_urls",
        "new_client_names",
        "base_docs",
        "base_clients",
        "base_records",
        "num_records",
        "_new_url_lens",
        "_new_icp_probe_bytes",
        "memo",
    )

    # Chunk columns are indexed by chunk-local offset; ids stay global.
    def __init__(
        self,
        doc_ids: Union[List[int], array],
        sizes: Union[List[int], array],
        timestamps: Union[List[float], array],
        clients: Union[List[int], array],
        new_urls: List[str],
        new_client_names: List[str],
        base_docs: int,
        base_clients: int,
        base_records: int,
        new_url_lens: Optional[List[int]] = None,
        new_icp_probe_bytes: Optional[List[int]] = None,
    ):
        if isinstance(doc_ids, array):
            self._buffers: Optional[Tuple[array, ...]] = (
                doc_ids, sizes, timestamps, clients,
            )
            self._lists: List[Optional[list]] = [None, None, None, None]
        else:
            self._buffers = None
            self._lists = [doc_ids, sizes, timestamps, clients]
        self.new_urls = new_urls
        self.new_client_names = new_client_names
        self.base_docs = base_docs
        self.base_clients = base_clients
        self.base_records = base_records
        self.num_records = len(doc_ids)
        self._new_url_lens = new_url_lens
        self._new_icp_probe_bytes = new_icp_probe_bytes
        # kind -> (layout key, value); see memoised. None: nothing is kept.
        self.memo: Optional[Dict[str, Tuple[object, object]]] = None

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "InternedChunk":
        """Intern ``records`` in order, as the one chunk of a whole trace."""
        whole = ChunkingInterner().intern_chunk(records)
        whole.memo = {}
        return whole

    def memoised(self, kind: str, key: object, build: Callable[[], object]):
        """``build()``, kept in ``memo`` under ``kind`` while ``key`` holds.

        One entry per kind: another key (partitioner, leaf layout, patch
        size) drops the held value before building its own, so what a
        trace keeps does not grow with the layouts it was replayed under.
        Values must not refer back to the chunk — a trace dies by
        refcount. Without a ``memo`` this is just ``build()``.
        """
        memo = self.memo
        if memo is None:
            return build()
        held = memo.get(kind)
        if held is not None and held[0] == key:
            return held[1]
        memo.pop(kind, None)
        value = build()
        memo[kind] = (key, value)
        return value

    def slices(self, chunk_size: int) -> Iterator["InternedChunk"]:
        """Cut this chunk into consecutive ones of ``chunk_size`` requests.

        Because doc and client ids are assigned in first-appearance order,
        the intern tables seen after any prefix of the trace are exactly the
        first ``max(id)+1`` entries — so chunking is pure column slicing,
        and chunked replay is byte-identical to whole-trace replay by
        construction. ``chunk_size >= num_records`` yields a single chunk;
        ``chunk_size`` must be positive. The slices carry no ``memo``.
        """
        require_chunk_size(chunk_size)
        doc_ids = self.doc_ids
        clients = self.clients
        first_doc = base_docs = self.base_docs
        first_client = base_clients = self.base_clients
        for start in range(0, self.num_records, chunk_size):
            end = min(start + chunk_size, self.num_records)
            chunk_docs = doc_ids[start:end]
            chunk_clients = clients[start:end]
            next_docs = max(base_docs - 1, max(chunk_docs)) + 1
            next_clients = max(base_clients - 1, max(chunk_clients)) + 1
            yield InternedChunk(
                doc_ids=chunk_docs,
                sizes=self.sizes[start:end],
                timestamps=self.timestamps[start:end],
                clients=chunk_clients,
                new_urls=self.new_urls[base_docs - first_doc : next_docs - first_doc],
                new_client_names=self.new_client_names[
                    base_clients - first_client : next_clients - first_client
                ],
                base_docs=base_docs,
                base_clients=base_clients,
                base_records=self.base_records + start,
            )
            base_docs = next_docs
            base_clients = next_clients

    def _list_column(self, index: int) -> list:
        """Column ``index`` as a list, materialised from its buffer once."""
        column = self._lists[index]
        if column is None:
            column = self._lists[index] = self._buffers[index].tolist()
        return column

    @property
    def doc_ids(self) -> List[int]:
        """Dense document id per request."""
        return self._list_column(0)

    @property
    def sizes(self) -> List[int]:
        """Raw record size per request (zero sizes not patched)."""
        return self._list_column(1)

    @property
    def timestamps(self) -> List[float]:
        """Arrival time per request."""
        return self._list_column(2)

    @property
    def clients(self) -> List[int]:
        """Dense client id per request."""
        return self._list_column(3)

    @property
    def listed_columns(self) -> Tuple[str, ...]:
        """Names of the request columns that exist as lists right now.

        All four for a list-backed chunk; for a buffer-backed one, those a
        consumer has asked for so far (observability of the lazy views:
        the tests of the cold regime and of re-packing read it).
        """
        return tuple(
            name
            for name, column in zip(COLUMN_NAMES, self._lists)
            if column is not None
        )

    def columns_np(self, np) -> tuple:
        """``(doc_ids, sizes, timestamps, clients)`` as numpy arrays.

        int64 / int64 / float64 / int64. Over a buffer-backed chunk these
        are zero-copy views (read-only by convention: the buffers are the
        chunk's); over lists, one ``np.array`` each.
        """
        if self._buffers is not None:
            as_array, columns = np.frombuffer, self._buffers
        else:
            as_array, columns = np.array, self._lists
        doc_ids, sizes, timestamps, clients = (
            as_array(column, dtype=dtype)
            for column, dtype in zip(
                columns, (np.int64, np.int64, np.float64, np.int64)
            )
        )
        return doc_ids, sizes, timestamps, clients

    def column_bytes(self) -> Tuple[bytes, ...]:
        """The four columns' native int64/float64 byte images, in order.

        What a packed trace stores; a buffer-backed chunk is written from
        its buffers, without going through lists.
        """
        buffers = self._buffers
        if buffers is None:
            buffers = tuple(
                array(code, column)
                for code, column in zip(COLUMN_CODES, self._lists)
            )
        return tuple(buffer.tobytes() for buffer in buffers)

    @property
    def new_url_lens(self) -> List[int]:
        """UTF-8 byte length per newly interned URL.

        Hot-path column, computed once per chunk and read-only by
        convention in the engines; copying per access would defeat it.
        """
        if self._new_url_lens is None:
            self._new_url_lens = [_utf8_length(url) for url in self.new_urls]
        return self._new_url_lens  # repro: noqa[RPR134]

    @property
    def new_icp_probe_bytes(self) -> List[int]:
        """ICP query + reply datagram bytes per newly interned URL.

        Same read-only-by-convention contract as :attr:`new_url_lens`.
        """
        if self._new_icp_probe_bytes is None:
            self._new_icp_probe_bytes = icp_probe_bytes(self.new_url_lens)
        return self._new_icp_probe_bytes  # repro: noqa[RPR134]


class ChunkingInterner:
    """Incremental interner for streaming record sources.

    Holds the URL/client intern tables across calls so successive chunks
    receive globally consistent dense ids (:meth:`InternedChunk.from_records`
    is one batch holding everything). Feed it consecutive record batches
    in trace order; each call returns an :class:`InternedChunk`.
    """

    __slots__ = ("_doc_index", "_client_index", "_records_seen")

    def __init__(self) -> None:
        self._doc_index: Dict[str, int] = {}
        self._client_index: Dict[str, int] = {}
        self._records_seen = 0

    @property
    def records_seen(self) -> int:
        """Total records interned so far."""
        return self._records_seen

    def intern_chunk(self, records: Iterable[TraceRecord]) -> InternedChunk:
        """Intern one batch of records; ids continue from prior batches."""
        doc_index = self._doc_index
        client_index = self._client_index
        base_docs = len(doc_index)
        base_clients = len(client_index)
        base_records = self._records_seen
        new_urls: List[str] = []
        new_client_names: List[str] = []
        doc_ids: List[int] = []
        sizes: List[int] = []
        timestamps: List[float] = []
        clients: List[int] = []
        for record in records:
            url = record.url
            doc = doc_index.get(url)
            if doc is None:
                doc = len(doc_index)
                doc_index[url] = doc
                new_urls.append(url)
            client_name = record.client_id
            client = client_index.get(client_name)
            if client is None:
                client = len(client_index)
                client_index[client_name] = client
                new_client_names.append(client_name)
            doc_ids.append(doc)
            sizes.append(record.size)
            timestamps.append(record.timestamp)
            clients.append(client)
        self._records_seen = base_records + len(doc_ids)
        return InternedChunk(
            doc_ids=doc_ids,
            sizes=sizes,
            timestamps=timestamps,
            clients=clients,
            new_urls=new_urls,
            new_client_names=new_client_names,
            base_docs=base_docs,
            base_clients=base_clients,
            base_records=base_records,
        )
