"""InternedTrace: dense ids, derived protocol columns, per-trace caching."""

from __future__ import annotations

import pytest

from repro.fastpath.interning import InternedTrace
from repro.protocol import icp
from repro.trace import Trace, TraceRecord


def _records():
    return [
        TraceRecord(timestamp=0.0, client_id="alice", url="http://a/x", size=100),
        TraceRecord(timestamp=1.0, client_id="bob", url="http://b/y", size=0),
        TraceRecord(timestamp=2.0, client_id="alice", url="http://a/x", size=100),
        TraceRecord(timestamp=3.0, client_id="carol", url="http://c/z", size=50),
        TraceRecord(timestamp=4.0, client_id="bob", url="http://a/x", size=100),
    ]


def test_ids_follow_first_appearance_order():
    interned = InternedTrace.from_records(_records())
    assert interned.urls == ["http://a/x", "http://b/y", "http://c/z"]
    assert interned.doc_ids == [0, 1, 0, 2, 0]
    assert interned.client_names == ["alice", "bob", "carol"]
    assert interned.clients == [0, 1, 0, 2, 1]
    assert interned.num_records == 5
    assert interned.num_docs == 3
    assert interned.num_clients == 3


def test_per_request_columns_preserved():
    interned = InternedTrace.from_records(_records())
    assert interned.sizes == [100, 0, 100, 50, 100]
    assert interned.timestamps == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert interned.has_zero_sizes is True
    no_zeros = InternedTrace.from_records(
        [r for r in _records() if r.size > 0]
    )
    assert no_zeros.has_zero_sizes is False


def test_derived_columns_match_protocol_functions():
    """url_lens / icp_probe_bytes come from the real protocol arithmetic,
    including non-ASCII URLs."""
    records = _records() + [
        TraceRecord(timestamp=5.0, client_id="alice", url="http://a/ünïcode", size=10)
    ]
    interned = InternedTrace.from_records(records)
    for doc, url in enumerate(interned.urls):
        assert interned.url_lens[doc] == len(url.encode("utf-8"))
        assert interned.icp_probe_bytes[doc] == (
            icp.query_wire_length(url) + icp.reply_wire_length(url)
        )


def test_trace_interned_is_cached_per_instance():
    trace = Trace(_records())
    first = trace.interned()
    second = trace.interned()
    assert first is second
    assert isinstance(first, InternedTrace)
    # A distinct (even identical-content) trace interns separately.
    other = Trace(_records())
    assert other.interned() is not first


def test_empty_trace_interns_to_empty_columns():
    interned = InternedTrace.from_records([])
    assert interned.num_records == 0
    assert interned.num_docs == 0
    assert interned.num_clients == 0
    assert interned.has_zero_sizes is False


def test_chunks_rejects_nonpositive_chunk_size_with_trace_error():
    """Same typed error every streamed source raises for this condition."""
    from repro.errors import TraceError

    interned = InternedTrace.from_records(_records())
    with pytest.raises(TraceError, match="chunk_size must be positive"):
        next(interned.chunks(0))
