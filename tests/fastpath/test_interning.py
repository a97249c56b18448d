"""A whole trace as one InternedChunk: dense ids, derived protocol columns,
per-trace caching."""

from __future__ import annotations

import pytest

from repro.fastpath.interning import ChunkingInterner, InternedChunk
from repro.protocol import icp
from repro.simulation.simulator import SimulationConfig, run_simulation
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
    interned = InternedChunk.from_records(_records())
    assert interned.new_urls == ["http://a/x", "http://b/y", "http://c/z"]
    assert interned.doc_ids == [0, 1, 0, 2, 0]
    assert interned.new_client_names == ["alice", "bob", "carol"]
    assert interned.clients == [0, 1, 0, 2, 1]
    assert interned.num_records == 5
    assert len(interned.new_urls) == 3
    assert len(interned.new_client_names) == 3


def test_per_request_columns_preserved():
    interned = InternedChunk.from_records(_records())
    assert interned.sizes == [100, 0, 100, 50, 100]
    assert interned.timestamps == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert (0 in interned.sizes) is True
    no_zeros = InternedChunk.from_records(
        [r for r in _records() if r.size > 0]
    )
    assert (0 in no_zeros.sizes) is False


def test_derived_columns_match_protocol_functions():
    """url_lens / icp_probe_bytes come from the real protocol arithmetic,
    including non-ASCII URLs."""
    records = _records() + [
        TraceRecord(timestamp=5.0, client_id="alice", url="http://a/ünïcode", size=10)
    ]
    interned = InternedChunk.from_records(records)
    for doc, url in enumerate(interned.new_urls):
        assert interned.new_url_lens[doc] == len(url.encode("utf-8"))
        assert interned.new_icp_probe_bytes[doc] == (
            icp.query_wire_length(url) + icp.reply_wire_length(url)
        )


def test_trace_interned_is_cached_per_instance():
    trace = Trace(_records())
    first = trace.interned()
    second = trace.interned()
    assert first is second
    assert isinstance(first, InternedChunk)
    # A distinct (even identical-content) trace interns separately.
    other = Trace(_records())
    assert other.interned() is not first


def test_empty_trace_interns_to_empty_columns():
    interned = InternedChunk.from_records([])
    assert interned.num_records == 0
    assert len(interned.new_urls) == 0
    assert len(interned.new_client_names) == 0
    assert (0 in interned.sizes) is False


def test_slices_rejects_nonpositive_chunk_size_with_trace_error():
    """Same typed error every streamed source raises for this condition."""
    from repro.errors import TraceError

    interned = InternedChunk.from_records(_records())
    with pytest.raises(TraceError, match="chunk_size must be positive"):
        next(interned.slices(0))


# --------------------------------------------------------------------- #
# The whole-trace chunk, its slices and its memo
# --------------------------------------------------------------------- #


def test_whole_trace_chunk_starts_at_zero_and_has_a_memo():
    whole = InternedChunk.from_records(_records())
    assert (whole.base_docs, whole.base_clients, whole.base_records) == (0, 0, 0)
    assert whole.memo == {}
    streamed = ChunkingInterner().intern_chunk(_records())
    assert streamed.memo is None


@pytest.mark.parametrize("chunk_size", (1, 2, 3, 5, 9))
def test_slices_are_what_a_streaming_interner_yields(chunk_size):
    """Bases, deltas and columns; and a slice can be sliced again."""
    records = _records()
    interner = ChunkingInterner()
    wanted = [
        interner.intern_chunk(records[start : start + chunk_size])
        for start in range(0, len(records), chunk_size)
    ]
    whole = InternedChunk.from_records(records)
    sliced = list(whole.slices(chunk_size))
    resliced = [
        piece for part in whole.slices(2 * chunk_size) for piece in part.slices(chunk_size)
    ]
    for got in (sliced, resliced):
        assert [_fields(chunk) for chunk in got] == [_fields(chunk) for chunk in wanted]
        assert all(chunk.memo is None for chunk in got)


def _fields(chunk):
    return (
        chunk.doc_ids, chunk.sizes, chunk.timestamps, chunk.clients,
        chunk.new_urls, chunk.new_client_names,
        chunk.base_docs, chunk.base_clients, chunk.base_records,
    )


def test_memoised_keeps_one_value_per_kind():
    whole = InternedChunk.from_records(_records())
    built = []

    def build(tag):
        return lambda: built.append(tag) or [tag]

    first = whole.memoised("leaf", ("hash", (0, 1)), build("a"))
    assert whole.memoised("leaf", ("hash", (0, 1)), build("never")) is first
    assert whole.memoised("sizes", 4096, build("b")) == ["b"]
    # Another layout replaces the held one; going back rebuilds.
    assert whole.memoised("leaf", ("hash", (0, 1, 2)), build("c")) == ["c"]
    assert whole.memoised("leaf", ("hash", (0, 1)), build("d")) == ["d"]
    assert built == ["a", "b", "c", "d"]
    assert whole.memo == {"leaf": (("hash", (0, 1)), ["d"]), "sizes": (4096, ["b"])}
    # Without a memo nothing is kept.
    sliced = next(whole.slices(2))
    assert sliced.memoised("leaf", 1, build("e")) == ["e"]
    assert sliced.memoised("leaf", 1, build("f")) == ["f"]
    assert sliced.memo is None


@pytest.mark.parametrize(
    "engine,kinds", [("batch", {"batch_cols"}), ("columnar", {"leaf", "sizes"})]
)
def test_group_size_sweep_ends_with_one_layout_in_the_memo(
    bu_style_trace, engine, kinds, monkeypatch
):
    """The paper's group-size sweep replays one trace at 2/4/8(/16) caches;
    each size used to add its columns to the trace for good (~95 bytes a
    request per size)."""
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    if engine == "batch":
        pytest.importorskip("numpy")
    trace = Trace(bu_style_trace.records)
    for group in (2, 4, 8, 16):
        config = SimulationConfig(
            scheme="ea", num_caches=group, aggregate_capacity=600_000, engine=engine
        )
        run_simulation(config, trace)
        memo = trace.interned().memo
        assert set(memo) == kinds
        layouts = {key for key, _value in memo.values() if isinstance(key, tuple)}
        assert all(tuple(range(group)) in layout for layout in layouts) and layouts
