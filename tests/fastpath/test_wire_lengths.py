"""The engine's inline byte arithmetic vs the real protocol objects.

The columnar replay loop never builds HttpRequest/HttpResponse/ICP
objects; it adds closed-form byte counts to the bus counters instead.
These tests pin each closed form to the protocol classes it replaces, so
any change to the wire formats breaks loudly here rather than silently
skewing the differential suite's shared constants.

Engine formulas under test (sender is the requesting/responding cache):

* request without age:  ``len(url) + len(sender) + 24``
* request with age:     ``len(url) + len(sender) + len(age_text) + 50``
* response with age:    ``70 + len(str(body)) + len(sender) + len(age_text) + body``
* origin response:      ``50 + len(str(body)) + body``  (sender "origin")
* ICP probe round trip: ``query_wire_length(url) + reply_wire_length(url)``
  — which the interned columns compute from the URL's byte length alone
  (``2 * len + QUERY_OVERHEAD + REPLY_OVERHEAD``; last section)
"""

from __future__ import annotations

import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import interning
from repro.fastpath.interning import icp_probe_bytes
from repro.protocol import icp
from repro.protocol.http import (
    HttpRequest,
    HttpResponse,
    _utf8_length,
    format_expiration_age,
)
from repro.trace import Trace, TraceRecord
from repro.trace.columnar_io import PackedTraceReader, write_packed

URLS = [
    "http://a/x",
    "http://example.com/some/long/path/to/a/document.html",
    "http://host/ünïcode/path",
]
SENDERS = ["cache0", "cache7", "cache12", "parent3"]
AGES = [0.0, 1.5, 12345.678901, math.inf]
BODIES = [1, 999, 4096, 1 << 20]


def _u8(text: str) -> int:
    return len(text.encode("utf-8"))


@pytest.mark.parametrize("sender", SENDERS)
@pytest.mark.parametrize("url", URLS)
def test_request_without_age(url, sender):
    request = HttpRequest(url=url, sender=sender)
    assert request.wire_length == _u8(url) + _u8(sender) + 24
    assert request.wire_length == len(request.encode().encode("utf-8"))


@pytest.mark.parametrize("age", AGES)
@pytest.mark.parametrize("sender", SENDERS)
@pytest.mark.parametrize("url", URLS)
def test_request_with_piggybacked_age(url, sender, age):
    request = HttpRequest(url=url, sender=sender).with_expiration_age(age)
    age_text = format_expiration_age(age)
    assert request.wire_length == _u8(url) + _u8(sender) + len(age_text) + 50
    assert request.wire_length == len(request.encode().encode("utf-8"))


@pytest.mark.parametrize("age", AGES)
@pytest.mark.parametrize("sender", SENDERS)
@pytest.mark.parametrize("body", BODIES)
def test_response_with_piggybacked_age(body, sender, age):
    response = HttpResponse(
        url="http://a/x", body_size=body, sender=sender
    ).with_expiration_age(age)
    age_text = format_expiration_age(age)
    assert response.wire_length == (
        70 + len(str(body)) + _u8(sender) + len(age_text) + body
    )
    assert response.wire_length == (
        len(response.encode().encode("utf-8")) + body
    )


@pytest.mark.parametrize("body", BODIES)
def test_origin_response(body):
    response = HttpResponse(url="http://a/x", body_size=body, sender="origin")
    assert response.wire_length == 50 + len(str(body)) + body
    assert response.wire_length == len(response.encode().encode("utf-8")) + body


@pytest.mark.parametrize("url", URLS)
def test_icp_probe_pair(url):
    """One sibling probe = one query + one reply datagram."""
    sender = b"\x00\x00\x00\x01"
    query = icp.query(7, url, sender)
    hit_reply = icp.reply(query, hit=True, sender=sender)
    miss_reply = icp.reply(query, hit=False, sender=sender)
    assert icp.query_wire_length(url) == query.wire_length == len(icp.encode(query))
    assert icp.reply_wire_length(url) == hit_reply.wire_length
    # Misses cost the same bytes as hits, so probe accounting is
    # outcome-independent: query + reply per probed sibling.
    assert miss_reply.wire_length == hit_reply.wire_length == len(
        icp.encode(miss_reply)
    )


def test_cache_sender_length_formula():
    """The engine precomputes sender lengths as 5 + digits("cacheN")."""
    for index in (0, 3, 9, 10, 42, 127):
        assert _u8(f"cache{index}") == 5 + len(str(index))


# --------------------------------------------------------------------- #
# Length arithmetic of the packed reader and the interned chunk
# --------------------------------------------------------------------- #
#
# A packed trace stores every URL behind a ``u32`` byte-length prefix; the
# reader hands those prefixes to the chunk as ``new_url_lens`` instead of
# measuring the strings again, and the chunk derives the ICP probe bytes
# from the lengths. Both must equal what the real protocol computes from
# the string, for any text — multi-byte code points included.

url_texts = st.lists(
    st.text(min_size=1, max_size=24), min_size=1, max_size=6, unique=True
)


@given(urls=url_texts)
@settings(max_examples=60, deadline=None)
def test_reader_supplied_lengths_match_the_protocol(urls):
    records = [
        TraceRecord(timestamp=float(i), client_id="c", url=url, size=10)
        for i, url in enumerate(urls)
    ]
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.rpct")
        write_packed(path, Trace(records), chunk_size=4)
        with PackedTraceReader(path) as reader:
            chunks = list(reader.interned_chunks(4))
    assert [url for chunk in chunks for url in chunk.new_urls] == urls
    for chunk in chunks:
        # Supplied by the reader, not measured on first access.
        assert chunk._new_url_lens is not None
        assert chunk.new_url_lens == [_utf8_length(url) for url in chunk.new_urls]
        assert chunk.new_icp_probe_bytes == [
            icp.query_wire_length(url) + icp.reply_wire_length(url)
            for url in chunk.new_urls
        ]


@given(url=st.text(max_size=40))
@settings(max_examples=100, deadline=None)
def test_probe_bytes_from_a_length_match_the_datagrams(url):
    sender = b"\x00\x00\x00\x01"
    query = icp.query(7, url, sender)
    pair = len(icp.encode(query)) + len(icp.encode(icp.reply(query, True, sender)))
    assert icp_probe_bytes([_utf8_length(url)]) == [pair]


def test_probe_overhead_is_the_protocols_own_constant():
    """No literal: the affine term is built from ``repro.protocol.icp``,
    whose wire-length functions are defined through the same constants."""
    assert interning._ICP_PROBE_OVERHEAD == icp.QUERY_OVERHEAD + icp.REPLY_OVERHEAD
    assert icp.QUERY_OVERHEAD == icp.query_wire_length("")
    assert icp.REPLY_OVERHEAD == icp.reply_wire_length("")
    assert icp_probe_bytes([0]) == [icp.QUERY_OVERHEAD + icp.REPLY_OVERHEAD]
