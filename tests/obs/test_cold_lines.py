"""The cold regime's line writer against the serialisation oracle.

``RunRecorder.cold_requests`` writes every line of a block of cold-regime
rows in one loop: a remote hit's ``promotion``, ``placement`` and
``request`` lines, a miss's ``placement`` and ``request`` lines, a local
hit's ``request`` line, with ``inf`` ages, stored placements, the
scheme's constant promotion verdict and no hops. Each row must write what
the per-decision emitters of
:class:`tests.obs.reference_recorder.ReferenceRecorder` (one ``json.dumps``
per line) write for those values, in that order, one ``write`` per line,
and count the same lines and requests.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import RunRecorder, string_json

from tests.obs.reference_recorder import ReferenceRecorder
from tests.obs.test_line_templates import WriteLog, ints, times, urls, wild

INF = math.inf


def reference_lines(ts, caches, docs, url_values, outcomes, served, responders, granted):
    sink = WriteLog()
    recorder = ReferenceRecorder(sink)
    for t, cache, doc, code, size, who in zip(ts, caches, docs, outcomes, served, responders):
        url = url_values[doc]
        if code == 2:
            recorder.promotion(t, who, url, INF, INF, granted)
            recorder.placement_remote(t, cache, url, size, INF, INF, True, granted)
            recorder.request(t, cache, url, "remote_hit", size, who, True, granted, 0)
        elif code == 3:
            recorder.placement_origin(t, cache, url, size, INF, True)
            recorder.request(t, cache, url, "miss", size, None, True, False, 0)
        else:
            recorder.request(t, cache, url, "local_hit", size, None, False, False, 0)
    return sink.writes, recorder.counts, recorder._requests


@st.composite
def cold_rows(draw, values=ints, moments=times):
    rows = draw(st.integers(0, 12))
    url_values = draw(st.lists(urls, min_size=1, max_size=4))
    columns = [[] for _ in range(6)]
    for _ in range(rows):
        row = (
            draw(moments), draw(values), draw(st.integers(0, len(url_values) - 1)),
            draw(st.sampled_from((0, 2, 3))), draw(values), draw(values),
        )
        for column, value in zip(columns, row):
            column.append(value)
    ts, caches, docs, outcomes, served, responders = columns
    return (ts, caches, docs, url_values, bytearray(outcomes), served, responders)


def assert_rows_match(case, granted):
    ts, caches, docs, url_values, outcomes, served, responders = case
    sink = WriteLog()
    recorder = RunRecorder(sink)
    recorder.cold_requests(
        ts, caches, docs, [string_json(url) for url in url_values], outcomes, served,
        responders, granted,
    )
    want = reference_lines(ts, caches, docs, url_values, outcomes, served, responders, granted)
    assert (sink.writes, recorder.counts, recorder._requests) == want
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in sink.writes)


@settings(max_examples=300, deadline=None)
@given(case=cold_rows(), granted=st.booleans())
def test_cold_rows_equal_the_per_decision_lines(case, granted):
    """Every outcome byte of the regime, float corners and int timestamps,
    escaped and astral URLs, both verdicts."""
    assert_rows_match(case, granted)


@settings(max_examples=150, deadline=None)
@given(case=cold_rows(values=wild, moments=times | wild), granted=st.booleans())
def test_cold_rows_fall_back_like_the_emitters(case, granted):
    """Values no kernel column holds take the same per-value ``json.dumps``."""
    assert_rows_match(case, granted)


def test_counts_follow_the_outcome_bytes():
    sink = WriteLog()
    recorder = RunRecorder(sink)
    recorder.cold_requests(
        [1.0, 2.0, 3.0], [0, 1, 0], [0, 0, 0], ['"u"'], bytearray((3, 2, 0)), [5, 5, 5],
        [0, 0, 0], False,
    )
    assert recorder.counts == {"request": 3, "promotion": 1, "placement": 2}
    assert len(sink.writes) == 6 and recorder._requests == 3
    recorder.cold_requests([], [], [], ['"u"'], bytearray(), [], [], True)
    assert len(sink.writes) == 6 and recorder._requests == 3
