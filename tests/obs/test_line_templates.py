"""``RunRecorder``'s line templates against an oracle from outside them.

The per-decision emitters format their JSON line directly; the contract is
byte identity with one ``json.dumps`` of the payload dict per line.
:class:`tests.obs.reference_recorder.ReferenceRecorder` is the parent
commit's recorder (that dict and that ``json.dumps``), so these tests
compare two independent serialisers:

* whole streams over the scheme x architecture x policy matrix on both
  observable engines, snapshots on — the hierarchical rows reach
  ``placement_node``;
* one hypothesis property per emitter over the values engines pass and the
  out-of-domain values the templates hand to ``json.dumps`` one by one;
* the kernel's range writer ``requests``, each row against ``request()``
  and against the oracle's own loop over its ``request()``;
* key order of every emitted line against the validator's table;
* digests of one small stream per architecture, computed at the parent
  commit before the rewrite.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.events import RunRecorder, string_json
from repro.obs.schema import _FIELDS, _SNAPSHOT_ROW_FIELDS
from repro.simulation.simulator import SimulationConfig

from tests.obs.conftest import stream_for
from tests.obs.reference_recorder import ReferenceRecorder
from tests.obs.test_parity import ARCHITECTURES, CAPACITY, POLICIES, SCHEMES

try:
    import numpy
except ImportError:  # the REPRO_NO_NUMPY leg also runs without the package
    numpy = None

INF = math.inf
ENGINES = ("object", "columnar")


def matrix_config(scheme: str, architecture: str, policy: str) -> SimulationConfig:
    return SimulationConfig(
        scheme=scheme,
        architecture=architecture,
        policy=policy,
        num_caches=4,
        num_parents=2,
        aggregate_capacity=CAPACITY,
    )


# --------------------------------------------------------------------- #
# (a) whole streams, (c) key order
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stream_equals_reference_full_matrix(scheme, architecture, policy, engine, obs_trace):
    config = matrix_config(scheme, architecture, policy)
    text, _ = stream_for(config, obs_trace, engine, snapshot_interval=300.0)
    reference, _ = stream_for(
        config, obs_trace, engine, snapshot_interval=300.0, recorder_cls=ReferenceRecorder
    )
    new_lines = text.splitlines(keepends=True)
    reference_lines = reference.splitlines(keepends=True)
    assert len(new_lines) == len(reference_lines)
    for number, (new, old) in enumerate(zip(new_lines, reference_lines), start=1):
        assert new == old, f"line {number}"
    emitted = {json.loads(line)["e"] for line in new_lines}
    assert {"run", "request", "placement", "evict", "snapshot", "end"} <= emitted


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_key_order_is_the_validators_table(architecture, obs_trace):
    """Every line lists its keys in ``obs.schema._FIELDS`` order, so the
    templates and the validator cannot drift apart silently."""
    text, _ = stream_for(
        matrix_config("ea", architecture, "lru"), obs_trace, "columnar", snapshot_interval=300.0
    )
    seen = set()
    for line in text.splitlines():
        pairs = json.loads(line, object_pairs_hook=list)
        event = dict(pairs)
        spec = event["e"]
        if spec == "placement":
            spec = f"placement/{event['role']}"
        seen.add(spec)
        assert [key for key, _ in pairs] == list(_FIELDS[spec]), line
        if spec == "snapshot":
            for row in event["caches"]:
                assert [key for key, _ in row] == list(_SNAPSHOT_ROW_FIELDS), line
    expected = {"run", "request", "promotion", "evict", "snapshot", "end"}
    if architecture == "hierarchical":
        expected |= {"placement/parent", "placement/child"}
    else:
        expected |= {"placement/remote", "placement/origin"}
    assert expected <= seen


# --------------------------------------------------------------------- #
# (d) digests computed at the parent commit
# --------------------------------------------------------------------- #

#: architecture -> (sha256, lines, bytes) of the ``ea``/``lru`` stream of
#: ``obs_trace`` with ``snapshot_interval=300``, written by the recorder as
#: it stood before the line templates.
PARENT_STREAMS = {
    "distributed": (
        "89c0ad38c5d31a5db485b4016b1eb52a6d2097e76180996d97825a5a21a3c8b0",
        4010,
        729129,
    ),
    "hierarchical": (
        "6508c3458cfd84e49ec71fe11ac0d8006fe2689a9d2c0d8d6fa8bfb29ec1729c",
        4807,
        884538,
    ),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_stream_digest_pinned_at_parent(architecture, engine, obs_trace):
    text, _ = stream_for(
        matrix_config("ea", architecture, "lru"), obs_trace, engine, snapshot_interval=300.0
    )
    data = text.encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    assert (digest, text.count("\n"), len(data)) == PARENT_STREAMS[architecture]


# --------------------------------------------------------------------- #
# (b) one property per emitter
# --------------------------------------------------------------------- #

#: Finite floats the shortest-repr algorithm treats differently (negative
#: zero, the exponent-notation thresholds, the smallest subnormal).
FLOAT_CORNERS = (-0.0, 1e16, 1e-7, 5e-324, 123456.789, 1e22, 0.1 + 0.2)

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FLOAT_CORNERS)
ints = st.integers(min_value=-(2**63), max_value=2**63)
times = finite | ints
ages = st.floats(allow_nan=False) | st.sampled_from((INF, -INF) + FLOAT_CORNERS)
flags = st.booleans()
responders = st.none() | ints
#: Any code point, lone surrogates included: quotes, backslashes, control
#: characters, non-ASCII and astral characters all take the escaping path.
urls = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ('say "hi"', "back\\slash", "tab\there\n\x00\x1f\x7f", "café 中文", "\U0001f600\U00010348", "\ud800")
)
kinds = st.sampled_from(("local_hit", "remote_hit", "miss"))
roles = st.sampled_from(("parent", "child"))

#: What no engine passes but ``json.dumps`` accepts: the templates must
#: still write the oracle's text for it.
_wild_numbers = [st.floats(allow_nan=True, allow_infinity=True), st.booleans(), ints]
if numpy is not None:
    _wild_numbers.append(st.floats(allow_nan=True, allow_infinity=True).map(numpy.float64))
wild_numbers = st.one_of(_wild_numbers)
wild = wild_numbers | st.none() | st.text(max_size=5)

EMITTERS = {
    "request": (times, ints, urls, kinds, ints, responders, flags, flags, ints),
    "placement_remote": (times, ints, urls, ints, ages, ages, flags, flags),
    "placement_origin": (times, ints, urls, ints, ages, flags),
    "placement_node": (times, roles, ints, urls, ints, ages, ages, flags),
    "promotion": (times, ints, urls, ages, ages, flags),
    "eviction": (times, ints, urls, ints, ages),
}

#: The same argument lists with every field drawn from outside the domain
#: (ages stay numeric: ``age_json`` itself rejects anything else).
WILD_EMITTERS = {
    "request": (wild,) * 9,
    "placement_remote": (wild, wild, wild, wild, wild_numbers, wild_numbers, wild, wild),
    "placement_origin": (wild, wild, wild, wild, wild_numbers, wild),
    "placement_node": (wild, wild, wild, wild, wild, wild_numbers, wild_numbers, wild),
    "promotion": (wild, wild, wild, wild_numbers, wild_numbers, wild),
    "eviction": (wild, wild, wild, wild, wild_numbers),
}


class WriteLog:
    """Sink that keeps each ``write`` call apart (lines are counted by writes)."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def emit(recorder_cls, emitter, args):
    sink = WriteLog()
    recorder = recorder_cls(sink)
    getattr(recorder, emitter)(*args)
    return sink.writes, recorder.counts, recorder._requests


def assert_matches_reference(emitter, args):
    writes, counts, requests = emit(RunRecorder, emitter, args)
    reference_writes, reference_counts, reference_requests = emit(ReferenceRecorder, emitter, args)
    assert writes == reference_writes
    assert len(writes) == 1 and writes[0].endswith("\n") and writes[0].count("\n") == 1
    assert counts == reference_counts
    assert requests == reference_requests


@pytest.mark.parametrize("emitter", sorted(EMITTERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_emitter_equals_reference_on_engine_values(emitter, data):
    assert_matches_reference(emitter, data.draw(st.tuples(*EMITTERS[emitter])))


@pytest.mark.parametrize("emitter", sorted(WILD_EMITTERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_emitter_equals_reference_outside_the_domain(emitter, data):
    assert_matches_reference(emitter, data.draw(st.tuples(*WILD_EMITTERS[emitter])))


@settings(max_examples=200, deadline=None)
@given(t=st.floats(allow_nan=True, allow_infinity=True) | st.booleans(), size=st.booleans() | ints)
@example(t=math.nan, size=True)
@example(t=INF, size=False)
@example(t=-INF, size=1)
def test_named_out_of_domain_values(t, size):
    """NaN / ±inf timestamps and a ``bool`` where an int is expected."""
    assert_matches_reference("request", (t, size, "u", "miss", size, size, True, False, size))
    assert_matches_reference("eviction", (t, size, "u", size, 1.0))


@pytest.mark.skipif(numpy is None, reason="numpy not installed")
def test_numpy_scalars_take_the_fallback():
    """``numpy.float64`` subclasses ``float`` (serialisable, by its float
    repr); ``numpy.int64`` is not an ``int`` and fails on both sides alike."""
    f64 = numpy.float64
    assert_matches_reference("request", (f64(1.5), 0, "u", "miss", 1, None, True, False, 0))
    assert_matches_reference("placement_origin", (f64(2.25), 0, "u", 1, f64(INF), True))
    assert_matches_reference("eviction", (1.0, 0, "u", 1, f64(0.1)))
    for recorder_cls in (RunRecorder, ReferenceRecorder):
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit(recorder_cls, "eviction", (1.0, numpy.int64(3), "u", 1, 2.0))


# --------------------------------------------------------------------- #
# (b') the kernel's range writer, row by row
# --------------------------------------------------------------------- #

#: The kernel's outcome bytes (``repro.fastpath.batch``) -> the kind and
#: ``stored`` of the request line: 4 marks a declined placement, 8 a copy
#: larger than the cache.
OUTCOMES = {
    0: ("local_hit", False),
    2: ("remote_hit", True),
    3: ("miss", True),
    6: ("remote_hit", False),
    7: ("miss", False),
    10: ("remote_hit", False),
    11: ("miss", False),
}
NUM_CACHES = 6


@st.composite
def request_columns(draw, times=times, sizes=ints, responder_values=ints):
    """Chunk columns of ``requests`` plus the ``request()`` argument tuples
    their rows stand for, and a row range."""
    rows = draw(st.integers(min_value=0, max_value=12))
    miss_hops = draw(st.lists(st.sampled_from((0, 1)), min_size=NUM_CACHES, max_size=NUM_CACHES))
    remote_hops = draw(st.sampled_from((0, 1)))
    ts, caches, docs, outcomes, served, responders, refreshed = ([] for _ in range(7))
    url_texts, calls = [], []
    for _ in range(rows):
        t, cache, url = draw(times), draw(st.integers(0, NUM_CACHES - 1)), draw(urls)
        code, size = draw(st.sampled_from(sorted(OUTCOMES))), draw(sizes)
        responder, refresh = draw(responder_values), draw(st.sampled_from((0, 1)))
        docs.append(draw(st.integers(0, len(url_texts))))
        if docs[-1] == len(url_texts):
            url_texts.append(None)
        url_texts[docs[-1]] = url  # a document's latest URL, as an intern table holds one
        for column, value in zip(
            (ts, caches, outcomes, served, responders, refreshed),
            (t, cache, code, size, responder, refresh),
        ):
            column.append(value)
    for i in range(rows):
        kind, stored = OUTCOMES[outcomes[i]]
        remote = kind == "remote_hit"
        hops = 0 if kind == "local_hit" else remote_hops if remote else miss_hops[caches[i]]
        calls.append((
            ts[i], caches[i], url_texts[docs[i]], kind, served[i],
            responders[i] if remote else None, stored, remote and refreshed[i] == 1, hops,
        ))
    lo = draw(st.integers(0, rows))
    hi = draw(st.integers(lo, rows))
    columns = (
        ts, caches, docs, [string_json(url) for url in url_texts], bytearray(outcomes),
        served, responders, bytearray(refreshed), remote_hops, miss_hops,
    )
    return lo, hi, columns, calls[lo:hi]


def assert_range_matches_rows(lo, hi, columns, calls):
    writes, counts, requests = emit(RunRecorder, "requests", (lo, hi, *columns))
    row_writes, row_counts, row_requests = [], {}, 0
    for call in calls:
        one, one_counts, one_requests = emit(RunRecorder, "request", call)
        row_writes += one
        row_requests += one_requests
        for kind, count in one_counts.items():
            row_counts[kind] = row_counts.get(kind, 0) + count
    reference = emit(ReferenceRecorder, "requests", (lo, hi, *columns))
    assert writes == row_writes == reference[0]
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in writes)
    assert counts == row_counts == reference[1]
    assert requests == row_requests == reference[2] == hi - lo


@settings(max_examples=300, deadline=None)
@given(request_columns())
def test_range_writer_rows_equal_request_and_reference(case):
    """Every row of ``RunRecorder.requests`` is byte-equal to the line
    ``request()`` writes for its values and to the ``json.dumps`` oracle:
    float corners and int timestamps, escaped and astral URLs, every
    outcome byte, hops 0 and 1, any responder."""
    assert_range_matches_rows(*case)


@settings(max_examples=200, deadline=None)
@given(request_columns(times=times | wild, sizes=wild, responder_values=wild))
def test_range_writer_falls_back_like_request(case):
    """Values no kernel column holds take the same per-value ``json.dumps``."""
    assert_range_matches_rows(*case)


def test_empty_range_writes_and_counts_nothing():
    columns = ([1.0], [0], [0], ['"u"'], bytearray(1), [5], bytearray(1), bytearray(1), 0, [0])
    for lo, hi in ((0, 0), (1, 1), (1, 0)):
        assert emit(RunRecorder, "requests", (lo, hi, *columns)) == ([], {}, 0)


#: Timestamps as objects: equal floats that are distinct objects, the two
#: zeros, and values the templates hand to ``json.dumps``.
TIME_OBJECTS = (0.0, -0.0, float("2.5"), float("2.5"), 1e16, 5e-324, 7, math.nan, INF)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_calls_sharing_timestamp_objects_equal_reference(data):
    """The recorder keeps the text of the last float timestamp it wrote,
    matched by identity. Calls whose ``t`` repeats, changes value or
    changes object write the oracle's bytes all the same."""
    pool = st.sampled_from(TIME_OBJECTS)
    calls = []
    for _ in range(data.draw(st.integers(1, 8))):
        emitter = data.draw(st.sampled_from(sorted(EMITTERS) + ["requests"]))
        if emitter == "requests":
            lo, hi, columns, _rows = data.draw(request_columns(times=pool))
            calls.append((emitter, (lo, hi, *columns)))
        else:
            args = data.draw(st.tuples(*EMITTERS[emitter][1:]))
            calls.append((emitter, (data.draw(pool), *args)))
    outputs = []
    for recorder_cls in (RunRecorder, ReferenceRecorder):
        sink = WriteLog()
        recorder = recorder_cls(sink)
        for emitter, args in calls:
            getattr(recorder, emitter)(*args)
        outputs.append((sink.writes, recorder.counts, recorder._requests))
    assert outputs[0] == outputs[1]
