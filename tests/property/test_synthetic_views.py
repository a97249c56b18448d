"""One synthetic draw, two views: interned columns now, records on demand.

``generate_trace`` hands its ``Trace`` a finished interned view and builds
the record list at the first record-level read. The streaming record view
(``iter_records``, which draws in blocks of its own) is the oracle for
both, whichever is read first, over the config fields the draw branches on.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath.interning import InternedChunk
from repro.trace.synthetic import (
    BULikeTraceGenerator,
    SyntheticTraceConfig,
    generate_trace,
)

configs = st.builds(
    SyntheticTraceConfig,
    num_requests=st.integers(1, 400),
    num_documents=st.integers(1, 60),
    num_clients=st.integers(1, 9),
    zipf_alpha=st.sampled_from([0.0, 0.75, 1.2]),
    temporal_locality=st.sampled_from([0.0, 0.3, 1.0]),
    locality_stack_depth=st.integers(1, 8),
    session_gap=st.sampled_from([0.1, 1800.0]),
    zero_size_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32),
)


@given(config=configs, records_first=st.booleans())
@settings(max_examples=150, deadline=None)
def test_views_of_a_generated_trace_equal_the_streamed_records(config, records_first):
    wanted = list(BULikeTraceGenerator(config).iter_records())
    trace = generate_trace(config)
    if records_first:
        assert trace.records == wanted
    got, oracle = trace.interned(), InternedChunk.from_records(wanted)
    for name in (
        "doc_ids", "sizes", "timestamps", "clients", "new_urls", "new_client_names"
    ):
        assert getattr(got, name) == getattr(oracle, name), name
    assert trace.records == wanted and len(trace) == len(wanted)
