"""Span tracing: the tracer, Chrome export, validation, and parity.

The determinism contract is load-bearing: a tracer (and a timeseries
recorder) attached to either chunked engine must leave results, event
bytes, and memo keys untouched — spans are telemetry the engines only
ever write into. The differential classes here enforce that; the
acceptance test at the bottom runs a span-traced streamed batch replay
and asserts the generation-vs-replay wall split surfaces in
``repro obs timeline``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.fastpath import simulate_columnar
from repro.fastpath.batch import batch_fastloop_reason, simulate_batch
from repro.obs.events import RunRecorder
from repro.obs.manifest import config_hash
from repro.obs.registry import ObsError
from repro.obs.spans import (
    SpanTracer,
    load_trace_events,
    render_timeline,
    source_label,
    validate_trace_events,
)
from repro.obs.timeseries import TimeseriesRecorder
from repro.parallel.memo import sweep_memo_key
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.stream import SyntheticTraceStream
from repro.trace.synthetic import SyntheticTraceConfig

from .conftest import stream_for

CAPACITY = 900_000


def traced_pair():
    """A tracer plus a begun in-memory timeseries recorder, for parity runs."""
    tracer = SpanTracer()
    sink = io.StringIO()
    recorder = TimeseriesRecorder(sink)
    recorder.begin("cfg", "fp", "test")
    return tracer, recorder, sink


class TestSpanTracer:
    def test_begin_end_builds_nested_rows(self):
        tracer = SpanTracer()
        tracer.begin("run", "run")
        tracer.begin("engine:batch", "engine")
        tracer.end(chunks=3)
        tracer.end(requests=10)
        assert [row[0] for row in tracer.rows] == ["engine:batch", "run"]
        inner, outer = tracer.rows
        assert inner[5] == {"chunks": 3} and outer[5] == {"requests": 10}
        # The child opened after and closed before its parent.
        assert outer[2] <= inner[2] and inner[3] <= outer[3]

    def test_add_accumulates_on_innermost_span(self):
        tracer = SpanTracer()
        tracer.begin("chunk", "replay")
        tracer.add(requests=5)
        tracer.add(requests=7, hits=2)
        tracer.end()
        assert tracer.rows[0][5] == {"requests": 12, "hits": 2}

    def test_end_and_add_require_an_open_span(self):
        tracer = SpanTracer()
        with pytest.raises(ObsError, match="no open span"):
            tracer.end()
        with pytest.raises(ObsError, match="no open span"):
            tracer.add(requests=1)

    def test_span_context_manager(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner", "engine"):
                pass
        assert [(row[0], row[1]) for row in tracer.rows] == [
            ("inner", "engine"), ("outer", "run")
        ]

    def test_export_refuses_open_spans(self):
        tracer = SpanTracer()
        tracer.begin("dangling")
        with pytest.raises(ObsError, match="still open.*dangling"):
            tracer.to_chrome()

    def test_wrap_source_times_every_pull(self):
        tracer = SpanTracer()
        items = list(tracer.wrap_source(iter([1, 2, 3]), "source:test"))
        assert items == [1, 2, 3]
        # One span per yielded item plus the final exhaustion probe.
        assert len(tracer.rows) == 4
        assert all(row[0] == "source:test" and row[1] == "source" for row in tracer.rows)

    def test_merge_retags_lane_and_label(self):
        worker = SpanTracer()
        with worker.span("engine:batch", "engine"):
            pass
        parent = SpanTracer()
        parent.merge(worker.rows, tid=3, label="64KB/ea")
        assert parent.rows[0][4] == 3
        assert parent.labels == {3: "64KB/ea"}
        payload = parent.to_chrome()
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert meta == [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3,
             "args": {"name": "64KB/ea"}}
        ]


class TestChromeExport:
    def test_payload_shape_and_rebased_timestamps(self):
        tracer = SpanTracer()
        with tracer.span("run"):
            with tracer.span("chunk", "replay"):
                tracer.add(requests=9)
        payload = tracer.to_chrome()
        assert payload["otherData"]["schema"] == "repro-trace-events/1"
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"run", "chunk"}
        assert min(e["ts"] for e in spans) == 0.0
        assert all(e["dur"] >= 0 and e["pid"] == 1 for e in spans)
        chunk = next(e for e in spans if e["name"] == "chunk")
        assert chunk["args"] == {"requests": 9}
        assert validate_trace_events(payload) == []

    def test_written_file_round_trips(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("run"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        payload = load_trace_events(str(path))
        assert payload == json.loads(path.read_text(encoding="utf-8"))

    def test_source_labels(self):
        stream = SyntheticTraceStream(SyntheticTraceConfig(num_requests=1))
        assert source_label(stream) == "source:synthetic"
        assert source_label(object()) == "source:object"


class TestValidateTraceEvents:
    def test_structural_errors(self):
        assert validate_trace_events([]) == ["top level is not a JSON object"]
        assert validate_trace_events({}) == ["missing or non-list 'traceEvents'"]
        errors = validate_trace_events(
            {"traceEvents": [
                {"ph": "B", "name": "x", "ts": 0, "dur": 1, "pid": 1, "tid": 0},
                {"name": "y", "ph": "X", "ts": -1.0, "dur": 2.0, "pid": 1, "tid": 0},
                {"name": "z", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1},
            ]}
        )
        assert any("unsupported phase 'B'" in e for e in errors)
        assert any("bad 'ts'" in e for e in errors)
        assert any("missing integer 'tid'" in e for e in errors)

    def test_partial_overlap_flagged(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 0},
        ]
        errors = validate_trace_events({"traceEvents": events})
        assert len(errors) == 1 and "overlaps enclosing span 'a'" in errors[0]
        # The same shape on different lanes is fine — lanes are independent.
        events[1]["tid"] = 1
        assert validate_trace_events({"traceEvents": events}) == []

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ObsError, match="cannot read trace-event file"):
            load_trace_events(str(path))
        path.write_text('{"traceEvents": 3}', encoding="utf-8")
        with pytest.raises(ObsError, match="invalid trace-event file"):
            load_trace_events(str(path))


class TestTimelineRendering:
    def test_empty_payload(self):
        assert render_timeline({"traceEvents": []}) == "timeline: no spans recorded"

    def test_aggregates_and_split_line(self):
        tracer = SpanTracer()
        with tracer.span("run"):
            with tracer.span("engine:batch", "engine"):
                for _ in range(3):
                    with tracer.span("source:synthetic", "source"):
                        pass
                    with tracer.span("chunk", "replay"):
                        tracer.add(requests=100)
        out = render_timeline(tracer.to_chrome())
        assert "engine:batch" in out
        assert "chunk" in out and "x3" in out
        assert "[requests=300]" in out
        assert "wall-time split: generation/read" in out
        assert "vs replay" in out


class TestTracingDoesNotPerturb:
    """Spans + timeseries on vs off: results, events, memo keys identical."""

    @pytest.mark.parametrize("engine", ["columnar", "batch"])
    def test_results_and_memo_keys_identical(self, obs_trace, engine):
        config = SimulationConfig(
            scheme="ea", aggregate_capacity=CAPACITY, engine=engine
        )
        key_before = sweep_memo_key(config, obs_trace)
        plain = run_simulation(config, obs_trace, chunk_size=512)
        tracer, recorder, sink = traced_pair()
        traced = run_simulation(
            config, obs_trace, chunk_size=512, spans=tracer, timeseries=recorder
        )
        assert traced.to_json() == plain.to_json()
        assert sweep_memo_key(config, obs_trace) == key_before
        # The run actually traced and sampled — this is not a vacuous pass.
        assert tracer.rows and validate_trace_events(tracer.to_chrome()) == []
        assert sink.getvalue().count('"k":"sample"') >= 2

    def test_columnar_event_bytes_identical_under_tracing(self, obs_trace):
        config = SimulationConfig(scheme="ea", aggregate_capacity=CAPACITY)
        baseline, _ = stream_for(config, obs_trace, "columnar")
        tracer, recorder, _ = traced_pair()
        sink = io.StringIO()
        events = RunRecorder(sink)
        events.begin(config_hash(config), obs_trace.fingerprint())
        simulate_columnar(
            config, obs_trace, obs=events, spans=tracer, timeseries=recorder
        )
        events.end()
        assert sink.getvalue() == baseline

    def test_batch_spans_carry_regime_segments(self, obs_trace):
        config = SimulationConfig(
            scheme="ea", aggregate_capacity=CAPACITY, engine="batch"
        )
        tracer = SpanTracer()
        plain = simulate_batch(config, obs_trace, chunk_size=512)
        traced = simulate_batch(config, obs_trace, chunk_size=512, spans=tracer)
        assert traced.to_json() == plain.to_json()
        names = {row[0] for row in tracer.rows}
        assert "chunk" in names
        if batch_fastloop_reason(config) is None:
            assert "engine:batch" in names
            assert {"cold", "warm"} & names
        else:
            # No numpy: the columnar core replayed, under its own root
            # span and without regime segments.
            assert "engine:columnar" in names
            assert not {"cold", "warm"} & names


class TestStreamedAcceptance:
    def test_million_request_stream_shows_generation_vs_replay_split(
        self, tmp_path, capsys
    ):
        """The tentpole's headline measurement, end to end.

        A span-traced 1M-request streamed batch replay (never
        materialised — the synthetic generator is consumed chunk by
        chunk), exported to Chrome Trace Event Format and rendered by
        ``repro obs timeline``, must attribute wall time between trace
        generation and replay.
        """
        stream = SyntheticTraceStream(
            SyntheticTraceConfig(
                num_requests=1_000_000, num_documents=2_000,
                num_clients=16, seed=9,
            )
        )
        config = SimulationConfig(engine="batch", aggregate_capacity=64_000_000)
        tracer = SpanTracer()
        result = run_simulation(config, stream, chunk_size=1 << 17, spans=tracer)
        assert result.metrics.requests == 1_000_000

        path = tmp_path / "stream.trace.json"
        tracer.write(str(path))
        assert validate_trace_events(load_trace_events(str(path))) == []

        assert main(["obs", "timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "source:synthetic" in out
        assert "wall-time split: generation/read" in out and "vs replay" in out
        # Both sides of the split measured something real.
        split = out.splitlines()[-1]
        assert "0.000s" not in split
