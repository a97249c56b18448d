"""Structural validation of the repro-events/1 stream format."""

from __future__ import annotations

import io
import json

from repro.obs.events import RunRecorder
from repro.obs.schema import (
    validate_event,
    validate_events_file,
    validate_manifest,
    validate_stream,
)


def recorded_stream() -> str:
    sink = io.StringIO()
    recorder = RunRecorder(sink, snapshot_interval=10.0)
    recorder.begin("cfg", "fp")
    recorder.request(1.0, 0, "u", "miss", 64, None, True, False, 2)
    recorder.placement_origin(1.0, 0, "u", 64, 5.0, True)
    recorder.placement_remote(2.0, 1, "u", 64, 3.0, 3.0, False, True)
    recorder.placement_node(2.0, "parent", 2, "u", 64, 4.0, 2.0, True)
    recorder.promotion(2.0, 0, "u", 3.0, 9.0, True)
    recorder.request(2.0, 1, "u", "remote_hit", 64, 0, False, True, 4)
    recorder.eviction(3.0, 0, "v", 32, float("inf"))
    recorder.snapshot(10.0, [(5.0, 64, 1, 2, 1, 1, 1)])
    recorder.end()
    return sink.getvalue()


class TestValidateStream:
    def test_recorder_output_is_valid(self):
        errors, counts = validate_stream(recorded_stream().splitlines())
        assert errors == []
        assert counts == {
            "run": 1, "request": 2, "placement": 3, "promotion": 1,
            "evict": 1, "snapshot": 1, "end": 1,
        }

    def test_empty_stream_rejected(self):
        errors, _ = validate_stream([])
        assert errors == ["stream is empty"]

    def test_must_start_with_run_header(self):
        errors, _ = validate_stream(['{"e":"end","requests":0}'])
        assert any("must start with the 'run' header" in e for e in errors)

    def test_must_end_with_end_trailer(self):
        lines = recorded_stream().splitlines()[:-1]
        errors, _ = validate_stream(lines)
        assert any("must end with the 'end' trailer" in e for e in errors)

    def test_end_request_count_mismatch_rejected(self):
        lines = recorded_stream().splitlines()
        lines[-1] = '{"e":"end","requests":99}'
        errors, _ = validate_stream(lines)
        assert any("99 requests" in e for e in errors)

    def test_blank_line_rejected(self):
        lines = recorded_stream().splitlines()
        lines.insert(1, "")
        errors, _ = validate_stream(lines)
        assert any("blank line" in e for e in errors)

    def test_invalid_json_rejected(self):
        lines = recorded_stream().splitlines()
        lines.insert(1, "{not json")
        errors, _ = validate_stream(lines)
        assert any("invalid JSON" in e for e in errors)

    def test_validate_events_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(recorded_stream(), encoding="utf-8")
        errors, counts = validate_events_file(str(path))
        assert errors == []
        assert counts["request"] == 2


class TestValidateEvent:
    def _request(self, **overrides):
        event = {
            "e": "request", "t": 1.0, "cache": 0, "url": "u", "kind": "miss",
            "size": 64, "responder": None, "stored": True, "refreshed": False,
            "hops": 2,
        }
        event.update(overrides)
        return event

    def test_valid_request_accepted(self):
        assert validate_event(self._request()) == []

    def test_non_object_rejected(self):
        assert validate_event([1, 2]) == ["event is not a JSON object"]

    def test_missing_type_key_rejected(self):
        assert validate_event({"t": 1.0}) == ["missing event type key 'e'"]

    def test_unknown_type_rejected(self):
        assert validate_event({"e": "mystery"}) == ["unknown event type 'mystery'"]

    def test_unknown_placement_role_rejected(self):
        assert validate_event({"e": "placement", "role": "sibling"}) == [
            "placement: unknown role 'sibling'"
        ]

    def test_missing_key_rejected(self):
        event = self._request()
        del event["hops"]
        assert any("missing keys" in e for e in validate_event(event))

    def test_extra_key_rejected(self):
        errors = validate_event(self._request(wall_time=0.5))
        assert any("unexpected keys" in e for e in errors)

    def test_bad_value_type_rejected(self):
        errors = validate_event(self._request(cache="zero"))
        assert any("bad value for 'cache'" in e for e in errors)

    def test_bool_is_not_an_int(self):
        errors = validate_event(self._request(size=True))
        assert any("bad value for 'size'" in e for e in errors)

    def test_bad_kind_rejected(self):
        errors = validate_event(self._request(kind="teleport"))
        assert any("bad value for 'kind'" in e for e in errors)

    def test_age_accepts_inf_sentinel_only(self):
        evict = {"e": "evict", "t": 1.0, "cache": 0, "url": "u", "size": 1, "age": "inf"}
        assert validate_event(evict) == []
        evict["age"] = "huge"
        assert any("bad value for 'age'" in e for e in validate_event(evict))

    def test_wrong_run_schema_rejected(self):
        run = {
            "e": "run", "schema": "repro-events/0", "config": "c", "trace": "t",
            "snapshot_interval": 0.0,
        }
        assert any("schema is 'repro-events/0'" in e for e in validate_event(run))

    def test_snapshot_row_fields_checked(self):
        snapshot = json.loads(recorded_stream().splitlines()[-2])
        assert snapshot["e"] == "snapshot"
        assert validate_event(snapshot) == []
        del snapshot["caches"][0]["rank"]
        assert any("snapshot.caches[0]" in e for e in validate_event(snapshot))

    def test_snapshot_row_must_be_object(self):
        errors = validate_event({"e": "snapshot", "t": 1.0, "caches": [7]})
        assert any("caches[0] is not an object" in e for e in errors)


class TestValidateManifest:
    def _manifest(self, **overrides):
        manifest = {
            "schema": "repro-manifest/1",
            "config": "c" * 64,
            "trace": "t" * 64,
            "engine_requested": "batch",
            "engine_resolved": "batch",
            "fastloop_reason": None,
            "seed": 42,
            "wall_time_s": 0.25,
            "peak_memory_bytes": None,
            "snapshot_interval": 0.0,
            "events": None,
            "result_sha256": "r" * 64,
        }
        manifest.update(overrides)
        return manifest

    def test_valid_with_and_without_a_reason(self):
        assert validate_manifest(self._manifest()) == []
        assert validate_manifest(
            self._manifest(fastloop_reason="numpy unavailable")
        ) == []

    def test_fastloop_reason_is_required_and_typed(self):
        missing = self._manifest()
        del missing["fastloop_reason"]
        assert validate_manifest(missing) == [
            "manifest: missing keys ['fastloop_reason']"
        ]
        assert validate_manifest(self._manifest(fastloop_reason=3)) == [
            "manifest: bad value for 'fastloop_reason': 3"
        ]

    def test_wrong_schema_and_shape(self):
        assert validate_manifest([]) == ["manifest is not a JSON object"]
        errors = validate_manifest(self._manifest(schema="repro-manifest/0"))
        assert errors == [
            "manifest: schema is 'repro-manifest/0', expected 'repro-manifest/1'"
        ]
