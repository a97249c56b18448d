"""Unit tests for the RunRecorder and its serialisation conventions."""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.obs.events import RunRecorder, age_json, age_ranks
from repro.obs.registry import ObsError

INF = math.inf


class _FakeEvictRecord:
    def __init__(self, evict_time, url, size):
        self.evict_time = evict_time
        self.url = url
        self.size = size


def lines(sink: io.StringIO):
    return sink.getvalue().splitlines()


class TestAgeJson:
    def test_infinity_becomes_sentinel_string(self):
        assert age_json(INF) == "inf"

    def test_finite_age_passes_through(self):
        assert age_json(42.5) == 42.5


class TestAgeRanks:
    def test_descending_ages_rank_densely(self):
        assert age_ranks([30.0, 10.0, 20.0]) == [1, 3, 2]

    def test_infinite_tie_shares_rank_one(self):
        """Two cold caches both reporting +inf share rank 1 — the tie goes
        through ages_equal, the same predicate the EA tie-break uses."""
        assert age_ranks([INF, 5.0, INF]) == [1, 2, 1]

    def test_all_equal_all_rank_one(self):
        assert age_ranks([7.0, 7.0, 7.0]) == [1, 1, 1]

    def test_dense_not_competition_ranking(self):
        # A tie consumes one rank, not two: next distinct age is rank 2.
        assert age_ranks([9.0, 9.0, 3.0]) == [1, 1, 2]

    def test_empty(self):
        assert age_ranks([]) == []


class TestRunRecorder:
    def test_lines_are_compact_json_with_fixed_key_order(self):
        sink = io.StringIO()
        recorder = RunRecorder(sink)
        recorder.begin("cfg", "fp")
        recorder.request(1.0, 0, "u", "miss", 10, None, True, False, 2)
        recorder.end()
        header, request, end = lines(sink)
        assert header.startswith('{"e":"run","schema":"repro-events/1","config":"cfg"')
        assert " " not in request  # compact separators
        assert request == (
            '{"e":"request","t":1.0,"cache":0,"url":"u","kind":"miss",'
            '"size":10,"responder":null,"stored":true,"refreshed":false,"hops":2}'
        )
        assert end == '{"e":"end","requests":1}'

    def test_counts_track_emissions_by_type(self):
        recorder = RunRecorder(io.StringIO())
        recorder.begin("c", "t")
        recorder.request(1.0, 0, "u", "miss", 1, None, False, False, 2)
        recorder.request(2.0, 1, "u", "local_hit", 1, None, False, False, 0)
        recorder.eviction(3.0, 0, "u", 1, 4.0)
        recorder.end()
        assert recorder.counts == {"run": 1, "request": 2, "evict": 1, "end": 1}

    def test_infinite_ages_serialise_as_inf_sentinel(self):
        sink = io.StringIO()
        recorder = RunRecorder(sink)
        recorder.placement_remote(1.0, 0, "u", 5, INF, 10.0, True, False)
        event = json.loads(lines(sink)[0])
        assert event["requester_age"] == "inf"
        assert event["responder_age"] == 10.0
        assert event["cmp"] == "gt"

    def test_cmp_computed_in_recorder(self):
        sink = io.StringIO()
        recorder = RunRecorder(sink)
        recorder.promotion(1.0, 0, "u", 8.0, 8.0, False)
        assert json.loads(lines(sink)[0])["cmp"] == "eq"

    def test_eviction_hook_binds_cache_index(self):
        sink = io.StringIO()
        recorder = RunRecorder(sink)
        hook = recorder.eviction_hook(3)
        hook(_FakeEvictRecord(12.0, "doc", 256), 5.5)
        event = json.loads(lines(sink)[0])
        assert event == {
            "e": "evict", "t": 12.0, "cache": 3, "url": "doc", "size": 256, "age": 5.5
        }

    @pytest.mark.parametrize("interval", [-1.0, -0.5, math.nan, INF, -INF])
    def test_negative_or_non_finite_snapshot_interval_is_rejected(self, interval):
        """The header carries the interval: NaN / Infinity are not JSON, and
        a negative one used to be clamped to 0 without a word."""
        sink = io.StringIO()
        with pytest.raises(ObsError, match="snapshot interval"):
            RunRecorder(sink, interval)
        assert sink.getvalue() == ""

    def test_zero_and_finite_intervals_are_kept(self):
        assert RunRecorder(io.StringIO(), 0).snapshot_interval == 0
        assert RunRecorder(io.StringIO(), 600.0).snapshot_interval == 600.0


class TestMaybeSnapshot:
    @staticmethod
    def _rows(due):
        return [(10.0, 100, 5, 50, 20, 3, 1)]

    def test_zero_interval_never_emits(self):
        recorder = RunRecorder(io.StringIO(), 0.0)
        recorder.maybe_snapshot(100.0, self._rows)
        assert recorder.counts == {}

    def test_arms_on_first_call_without_emitting(self):
        """The timer starts one interval after the first timestamp, so the
        stream does not depend on the trace's absolute start offset."""
        recorder = RunRecorder(io.StringIO(), 60.0)
        recorder.maybe_snapshot(1000.0, self._rows)
        assert recorder.counts == {}
        recorder.maybe_snapshot(1059.9, self._rows)
        assert recorder.counts == {}
        recorder.maybe_snapshot(1060.0, self._rows)
        assert recorder.counts == {"snapshot": 1}

    def test_large_jump_emits_every_due_tick(self):
        sink = io.StringIO()
        recorder = RunRecorder(sink, 10.0)
        recorder.maybe_snapshot(0.0, self._rows)  # arm: first tick at 10
        recorder.maybe_snapshot(35.0, self._rows)
        ticks = [json.loads(line)["t"] for line in lines(sink)]
        assert ticks == [10.0, 20.0, 30.0]

    def test_rows_fn_receives_tick_time_not_now(self):
        seen = []

        def rows_fn(due):
            seen.append(due)
            return self._rows(due)

        recorder = RunRecorder(io.StringIO(), 10.0)
        recorder.maybe_snapshot(0.0, rows_fn)
        recorder.maybe_snapshot(25.0, rows_fn)
        assert seen == [10.0, 20.0]

    def test_snapshot_rows_carry_ranks(self):
        sink = io.StringIO()
        recorder = RunRecorder(sink, 0.0)
        recorder.snapshot(5.0, [(INF, 10, 1, 2, 1, 0, 0), (3.0, 20, 2, 4, 2, 1, 1)])
        event = json.loads(lines(sink)[0])
        assert [row["rank"] for row in event["caches"]] == [1, 2]
        assert event["caches"][0]["age"] == "inf"
        assert event["caches"][1] == {
            "cache": 1, "age": 3.0, "rank": 2, "used": 20, "docs": 2,
            "lookups": 4, "local_hits": 2, "remote_served": 1, "evictions": 1,
        }
