"""An observed run that fails releases what it opened.

``ObservedRun`` owns two file sinks, possibly the allocation tracer and a
root span. A replay that raises must leave none of them behind — in a
sweep worker they would otherwise last for the worker's life. Its event
and timeseries files are written through ``atomic_path``: an unfinished
run leaves whatever was at those paths before and no temp file.
"""

from __future__ import annotations

import gc
import tracemalloc
import warnings

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.schema import validate_events_file
from repro.obs.session import ObservedRun, run_observed
from repro.obs.spans import SpanTracer
from repro.simulation.simulator import SimulationConfig
from repro.trace.stream import RecordStream

CONFIG = SimulationConfig(scheme="ea", aggregate_capacity=900_000, engine="columnar")


class ReplayBroke(Exception):
    pass


def breaking_source(trace, good: int = 650) -> RecordStream:
    """``trace`` as a stream whose source fails after ``good`` records."""

    def records():
        for index, record in enumerate(trace.records):
            if index == good:
                raise ReplayBroke("source went away")
            yield record

    return RecordStream(records, num_records=len(trace.records))


@pytest.fixture
def leaks():
    """Collects ResourceWarnings; the test body must drop its references
    (and any traceback holding them) before the fixture looks."""
    was_tracing = tracemalloc.is_tracing()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield lambda: [
            str(w.message) for w in caught if issubclass(w.category, ResourceWarning)
        ]
    if tracemalloc.is_tracing() and not was_tracing:
        tracemalloc.stop()  # a failing assertion must not tax the rest of the suite


PREVIOUS = "what an earlier run left here\n"


def assert_untouched(tmp_path, *paths) -> None:
    """Each path holds what it held before the run; no temp file is left."""
    for path in paths:
        assert path.read_text(encoding="utf-8") == PREVIOUS
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


def test_run_observed_releases_everything_when_the_replay_raises(obs_trace, tmp_path, leaks):
    events = tmp_path / "e.jsonl"
    timeseries = tmp_path / "t.jsonl"
    events.write_text(PREVIOUS, encoding="utf-8")
    timeseries.write_text(PREVIOUS, encoding="utf-8")
    spans = SpanTracer()
    try:
        run_observed(
            CONFIG,
            breaking_source(obs_trace),
            events_path=str(events),
            timeseries_path=str(timeseries),
            track_memory=True,
            chunk_size=200,
            spans=spans,
        )
    except ReplayBroke:
        pass  # leaving the handler drops the traceback and the frames it holds
    else:
        pytest.fail("the replay was meant to raise")
    gc.collect()
    assert leaks() == []
    assert not tracemalloc.is_tracing()
    assert spans.depth == 0
    assert [row[0] for row in spans.rows][-1] == "run"
    spans.to_chrome()  # exportable: the trace of a failed run shows where it died
    assert_untouched(tmp_path, events, timeseries)


def test_interrupted_run_leaves_no_file_and_no_temp(obs_trace, tmp_path, monkeypatch):
    """A Ctrl-C mid-replay: the paths stay as they were (here: absent)."""

    def interrupted(config, trace, obs=None, **kwargs):
        obs.request(1.0, 0, "u", "miss", 10, None, True, False, 0)
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.obs.session.run_simulation", interrupted)
    events = tmp_path / "e.jsonl"
    timeseries = tmp_path / "t.jsonl"
    with pytest.raises(KeyboardInterrupt):
        run_observed(
            CONFIG, obs_trace, events_path=str(events), timeseries_path=str(timeseries)
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_finished_run_commits_both_files(obs_trace, tmp_path):
    events = tmp_path / "e.jsonl"
    timeseries = tmp_path / "t.jsonl"
    events.write_text(PREVIOUS, encoding="utf-8")
    run_observed(
        CONFIG, obs_trace, events_path=str(events), timeseries_path=str(timeseries),
        chunk_size=500,
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.jsonl", "t.jsonl"]
    errors, counts = validate_events_file(str(events))
    assert errors == [] and counts["request"] == len(obs_trace.records)
    assert timeseries.read_text(encoding="utf-8").count("\n") >= 5


def test_context_manager_releases_once_and_release_is_idempotent(obs_trace, tmp_path):
    outer = SpanTracer()
    outer.begin("sweep", "run")
    with pytest.raises(ReplayBroke):
        with ObservedRun(
            CONFIG, obs_trace, events_path=str(tmp_path / "e.jsonl"), spans=outer
        ) as observed:
            sink = observed._sink
            outer.begin("engine:columnar", "engine")  # what a failed engine leaves open
            raise ReplayBroke
    assert sink.closed
    assert outer.depth == 1  # unwound to the caller's span, not past it
    observed.release()
    assert outer.depth == 1


def test_an_already_running_tracer_is_left_alone(obs_trace, leaks):
    tracemalloc.start()
    try:
        with pytest.raises(ReplayBroke):
            with ObservedRun(CONFIG, obs_trace, track_memory=True):
                raise ReplayBroke
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()


def test_init_failure_closes_the_events_sink(obs_trace, tmp_path, leaks):
    events = tmp_path / "e.jsonl"
    events.write_text(PREVIOUS, encoding="utf-8")
    try:
        ObservedRun(
            CONFIG,
            obs_trace,
            events_path=str(events),
            track_memory=True,
            timeseries_path=str(tmp_path / "no-such-dir" / "t.jsonl"),
        )
    except OSError:
        pass
    else:
        pytest.fail("opening the timeseries sink was meant to fail")
    gc.collect()
    assert leaks() == []
    assert not tracemalloc.is_tracing()
    assert_untouched(tmp_path, events)


def test_cli_simulate_releases_the_observed_run_on_failure(tmp_path, monkeypatch, capsys, leaks):
    def broken_replay(config, trace, obs=None, **kwargs):
        obs.request(1.0, 0, "u", "miss", 10, None, True, False, 2)
        raise ReproError("replay broke")

    monkeypatch.setattr("repro.cli.run_simulation", broken_replay)
    events = tmp_path / "e.jsonl"
    events.write_text(PREVIOUS, encoding="utf-8")
    code = main([
        "simulate", "--scale", "tiny", "--engine", "columnar", "--track-memory",
        "--events", str(events), "--timeseries", str(tmp_path / "t.jsonl"),
    ])
    assert code == 2
    assert "replay broke" in capsys.readouterr().err
    gc.collect()
    assert leaks() == []
    assert not tracemalloc.is_tracing()
    assert_untouched(tmp_path, events)
    assert not (tmp_path / "t.jsonl").exists()
