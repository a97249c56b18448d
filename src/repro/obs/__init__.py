"""repro.obs — observability for simulation runs.

Three pieces, one contract:

* :mod:`repro.obs.registry` — the fixed-bucket histograms behind
  ``repro obs summarize`` (aggregated telemetry);
* :mod:`repro.obs.events` — the ``repro-events/1`` structured JSONL stream
  both engines emit byte-identically (per-decision telemetry), validated
  by :mod:`repro.obs.schema` and inspected via :mod:`repro.obs.tools`;
* :mod:`repro.obs.manifest` / :mod:`repro.obs.session` — the
  ``repro-manifest/1`` provenance record attached to results;
* :mod:`repro.obs.spans` — hierarchical wall-clock spans exported as
  Chrome Trace Event Format (``repro-trace-events/1``, Perfetto-loadable);
* :mod:`repro.obs.timeseries` — per-chunk ``repro-timeseries/1`` samples
  (throughput, hit ratios, EA placement activity, regime occupancy).

The contract: observing a run never changes it. Recorders are passed out
of band (never on :class:`~repro.simulation.simulator.SimulationConfig`),
payload timestamps are simulation time only, and results with and without
observation are byte-identical. See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.events import EVENTS_SCHEMA, RunRecorder, age_json, age_ranks
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_hash,
    file_digest,
    result_digest,
    write_manifest,
)
from repro.obs.registry import HISTOGRAM_BUCKETS, Histogram, ObsError
from repro.obs.schema import validate_event, validate_events_file, validate_stream
from repro.obs.session import ObservedRun, run_observed, sweep_event_filename
from repro.obs.spans import (
    TRACE_EVENTS_SCHEMA,
    SpanTracer,
    load_trace_events,
    render_timeline,
    source_label,
    validate_trace_events,
)
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    TimeseriesRecorder,
    read_timeseries,
    render_report,
)
from repro.obs.tools import diff_events, summarize_events, tail_events

__all__ = [
    "EVENTS_SCHEMA",
    "HISTOGRAM_BUCKETS",
    "Histogram",
    "MANIFEST_SCHEMA",
    "ObsError",
    "ObservedRun",
    "RunRecorder",
    "SpanTracer",
    "TIMESERIES_SCHEMA",
    "TRACE_EVENTS_SCHEMA",
    "TimeseriesRecorder",
    "age_json",
    "age_ranks",
    "build_manifest",
    "config_hash",
    "diff_events",
    "file_digest",
    "load_trace_events",
    "read_timeseries",
    "render_report",
    "render_timeline",
    "result_digest",
    "run_observed",
    "source_label",
    "summarize_events",
    "sweep_event_filename",
    "tail_events",
    "validate_event",
    "validate_events_file",
    "validate_stream",
    "write_manifest",
]
