"""Hierarchical span tracing: monotonic-clock attribution for replay runs.

``repro.obs`` already had aggregates (:mod:`repro.obs.registry`), decisions
(:mod:`repro.obs.events`), and provenance (:mod:`repro.obs.manifest`);
spans are the *where-did-the-time-go* channel. A :class:`SpanTracer`
records a tree of monotonic-clock spans —

    run → engine:<name> → source / chunk → regime (cold / warm) …

— with integer counters attached per span, and exports the tree as Chrome
Trace Event Format JSON (loadable in Perfetto or ``chrome://tracing``) or
as a terminal timeline (``repro obs timeline``). Parallel sweeps merge
each worker's span rows into the parent tracer on a per-point lane via
the existing :class:`repro.parallel.telemetry.TaskReport` channel.

Determinism contract (docs/OBSERVABILITY.md): tracers are passed out of
band exactly like event recorders — never on ``SimulationConfig`` — and
the engines only ever *write into* them, so ``repro-events/1`` bytes,
result digests, and memo keys are identical with tracing on or off
(enforced by the differential tests in ``tests/obs``). The wall-clock
reads live here, behind the same ``RPR111`` carve-out as the session
wall timer and the sweep workers' task timing: the values are telemetry
only and nothing inside the replay ever reads them back.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.registry import ObsError

#: Schema tag carried in the exported file's ``otherData`` block. The
#: ``traceEvents`` payload itself is standard Chrome Trace Event Format.
TRACE_EVENTS_SCHEMA = "repro-trace-events/1"

#: Span row layout: ``[name, cat, start_ns, end_ns, tid, args]`` where
#: ``args`` is a counter dict or None. Rows are plain lists so worker
#: tracers pickle cheaply across the sweep pool.
SpanRow = List[Any]


class SpanTracer:
    """Records a stack-disciplined tree of wall-clock spans.

    One tracer per run (or per sweep, with worker rows merged in).
    ``begin``/``end`` are the hot-path API — two attribute lookups, one
    clock read, one list op each — and are only ever called behind a
    hoisted ``spans is not None`` guard, so a run without a tracer pays
    nothing. Categories are free-form; the engines use ``run`` /
    ``engine`` / ``source`` / ``replay`` / ``regime``.
    """

    __slots__ = ("rows", "tid", "labels", "_stack")

    def __init__(self, tid: int = 0):
        self.rows: List[SpanRow] = []
        self.tid = tid
        #: Lane labels (``tid -> name``) exported as thread-name metadata.
        self.labels: Dict[int, str] = {}
        self._stack: List[SpanRow] = []

    @property
    def depth(self) -> int:
        """Spans currently open — what an owner unwinds to after a failure."""
        return len(self._stack)

    def begin(self, name: str, cat: str = "run") -> None:
        """Open a span as a child of the currently open span."""
        # Telemetry-only monotonic clock; never feeds simulation state.
        self._stack.append(
            [name, cat, time.perf_counter_ns(), 0, self.tid, None]  # repro: noqa[RPR111]
        )

    def end(self, **counters: int) -> None:
        """Close the innermost open span, attaching ``counters`` to it."""
        if not self._stack:
            raise ObsError("SpanTracer.end() with no open span")
        row = self._stack.pop()
        # Same carve-out as begin(): the close timestamp is telemetry only.
        row[3] = time.perf_counter_ns()  # repro: noqa[RPR111]
        if counters:
            row[5] = dict(counters)
        self.rows.append(row)

    def add(self, **counters: int) -> None:
        """Accumulate counters onto the innermost open span."""
        if not self._stack:
            raise ObsError("SpanTracer.add() with no open span")
        args = self._stack[-1][5]
        if args is None:
            args = self._stack[-1][5] = {}
        for key, value in counters.items():
            args[key] = args.get(key, 0) + value

    def span(self, name: str, cat: str = "run"):
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        return _SpanContext(self, name, cat)

    def wrap_source(self, iterator: Iterable, label: str) -> Iterator:
        """Yield from ``iterator``, timing every pull as a source span.

        This is where the generation-vs-replay wall split is measured:
        time spent inside the source's ``next()`` (synthetic generation,
        packed-file decoding, interning) lands in ``<label>`` spans,
        siblings of the engine's per-chunk replay spans. The final
        exhaustion probe is recorded too — for streamed sources it is
        real source work.
        """
        it = iter(iterator)
        begin = self.begin
        end = self.end
        while True:
            begin(label, "source")
            try:
                item = next(it)
            except StopIteration:
                end()
                return
            end()
            yield item

    def merge(self, rows: Iterable[SpanRow], tid: int, label: Optional[str] = None) -> None:
        """Adopt another tracer's finished rows onto lane ``tid``.

        Used by the sweep runner to fold worker span trees into the
        parent timeline. Workers and parent share ``CLOCK_MONOTONIC``
        under fork-based pools, so the raw timestamps line up; the rows
        are re-tagged with the target lane only.
        """
        for name, cat, start_ns, end_ns, _tid, args in rows:
            self.rows.append([name, cat, start_ns, end_ns, tid, args])
        if label is not None:
            self.labels[tid] = label

    def to_chrome(self) -> Dict[str, Any]:
        """The span tree as a Chrome Trace Event Format payload.

        Timestamps are rebased to the earliest span and exported in
        microseconds (exact ns/1000 division, so nesting order is
        preserved bit-for-bit); every span is a complete (``"ph": "X"``)
        event with its counters under ``args``.
        """
        if self._stack:
            raise ObsError(
                f"cannot export with {len(self._stack)} span(s) still open "
                f"(innermost: {self._stack[-1][0]!r})"
            )
        base = min((row[2] for row in self.rows), default=0)
        events: List[Dict[str, Any]] = []
        for tid in sorted(self.labels):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": self.labels[tid]},
                }
            )
        for name, cat, start_ns, end_ns, tid, args in sorted(
            self.rows, key=lambda row: (row[4], row[2], -row[3])
        ):
            event: Dict[str, Any] = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": (start_ns - base) / 1000.0,
                "dur": (end_ns - start_ns) / 1000.0,
                "pid": 1,
                "tid": tid,
            }
            if args:
                event["args"] = args
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_EVENTS_SCHEMA, "clock": "perf_counter_ns"},
        }

    def write(self, path: str) -> None:
        """Write the Chrome Trace Event Format JSON to ``path``."""
        with open(path, "w", encoding="utf-8", newline="\n") as sink:
            json.dump(self.to_chrome(), sink, separators=(",", ":"))
            sink.write("\n")


class _SpanContext:
    """Context manager returned by :meth:`SpanTracer.span`."""

    __slots__ = ("_tracer", "_name", "_cat")

    def __init__(self, tracer: SpanTracer, name: str, cat: str):
        self._tracer = tracer
        self._name = name
        self._cat = cat

    def __enter__(self) -> SpanTracer:
        self._tracer.begin(self._name, self._cat)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.end()


def source_label(trace: Any) -> str:
    """Span name for a trace source: what the source spans are called."""
    name = type(trace).__name__
    if name == "SyntheticTraceStream":
        return "source:synthetic"
    if name == "PackedTraceReader":
        return "source:packed"
    if name == "RecordStream":
        return "source:records"
    if name == "Trace":
        return "source:interned"
    return f"source:{name.lower()}"


# --------------------------------------------------------------------- #
# Offline: validation and terminal rendering of exported trace files
# --------------------------------------------------------------------- #

#: End-time slack (µs) when checking nesting of exported events: ts+dur
#: is two float divisions + one add away from the exact integer close.
_NEST_TOLERANCE_US = 0.5


def validate_trace_events(payload: Any) -> List[str]:
    """Schema + nesting errors for a Chrome Trace Event payload.

    Checks that ``traceEvents`` exists, every complete event carries the
    required fields with sane types, and that per lane (``tid``) the
    spans are properly nested — stack-disciplined, never partially
    overlapping. Returns a list of human-readable errors (empty = valid).
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["top level is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    lanes: Dict[Any, List[Tuple[float, float, str]]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            errors.append(f"event {i}: unsupported phase {ph!r} (expected 'X'/'M')")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"event {i}: missing span name")
            name = "?"
        bad = False
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"event {i} ({name}): bad {key!r}: {value!r}")
                bad = True
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"event {i} ({name}): missing integer {key!r}")
                bad = True
        if bad:
            continue
        lanes.setdefault(event["tid"], []).append(
            (float(event["ts"]), float(event["dur"]), name)
        )
    for tid in sorted(lanes):
        stack: List[Tuple[float, str]] = []  # (end, name)
        for ts, dur, name in sorted(lanes[tid], key=lambda e: (e[0], -e[1])):
            while stack and ts >= stack[-1][0] - _NEST_TOLERANCE_US:
                stack.pop()
            if stack and ts + dur > stack[-1][0] + _NEST_TOLERANCE_US:
                errors.append(
                    f"lane {tid}: span {name!r} at ts={ts:.3f} overlaps "
                    f"enclosing span {stack[-1][1]!r} without nesting"
                )
            stack.append((ts + dur, name))
    return errors


def load_trace_events(path: str) -> Dict[str, Any]:
    """Parse and validate a trace-event file; raises :class:`ObsError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObsError(f"cannot read trace-event file {path}: {exc}")
    errors = validate_trace_events(payload)
    if errors:
        raise ObsError(
            f"invalid trace-event file {path}: " + "; ".join(errors[:5])
        )
    return payload


class _Agg:
    """One aggregated tree node: all same-named spans under one path."""

    __slots__ = ("name", "count", "total_us", "args", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_us = 0.0
        self.args: Dict[str, float] = {}
        self.children: Dict[str, "_Agg"] = {}


def _aggregate_lane(events: List[Dict[str, Any]]) -> _Agg:
    """Fold one lane's complete events into a name-path aggregate tree."""
    root = _Agg("")
    # (ts, -dur) order visits parents before their children.
    stack: List[Tuple[float, _Agg]] = []  # (end_ts, node)
    for event in sorted(events, key=lambda e: (e["ts"], -e["dur"])):
        ts = float(event["ts"])
        dur = float(event["dur"])
        while stack and ts >= stack[-1][0] - _NEST_TOLERANCE_US:
            stack.pop()
        parent = stack[-1][1] if stack else root
        node = parent.children.get(event["name"])
        if node is None:
            node = parent.children[event["name"]] = _Agg(event["name"])
        node.count += 1
        node.total_us += dur
        for key, value in (event.get("args") or {}).items():
            if isinstance(value, (int, float)):
                node.args[key] = node.args.get(key, 0) + value
        stack.append((ts + dur, node))
    return root


def _fmt_seconds(us: float) -> str:
    seconds = us / 1e6
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def render_timeline(payload: Dict[str, Any], width: int = 30) -> str:
    """Terminal rendering of a Chrome Trace Event payload.

    Spans are aggregated by name *path* (all ``chunk`` spans under the
    same parent fold into one line with a count), so long streamed runs
    render in a screenful. Ends with the generation-vs-replay wall-time
    split: total time in source spans vs total time in chunk spans.
    """
    events = [e for e in payload.get("traceEvents", []) if e.get("ph") == "X"]
    labels = {
        e.get("tid"): e.get("args", {}).get("name", "")
        for e in payload.get("traceEvents", [])
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    if not events:
        return "timeline: no spans recorded"
    lanes: Dict[int, List[Dict[str, Any]]] = {}
    for event in events:
        lanes.setdefault(event["tid"], []).append(event)
    total_us = max(e["ts"] + e["dur"] for e in events) - min(e["ts"] for e in events)
    lines = [
        f"timeline: {len(events)} spans, {len(lanes)} lane(s), "
        f"wall {total_us / 1e6:.3f}s"
    ]
    gen_us = sum(e["dur"] for e in events if e.get("cat") == "source")
    replay_us = sum(e["dur"] for e in events if e.get("name") == "chunk")

    def _emit(node: _Agg, depth: int, scale_us: float) -> None:
        for child in node.children.values():
            share = child.total_us / scale_us * 100.0 if scale_us else 0.0
            bar = "#" * max(
                1, min(width, int(round(child.total_us / scale_us * width)))
            ) if scale_us else ""
            label = "  " * depth + child.name
            count = f"x{child.count}" if child.count > 1 else "  "
            counters = ""
            if child.args:
                parts = ", ".join(
                    f"{k}={int(v) if float(v).is_integer() else v}"
                    for k, v in sorted(child.args.items())
                )
                counters = f"  [{parts}]"
            lines.append(
                f"  {label:<34} {count:>5} {_fmt_seconds(child.total_us)} "
                f"{share:5.1f}%  {bar}{counters}"
            )
            _emit(child, depth + 1, scale_us)

    for tid in sorted(lanes):
        label = labels.get(tid)
        lines.append(f"lane {tid}" + (f" ({label})" if label else ""))
        root = _aggregate_lane(lanes[tid])
        lane_total = sum(child.total_us for child in root.children.values())
        _emit(root, 0, lane_total)
    if gen_us or replay_us:
        both = gen_us + replay_us
        lines.append(
            "wall-time split: generation/read "
            f"{gen_us / 1e6:.3f}s ({gen_us / both * 100.0 if both else 0.0:.1f}%)"
            " vs replay "
            f"{replay_us / 1e6:.3f}s ({replay_us / both * 100.0 if both else 0.0:.1f}%)"
        )
    return "\n".join(lines)
