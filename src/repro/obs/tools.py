"""Offline event-stream tooling behind ``repro obs tail|summarize|diff``.

These helpers work on files, stream line-by-line, and never load a whole
event file into memory — sweep streams from long traces can run to
millions of lines. Malformed input (empty files, truncated tails,
corrupted records) raises :class:`~repro.obs.registry.ObsError` with the
offending ``path:line``, never a raw traceback — the CLI maps these to a
clean message on stderr and a nonzero exit.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import Histogram, ObsError


def _parse_event(path: str, number: int, line: str) -> Dict[str, Any]:
    """One event line as a dict, or ObsError naming the corrupt line."""
    try:
        event = json.loads(line)
    except ValueError as exc:
        raise ObsError(f"{path}:{number}: malformed event line: {exc}") from None
    if not isinstance(event, dict):
        raise ObsError(
            f"{path}:{number}: event line is {type(event).__name__}, expected object"
        )
    return event


def _label(path: str, number: int, event: Dict[str, Any], key: str) -> str:
    """The string field that names an event's tally row, or ObsError."""
    value = event.get(key)
    if not isinstance(value, str):
        raise ObsError(
            f"{path}:{number}: {event['e']} event needs a string {key!r}, got {value!r}"
        )
    return value


def tail_events(path: str, count: int = 10) -> List[str]:
    """The last ``count`` lines of an event file, newline-stripped.

    Raises :class:`ObsError` for an empty file — an event stream always
    carries at least its ``run`` header, so nothing-to-tail means the
    producer died before writing anything.
    """
    window: deque = deque(maxlen=max(count, 0))
    seen = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            seen += 1
            window.append(line.rstrip("\n"))
    if not seen:
        raise ObsError(f"{path}: empty event file (no lines to tail)")
    return list(window)


def summarize_events(path: str) -> Dict[str, Any]:
    """One-pass roll-up of an event stream.

    Returns counts by event type, request outcomes by kind, placement
    verdicts by role (attempted/stored), promotion grants, eviction
    volume, the age-tie count (``cmp == "eq"`` across placement/promotion
    events — the EA tie-break in action), the time span covered, and
    ``distributions`` — histogram summaries (count/mean/min/max plus
    p50/p95/p99 bucket-estimated quantiles) of request sizes, evicted
    sizes, and evicted document ages.

    Raises :class:`ObsError` for empty files, corrupted lines and fields
    the roll-up cannot tally (a ``request`` without its ``kind``, a
    ``placement`` without its ``role``, a non-numeric ``evict`` size),
    with the line number of the first bad record.
    """
    counts: Dict[str, int] = {}
    kinds: Dict[str, int] = {}
    placements: Dict[str, Dict[str, int]] = {}
    promotions = {"granted": 0, "withheld": 0}
    ties = 0
    evicted_bytes = 0
    stored_requests = 0
    t_first: Optional[float] = None
    t_last: Optional[float] = None
    request_sizes = Histogram("request.size_bytes")
    evict_sizes = Histogram("evict.size_bytes")
    evict_ages = Histogram("evict.age_s")
    number = 0
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            event = _parse_event(path, number, line)
            kind = event.get("e", "?")
            if not isinstance(kind, str):
                raise ObsError(f"{path}:{number}: event type 'e' is {kind!r}, expected a string")
            counts[kind] = counts.get(kind, 0) + 1
            t = event.get("t")
            if isinstance(t, (int, float)):
                if t_first is None:
                    t_first = t
                t_last = t
            if kind == "request":
                outcome = _label(path, number, event, "kind")
                kinds[outcome] = kinds.get(outcome, 0) + 1
                if event.get("stored"):
                    stored_requests += 1
                size = event.get("size")
                if isinstance(size, (int, float)):
                    request_sizes.observe(size)
            elif kind == "placement":
                bucket = placements.setdefault(
                    _label(path, number, event, "role"), {"attempted": 0, "stored": 0}
                )
                bucket["attempted"] += 1
                if event.get("stored"):
                    bucket["stored"] += 1
                if event.get("cmp") == "eq":
                    ties += 1
            elif kind == "promotion":
                promotions["granted" if event.get("granted") else "withheld"] += 1
                if event.get("cmp") == "eq":
                    ties += 1
            elif kind == "evict":
                size = event.get("size", 0)
                if not isinstance(size, (int, float)):
                    raise ObsError(
                        f"{path}:{number}: evict event needs a numeric 'size', got {size!r}"
                    )
                evicted_bytes += size
                evict_sizes.observe(size)
                age = event.get("age")
                if isinstance(age, (int, float)):
                    evict_ages.observe(age)
    if not number:
        raise ObsError(f"{path}: empty event file (nothing to summarize)")
    distributions = {
        hist.name: {
            "count": hist.count,
            "mean": hist.mean,
            "min": hist.min,
            "max": hist.max,
            "p50": hist.quantile(0.50),
            "p95": hist.quantile(0.95),
            "p99": hist.quantile(0.99),
        }
        for hist in (evict_ages, evict_sizes, request_sizes)  # name order
        if hist.count
    }
    return {
        "events": counts,
        "requests_by_kind": dict(sorted(kinds.items())),
        "requests_stored": stored_requests,
        "placements_by_role": {role: placements[role] for role in sorted(placements)},
        "promotions": promotions,
        "age_ties": ties,
        "evicted_bytes": evicted_bytes,
        "time_span": None if t_first is None else [t_first, t_last],
        "distributions": distributions,
    }


def diff_events(
    left_path: str, right_path: str
) -> Optional[Tuple[int, Optional[str], Optional[str]]]:
    """First divergence between two streams, or ``None`` when identical.

    Returns ``(line_number, left_line, right_line)`` — a line is ``None``
    when that file ended early. Comparison is textual, matching the
    cross-engine byte-identity contract.
    """
    with open(left_path, "r", encoding="utf-8") as left, open(
        right_path, "r", encoding="utf-8"
    ) as right:
        number = 0
        while True:
            number += 1
            a = left.readline()
            b = right.readline()
            if not a and not b:
                return None
            if a != b:
                return (
                    number,
                    a.rstrip("\n") if a else None,
                    b.rstrip("\n") if b else None,
                )
