"""Validation for the ``repro-events/1`` JSONL stream and run manifests.

The validator is deliberately strict about *structure* — every line must
be a JSON object whose keys exactly match the schema for its event type,
with type-checked values — because downstream tooling (``repro obs
summarize``/``diff``, CI smoke gates) treats the stream as a stable
machine interface. Cross-engine byte identity is enforced separately by
the differential tests; this module answers the cheaper question "is this
file a well-formed event stream at all". :func:`validate_manifest` asks
the same of a ``repro-manifest/1`` object.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.obs.events import EVENTS_SCHEMA
from repro.obs.manifest import MANIFEST_SCHEMA

Predicate = Callable[[Any], bool]


def _reject_constant(token: str) -> Any:
    raise ValueError(f"{token} is not JSON")


def strict_loads(text: str) -> Any:
    """``json.loads`` without Python's ``NaN`` / ``Infinity`` extension."""
    return json.loads(text, parse_constant=_reject_constant)


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


def _is_bool(value: Any) -> bool:
    return isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_age(value: Any) -> bool:
    return value == "inf" if isinstance(value, str) else _is_num(value)


def _is_opt_int(value: Any) -> bool:
    return value is None or _is_int(value)


def _is_opt_str(value: Any) -> bool:
    return value is None or isinstance(value, str)


def _is_opt_dict(value: Any) -> bool:
    return value is None or isinstance(value, dict)


def _is_kind(value: Any) -> bool:
    return value in ("local_hit", "remote_hit", "miss")


def _is_cmp(value: Any) -> bool:
    return value in ("gt", "eq", "lt")


def _is_caches(value: Any) -> bool:
    return isinstance(value, list)


#: Required fields per event type (per placement role), keyed exactly:
#: extra or missing keys are errors.
_FIELDS: Dict[str, Dict[str, Predicate]] = {
    "run": {
        "e": _is_str,
        "schema": _is_str,
        "config": _is_str,
        "trace": _is_str,
        "snapshot_interval": _is_num,
    },
    "request": {
        "e": _is_str,
        "t": _is_num,
        "cache": _is_int,
        "url": _is_str,
        "kind": _is_kind,
        "size": _is_int,
        "responder": _is_opt_int,
        "stored": _is_bool,
        "refreshed": _is_bool,
        "hops": _is_int,
    },
    "placement/remote": {
        "e": _is_str,
        "t": _is_num,
        "role": _is_str,
        "cache": _is_int,
        "url": _is_str,
        "size": _is_int,
        "requester_age": _is_age,
        "responder_age": _is_age,
        "cmp": _is_cmp,
        "stored": _is_bool,
        "refreshed": _is_bool,
    },
    "placement/origin": {
        "e": _is_str,
        "t": _is_num,
        "role": _is_str,
        "cache": _is_int,
        "url": _is_str,
        "size": _is_int,
        "own_age": _is_age,
        "stored": _is_bool,
    },
    "placement/parent": {
        "e": _is_str,
        "t": _is_num,
        "role": _is_str,
        "cache": _is_int,
        "url": _is_str,
        "size": _is_int,
        "own_age": _is_age,
        "peer_age": _is_age,
        "cmp": _is_cmp,
        "stored": _is_bool,
    },
    "promotion": {
        "e": _is_str,
        "t": _is_num,
        "cache": _is_int,
        "url": _is_str,
        "requester_age": _is_age,
        "responder_age": _is_age,
        "cmp": _is_cmp,
        "granted": _is_bool,
    },
    "evict": {
        "e": _is_str,
        "t": _is_num,
        "cache": _is_int,
        "url": _is_str,
        "size": _is_int,
        "age": _is_age,
    },
    "snapshot": {
        "e": _is_str,
        "t": _is_num,
        "caches": _is_caches,
    },
    "end": {
        "e": _is_str,
        "requests": _is_int,
    },
}
_FIELDS["placement/child"] = _FIELDS["placement/parent"]

#: Keys of a ``repro-manifest/1`` object (see :mod:`repro.obs.manifest`).
_MANIFEST_FIELDS: Dict[str, Predicate] = {
    "schema": _is_str,
    "config": _is_str,
    "trace": _is_str,
    "engine_requested": _is_str,
    "engine_resolved": _is_str,
    "fastloop_reason": _is_opt_str,
    "seed": _is_int,
    "wall_time_s": _is_num,
    "peak_memory_bytes": _is_opt_int,
    "snapshot_interval": _is_num,
    "events": _is_opt_dict,
    "result_sha256": _is_str,
}

_SNAPSHOT_ROW_FIELDS: Dict[str, Predicate] = {
    "cache": _is_int,
    "age": _is_age,
    "rank": _is_int,
    "used": _is_int,
    "docs": _is_int,
    "lookups": _is_int,
    "local_hits": _is_int,
    "remote_served": _is_int,
    "evictions": _is_int,
}


def _check_fields(
    obj: Dict[str, Any], spec: Dict[str, Predicate], where: str
) -> List[str]:
    errors = []
    missing = [key for key in spec if key not in obj]
    extra = [key for key in obj if key not in spec]
    if missing:
        errors.append(f"{where}: missing keys {missing}")
    if extra:
        errors.append(f"{where}: unexpected keys {extra}")
    for key, predicate in spec.items():
        if key in obj and not predicate(obj[key]):
            errors.append(f"{where}: bad value for {key!r}: {obj[key]!r}")
    return errors


def validate_event(obj: Any) -> List[str]:
    """Structural errors for one decoded event object (empty when valid)."""
    if not isinstance(obj, dict):
        return ["event is not a JSON object"]
    kind = obj.get("e")
    if not isinstance(kind, str):
        return ["missing event type key 'e'"]
    spec_key = kind
    if kind == "placement":
        role = obj.get("role")
        spec_key = f"placement/{role}"
        if spec_key not in _FIELDS:
            return [f"placement: unknown role {role!r}"]
    spec = _FIELDS.get(spec_key)
    if spec is None:
        return [f"unknown event type {kind!r}"]
    errors = _check_fields(obj, spec, kind)
    if kind == "run" and obj.get("schema") != EVENTS_SCHEMA:
        errors.append(f"run: schema is {obj.get('schema')!r}, expected {EVENTS_SCHEMA!r}")
    if kind == "snapshot" and isinstance(obj.get("caches"), list):
        for index, row in enumerate(obj["caches"]):
            if not isinstance(row, dict):
                errors.append(f"snapshot: caches[{index}] is not an object")
                continue
            errors.extend(_check_fields(row, _SNAPSHOT_ROW_FIELDS, f"snapshot.caches[{index}]"))
    return errors


def validate_stream(lines: Iterable[str]) -> Tuple[List[str], Dict[str, int]]:
    """Validate a whole stream; returns ``(errors, counts_by_type)``.

    Checks framing on top of per-line structure: the first line must be the
    ``run`` header, the last the ``end`` trailer, and the trailer's request
    count must match the ``request`` lines seen.
    """
    errors: List[str] = []
    counts: Dict[str, int] = {}
    last_kind = None
    end_requests = None
    total = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            errors.append(f"line {number}: blank line")
            continue
        try:
            obj = strict_loads(line)
        except ValueError as exc:
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        for problem in validate_event(obj):
            errors.append(f"line {number}: {problem}")
        kind = obj.get("e") if isinstance(obj, dict) else None
        if isinstance(kind, str):
            counts[kind] = counts.get(kind, 0) + 1
            last_kind = kind
            if kind == "end" and _is_int(obj.get("requests")):
                end_requests = obj["requests"]
        total += 1
        if number == 1 and kind != "run":
            errors.append("line 1: stream must start with the 'run' header")
    if total == 0:
        errors.append("stream is empty")
    elif last_kind != "end":
        errors.append(f"line {total}: stream must end with the 'end' trailer")
    elif end_requests is not None and end_requests != counts.get("request", 0):
        errors.append(
            f"end trailer says {end_requests} requests, stream has "
            f"{counts.get('request', 0)} request lines"
        )
    return errors, counts


def validate_events_file(path: str) -> Tuple[List[str], Dict[str, int]]:
    """:func:`validate_stream` over a file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_stream(handle)


def validate_manifest(obj: Any) -> List[str]:
    """Structural errors for one decoded manifest object (empty when valid)."""
    if not isinstance(obj, dict):
        return ["manifest is not a JSON object"]
    errors = _check_fields(obj, _MANIFEST_FIELDS, "manifest")
    if obj.get("schema") != MANIFEST_SCHEMA:
        errors.append(
            f"manifest: schema is {obj.get('schema')!r}, expected {MANIFEST_SCHEMA!r}"
        )
    return errors
