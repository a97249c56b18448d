"""Benchmark-owned spans: who called which layer, for how long.

The harness opens a span around every call it makes into a public function
of the program (``generate_trace``, ``write_packed``, ``run_simulation`` ...)
and names the layer that call belongs to. Spans live in memory and are
written once, when the traced run ends. A layer's *self time* is its spans'
duration minus the part their child spans cover, so nested calls (a chunk
pull inside a replay, an intern pass inside a pull) are charged once.

Only the traced run carries a :class:`Tracer`; every timed pass runs with
``tracer=None`` and the helpers below collapse to no-ops.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterable, Iterator, List, Optional

#: Spans the *program* opens when the tracer is handed to the public
#: ``interned_chunks(chunk_size, spans=...)`` argument of a trace source:
#: their documented names, mapped to the layer that does the work.
PROGRAM_SPAN_LAYERS = {
    "intern": "fastpath.interning",
    "decode": "trace.columnar_io.decode",
}


class Tracer:
    """In-memory span recorder for one workload's traced run.

    ``begin`` / ``end`` / ``span`` match what the program's trace sources
    call on a ``spans=`` argument, so the same object records the
    benchmark's own spans and the sources' ``intern`` / ``decode`` spans.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        #: Exact counts taken where the work happens (records generated,
        #: event lines written ...), keyed by metric-style names.
        self.counts: Dict[str, int] = {}
        #: One row per replayed point of the traced pass (see ``replay``
        #: in :mod:`workloads`): wall seconds, requests, regime counts.
        self.points: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def begin(self, name: str, layer: str) -> Dict[str, Any]:
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": PROGRAM_SPAN_LAYERS.get(name, layer),
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, **counters: int) -> None:
        span = self.spans[self._open.pop()]
        span["end_ns"] = time.perf_counter_ns()
        if counters:
            span["counters"] = counters

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Dict[str, Any]]:
        opened = self.begin(name, layer)
        try:
            yield opened
        finally:
            self.end()

    def pulls(self, chunks: Iterable, name: str, layer: str) -> Iterator:
        """Yield from ``chunks``, charging every ``next()`` to a span.

        Streamed sources do their work (generation, interning, decoding)
        inside the pull, interleaved with the replay that consumes them;
        this is what separates the two.
        """
        iterator = iter(chunks)
        while True:
            self.begin(name, layer)
            try:
                chunk = next(iterator)
            except StopIteration:
                return
            finally:
                self.end()
            yield chunk

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def finished(self) -> List[Dict[str, Any]]:
        """Every span, with its self time filled in."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} span(s) still open")
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end_ns"] - span["start_ns"]
        for span in self.spans:
            span["self_ns"] = span["end_ns"] - span["start_ns"] - covered[span["id"]]
        return self.spans

    def write(self, path: str) -> None:
        payload = {
            "workload": self.workload,
            "spans": self.finished(),
            "counts": self.counts,
            "points": self.points,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def span(tracer: Optional[Tracer], name: str, layer: str):
    """``tracer.span(...)``, or a no-op context when tracing is off."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, layer)


def under(spans: List[Dict[str, Any]], root_name: str) -> List[Dict[str, Any]]:
    """The spans nested (at any depth) inside the root span ``root_name``."""
    inside = set()
    picked = []
    # Spans are stored in begin order, so a parent always precedes its children.
    for item in spans:
        if (item["parent"] is None and item["name"] == root_name) or item["parent"] in inside:
            inside.add(item["id"])
            picked.append(item)
    return picked


def layer_seconds(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds per layer over ``spans`` (from :meth:`Tracer.finished`)."""
    totals: Dict[str, float] = {}
    for item in spans:
        totals[item["layer"]] = totals.get(item["layer"], 0.0) + item["self_ns"] / 1e9
    return totals
