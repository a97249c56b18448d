"""The per-layer ledger: what a traced run's spans and counts add up to."""

from __future__ import annotations

from typing import Any, Dict, Tuple

from spans import Tracer, layer_seconds, under

#: A point whose scalar-path share of requests reaches this is governed by
#: ``scalar_us_per_request``; below it, by ``bulk_us_per_request``.
SCALAR_GOVERNED = 0.25


def _per_us(seconds: float, count: int) -> float:
    return seconds / count * 1e6 if count else 0.0


def ledger(
    tracer: Tracer, steady_s: float, warmup_s: float, traced_s: float, probed: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of a traced run, and the workload's own extras.

    Seconds are self times summed per layer over the traced set-up and the
    traced pass; shares and counts are exact (they come from ``regimes=`` and
    from counters, not from the clock) and repeat from run to run.
    """
    spans = tracer.finished()
    total = layer_seconds(spans)
    in_pass = layer_seconds(under(spans, "pass"))
    records = tracer.counts.get("source.records", 0)
    points = tracer.points
    for point in points:
        # The replay's own time: its wall minus the chunk pulls inside it.
        point["self_s"] = spans[point["span"]]["self_ns"] / 1e9
    fast = [p for p in points if "fallback_reason" not in p["regimes"]]
    core = [p for p in points if "fallback_reason" in p["regimes"]]
    fast_requests = sum(p["requests"] for p in fast)

    def regime(name: str) -> int:
        return sum(p["regimes"].get(name, 0) for p in fast)

    def share(name: str) -> float:
        return regime(name) / fast_requests if fast_requests else 0.0

    scalar_governed = [
        p for p in fast if p["regimes"].get("scalar", 0) >= SCALAR_GOVERNED * p["requests"]
    ]
    bulk_governed = [p for p in fast if p not in scalar_governed]
    generate_s = total.get("trace.synthetic", 0.0)
    intern_s = total.get("fastpath.interning", 0.0)
    source_in_pass = in_pass.get("trace.synthetic", 0.0) + in_pass.get("fastpath.interning", 0.0)
    pass_s = sum(item["self_ns"] for item in under(spans, "pass")) / 1e9
    metrics = {
        "trace.synthetic.generate_s": generate_s,
        "trace.synthetic.us_per_record": _per_us(generate_s, records),
        "fastpath.interning.intern_s": intern_s,
        "fastpath.interning.us_per_record": _per_us(intern_s, records),
        "trace.columnar_io.pack_s": total.get("trace.columnar_io.pack", 0.0),
        "trace.columnar_io.decode_s": total.get("trace.columnar_io.decode", 0.0),
        "fastpath.batch.replay_s": total.get("fastpath.batch", 0.0),
        "fastpath.batch.us_per_request": _per_us(total.get("fastpath.batch", 0.0), fast_requests),
        "fastpath.batch.scalar_us_per_request": _per_us(
            sum(p["self_s"] for p in scalar_governed),
            sum(p["regimes"]["scalar"] for p in scalar_governed),
        ),
        "fastpath.batch.bulk_us_per_request": _per_us(
            sum(p["self_s"] for p in bulk_governed), sum(p["requests"] for p in bulk_governed)
        ),
        "fastpath.batch.cold_share": share("cold"),
        "fastpath.batch.hit_run_share": share("hit_run"),
        "fastpath.batch.scalar_share": share("scalar"),
        "fastpath.batch.fastloop_engaged": len(fast) / len(points),
        "fastpath.batch.precompute_s": warmup_s - steady_s,
        "fastpath.engine.replay_s": total.get("fastpath.engine", 0.0),
        "fastpath.engine.us_per_request": _per_us(
            total.get("fastpath.engine", 0.0), sum(p["requests"] for p in core)
        ),
        "experiments.sweep.sweep_s": total.get("experiments.sweep", 0.0),
        "experiments.report.projection_s": total.get("experiments.report", 0.0),
        "simulation.results.serialise_s": total.get("simulation.results", 0.0),
        "obs.events.lines": tracer.counts.get("obs.events.lines", 0),
        "obs.events.bytes": tracer.counts.get("obs.events.bytes", 0),
        "obs.spans.tracing_overhead": traced_s / steady_s - 1.0,
        "pass.source_share": source_in_pass / pass_s,
    }
    extras: Dict[str, Any] = dict(probed)
    by_name = {p["name"]: p for p in points}
    for point in points:
        layer = "fastpath.engine" if point in core else "fastpath.batch"
        extras[f"{layer}.point_s.{point['name']}"] = point["self_s"]
        extras[f"sim.hit_rate.{point['name']}"] = point["hit_rate"]
        if point["name"].endswith(".ea"):
            label = point["name"][: -len(".ea")]
            adhoc = by_name.get(f"{label}.adhoc")
            if adhoc is not None:
                extras[f"sim.ea_minus_adhoc.{label}"] = point["hit_rate"] - adhoc["hit_rate"]
    file_bytes = tracer.counts.get("trace.columnar_io.file_bytes")
    if file_bytes:
        extras["trace.columnar_io.file_bytes"] = file_bytes
        extras["trace.columnar_io.pack_mb_per_s"] = (
            file_bytes / 1e6 / metrics["trace.columnar_io.pack_s"]
        )
        extras["trace.columnar_io.decode_mb_per_s"] = (
            file_bytes * len(points) / 1e6 / metrics["trace.columnar_io.decode_s"]
        )
    if "obs.events.unobserved_s" in probed:
        extras["obs.events.observer_slowdown"] = steady_s / probed["obs.events.unobserved_s"]
    extras["layers.setup_s"] = layer_seconds(under(spans, "setup"))
    extras["layers.pass_s"] = in_pass
    extras["regimes"] = {p["name"]: p["regimes"] for p in points}
    return metrics, extras
