"""The five whole-job workloads and the sizes they run at.

Every workload is a pair of functions over public entry points of the
program: ``build`` makes the inputs from the seed (timed as ``setup_s``) and
``run`` does the job once and returns its *operations* — ``(name, text)``
pairs, one per sweep point or replay, whose text is what a user of that job
would keep (``to_json()`` of the result, the rendered reports, the event
stream's line and byte counts). ``run(..., engine="columnar")`` is the
reference the outputs are checked against.

Both take an optional :class:`spans.Tracer`; it is ``None`` on every timed
pass, and in the traced run it receives the spans, the regime counts
(``regimes=``) and the per-point walls the ledger is built from.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    fig1_document_hit_rates,
    fig2_byte_hit_rates,
    fig3_latency,
    table1_expiration_age,
    table2_hit_breakdown,
)
from repro.experiments.sweep import SweepPoint, SweepResult, run_capacity_sweep
from repro.experiments.workload import PAPER_CAPACITIES
from repro.obs.events import RunRecorder
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.columnar_io import PackedTraceReader, write_packed
from repro.trace.stream import SyntheticTraceStream
from repro.trace.synthetic import SyntheticTraceConfig, bu_like_config, generate_trace

from spans import Tracer, span

Operation = Tuple[str, str]
SCHEMES = ("adhoc", "ea")
REPORTS = (
    fig1_document_hit_rates,
    fig2_byte_hit_rates,
    fig3_latency,
    table1_expiration_age,
    table2_hit_breakdown,
)
MB = 1024 * 1024


@dataclass(frozen=True)
class Scale:
    """Input sizes of one run of the benchmark.

    Attributes:
        grid_fraction: Share of the BU-scale trace (575,775 requests) that
            ``paper_grid`` and ``variant_grid`` replay. Capacities shrink by
            the same factor, so each row keeps its place relative to the
            working set (four of the paper's five rows stay contended) and
            keeps the paper's label.
        observed_fraction: The same, for ``observed_replay``.
        stream_requests / stream_documents: The synthetic stream of
            ``stream_replay`` and ``packed_replay`` (256 clients, Zipf 0.9);
            20 requests per document at every scale.
        chunk_size: Interned-chunk size of the streamed replays and the
            packed file.
        rounds: Times ``packed_replay`` reads the file back per pass.
    """

    grid_fraction: float
    observed_fraction: float
    stream_requests: int
    stream_documents: int
    chunk_size: int
    rounds: int

    @property
    def stream_fraction(self) -> float:
        return self.stream_requests / 2_000_000


#: ``full`` is the size the issue measured (≈12 s a pass, the paper's own
#: grid); ``gate`` keeps every pass near 2.5 s so that set-up, a warm-up
#: pass, a timed window of several passes and the reference check fit the
#: driver's budget for one run; ``smoke`` only proves the plumbing.
SCALES: Dict[str, Scale] = {
    "full": Scale(1.0, 1.0, 2_000_000, 100_000, 100_000, 3),
    "gate": Scale(0.2, 0.4, 400_000, 20_000, 50_000, 3),
    "smoke": Scale(0.014, 0.014, 50_000, 2_500, 10_000, 1),
}


class CountingSink:
    """Text sink for a ``RunRecorder`` that counts lines and bytes and
    keeps nothing (the full-scale event stream is ≈142 MB)."""

    def __init__(self) -> None:
        self.lines = 0
        self.bytes = 0

    def write(self, text: str) -> None:
        self.lines += 1
        self.bytes += len(text)


class TracedSource:
    """A streamed source whose chunk pulls are charged to ``layer``.

    The work of a stream (generate, intern, decode) happens inside the
    consumer's loop; wrapping the pulls is how it is told apart from the
    replay or the packing around it. The source's own ``intern`` /
    ``decode`` spans nest inside through its public ``spans=`` argument.
    """

    def __init__(self, inner: Any, tracer: Tracer, layer: str):
        self._inner = inner
        self._tracer = tracer
        self._layer = layer

    def interned_chunks(self, chunk_size: int, spans: Any = None):
        chunks = self._inner.interned_chunks(chunk_size, spans=self._tracer)
        return self._tracer.pulls(chunks, "pull", self._layer)


def traced_source(source: Any, tracer: Optional[Tracer], layer: str) -> Any:
    return source if tracer is None else TracedSource(source, tracer, layer)


def replay(
    tracer: Optional[Tracer], name: str, config: SimulationConfig, source: Any, **kwargs: Any
):
    """One ``run_simulation`` call; the traced run also keeps its span, its
    wall, its regime counts and the simulated hit rate as a ledger point."""
    if tracer is None:
        return run_simulation(config, source, **kwargs)
    regimes: Dict[str, Any] = {}
    with tracer.span(name, "fastpath.batch") as opened:
        start = time.perf_counter()
        result = run_simulation(config, source, regimes=regimes, **kwargs)
        wall = time.perf_counter() - start
    if "fallback_reason" in regimes:
        # The batch engine handed this config to the columnar core.
        opened["layer"] = "fastpath.engine"
    tracer.points.append(
        {
            "name": name,
            "span": opened["id"],
            "wall_s": wall,
            "requests": result.metrics.requests,
            "regimes": regimes,
            "hit_rate": result.metrics.hit_rate,
        }
    )
    return result


def sweep(
    tracer: Optional[Tracer],
    trace: Any,
    capacities: Sequence[Tuple[str, int]],
    base: SimulationConfig,
    engine: str,
) -> SweepResult:
    """``run_capacity_sweep``, serial. The traced run replays the same
    points one by one instead, which is the only way to hand each of them
    a ``regimes=`` dict."""
    if tracer is None:
        return run_capacity_sweep(trace, capacities, SCHEMES, base_config=base, engine=engine)
    points = []
    with tracer.span("sweep", "experiments.sweep"):
        for label, capacity in capacities:
            for scheme in SCHEMES:
                config = replace(base, scheme=scheme, aggregate_capacity=capacity, engine=engine)
                result = replay(tracer, f"{label}.{scheme}", config, trace)
                points.append(SweepPoint(scheme, label, capacity, result))
    return SweepResult(points)


def scaled_capacities(
    capacities: Sequence[Tuple[str, int]], fraction: float
) -> List[Tuple[str, int]]:
    return [(label, max(1, int(size * fraction))) for label, size in capacities]


def bu_trace(seed: int, fraction: float, tracer: Optional[Tracer]):
    """Generate and intern a BU-like trace (the set-up of three workloads)."""
    config = bu_like_config(seed).scaled(fraction)
    with span(tracer, "generate_trace", "trace.synthetic"):
        trace = generate_trace(config)
    with span(tracer, "Trace.interned", "fastpath.interning"):
        trace.interned()
    if tracer is not None:
        tracer.count("source.records", len(trace))
    return trace


def stream_config(seed: int, scale: Scale) -> SyntheticTraceConfig:
    return SyntheticTraceConfig(
        num_requests=scale.stream_requests,
        num_documents=scale.stream_documents,
        num_clients=256,
        zipf_alpha=0.9,
        zero_size_fraction=0.02,
        seed=seed,
    )


# --------------------------------------------------------------------- #
# paper_grid
# --------------------------------------------------------------------- #


def build_grid_trace(seed: int, scale: Scale, tracer: Optional[Tracer], outdir: str):
    """Set-up of ``paper_grid`` and ``variant_grid``."""
    return bu_trace(seed, scale.grid_fraction, tracer)


def run_paper_grid(trace, scale: Scale, tracer: Optional[Tracer], engine: str) -> List[Operation]:
    capacities = scaled_capacities(PAPER_CAPACITIES, scale.grid_fraction)
    result = sweep(tracer, trace, capacities, SimulationConfig(), engine)
    with span(tracer, "build_report", "experiments.report"):
        reports = [module.build_report(result).render() for module in REPORTS]
    with span(tracer, "to_json", "simulation.results"):
        operations = [
            (f"{p.capacity_label}.{p.scheme}", p.result.to_json()) for p in result.points
        ]
    operations.append(("reports", "\n".join(reports)))
    return operations


# --------------------------------------------------------------------- #
# stream_replay
# --------------------------------------------------------------------- #


def build_stream_replay(seed: int, scale: Scale, tracer: Optional[Tracer], outdir: str):
    """Open the stream: pulling one record builds the generator's tables
    (Zipf CDF, document sizes, client weights), which grow with the
    universe and not with the request count. Nothing else precedes the job."""
    config = stream_config(seed, scale)
    with span(tracer, "open_stream", "trace.synthetic"):
        next(iter(SyntheticTraceStream(config).interned_chunks(1)))
    return config


def run_stream_replay(config, scale: Scale, tracer: Optional[Tracer], engine: str) -> List[Operation]:
    source = traced_source(SyntheticTraceStream(config), tracer, "trace.synthetic")
    simulation = SimulationConfig(scheme="ea", aggregate_capacity=8192 * MB, engine=engine)
    result = replay(tracer, "8GB.ea", simulation, source, chunk_size=scale.chunk_size)
    if tracer is not None:
        tracer.count("source.records", config.num_requests)
    with span(tracer, "to_json", "simulation.results"):
        return [("8GB.ea", result.to_json())]


# --------------------------------------------------------------------- #
# packed_replay
# --------------------------------------------------------------------- #


def build_packed_replay(seed: int, scale: Scale, tracer: Optional[Tracer], outdir: str):
    config = stream_config(seed, scale)
    path = os.path.join(outdir, f"packed_{seed}_{scale.stream_requests}.rpct")
    source = traced_source(SyntheticTraceStream(config), tracer, "trace.synthetic")
    with span(tracer, "write_packed", "trace.columnar_io.pack"):
        write_packed(path, source, chunk_size=scale.chunk_size)
    if tracer is not None:
        tracer.count("source.records", config.num_requests)
        tracer.count("trace.columnar_io.file_bytes", os.path.getsize(path))
    return path


def run_packed_replay(path, scale: Scale, tracer: Optional[Tracer], engine: str) -> List[Operation]:
    # 8 GB holds everything (all cold regime); the second capacity evicts
    # (at full scale 48% cold, 46% hit-run, 6% scalar).
    capacities = (("8GB", 8192 * MB), ("768MB", int(768 * MB * scale.stream_fraction)))
    operations = []
    for round_index in range(scale.rounds):
        for label, capacity in capacities:
            simulation = SimulationConfig(scheme="ea", aggregate_capacity=capacity, engine=engine)
            with PackedTraceReader(path) as reader:
                source = traced_source(reader, tracer, "trace.columnar_io.decode")
                result = replay(
                    tracer, f"{label}.ea.r{round_index}", simulation, source,
                    chunk_size=scale.chunk_size,
                )
            with span(tracer, "to_json", "simulation.results"):
                operations.append((f"{label}.ea.r{round_index}", result.to_json()))
    return operations


# --------------------------------------------------------------------- #
# observed_replay
# --------------------------------------------------------------------- #


def build_observed_replay(seed: int, scale: Scale, tracer: Optional[Tracer], outdir: str):
    return bu_trace(seed, scale.observed_fraction, tracer)


def observed_config(scale: Scale, engine: str) -> SimulationConfig:
    capacity = int(488 * MB * scale.observed_fraction)
    return SimulationConfig(scheme="ea", aggregate_capacity=capacity, engine=engine)


def run_observed_replay(trace, scale: Scale, tracer: Optional[Tracer], engine: str) -> List[Operation]:
    sink = CountingSink()
    result = replay(tracer, "488MB.ea", observed_config(scale, engine), trace, obs=RunRecorder(sink))
    if tracer is not None:
        tracer.count("obs.events.lines", sink.lines)
        tracer.count("obs.events.bytes", sink.bytes)
    with span(tracer, "to_json", "simulation.results"):
        text = result.to_json()
    return [("488MB.ea", f"{text}\nevent lines {sink.lines} bytes {sink.bytes}")]


def probe_observed_replay(trace, scale: Scale) -> Dict[str, float]:
    """Wall of the identical point with no observer attached (second of two
    replays, so the first pays the fast loop's one-off precompute)."""
    config = observed_config(scale, "batch")
    run_simulation(config, trace)
    start = time.perf_counter()
    run_simulation(config, trace)
    return {"obs.events.unobserved_s": time.perf_counter() - start}


# --------------------------------------------------------------------- #
# variant_grid
# --------------------------------------------------------------------- #


def run_variant_grid(trace, scale: Scale, tracer: Optional[Tracer], engine: str) -> List[Operation]:
    capacities = scaled_capacities(PAPER_CAPACITIES[2:4], scale.grid_fraction)
    base = SimulationConfig(architecture="hierarchical", policy="lfu")
    result = sweep(tracer, trace, capacities, base, engine)
    with span(tracer, "to_json", "simulation.results"):
        return [(f"{p.capacity_label}.{p.scheme}", p.result.to_json()) for p in result.points]


@dataclass(frozen=True)
class Workload:
    """One workload's functions; BENCHMARK.json says why it was chosen."""

    name: str
    build: Callable[..., Any]
    run: Callable[..., List[Operation]]
    #: Simulated requests replayed by one pass, from the scale alone.
    requests: Callable[[Scale], int]
    #: Optional extra measurements of the traced run (ledger only).
    probe: Optional[Callable[..., Dict[str, float]]] = None


def _bu_requests(fraction: float) -> int:
    return bu_like_config().scaled(fraction).num_requests


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_grid",
            build_grid_trace,
            run_paper_grid,
            lambda s: len(PAPER_CAPACITIES) * len(SCHEMES) * _bu_requests(s.grid_fraction),
        ),
        Workload(
            "stream_replay",
            build_stream_replay,
            run_stream_replay,
            lambda s: s.stream_requests,
        ),
        Workload(
            "packed_replay",
            build_packed_replay,
            run_packed_replay,
            lambda s: 2 * s.rounds * s.stream_requests,
        ),
        Workload(
            "observed_replay",
            build_observed_replay,
            run_observed_replay,
            lambda s: _bu_requests(s.observed_fraction),
            probe_observed_replay,
        ),
        Workload(
            "variant_grid",
            build_grid_trace,
            run_variant_grid,
            lambda s: 2 * len(SCHEMES) * _bu_requests(s.grid_fraction),
        ),
    )
}
