"""Command-line interface.

The subcommands cover the library's workflows::

    repro generate-trace --scale default --out trace.bu
    repro simulate --scheme ea --caches 4 --capacity 10MB --trace trace.bu
    repro simulate --sanitize          # same, with runtime invariant checks
    repro simulate --engine batch      # the fast kernel (byte-identical)
    repro simulate --events run.jsonl --snapshot-interval 600
    repro experiment fig1 --scale tiny
    repro experiment fig1 --jobs 4 --memo .repro-memo
    repro sweep --scale tiny --jobs 4  # raw {scheme} x {capacity} grid
    repro sweep --jobs 4 --progress --events events/
    repro obs summarize run.jsonl      # roll up a repro-events/1 stream
    repro obs diff a.jsonl b.jsonl     # first divergence between streams
    repro profile --scale tiny         # cProfile + span timeline of one run
    repro lint src tests               # repro-specific per-file lint rules
    repro analyze                      # whole-program engine-parity /
                                       # determinism / config-flow analysis
    repro analyze trace --scale tiny   # characterise a workload trace

Two engines replay a trace: ``object``, the readable reference core (the
default), and ``batch``, the fast replay kernel of :mod:`repro.fastpath`.
``--engine columnar`` is not a third engine but a reference setting of
that kernel, with its vector regimes off, for cross-engine diffs.
Results are byte-identical whichever engine runs.

``repro experiment all`` regenerates every paper artifact in sequence and
prints the rendered tables (this is what EXPERIMENTS.md quotes). ``--jobs``
fans sweep points over a process pool and ``--memo DIR`` reuses previously
simulated points across drivers and invocations (see docs/PERFORMANCE.md).
``repro lint`` runs the AST-based rule set documented in
``docs/DEVTOOLS.md`` and exits non-zero when findings remain, which is how
CI gates every PR. ``repro analyze`` is its whole-program sibling
(``docs/ANALYSIS.md``): it diffs what each engine actually reads against
the declared fallback matrix, audits the simulation-reachable call graph
for nondeterminism, and checks config/memo-key plumbing; both emit the
same ``repro-findings/1`` JSON with ``--json``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.experiments import EXPERIMENTS
from repro.experiments.workload import WORKLOAD_SCALES, workload_config, workload_trace
from repro.obs.spans import SpanTracer, load_trace_events, render_timeline
from repro.simulation.simulator import (
    ARCHITECTURES,
    ENGINES,
    PARTITIONERS,
    SimulationConfig,
    run_simulation,
)
from repro.trace.readers import read_trace
from repro.trace.record import Trace
from repro.trace.synthetic import generate_trace
from repro.trace.writers import write_bu_trace

_SIZE_SUFFIXES = {"kb": 1024, "mb": 1024 ** 2, "gb": 1024 ** 3, "b": 1}


def parse_size(text: str) -> int:
    """Parse '100KB' / '10MB' / '1GB' / plain byte counts."""
    lowered = text.strip().lower()
    for suffix, multiplier in sorted(_SIZE_SUFFIXES.items(), key=lambda kv: -len(kv[0])):
        if lowered.endswith(suffix):
            number = lowered[: -len(suffix)].strip()
            return int(float(number) * multiplier)
    return int(lowered)


def _size(text: str) -> Tuple[str, int]:
    """The argparse type of a capacity: the text as typed and its bytes."""
    try:
        return text, parse_size(text)
    except (ValueError, OverflowError):  # OverflowError: an infinite size
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected e.g. 100KB, 10MB, 1GB or a byte count)"
        ) from None


def _interval(text: str) -> float:
    """The argparse type of a snapshot interval: finite seconds, not negative."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not 0 <= seconds < math.inf:  # NaN fails both
        raise argparse.ArgumentTypeError(
            f"invalid interval {text!r} (expected a finite number of seconds >= 0)"
        )
    return seconds


def _whole_number(noun: str, minimum: int):
    """The argparse type of a ``noun``: a whole number >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"invalid {noun} {text!r} (expected a whole number >= {minimum})"
            )
        return value

    return parse


_chunk_size = _whole_number("chunk size", 1)
_count = _whole_number("count", 0)


#: Flag -> add_argument keywords of every option that sets one
#: SimulationConfig field; _config_from_args maps them onto the fields.
_CONFIG_OPTIONS = {
    "--scheme": {"choices": ("adhoc", "ea"), "default": "ea"},
    "--caches": {"type": int, "default": 4},
    "--capacity": {"type": _size, "default": "10MB",
                   "help": "aggregate size, e.g. 100KB / 10MB"},
    "--policy": {"default": "lru"},
    "--architecture": {"choices": ARCHITECTURES, "default": "distributed"},
    "--partitioner": {"choices": PARTITIONERS, "default": "hash"},
    "--engine": {
        "choices": ENGINES, "default": "object",
        "help": "replay engine: 'object' (the reference core) or 'batch' "
        "(the fast kernel); 'columnar' is not a third engine but a reference "
        "setting of that kernel with its vector regimes off, for "
        "cross-engine diffs. Results are byte-identical on every engine; a "
        "config the kernel does not model falls back to 'object' with a "
        "logged reason",
    },
}

_TRACE_FORMATS = ("bu", "squid", "clf")


def _config_options(parser, *flags: str, capacity: Optional[str] = None) -> None:
    """Declare the config options ``flags`` (default: all of them).

    ``capacity`` replaces the --capacity default.
    """
    for flag in flags or _CONFIG_OPTIONS:
        keywords = _CONFIG_OPTIONS[flag]
        if flag == "--capacity" and capacity is not None:
            keywords = {**keywords, "default": capacity}
        parser.add_argument(flag, **keywords)


def _workload_options(parser) -> None:
    """--scale / --seed: the synthetic BU-like workload."""
    parser.add_argument("--scale", choices=WORKLOAD_SCALES, default="default",
                        help="synthetic workload scale")
    parser.add_argument("--seed", type=int, default=42)


def _trace_options(parser, streamed: bool = False) -> None:
    """--trace / --trace-format, and --scale / --seed for the synthetic fallback.

    ``streamed`` adds the ``packed`` format, which only the subcommands
    that replay through a chunked engine can read.
    """
    parser.add_argument("--trace", help="trace file; the synthetic --scale "
                        "workload if omitted")
    formats = _TRACE_FORMATS + ("packed",) if streamed else _TRACE_FORMATS
    parser.add_argument(
        "--trace-format", default="bu", choices=formats,
        help="input format" + (
            "; 'packed' (auto-detected from a .rpct suffix) streams the "
            "file with O(chunk) memory and needs a chunked --engine"
            if streamed else ""
        ),
    )
    _workload_options(parser)


def _event_options(parser, metavar: str, events_help: str) -> None:
    """--events / --snapshot-interval: a repro-events/1 capture."""
    parser.add_argument("--events", metavar=metavar, help=events_help)
    parser.add_argument("--snapshot-interval", type=_interval, default=0.0,
                        metavar="SECONDS",
                        help="simulation-seconds between per-cache snapshot "
                        "events in the stream(s) (0 = no snapshots)")


def _sweep_options(parser, jobs_help: str, events_help: str) -> None:
    """--jobs / --memo / --progress plus per-point event capture."""
    parser.add_argument("--jobs", type=_count, metavar="N", help=jobs_help)
    parser.add_argument("--memo", metavar="DIR",
                        help="content-addressed result cache; sweep points "
                        "already simulated for this config+trace are reused")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per completed sweep point")
    _event_options(parser, "DIR", events_help)


def _span_options(parser) -> None:
    """--trace-out / --track-memory: where a replay's wall time and memory went."""
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write a Chrome Trace Event Format span timeline "
                        "(repro-trace-events/1; load it in Perfetto or render "
                        "with 'repro obs timeline'); a sweep puts each freshly "
                        "simulated point on its own lane")
    parser.add_argument("--track-memory", action="store_true",
                        help="record the tracemalloc high-water mark of each "
                        "replay (simulate: the manifest and --timeseries; "
                        "sweep: the telemetry summary)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EA-scheme cooperative web caching simulator (ICDCS 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-trace", help="write a synthetic BU-like trace")
    _workload_options(gen)
    gen.add_argument("--out", required=True, help="output path (BU condensed format)")

    pack = sub.add_parser(
        "pack-trace",
        help="pack a trace into the RPCT packed columnar format",
        description=(
            "Write a .rpct packed columnar trace — the interned chunk "
            "sequence, mmap-readable with O(chunk) memory. Packing streams: "
            "a synthetic workload is generated chunk by chunk, never "
            "materialised, so --requests can exceed RAM. Replaying the "
            "packed file (--trace FILE.rpct on simulate/sweep/profile with "
            "a chunked --engine) is byte-identical to replaying the "
            "original trace."
        ),
    )
    _trace_options(pack)
    pack.add_argument("--requests", type=int, metavar="N",
                      help="override the synthetic request count (generation "
                      "is streamed, so N is not bounded by memory)")
    pack.add_argument("--out", required=True, help="output path (.rpct)")
    pack.add_argument("--chunk-size", type=_chunk_size, metavar="N",
                      help="records per stored chunk (default 262144); shapes "
                      "reader memory only, never results")

    sim = sub.add_parser("simulate", help="run one simulation and print the result")
    _config_options(sim)
    _trace_options(sim, streamed=True)
    sim.add_argument("--chunk-size", type=_chunk_size, metavar="N",
                     help="interned-chunk granularity for the chunked "
                     "engines; results are chunking-invariant, so this "
                     "shapes memory only")
    sim.add_argument("--json", action="store_true", help="emit the full result as JSON")
    sim.add_argument(
        "--sanitize",
        action="store_true",
        help="check runtime invariants (byte accounting, recency order, EA "
        "one-fresh-lease, event order) after every operation; exit 3 on any "
        "violation",
    )
    _event_options(sim, "FILE", "write a repro-events/1 JSONL stream of the "
                   "run; a run manifest lands next to it as FILE.manifest.json")
    _span_options(sim)
    sim.add_argument("--timeseries", metavar="FILE",
                     help="write a repro-timeseries/1 stream of per-chunk "
                     "samples (req/s, hit ratios, EA placements, regime "
                     "occupancy); render with 'repro obs report'")

    exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    exp.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    _workload_options(exp)
    _config_options(exp, "--engine")
    exp.add_argument("--json", action="store_true", help="emit the report as JSON")
    exp.add_argument("--save-json", metavar="DIR",
                     help="also persist the report(s) into an ExperimentStore directory")
    _sweep_options(
        exp,
        "fan sweep points over N worker processes (default: serial; "
        "0 = one per CPU)",
        "write repro-events/1 streams for every freshly simulated sweep "
        "point under DIR/<experiment>/",
    )

    swp = sub.add_parser(
        "sweep", help="run a raw {scheme} x {capacity} sweep, optionally in parallel"
    )
    _trace_options(swp, streamed=True)
    _config_options(swp, "--caches", "--policy", "--architecture", "--engine")
    swp.add_argument("--schemes", default="adhoc,ea",
                     help="comma-separated placement schemes (default: adhoc,ea)")
    swp.add_argument("--capacity", action="append", type=_size, metavar="SIZE",
                     dest="capacities",
                     help="aggregate capacity, e.g. 10MB; repeatable "
                     "(default: the paper grid for --scale)")
    swp.add_argument("--json", action="store_true", help="emit all points as JSON")
    _sweep_options(
        swp,
        "worker processes (default and 0: one per CPU; 1 = serial)",
        "write repro-events/1 streams for every freshly simulated point "
        "into DIR",
    )
    _span_options(swp)

    obs = sub.add_parser(
        "obs", help="inspect observability files (events, span traces, "
        "timeseries): tail / summarize / diff / validate / timeline / report"
    )
    obs.add_argument("action", choices=("tail", "summarize", "diff", "validate",
                                        "timeline", "report"))
    obs.add_argument("paths", nargs="+", metavar="FILE",
                     help="input file(s); 'diff' takes exactly two; "
                     "'timeline' reads --trace-out JSON, 'report' reads "
                     "--timeseries streams, 'validate' auto-detects "
                     "events, span-trace, timeseries and manifest files")
    obs.add_argument("-n", "--count", type=_count, default=10, metavar="N",
                     help="[tail] number of trailing events to print")
    obs.add_argument("--json", action="store_true",
                     help="[summarize] emit the roll-up as JSON")

    prof = sub.add_parser(
        "profile", help="cProfile one simulation: regime counts, span "
        "timeline and the hottest functions"
    )
    _config_options(prof)
    _trace_options(prof, streamed=True)
    prof.add_argument("--sort", choices=("cumulative", "tottime"), default="cumulative",
                      help="stat ordering for the report")
    prof.add_argument("--top", type=_count, default=25, metavar="N",
                      help="number of functions to print")

    ana = sub.add_parser(
        "analyze",
        help="whole-program static analysis (or trace characterisation)",
        description=(
            "Run the whole-program analyzers over the source tree: 'parity' "
            "(engine drift vs the fallback matrix, RPR101-103), 'determinism' "
            "(simulation-reachable nondeterminism, RPR111-115), 'configflow' "
            "(dead/one-sided config fields and memo-key coverage, RPR121-123) "
            "— or 'trace' to characterise a workload trace instead."
        ),
    )
    ana.add_argument(
        "target",
        nargs="*",
        default=None,
        metavar="TARGET",
        help="analyzers to run, space-separated: all, parity, determinism, "
        "configflow, or trace (default: all static analyzers); 'trace' "
        "must be the only target",
    )
    ana.add_argument("--root", default="src",
                     help="directory containing the repro package (default: src)")
    ana.add_argument("--json", action="store_true",
                     help="emit findings in the shared repro-findings/1 schema")
    _trace_options(ana)

    cmp_parser = sub.add_parser(
        "compare", help="run ad-hoc and EA side by side at one capacity"
    )
    _config_options(cmp_parser, "--caches", "--capacity", "--policy", capacity="1MB")
    _trace_options(cmp_parser)

    lint = sub.add_parser(
        "lint", help="run the repro-specific static analysis pass"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--select",
        help="comma-separated rule codes to run (default: all rules)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument("--json", action="store_true",
                      help="emit findings in the shared repro-findings/1 schema")
    return parser


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    """The SimulationConfig a subcommand's options describe.

    Reads only the options the subcommand declares; every other field
    keeps its SimulationConfig default.
    """
    names = {"scheme": "scheme", "caches": "num_caches", "policy": "policy",
             "architecture": "architecture", "partitioner": "partitioner",
             "seed": "seed", "engine": "engine", "sanitize": "sanitize"}
    fields = {field: getattr(args, dest) for dest, field in names.items()
              if hasattr(args, dest)}
    if hasattr(args, "capacity"):
        fields["aggregate_capacity"] = args.capacity[1]
    return SimulationConfig(**fields)


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    trace = generate_trace(workload_config(args.scale, args.seed))
    count = write_bu_trace(iter(trace), args.out)
    print(f"wrote {count} records ({trace.unique_urls} unique documents) to {args.out}")
    return 0


def _cmd_pack_trace(args: argparse.Namespace) -> int:
    from repro.trace.columnar_io import write_packed

    if args.trace:
        source = read_trace(args.trace, fmt=args.trace_format)
    else:
        from dataclasses import replace

        from repro.trace.stream import SyntheticTraceStream

        cfg = workload_config(args.scale, args.seed)
        if args.requests is not None:
            cfg = replace(cfg, num_requests=args.requests)
        source = SyntheticTraceStream(cfg)
    records, docs, clients = write_packed(args.out, source, chunk_size=args.chunk_size)
    size = os.path.getsize(args.out)
    print(
        f"packed {records} records ({docs} documents, {clients} clients) "
        f"into {args.out} ({size} bytes)"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.simulator import CooperativeSimulator

    trace = _load_or_generate(args)
    config = _config_from_args(args)
    observed = None
    spans = SpanTracer() if args.trace_out else None
    if (args.events or args.snapshot_interval > 0.0 or args.trace_out
            or args.timeseries or args.track_memory):
        from repro.obs.session import ObservedRun

        observed = ObservedRun(
            config,
            trace,
            events_path=args.events,
            snapshot_interval=args.snapshot_interval,
            track_memory=args.track_memory,
            spans=spans,
            timeseries_path=args.timeseries,
        )
    recorder = observed.recorder if observed is not None else None
    timeseries = observed.timeseries if observed is not None else None
    sanitizer = None
    # Leaving the block closes the observed run's sinks, allocation tracer
    # and root span when the replay raises; finish() has done so otherwise.
    with observed if observed is not None else contextlib.nullcontext():
        if args.sanitize:
            # Sanitizing needs the simulator instance for the report (and
            # forces the object engine anyway — the dispatcher would fall back).
            if not isinstance(trace, Trace):
                raise ReproError(
                    "--sanitize runs the object engine, which replays "
                    "materialised traces only (not packed/streamed sources)"
                )
            simulator = CooperativeSimulator(config, obs=recorder)
            result = simulator.run(trace)
            sanitizer = simulator.sanitizer
        else:
            result = run_simulation(
                config, trace, obs=recorder, chunk_size=args.chunk_size,
                spans=spans, timeseries=timeseries,
            )
        if observed is not None:
            result = observed.finish(result)
    if args.json:
        print(result.to_json())
    else:
        print(result.summary())
    if observed is not None and args.events:
        from repro.obs.manifest import write_manifest

        manifest_path = args.events + ".manifest.json"
        write_manifest(result.manifest, manifest_path)
        total = sum(result.manifest["events"]["counts"].values())
        print(f"events: {total} event(s) -> {args.events}")
        print(f"manifest: {manifest_path}")
    if args.trace_out:
        spans.write(args.trace_out)
        print(f"trace: {args.trace_out} (render with 'repro obs timeline')")
    if args.timeseries:
        print(f"timeseries: {args.timeseries} (render with 'repro obs report')")
    if args.track_memory and result.manifest is not None:
        peak = result.manifest.get("peak_memory_bytes")
        if peak is not None:
            print(f"peak memory: {peak:,} bytes (tracemalloc)")
    if sanitizer is not None:
        print(sanitizer.summary())
        if not sanitizer.ok:
            return 3
    return 0


def _print_progress(progress) -> None:
    """Live per-point progress line for --progress runs."""
    print(progress.render(), flush=True)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.store import ExperimentStore
    from repro.parallel import SweepMemoStore, default_jobs

    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    store = ExperimentStore(args.save_json) if args.save_json else None
    memo = SweepMemoStore(args.memo) if args.memo else None
    jobs = None if args.jobs is None else args.jobs or default_jobs()
    for name in names:
        driver = EXPERIMENTS[name]
        # A driver gets only the knobs its signature names. One without
        # an engine parameter runs the object core whatever --engine asks,
        # and says so on stderr (stdout stays the report). Each driver
        # writes its point files under its own --events subdirectory, so
        # 'experiment all' shares one root.
        offered = {
            "jobs": jobs,
            "memo": memo,
            "engine": args.engine,
            "events_dir": os.path.join(args.events, name) if args.events else None,
            "snapshot_interval": (
                args.snapshot_interval if args.snapshot_interval > 0.0 else None
            ),
            "progress": _print_progress if args.progress else None,
        }
        accepted = inspect.signature(driver).parameters
        kwargs = {k: v for k, v in offered.items() if k in accepted and v is not None}
        if args.engine != "object" and "engine" not in accepted:
            print(
                f"note: {name} takes no --engine; it runs the object core",
                file=sys.stderr,
            )
        report = driver(scale=args.scale, seed=args.seed, **kwargs)
        if store is not None:
            store.save(report)
        if args.json:
            print(report.to_json())
        else:
            print(report.render())
            print()
    if memo is not None:
        print(f"memo: {memo.hits} hit(s), {memo.misses} miss(es) in {memo.root}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import run_capacity_sweep
    from repro.experiments.workload import capacities_for
    from repro.parallel import SweepMemoStore, default_jobs

    trace = _load_or_generate(args)
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    capacities = args.capacities or capacities_for(args.scale)
    jobs = args.jobs or default_jobs()
    memo = SweepMemoStore(args.memo) if args.memo else None
    if args.progress:
        # Totals via source_num_records: a streamed source (packed file,
        # synthetic stream) has no records list to len() — the count comes
        # from its declared total (the packed footer) instead.
        from repro.trace.stream import source_num_records

        total = source_num_records(trace)
        requests = f"{total} requests" if total is not None else "unknown length"
        print(
            f"sweep: {len(capacities) * len(schemes)} point(s) x "
            f"{requests} per point",
            flush=True,
        )
    spans = SpanTracer() if args.trace_out else None
    sweep = run_capacity_sweep(
        trace, capacities, schemes=schemes, base_config=_config_from_args(args),
        jobs=jobs, memo=memo,
        events_dir=args.events, snapshot_interval=args.snapshot_interval,
        progress=_print_progress if args.progress else None,
        track_memory=args.track_memory, spans=spans,
    )
    if args.json:
        payload = [
            {
                "scheme": p.scheme,
                "capacity_label": p.capacity_label,
                "capacity_bytes": p.capacity_bytes,
                "result": p.result.to_dict(),
            }
            for p in sweep.points
        ]
        # Sorted like ``to_json``: a memo hit revives its result from that
        # text, so a fresh run must print the same key order.
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_points(
            sweep, ("scheme", "aggregate", "hit", "byte_hit", "latency_ms"),
            f"Capacity sweep: {args.caches} caches, {args.architecture}, jobs={jobs}",
        )
    if memo is not None:
        print(f"memo: {memo.hits} hit(s), {memo.misses} miss(es) in {memo.root}")
    if (args.progress or args.track_memory) and sweep.telemetry is not None:
        print(sweep.telemetry.summary())
    if args.events:
        print(f"events: {args.events}")
    if args.trace_out:
        spans.write(args.trace_out)
        print(f"trace: {args.trace_out} (render with 'repro obs timeline')")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one replay: regime counts, the span timeline, hot functions.

    Where the wall time went by layer comes from the span tracer (the
    batch kernel's ``columns`` / ``cold`` / ``warm`` / ``post`` segments)
    and the request counts per regime from the engine's ``regimes``
    tally; cProfile only ranks functions.
    """
    import cProfile
    import io
    import pstats
    import time

    trace = _load_or_generate(args)
    regimes: dict = {}
    spans = SpanTracer()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = run_simulation(_config_from_args(args), trace, regimes=regimes, spans=spans)
    profiler.disable()
    elapsed = time.perf_counter() - start
    requests = result.metrics.requests
    throughput = requests / elapsed if elapsed > 0 else float("inf")
    print(
        f"{requests} requests in {elapsed:.3f}s "
        f"({throughput:,.0f} req/s, profiler overhead included)"
    )
    if args.engine == "batch" and "fallback_reason" in regimes:
        print(f"batch vector regimes off: {regimes['fallback_reason']}")
    elif args.engine == "batch":
        counts = [
            ("cold", regimes.get("cold", 0)),
            ("resident runs", regimes.get("hit_run", 0)),
            ("scalar", regimes.get("scalar", 0)),
        ]
        total = sum(c for _, c in counts) or 1
        print(
            "batch regime breakdown (requests): "
            + ", ".join(f"{k} {c:,} ({100.0 * c / total:.1f}%)" for k, c in counts)
        )
    print(render_timeline(spans.to_chrome()))
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue().rstrip())
    return 0


def _load_or_generate(args: argparse.Namespace):
    if args.trace:
        if args.trace_format == "packed" or args.trace.endswith(".rpct"):
            from repro.trace.columnar_io import PackedTraceReader

            return PackedTraceReader(args.trace)
        return read_trace(args.trace, fmt=args.trace_format)
    return workload_trace(args.scale, args.seed)


def _report_findings(args: argparse.Namespace, tool: str, head: str,
                     findings, suppressed: int = 0, extra=None) -> int:
    """Print ``findings``, plain or as JSON; 1 if there are any.

    The plain summary reads ``<head>: <N finding(s)> (<M> noqa-suppressed)``;
    the JSON envelope carries ``extra``'s keys.
    """
    from repro.devtools.report import findings_payload

    if args.json:
        print(json.dumps(findings_payload(tool, findings, extra=extra), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        count = f"{len(findings)} finding(s)" if findings else "clean"
        absorbed = f" ({suppressed} noqa-suppressed)" if suppressed else ""
        print(f"{head}: {count}{absorbed}")
    return 1 if findings else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.devtools.analysis import ANALYZERS, analyze_project

    targets = list(args.target or [])
    known = {"all", "trace", *ANALYZERS}
    unknown = [t for t in targets if t not in known]
    error = None
    if unknown:
        error = (f"unknown analyze target(s): {', '.join(unknown)} "
                 f"(choose from {', '.join(sorted(known))})")
    elif "trace" in targets and targets != ["trace"]:
        error = "'trace' cannot be combined with static analyzers"
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if targets == ["trace"]:
        return _cmd_analyze_trace(args)
    selected = None if (not targets or "all" in targets) else targets
    report = analyze_project(Path(args.root), selected)
    return _report_findings(
        args, "analyze", f"repro analyze [{', '.join(report.analyzers)}]",
        report.findings, report.suppressed,
        extra={"analyzers": list(report.analyzers), "suppressed": report.suppressed},
    )


def _cmd_analyze_trace(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.trace.stats import compute_stats, fit_zipf_alpha

    trace = _load_or_generate(args)
    stats = compute_stats(trace)
    print(
        render_table(
            ["metric", "value"],
            [
                ["requests", stats.num_requests],
                ["unique documents", stats.num_unique_urls],
                ["clients", stats.num_clients],
                ["total MB requested", round(stats.total_bytes / (1 << 20), 1)],
                ["unique-content MB", round(stats.unique_bytes / (1 << 20), 1)],
                ["mean size (B)", round(stats.mean_size)],
                ["one-timer fraction", round(stats.one_timer_fraction, 4)],
                ["max hit rate (infinite cache)", round(stats.max_hit_rate, 4)],
                ["max byte hit rate", round(stats.max_byte_hit_rate, 4)],
                ["duration (h)", round(stats.duration / 3600.0, 2)],
                ["fitted Zipf alpha", round(fit_zipf_alpha(trace), 3)],
            ],
            title="Trace characterisation",
        )
    )
    return 0


#: Column -> cell of one sweep point, for the sweep and compare tables.
_POINT_COLUMNS = {
    "scheme": lambda p: p.scheme,
    "aggregate": lambda p: p.capacity_label,
    "hit": lambda p: round(p.result.metrics.hit_rate, 4),
    "byte_hit": lambda p: round(p.result.metrics.byte_hit_rate, 4),
    "local": lambda p: round(p.result.metrics.local_hit_rate, 4),
    "remote": lambda p: round(p.result.metrics.remote_hit_rate, 4),
    "latency_ms": lambda p: round(p.result.estimated_latency * 1000.0, 1),
    "replication": lambda p: round(p.result.replication_factor, 3),
}


def _print_points(sweep, columns: Tuple[str, ...], title: str) -> None:
    """One table row per sweep point, in ``columns``."""
    from repro.analysis.tables import render_table

    rows = [[_POINT_COLUMNS[c](p) for c in columns] for p in sweep.points]
    print(render_table(list(columns), rows, title=title))


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import run_capacity_sweep

    sweep = run_capacity_sweep(
        _load_or_generate(args), [args.capacity], base_config=_config_from_args(args)
    )
    _print_points(
        sweep,
        ("scheme", "hit", "byte_hit", "local", "remote", "latency_ms", "replication"),
        f"Ad-hoc vs EA: {args.caches} caches, {args.capacity[0]} aggregate, "
        f"{args.policy.upper()} replacement",
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    try:
        return _run_obs(args)
    except OSError as exc:
        # A missing or unreadable input is a user-facing condition like a
        # malformed one (ObsError): one line, exit 2.
        raise ReproError(str(exc)) from exc


def _validate_obs_files(paths: List[str]) -> int:
    """``repro obs validate``: one verdict per file; 1 if any is invalid.

    A file's kind is the first whose marker appears in its leading 4 KB:
    Chrome Trace Event Format JSON (a ``--trace-out`` payload), a
    ``repro-manifest/1`` run manifest, a ``repro-timeseries/1`` stream,
    else a ``repro-events/1`` stream. Each kind names the noun of its
    verdict and a check returning ``(errors, detail)``; a check that
    raises ObsError prints the exception as the verdict.
    """
    from repro.obs.registry import ObsError
    from repro.obs.schema import strict_loads, validate_events_file, validate_manifest
    from repro.obs.timeseries import read_timeseries

    def spans(path):
        events = load_trace_events(path)["traceEvents"]
        return [], f"{sum(1 for e in events if e.get('ph') == 'X')} span(s), nested"

    def samples(path):
        return [], f"{len(read_timeseries(path)['samples'])} sample(s)"

    def manifest(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return validate_manifest(strict_loads(handle.read())), None
        except ValueError as exc:
            return [f"invalid JSON ({exc})"], None

    def events(path):
        errors, counts = validate_events_file(path)
        return errors, f"{sum(counts.values())} event(s)"

    kinds = (
        ('"traceEvents"', "span trace", spans),
        ('"repro-manifest/1"', "manifest", manifest),
        ('"repro-timeseries/1"', "timeseries", samples),
        ("", "", events),
    )
    failed = False
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.read(4096)
        noun, check = next((n, c) for marker, n, c in kinds if marker in head)
        try:
            errors, detail = check(path)
        except ObsError as exc:
            failed = True
            print(f"{path}: INVALID ({exc})")
            continue
        if not errors:
            print(f"{path}: " + f"valid {noun}".strip()
                  + (f" ({detail})" if detail else ""))
            continue
        failed = True
        for error in errors[:20]:
            print(f"{path}: {error}")
        if len(errors) > 20:
            print(f"{path}: ... {len(errors) - 20} more error(s)")
        print(f"{path}: INVALID ({len(errors)} error(s)"
              + (f", {detail})" if detail else ")"))
    return 1 if failed else 0


def _run_obs(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.obs.timeseries import read_timeseries, render_report
    from repro.obs.tools import diff_events, summarize_events, tail_events

    if args.action == "validate":
        return _validate_obs_files(args.paths)

    if args.action == "diff":
        if len(args.paths) != 2:
            print("error: obs diff takes exactly two event files", file=sys.stderr)
            return 2
        divergence = diff_events(args.paths[0], args.paths[1])
        if divergence is None:
            print("streams identical")
            return 0
        number, left, right = divergence
        print(f"streams diverge at line {number}:")
        print(f"  {args.paths[0]}: {left if left is not None else '<ended>'}")
        print(f"  {args.paths[1]}: {right if right is not None else '<ended>'}")
        return 1

    for path in args.paths:
        if args.action == "timeline":
            print(render_timeline(load_trace_events(path)))
            continue
        if args.action == "report":
            print(render_report(read_timeseries(path)))
            continue
        if args.action == "tail":
            if len(args.paths) > 1:
                print(f"==> {path} <==")
            for line in tail_events(path, args.count):
                print(line)
            continue
        summary = summarize_events(path)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            continue
        span = summary["time_span"]
        rows = [["events", sum(summary["events"].values())]]
        rows += [[f"  {kind}", count] for kind, count in sorted(summary["events"].items())]
        rows += [
            [f"requests: {kind}", count]
            for kind, count in summary["requests_by_kind"].items()
        ]
        rows.append(["requests stored at requester", summary["requests_stored"]])
        for role, bucket in summary["placements_by_role"].items():
            rows.append(
                [f"placements ({role})", f"{bucket['stored']}/{bucket['attempted']} stored"]
            )
        rows.append(["promotions granted", summary["promotions"]["granted"]])
        rows.append(["promotions withheld", summary["promotions"]["withheld"]])
        rows.append(["age ties (cmp=eq)", summary["age_ties"]])
        rows.append(["evicted bytes", summary["evicted_bytes"]])
        rows.append(
            ["time span", "-" if span is None else f"{span[0]:.0f}..{span[1]:.0f}"]
        )
        for name, dist in summary["distributions"].items():
            rows.append(
                [
                    f"{name} p50/p95/p99",
                    f"{dist['p50']:.0f} / {dist['p95']:.0f} / {dist['p99']:.0f}",
                ]
            )
        print(render_table(["metric", "value"], rows, title=f"Event stream: {path}"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import all_rules, lint_paths

    if args.list_rules:
        for rule in all_rules():
            scope = "all files" if rule.packages is None else (
                "repro." + ", repro.".join(p or "<root>" for p in rule.packages)
            )
            print(f"{rule.code}  {rule.summary}  [{scope}]")
        return 0
    select = (
        [code.strip() for code in args.select.split(",") if code.strip()]
        if args.select
        else None
    )
    try:
        findings = lint_paths(args.paths, select=select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _report_findings(args, "lint", "repro lint", findings)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate-trace": _cmd_generate_trace,
        "pack-trace": _cmd_pack_trace,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "profile": _cmd_profile,
        "analyze": _cmd_analyze,
        "compare": _cmd_compare,
        "lint": _cmd_lint,
        "obs": _cmd_obs,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
