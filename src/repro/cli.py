"""Command-line interface.

The subcommands cover the library's workflows::

    repro generate-trace --scale default --out trace.bu
    repro simulate --scheme ea --caches 4 --capacity 10MB --trace trace.bu
    repro simulate --sanitize          # same, with runtime invariant checks
    repro simulate --engine columnar   # columnar fast path (byte-identical)
    repro simulate --events run.jsonl --snapshot-interval 600
    repro experiment fig1 --scale tiny
    repro experiment fig1 --jobs 4 --memo .repro-memo
    repro sweep --scale tiny --jobs 4  # raw {scheme} x {capacity} grid
    repro sweep --jobs 4 --progress --events events/
    repro obs summarize run.jsonl      # roll up a repro-events/1 stream
    repro obs diff a.jsonl b.jsonl     # first divergence between streams
    repro profile --scale tiny         # cProfile the request hot path
    repro lint src tests               # repro-specific per-file lint rules
    repro analyze                      # whole-program engine-parity /
                                       # determinism / config-flow analysis
    repro analyze trace --scale tiny   # characterise a workload trace

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
import os
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments import EXPERIMENTS
from repro.experiments.workload import WORKLOAD_SCALES, workload_config, workload_trace
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EA-scheme cooperative web caching simulator (ICDCS 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-trace", help="write a synthetic BU-like trace")
    gen.add_argument("--scale", choices=WORKLOAD_SCALES, default="default")
    gen.add_argument("--seed", type=int, default=42)
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
    pack.add_argument("--trace", help="input trace file; synthetic stream if omitted")
    pack.add_argument("--trace-format", default="bu", choices=("bu", "squid", "clf"))
    pack.add_argument("--scale", choices=WORKLOAD_SCALES, default="default",
                      help="synthetic workload scale when --trace is omitted")
    pack.add_argument("--seed", type=int, default=42)
    pack.add_argument("--requests", type=int, metavar="N",
                      help="override the synthetic request count (generation "
                      "is streamed, so N is not bounded by memory)")
    pack.add_argument("--out", required=True, help="output path (.rpct)")
    pack.add_argument("--chunk-size", type=int, metavar="N",
                      help="records per stored chunk (default 262144); shapes "
                      "reader memory only, never results")

    sim = sub.add_parser("simulate", help="run one simulation and print the result")
    sim.add_argument("--scheme", choices=("adhoc", "ea"), default="ea")
    sim.add_argument("--caches", type=int, default=4)
    sim.add_argument("--capacity", default="10MB", help="aggregate size, e.g. 100KB / 10MB")
    sim.add_argument("--policy", default="lru")
    sim.add_argument("--architecture", choices=ARCHITECTURES, default="distributed")
    sim.add_argument("--partitioner", choices=PARTITIONERS, default="hash")
    sim.add_argument("--trace", help="trace file (BU format); synthetic if omitted")
    sim.add_argument("--trace-format", default="bu",
                     choices=("bu", "squid", "clf", "packed"),
                     help="input format; 'packed' (auto-detected from a "
                     ".rpct suffix) streams the file with O(chunk) memory "
                     "and needs a chunked --engine")
    sim.add_argument("--chunk-size", type=int, metavar="N",
                     help="interned-chunk granularity for the chunked "
                     "engines; results are chunking-invariant, so this "
                     "shapes memory only")
    sim.add_argument("--scale", choices=WORKLOAD_SCALES, default="default",
                     help="synthetic workload scale when --trace is omitted")
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--engine", choices=ENGINES, default="object",
                     help="execution engine; 'columnar' is a byte-identical "
                     "fast path (falls back with a logged reason if the "
                     "config needs an object-engine feature)")
    sim.add_argument("--json", action="store_true", help="emit the full result as JSON")
    sim.add_argument(
        "--sanitize",
        action="store_true",
        help="check runtime invariants (byte accounting, recency order, EA "
        "one-fresh-lease, event order) after every operation; exit 3 on any "
        "violation",
    )
    sim.add_argument("--events", metavar="FILE",
                     help="write a repro-events/1 JSONL stream of the run; a "
                     "run manifest lands next to it as FILE.manifest.json")
    sim.add_argument("--snapshot-interval", type=float, default=0.0,
                     metavar="SECONDS",
                     help="simulation-seconds between per-cache snapshot "
                     "events in the stream (0 = no snapshots)")
    sim.add_argument("--trace-out", metavar="FILE",
                     help="write a Chrome Trace Event Format span timeline "
                     "of the run (repro-trace-events/1) — load it in "
                     "Perfetto or render with 'repro obs timeline'")
    sim.add_argument("--timeseries", metavar="FILE",
                     help="write a repro-timeseries/1 stream of per-chunk "
                     "samples (req/s, hit ratios, EA placements, regime "
                     "occupancy); render with 'repro obs report'")
    sim.add_argument("--track-memory", action="store_true",
                     help="record the run's tracemalloc high-water mark "
                     "(peak_memory_bytes in the manifest, mem_hwm in "
                     "--timeseries samples)")

    exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    exp.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    exp.add_argument("--scale", choices=WORKLOAD_SCALES, default="default")
    exp.add_argument("--seed", type=int, default=42)
    exp.add_argument("--json", action="store_true", help="emit the report as JSON")
    exp.add_argument("--save-json", metavar="DIR",
                     help="also persist the report(s) into an ExperimentStore directory")
    exp.add_argument("--jobs", type=int, metavar="N",
                     help="fan sweep points over N worker processes "
                     "(default: serial; 0 = one per CPU)")
    exp.add_argument("--memo", metavar="DIR",
                     help="content-addressed result cache; sweep points already "
                     "simulated for this config+trace are reused")
    exp.add_argument("--engine", choices=ENGINES,
                     help="execution engine for sweep-backed drivers "
                     "(default: object); results are byte-identical")
    exp.add_argument("--events", metavar="DIR",
                     help="write repro-events/1 streams for every freshly "
                     "simulated sweep point under DIR/<experiment>/")
    exp.add_argument("--snapshot-interval", type=float, default=0.0,
                     metavar="SECONDS",
                     help="simulation-seconds between snapshot events in "
                     "those streams (0 = no snapshots)")
    exp.add_argument("--progress", action="store_true",
                     help="print one line per completed sweep point")

    swp = sub.add_parser(
        "sweep", help="run a raw {scheme} x {capacity} sweep, optionally in parallel"
    )
    swp.add_argument("--scale", choices=WORKLOAD_SCALES, default="default")
    swp.add_argument("--seed", type=int, default=42)
    swp.add_argument("--trace", help="trace file; synthetic if omitted")
    swp.add_argument("--trace-format", default="bu",
                     choices=("bu", "squid", "clf", "packed"),
                     help="input format; 'packed' (auto-detected from a "
                     ".rpct suffix) streams the file with O(chunk) memory "
                     "and needs a chunked --engine")
    swp.add_argument("--caches", type=int, default=4)
    swp.add_argument("--policy", default="lru")
    swp.add_argument("--architecture", choices=ARCHITECTURES, default="distributed")
    swp.add_argument("--schemes", default="adhoc,ea",
                     help="comma-separated placement schemes (default: adhoc,ea)")
    swp.add_argument("--capacity", action="append", metavar="SIZE", dest="capacities",
                     help="aggregate capacity, e.g. 10MB; repeatable "
                     "(default: the paper grid for --scale)")
    swp.add_argument("--jobs", type=int, metavar="N",
                     help="worker processes (default: one per CPU; 1 = serial)")
    swp.add_argument("--memo", metavar="DIR",
                     help="content-addressed result cache directory")
    swp.add_argument("--engine", choices=ENGINES, default="object",
                     help="execution engine for every sweep point; results "
                     "are byte-identical either way")
    swp.add_argument("--json", action="store_true", help="emit all points as JSON")
    swp.add_argument("--events", metavar="DIR",
                     help="write repro-events/1 streams for every freshly "
                     "simulated point into DIR")
    swp.add_argument("--snapshot-interval", type=float, default=0.0,
                     metavar="SECONDS",
                     help="simulation-seconds between snapshot events in "
                     "those streams (0 = no snapshots)")
    swp.add_argument("--progress", action="store_true",
                     help="print one line per completed point plus a "
                     "per-worker telemetry summary")
    swp.add_argument("--trace-out", metavar="FILE",
                     help="span-trace every freshly simulated point and "
                     "write the merged Chrome Trace Event Format timeline "
                     "(one lane per point; Perfetto-loadable)")
    swp.add_argument("--track-memory", action="store_true",
                     help="record each worker's tracemalloc high-water "
                     "mark per point (reported in the telemetry summary)")

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
    obs.add_argument("-n", "--count", type=int, default=10, metavar="N",
                     help="[tail] number of trailing events to print")
    obs.add_argument("--json", action="store_true",
                     help="[summarize] emit the roll-up as JSON")

    prof = sub.add_parser(
        "profile", help="cProfile one simulation and print the hottest functions"
    )
    prof.add_argument("--scheme", choices=("adhoc", "ea"), default="ea")
    prof.add_argument("--caches", type=int, default=4)
    prof.add_argument("--capacity", default="10MB")
    prof.add_argument("--policy", default="lru")
    prof.add_argument("--architecture", choices=ARCHITECTURES, default="distributed")
    prof.add_argument("--partitioner", choices=PARTITIONERS, default="hash")
    prof.add_argument("--trace", help="trace file; synthetic if omitted")
    prof.add_argument("--trace-format", default="bu",
                      choices=("bu", "squid", "clf", "packed"))
    prof.add_argument("--scale", choices=WORKLOAD_SCALES, default="default")
    prof.add_argument("--seed", type=int, default=42)
    prof.add_argument("--engine", choices=ENGINES, default="object",
                     help="execution engine to profile")
    prof.add_argument("--sort", choices=("cumulative", "tottime"), default="cumulative",
                      help="stat ordering for the report")
    prof.add_argument("--top", type=int, default=25, metavar="N",
                      help="number of functions to print")

    ana = sub.add_parser(
        "analyze",
        help="whole-program static analysis (or trace characterisation)",
        description=(
            "Run the whole-program analyzers over the source tree: 'parity' "
            "(engine drift vs the fallback matrix, RPR101-103), 'determinism' "
            "(simulation-reachable nondeterminism, RPR111-115), 'configflow' "
            "(dead/one-sided config fields and memo-key coverage, RPR121-123), "
            "'effects' (effect-contract drift, RPR137), 'concurrency' "
            "(fork/IO/blocking safety, RPR131-136) — or 'trace' to "
            "characterise a workload trace instead."
        ),
    )
    ana.add_argument(
        "target",
        nargs="*",
        default=None,
        metavar="TARGET",
        help="analyzers to run, space-separated: all, parity, determinism, "
        "configflow, effects, concurrency, domains, or trace (default: all "
        "static analyzers); 'trace' must be the only target",
    )
    ana.add_argument("--root", default="src",
                     help="directory containing the repro package (default: src)")
    ana.add_argument("--json", action="store_true",
                     help="emit findings in the shared repro-findings/1 schema")
    ana.add_argument("--baseline", metavar="FILE",
                     default="analysis-baseline.json",
                     help="checked-in accepted-findings file "
                     "(default: analysis-baseline.json; missing file = empty)")
    ana.add_argument("--write-baseline", action="store_true",
                     help="rewrite the baseline file from the current findings "
                     "and exit 0; edit each entry's 'why' afterwards")
    ana.add_argument("--fail-on", choices=("note", "warn", "error"),
                     default="note", metavar="SEVERITY",
                     help="minimum finding severity that fails the run "
                     "(note/warn/error; default: note = any finding)")
    ana.add_argument("--effects-out", metavar="FILE",
                     help="also write the repro-effects/1 per-function "
                     "effect inventory to FILE")
    ana.add_argument("--domains-out", metavar="FILE",
                     help="also write the repro-domains/1 per-function "
                     "index-domain inventory to FILE")
    ana.add_argument("--trace", help="[trace] trace file; synthetic if omitted")
    ana.add_argument("--trace-format", default="bu", choices=("bu", "squid", "clf"),
                     help="[trace] input format")
    ana.add_argument("--scale", choices=WORKLOAD_SCALES, default="default",
                     help="[trace] synthetic workload scale")
    ana.add_argument("--seed", type=int, default=42, help="[trace] synthetic seed")

    cmp_parser = sub.add_parser(
        "compare", help="run ad-hoc and EA side by side at one capacity"
    )
    cmp_parser.add_argument("--caches", type=int, default=4)
    cmp_parser.add_argument("--capacity", default="1MB")
    cmp_parser.add_argument("--policy", default="lru")
    cmp_parser.add_argument("--scale", choices=WORKLOAD_SCALES, default="default")
    cmp_parser.add_argument("--seed", type=int, default=42)
    cmp_parser.add_argument("--trace", help="trace file; synthetic if omitted")
    cmp_parser.add_argument("--trace-format", default="bu", choices=("bu", "squid", "clf"))

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
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit findings in the shared repro-findings/1 schema",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="accepted-findings file (repro-analysis-baseline/1 schema); "
        "matching findings are absorbed, stale entries fail the run",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite --baseline from the current findings and exit 0; "
        "edit each entry's 'why' afterwards",
    )
    lint.add_argument(
        "--fail-on",
        choices=("note", "warn", "error"),
        default="note",
        metavar="SEVERITY",
        help="minimum finding severity that fails the run "
        "(note/warn/error; default: note = any finding)",
    )

    chk = sub.add_parser(
        "check",
        help="lint + every analyzer off one parse (the CI gate)",
        description=(
            "Build the ProjectModel once, lint its parsed modules, run all "
            "whole-program analyzers against the same model, and apply one "
            "noqa/baseline/severity filter to the merged findings."
        ),
    )
    chk.add_argument("--root", default="src",
                     help="directory containing the repro package (default: src)")
    chk.add_argument("paths", nargs="*", default=["tests"],
                     help="extra files/directories to lint from disk "
                     "(default: tests)")
    chk.add_argument("--json", action="store_true",
                     help="emit findings in the shared repro-findings/1 schema")
    chk.add_argument("--baseline", metavar="FILE",
                     default="analysis-baseline.json",
                     help="accepted-findings file applied to the merged "
                     "lint+analysis findings (default: analysis-baseline.json)")
    chk.add_argument("--fail-on", choices=("note", "warn", "error"),
                     default="note", metavar="SEVERITY",
                     help="minimum finding severity that fails the run "
                     "(note/warn/error; default: note = any finding)")
    return parser


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
    config = SimulationConfig(
        scheme=args.scheme,
        num_caches=args.caches,
        aggregate_capacity=parse_size(args.capacity),
        policy=args.policy,
        architecture=args.architecture,
        partitioner=args.partitioner,
        seed=args.seed,
        sanitize=args.sanitize,
        engine=args.engine,
    )
    observed = None
    spans = None
    if args.trace_out:
        from repro.obs.spans import SpanTracer

        spans = SpanTracer()
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
    jobs = None
    if args.jobs is not None:
        jobs = args.jobs if args.jobs > 0 else default_jobs()
    for name in names:
        driver = EXPERIMENTS[name]
        kwargs = {"scale": args.scale, "seed": args.seed}
        # Only the sweep-backed drivers take jobs/memo (and the obs knobs);
        # ablation and extension drivers run serially regardless.
        accepted = inspect.signature(driver).parameters
        if "jobs" in accepted and jobs is not None:
            kwargs["jobs"] = jobs
        if "memo" in accepted and memo is not None:
            kwargs["memo"] = memo
        if "engine" in accepted and args.engine is not None:
            kwargs["engine"] = args.engine
        if "events_dir" in accepted and args.events:
            # Per-driver subdirectory: 'experiment all' shares one --events
            # root without the drivers' point files colliding.
            kwargs["events_dir"] = os.path.join(args.events, name)
        if "snapshot_interval" in accepted and args.snapshot_interval > 0.0:
            kwargs["snapshot_interval"] = args.snapshot_interval
        if "progress" in accepted and args.progress:
            kwargs["progress"] = _print_progress
        report = driver(**kwargs)
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
    from repro.analysis.tables import render_table
    from repro.experiments.sweep import run_capacity_sweep
    from repro.experiments.workload import capacities_for
    from repro.parallel import SweepMemoStore, default_jobs

    trace = _load_or_generate(args)
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    if args.capacities:
        capacities = [(text, parse_size(text)) for text in args.capacities]
    else:
        capacities = capacities_for(args.scale)
    base_config = SimulationConfig(
        num_caches=args.caches,
        policy=args.policy,
        architecture=args.architecture,
        seed=args.seed,
    )
    jobs = args.jobs if args.jobs is not None else default_jobs()
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
    spans = None
    if args.trace_out:
        from repro.obs.spans import SpanTracer

        spans = SpanTracer()
    sweep = run_capacity_sweep(
        trace, capacities, schemes=schemes, base_config=base_config,
        jobs=jobs, memo=memo, engine=args.engine,
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
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            [
                p.scheme,
                p.capacity_label,
                round(p.result.metrics.hit_rate, 4),
                round(p.result.metrics.byte_hit_rate, 4),
                round(p.result.estimated_latency * 1000.0, 1),
            ]
            for p in sweep.points
        ]
        print(
            render_table(
                ["scheme", "aggregate", "hit", "byte_hit", "latency_ms"],
                rows,
                title=(
                    f"Capacity sweep: {args.caches} caches, "
                    f"{args.architecture}, jobs={jobs}"
                ),
            )
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
    import cProfile
    import io
    import pstats
    import time

    trace = _load_or_generate(args)
    config = SimulationConfig(
        scheme=args.scheme,
        num_caches=args.caches,
        aggregate_capacity=parse_size(args.capacity),
        policy=args.policy,
        architecture=args.architecture,
        partitioner=args.partitioner,
        seed=args.seed,
        engine=args.engine,
    )
    regimes: dict = {}
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = run_simulation(
        config, trace, regimes=regimes if args.engine == "batch" else None
    )
    profiler.disable()
    elapsed = time.perf_counter() - start
    requests = result.metrics.requests
    throughput = requests / elapsed if elapsed > 0 else float("inf")
    print(
        f"{requests} requests in {elapsed:.3f}s "
        f"({throughput:,.0f} req/s, profiler overhead included)"
    )
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.engine == "batch":
        _print_batch_regimes(regimes, stats, elapsed)
    print(stream.getvalue().rstrip())
    return 0


def _print_batch_regimes(regimes: dict, stats, elapsed: float) -> None:
    """Report how the batch engine's three regimes split the run.

    Request counts come from the engine (it tallies, never clocks — see
    ``docs/ANALYSIS.md`` on determinism); wall-time shares come from the
    profiler's attribution to the engine's named frames: ``miss_path``
    cumulative time is the scalar protocol path, the rest of
    ``warm_loop`` is its resident runs (one LRU touch each), and
    everything else (vectorised cold replay, precompute, post-pass) is
    the remainder. A share whose frame is missing from the stats although
    its regime handled requests prints ``n/a``, never a measured-looking 0.
    """
    if "fallback_reason" in regimes:
        # The kernel ran every request through warm_loop / miss_path, so
        # there is no regime split to report.
        print(f"batch vector regimes off: {regimes['fallback_reason']}")
        return
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
    frames = {
        func: entry[3]
        for (fname, _line, func), entry in stats.stats.items()
        if fname == "batch.py" and func in ("warm_loop", "miss_path")
    }
    # A regime that handled requests ran its frame: if the profiler has no
    # such frame (renamed, inlined), its time is unknown, not zero.
    ran = {
        "warm_loop": regimes.get("hit_run", 0) + regimes.get("scalar", 0) > 0,
        "miss_path": regimes.get("scalar", 0) > 0,
    }
    wall = elapsed or 1.0

    def share(label: str, seconds: float, *read_from: str) -> str:
        for name in read_from:
            if ran[name] and name not in frames:
                return f"{label} n/a (frame {name} not found)"
        return f"{label} {seconds:.3f}s ({100.0 * seconds / wall:.1f}%)"

    warm_c = frames.get("warm_loop", 0.0)
    scalar_c = frames.get("miss_path", 0.0)
    print(
        "batch wall-time share: "
        + ", ".join((
            share("resident runs", max(warm_c - scalar_c, 0.0), "warm_loop", "miss_path"),
            share("scalar path", scalar_c, "miss_path"),
            share("cold+precompute+post-pass", max(elapsed - warm_c, 0.0), "warm_loop"),
        ))
    )


def _load_or_generate(args: argparse.Namespace):
    if args.trace:
        if args.trace_format == "packed" or args.trace.endswith(".rpct"):
            from repro.trace.columnar_io import PackedTraceReader

            return PackedTraceReader(args.trace)
        return read_trace(args.trace, fmt=args.trace_format)
    return workload_trace(args.scale, args.seed)


def _cmd_analyze(args: argparse.Namespace) -> int:
    targets = list(args.target or [])
    known = {"all", "parity", "determinism", "configflow",
             "effects", "concurrency", "domains", "trace"}
    unknown = [t for t in targets if t not in known]
    if unknown:
        print(
            f"error: unknown analyze target(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return 2
    if "trace" in targets:
        if targets != ["trace"]:
            print(
                "error: 'trace' cannot be combined with static analyzers",
                file=sys.stderr,
            )
            return 2
        return _cmd_analyze_trace(args)
    from pathlib import Path

    from repro.devtools.analysis import (
        domain_analysis,
        effect_analysis,
        filter_findings,
        run_analyzers,
        select_analyzers,
        write_baseline,
    )
    from repro.devtools.analysis.model import ProjectModel
    from repro.devtools.catalog import fails
    from repro.devtools.report import findings_payload

    selected_names = None if (not targets or "all" in targets) else targets
    selected = select_analyzers(selected_names)
    baseline_path = Path(args.baseline)
    model = ProjectModel.load(Path(args.root))
    raw = run_analyzers(model, selected)
    if args.effects_out:
        effects_path = Path(args.effects_out)
        effects_path.write_text(
            json.dumps(effect_analysis(model).report(), indent=2,
                       sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"repro analyze: wrote effect inventory to {effects_path}")
    if args.domains_out:
        domains_path = Path(args.domains_out)
        domains_path.write_text(
            json.dumps(domain_analysis(model).report(), indent=2,
                       sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"repro analyze: wrote domain inventory to {domains_path}")
    if args.write_baseline:
        report = filter_findings(model, raw, selected, baseline_path=None)
        entries = write_baseline(
            baseline_path, report.findings, why="accepted; edit this entry"
        )
        print(f"repro analyze: wrote {len(entries)} entrie(s) to {baseline_path}")
        return 0
    report = filter_findings(model, raw, selected, baseline_path=baseline_path)
    failed = fails(report.findings, args.fail_on) or bool(report.stale_baseline)
    if args.json:
        payload = findings_payload(
            "analyze",
            report.findings,
            extra={
                "analyzers": list(report.analyzers),
                "fail_on": args.fail_on,
                "suppressed": report.suppressed,
                "baselined": len(report.baselined),
                "stale_baseline": [
                    {"rule": e.rule, "path": e.path, "message": e.message}
                    for e in report.stale_baseline
                ],
            },
        )
        print(json.dumps(payload, indent=2))
        return 1 if failed else 0
    for finding in report.findings:
        print(finding.render())
    for entry in report.stale_baseline:
        print(
            f"stale baseline entry: {entry.rule} {entry.path} — fixed or "
            f"reworded; remove it from {baseline_path}"
        )
    summary = (
        f"repro analyze [{', '.join(report.analyzers)}]: "
        f"{len(report.findings)} finding(s)"
    )
    absorbed = []
    if report.suppressed:
        absorbed.append(f"{report.suppressed} noqa-suppressed")
    if report.baselined:
        absorbed.append(f"{len(report.baselined)} baselined")
    if absorbed:
        summary += f" ({', '.join(absorbed)})"
    if report.clean:
        print(summary.replace("0 finding(s)", "clean"))
    else:
        print(summary)
    return 1 if failed else 0


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


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table

    trace = _load_or_generate(args)
    capacity = parse_size(args.capacity)
    rows = []
    for scheme in ("adhoc", "ea"):
        config = SimulationConfig(
            scheme=scheme,
            num_caches=args.caches,
            aggregate_capacity=capacity,
            policy=args.policy,
            seed=args.seed,
        )
        result = run_simulation(config, trace)
        rows.append(
            [
                scheme,
                round(result.metrics.hit_rate, 4),
                round(result.metrics.byte_hit_rate, 4),
                round(result.metrics.local_hit_rate, 4),
                round(result.metrics.remote_hit_rate, 4),
                round(result.estimated_latency * 1000.0, 1),
                round(result.replication_factor, 3),
            ]
        )
    print(
        render_table(
            ["scheme", "hit", "byte_hit", "local", "remote", "latency_ms", "replication"],
            rows,
            title=(
                f"Ad-hoc vs EA: {args.caches} caches, {args.capacity} aggregate, "
                f"{args.policy.upper()} replacement"
            ),
        )
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.registry import ObsError

    try:
        return _run_obs(args)
    except (ObsError, OSError) as exc:
        # Malformed inputs (missing, empty, truncated, corrupted files)
        # are a user-facing condition, not a crash: one line, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _sniff_obs_file(path: str) -> str:
    """Classify an observability file by its leading bytes.

    ``"trace"`` for Chrome Trace Event Format JSON (a ``--trace-out``
    payload), ``"timeseries"`` for a ``repro-timeseries/1`` stream,
    ``"manifest"`` for a ``repro-manifest/1`` run manifest, ``"events"``
    otherwise (the ``repro-events/1`` default).
    """
    with open(path, "r", encoding="utf-8") as handle:
        head = handle.read(4096)
    if '"traceEvents"' in head:
        return "trace"
    if '"repro-manifest/1"' in head:
        return "manifest"
    if '"repro-timeseries/1"' in head:
        return "timeseries"
    return "events"


def _run_obs(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.obs.schema import validate_events_file
    from repro.obs.tools import diff_events, summarize_events, tail_events

    if args.action == "timeline":
        from repro.obs.spans import load_trace_events, render_timeline

        for path in args.paths:
            print(render_timeline(load_trace_events(path)))
        return 0

    if args.action == "report":
        from repro.obs.timeseries import read_timeseries, render_report

        for path in args.paths:
            print(render_report(read_timeseries(path)))
        return 0

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

    if args.action == "tail":
        for path in args.paths:
            if len(args.paths) > 1:
                print(f"==> {path} <==")
            for line in tail_events(path, args.count):
                print(line)
        return 0

    if args.action == "validate":
        from repro.obs.registry import ObsError
        from repro.obs.spans import load_trace_events
        from repro.obs.timeseries import read_timeseries

        failed = False
        for path in args.paths:
            kind = _sniff_obs_file(path)
            if kind == "trace":
                try:
                    payload = load_trace_events(path)
                except ObsError as exc:
                    failed = True
                    print(f"{path}: INVALID ({exc})")
                else:
                    spans = sum(
                        1 for e in payload["traceEvents"] if e.get("ph") == "X"
                    )
                    print(f"{path}: valid span trace ({spans} span(s), nested)")
                continue
            if kind == "timeseries":
                try:
                    data = read_timeseries(path)
                except ObsError as exc:
                    failed = True
                    print(f"{path}: INVALID ({exc})")
                else:
                    print(
                        f"{path}: valid timeseries "
                        f"({len(data['samples'])} sample(s))"
                    )
                continue
            if kind == "manifest":
                from repro.obs.schema import validate_manifest

                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        errors = validate_manifest(json.load(handle))
                except ValueError as exc:
                    errors = [f"invalid JSON ({exc})"]
                for error in errors:
                    print(f"{path}: {error}")
                if errors:
                    failed = True
                    print(f"{path}: INVALID ({len(errors)} error(s))")
                else:
                    print(f"{path}: valid manifest")
                continue
            errors, counts = validate_events_file(path)
            total = sum(counts.values())
            if errors:
                failed = True
                for error in errors[:20]:
                    print(f"{path}: {error}")
                if len(errors) > 20:
                    print(f"{path}: ... {len(errors) - 20} more error(s)")
                print(f"{path}: INVALID ({len(errors)} error(s), {total} event(s))")
            else:
                print(f"{path}: valid ({total} event(s))")
        return 1 if failed else 0

    for path in args.paths:
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
    from pathlib import Path

    from repro.devtools.analysis.baseline import (
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.devtools.catalog import fails
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
    if args.write_baseline:
        if not args.baseline:
            print("error: --write-baseline requires --baseline FILE",
                  file=sys.stderr)
            return 2
        entries = write_baseline(
            Path(args.baseline), findings, why="accepted; edit this entry"
        )
        print(f"repro lint: wrote {len(entries)} entrie(s) to {args.baseline}")
        return 0
    baselined: List = []
    stale: List = []
    if args.baseline:
        baseline_path = Path(args.baseline)
        entries = load_baseline(baseline_path) if baseline_path.exists() else []
        findings, baselined, stale = apply_baseline(findings, entries)
    failed = fails(findings, args.fail_on) or bool(stale)
    if args.json:
        from repro.devtools.report import findings_payload

        extra = {
            "fail_on": args.fail_on,
            "baselined": len(baselined),
            "stale_baseline": [
                {"rule": e.rule, "path": e.path, "message": e.message}
                for e in stale
            ],
        }
        print(json.dumps(findings_payload("lint", findings, extra=extra),
                         indent=2))
        return 1 if failed else 0
    for finding in findings:
        print(finding.render())
    for entry in stale:
        print(
            f"stale baseline entry: {entry.rule} {entry.path} — fixed or "
            f"reworded; remove it from {args.baseline}"
        )
    summary = f"repro lint: {len(findings)} finding(s)"
    if baselined:
        summary += f" ({len(baselined)} baselined)"
    if not findings and not stale:
        print(summary.replace("0 finding(s)", "clean"))
    else:
        print(summary)
    return 1 if failed else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.devtools.catalog import fails
    from repro.devtools.check import run_check
    from repro.devtools.report import findings_payload

    baseline_path = Path(args.baseline)
    report = run_check(
        Path(args.root),
        extra_paths=args.paths,
        baseline_path=baseline_path if baseline_path.exists() else None,
    )
    failed = fails(report.findings, args.fail_on) or bool(report.stale_baseline)
    if args.json:
        payload = findings_payload(
            "check",
            report.findings,
            extra={
                "analyzers": list(report.analyzers),
                "fail_on": args.fail_on,
                "suppressed": report.suppressed,
                "baselined": len(report.baselined),
                "linted_modules": report.linted_modules,
                "linted_files": report.linted_files,
                "stale_baseline": [
                    {"rule": e.rule, "path": e.path, "message": e.message}
                    for e in report.stale_baseline
                ],
            },
        )
        print(json.dumps(payload, indent=2))
        return 1 if failed else 0
    for finding in report.findings:
        print(finding.render())
    for entry in report.stale_baseline:
        print(
            f"stale baseline entry: {entry.rule} {entry.path} — fixed or "
            f"reworded; remove it from {baseline_path}"
        )
    summary = (
        f"repro check [{', '.join(report.analyzers)}]: "
        f"{len(report.findings)} finding(s) across "
        f"{report.linted_modules + report.linted_files} file(s)"
    )
    absorbed = []
    if report.suppressed:
        absorbed.append(f"{report.suppressed} noqa-suppressed")
    if report.baselined:
        absorbed.append(f"{len(report.baselined)} baselined")
    if absorbed:
        summary += f" ({', '.join(absorbed)})"
    if report.clean:
        print(summary.replace("0 finding(s)", "clean"))
    else:
        print(summary)
    return 1 if failed else 0


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
        "check": _cmd_check,
        "obs": _cmd_obs,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
