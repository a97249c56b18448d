"""Measurements of a whole set that belong to no gated workload.

* ``calibration`` — two fixed kernels that depend on the machine and not on
  the program's hot paths, taken at the start and the end of a set; a set
  whose two readings differ by more than ``CALIBRATION_TOLERANCE`` is marked
  noisy, and a step between two sets can be told from a step in the machine.
* ``engine_probes`` — the object engine (the oracle and the cost of tier-1)
  and the columnar engine against the batch engine on the same points.
* ``parallel_probes`` — fan-out over two workers and a memo-warm rerun of
  the ``paper_grid`` sweep. Two workers on two shared cores are too noisy to
  gate; the numbers answer whether fan-out plus memo makes the scalar path
  irrelevant.

Every probe checks that the results it timed agree with each other.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
import time
from dataclasses import replace
from typing import Any, Callable, Dict, Tuple

from repro.experiments.sweep import run_capacity_sweep
from repro.experiments.workload import PAPER_CAPACITIES, workload_config
from repro.parallel import ParallelSweepRunner, SweepMemoStore
from repro.protocol import icp
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.synthetic import generate_trace

from harness import ROOT, digests
from workloads import MB, SCHEMES, Scale, bu_trace, scaled_capacities

CALIBRATION_TOLERANCE = 0.10


def _median_seconds(call: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def calibration() -> Dict[str, float]:
    """The ICP encode/decode round trip (flat at ≈3.7 µs across BENCH_2..8)
    and a fixed-size numpy ``argsort`` + ``cumsum``."""
    import numpy

    message = icp.query(7, "http://bench.example.com/some/long/path/doc", icp.pack_cache_address(3))
    batch = 5_000

    def roundtrips() -> None:
        for _ in range(batch):
            icp.decode(icp.encode(message))

    values = numpy.random.default_rng(0).random(1 << 20)

    def kernel() -> None:
        numpy.cumsum(values[numpy.argsort(values)])

    return {
        "calibration.icp_roundtrip_us": _median_seconds(roundtrips, 15) / batch * 1e6,
        "calibration.numpy_kernel_ms": _median_seconds(kernel, 9) * 1e3,
    }


def noisy(start: Dict[str, float], end: Dict[str, float]) -> bool:
    return any(abs(end[key] / start[key] - 1.0) > CALIBRATION_TOLERANCE for key in start)


def environment() -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def _timed(config: SimulationConfig, trace: Any) -> Tuple[float, str]:
    start = time.perf_counter()
    result = run_simulation(config, trace)
    return time.perf_counter() - start, result.to_json()


def engine_probes(seed: int, scale: Scale) -> Tuple[Dict[str, float], int, int]:
    """(metrics, comparisons attempted, comparisons failed)."""
    metrics: Dict[str, float] = {}
    attempted = failed = 0

    def agree(*texts: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += len({digests([("point", text)])["point"] for text in texts}) != 1

    default = generate_trace(workload_config("default", seed))
    point = SimulationConfig(scheme="ea", aggregate_capacity=10 * MB)
    object_s, object_json = _timed(replace(point, engine="object"), default)
    _, batch_json = _timed(replace(point, engine="batch"), default)
    agree(object_json, batch_json)
    metrics["simulation.simulator.replay_s"] = object_s
    metrics["simulation.simulator.us_per_request"] = object_s / len(default) * 1e6

    trace = bu_trace(seed, scale.grid_fraction, None)
    for label, capacity in (("10MB", 10 * MB), ("488MB", 488 * MB)):
        point = SimulationConfig(
            scheme="ea", aggregate_capacity=int(capacity * scale.grid_fraction)
        )
        columnar_s, columnar_json = _timed(replace(point, engine="columnar"), trace)
        _timed(replace(point, engine="batch"), trace)  # pays the one-off precompute
        batch_s, batch_json = _timed(replace(point, engine="batch"), trace)
        agree(columnar_json, batch_json)
        metrics[f"fastpath.batch.speedup_vs_columnar.{label}"] = columnar_s / batch_s
        if label == "10MB":
            metrics["fastpath.engine.replay_s"] = columnar_s
            metrics["fastpath.engine.us_per_request"] = columnar_s / len(trace) * 1e6
    return metrics, attempted, failed


def parallel_probes(seed: int, scale: Scale, outdir: str) -> Tuple[Dict[str, float], int, int]:
    """(metrics, comparisons attempted, comparisons failed)."""
    trace = bu_trace(seed, scale.grid_fraction, None)
    capacities = scaled_capacities(PAPER_CAPACITIES, scale.grid_fraction)
    base = SimulationConfig(engine="batch")
    jobs = 2

    def texts(sweep: Any) -> Dict[str, str]:
        return digests([(f"{p.capacity_label}.{p.scheme}", p.result.to_json()) for p in sweep.points])

    run_capacity_sweep(trace, capacities, SCHEMES, base_config=base)  # warm-up
    start = time.perf_counter()
    serial = run_capacity_sweep(trace, capacities, SCHEMES, base_config=base)
    serial_s = time.perf_counter() - start

    memo_dir = os.path.join(outdir, "memo")
    shutil.rmtree(memo_dir, ignore_errors=True)
    try:
        runner = ParallelSweepRunner(jobs=jobs, memo=SweepMemoStore(memo_dir))
        start = time.perf_counter()
        fanned = runner.run(trace, capacities, schemes=SCHEMES, base_config=base)
        fanout_s = time.perf_counter() - start
        busy_s = runner.last_telemetry.total_wall_time_s

        # A new handle, so every point is read back from disk.
        runner = ParallelSweepRunner(jobs=jobs, memo=SweepMemoStore(memo_dir))
        start = time.perf_counter()
        warm = runner.run(trace, capacities, schemes=SCHEMES, base_config=base)
        warm_s = time.perf_counter() - start
        telemetry = runner.last_telemetry
        memo_bytes = sum(
            os.path.getsize(os.path.join(memo_dir, name)) for name in os.listdir(memo_dir)
        )
    finally:
        shutil.rmtree(memo_dir, ignore_errors=True)

    wanted = texts(serial)
    failed = (texts(fanned) != wanted) + (texts(warm) != wanted)
    metrics = {
        "parallel.runner.fanout_wall_s": fanout_s,
        "parallel.runner.worker_busy_s": busy_s,
        # Elapsed time that perfectly shared worker time does not explain:
        # pool start, pickling, imbalance, contention for the cores.
        "parallel.runner.overhead_s": fanout_s - busy_s / jobs,
        "parallel.runner.speedup": serial_s / fanout_s,
        "parallel.memo.warm_s": warm_s,
        "parallel.memo.hit_share": telemetry.memo_hits / telemetry.tasks,
        "parallel.memo.bytes": memo_bytes,
    }
    return metrics, 2, failed
