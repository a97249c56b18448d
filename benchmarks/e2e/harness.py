"""One run of one workload: set-up, warm-up, timed passes, check, metrics.

Run protocol (closed loop, one client: a pass starts when the previous one
returned; single process, ``jobs=None``, tracing off while timing):

1. build the inputs ``SETUP_REPS`` times from scratch -> ``setup_s`` (median);
   the traced run builds once, under the tracer;
2. one discarded warm-up pass (the first batch replay of an interned trace
   pays a one-off precompute of derived columns); ``gc.collect()`` runs,
   untimed, before every pass;
3. timed passes until ``seconds`` have elapsed, never fewer than
   ``MIN_PASSES``, the reference kernel (:mod:`reference`) before and after
   each -> ``wall_ref`` (median pass in reference units), ``wall_s`` (median),
   ``requests_per_s``, ``peak_rss_mb``;
4. with ``trace``: one more pass under the :class:`spans.Tracer` -> the
   per-layer ledger and ``out/*.trace.json``;
5. outside every timed region, each operation of each pass is compared with
   the reference (pinned digests, or the same job on ``engine="columnar"``).

Host time (what is optimised) comes from the clock; simulated statistics
(which must not move) only enter through the operation digests and the
exact counts of the ledger.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from reference import in_reference_units, reference_kernel
from ledger import ledger
from spans import Tracer, span
from workloads import SCALES, Operation, Scale, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Measured and printed by ``run`` and ``compare`` like the metrics of
#: BENCHMARK.json, but not gated there: their run-to-run spread on a shared
#: sandbox (10-17%) sits too close to the widest bound a metric may have.
UNGATED = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]
SETUP_REPS = 3
MIN_PASSES = 3

# ``to_json()`` echoes the config, engine name included; the reference runs
# another engine, so that one field is blanked before comparing.
_ENGINE_FIELD = re.compile(r'"engine": "\w+"')


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units, directions and
    bounds are written down."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def digests(operations: Sequence[Operation]) -> Dict[str, str]:
    """sha256 of every operation's text, by operation name."""
    return {
        name: hashlib.sha256(_ENGINE_FIELD.sub('"engine": "-"', text).encode("utf-8")).hexdigest()
        for name, text in operations
    }


def pinned_digests(scale_name: str, seed: int, workload: str) -> Optional[Dict[str, str]]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    return expected.get(scale_name, {}).get(str(seed), {}).get(workload)


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, min, max, interquartile range) of a handful of samples."""
    iqr = 0.0
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return statistics.median(values), min(values), max(values), iqr


@dataclass
class Measurement:
    """What the clock and the jobs returned for one run, before any check."""

    setups: List[float]
    warmup_s: float
    walls: List[float]
    #: Reference-kernel walls around the timed passes: one more than ``walls``.
    kernels: List[float]
    peak_rss_mb: float
    #: Operations of every pass that returned (timed passes, traced pass).
    outputs: List[List[Operation]]
    failed_passes: int
    traced_s: float
    inputs: Any


def measure(
    workload: Workload, seed: int, seconds: float, tracer: Optional[Tracer], scale: Scale,
    scratch: str, log,
) -> Measurement:
    # The traced run builds once, under the tracer, so that the traced pass
    # replays inputs that have been through the same warm-up as the rest.
    setups = []
    for _ in range(SETUP_REPS if tracer is None else 1):
        start = time.perf_counter()
        with span(tracer, "setup", "bench"):
            inputs = workload.build(seed, scale, tracer, scratch)
        setups.append(time.perf_counter() - start)

    outputs: List[List[Operation]] = []
    failed_passes = 0

    def one_pass(pass_tracer: Optional[Tracer]) -> float:
        nonlocal failed_passes
        # A replay on the columnar core leaves ≈26 MB of cyclic garbage at
        # gate size that the collector is in no hurry to free; collected
        # here, untimed, peak_rss_mb is that of one job and does not depend
        # on how many passes fit the window.
        gc.collect()
        start = time.perf_counter()
        try:
            with span(pass_tracer, "pass", "bench"):
                operations = workload.run(inputs, scale, pass_tracer, "batch")
        except Exception:  # a failed pass is counted, not fatal
            traceback.print_exc(file=log)
            failed_passes += 1
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        outputs.append(operations)
        return wall

    warmup_s = one_pass(None)
    del outputs[:]
    # The traced run reports no wall_ref, so it skips the reference kernel.
    kernel = reference_kernel if tracer is None else (lambda: 0.0)
    kernel()  # its own warm-up
    walls: List[float] = []
    kernels = [kernel()]
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        walls.append(one_pass(None))
        kernels.append(kernel())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced_s = one_pass(tracer) if tracer is not None else 0.0
    return Measurement(
        setups, warmup_s, walls, kernels, peak_rss_mb, outputs, failed_passes, traced_s, inputs
    )


def check(
    workload: Workload, seed: int, scale_name: str, verify: bool, measured: Measurement, log
) -> Tuple[int, int, str]:
    """(operations attempted, operations failed, what they were checked
    against). Runs outside every timed region."""
    reference = None if verify else pinned_digests(scale_name, seed, workload.name)
    kind = "pinned digests"
    if reference is None:
        reference = digests(workload.run(measured.inputs, SCALES[scale_name], None, "columnar"))
        kind = "the same job on engine=columnar"
    attempted = (len(measured.outputs) + measured.failed_passes) * len(reference)
    failed = measured.failed_passes * len(reference)
    for operations in measured.outputs:
        produced = digests(operations)
        for name, wanted in reference.items():
            if produced.get(name) != wanted:
                failed += 1
                print(f"{workload.name}: operation {name} differs from the reference", file=log)
    return attempted, failed, kind


def run_one(
    workload: Workload, seed: int, seconds: float, trace: bool, scale_name: str, verify: bool,
    log=sys.stderr,
) -> Dict[str, Any]:
    """Run ``workload`` once under the protocol above; returns the result
    object the command prints as its last line."""
    scale = SCALES[scale_name]
    tracer = Tracer(workload.name) if trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        measured = measure(workload, seed, seconds, tracer, scale, scratch, log)
        probed = workload.probe(measured.inputs, scale) if trace and workload.probe else {}
        attempted, failed, kind = check(workload, seed, scale_name, verify, measured, log)

    steady_s = statistics.median(measured.walls)
    requests = workload.requests(scale)
    print(
        f"{workload.name}: seed {seed}, scale {scale_name}, {requests} simulated requests a pass, "
        f"{attempted} operations checked against {kind}, {failed} failed",
        file=log,
    )
    timings = [("wall_s", measured.walls), ("setup_s", measured.setups)]
    if tracer is None:
        timings.append(("reference_s", measured.kernels))
    for name, samples in timings:
        median, low, high, iqr = spread(samples)
        print(
            f"  {name:<12} median {median:.4f} s  min {low:.4f}  max {high:.4f}  "
            f"iqr {iqr:.4f}  n={len(samples)}",
            file=log,
        )
    print(f"  warm-up pass {measured.warmup_s:.4f} s", file=log)

    definitions = load_benchmark()
    if tracer is None:
        wanted = definitions["end_to_end"] + UNGATED
        values = {
            "wall_ref": in_reference_units(measured.walls, measured.kernels),
            "wall_s": steady_s,
            "requests_per_s": requests / steady_s,
            "setup_s": statistics.median(measured.setups),
            "peak_rss_mb": measured.peak_rss_mb,
        }
        extras = {"walls_s": measured.walls, "kernels_s": measured.kernels}
        report_name = f"{workload.name}.run.json"
    else:
        wanted = definitions["per_layer"]
        values, extras = ledger(tracer, steady_s, measured.warmup_s, measured.traced_s, probed)
        tracer.write(os.path.join(OUT_DIR, f"{workload.name}.trace.json"))
        report_name = f"{workload.name}.ledger.json"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    # Everything measured, for ``run`` and for people; the command prints the
    # same object cut down to the metrics BENCHMARK.json names.
    with open(os.path.join(OUT_DIR, report_name), "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": workload.name, "seed": seed, "scale": scale_name, **result, "extras": extras},
            fh,
            indent=1,
        )
        fh.write("\n")
    named = {metric["name"] for metric in definitions["end_to_end"] + definitions["per_layer"]}
    result["metrics"] = {
        name: cell for name, cell in result["metrics"].items() if name in named
    }
    return result
