"""Shared experiment workloads and the paper's cache-size grid.

The paper sweeps aggregate cache sizes of 100 KB, 1 MB, 10 MB, 100 MB and
1 GB over the BU trace (575,775 requests, 46,830 documents). Three workload
scales trade fidelity for runtime:

* ``tiny`` — seconds; used by the test suite.
* ``default`` — a ~1/8-scale BU-like trace; what the benchmark harness runs.
  Its unique-content footprint (~25 MB) sits between the 10 MB and 100 MB
  points, so the two largest capacities saturate (no evictions) — exactly
  the regime the paper itself reports at 1 GB where both schemes converge.
* ``full`` — the BU trace's published dimensions; minutes per sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.trace.record import Trace
from repro.trace.synthetic import SyntheticTraceConfig, bu_like_config, generate_trace

#: The paper's aggregate-capacity grid, in presentation order.
PAPER_CAPACITIES: List[Tuple[str, int]] = [
    ("100KB", 100 * 1024),
    ("1MB", 1024 * 1024),
    ("10MB", 10 * 1024 * 1024),
    ("100MB", 100 * 1024 * 1024),
    ("1GB", 1024 * 1024 * 1024),
]

#: Table 1 stops at 100 MB (at 1 GB the workload fits without evictions,
#: leaving the expiration age undefined).
TABLE1_CAPACITIES: List[Tuple[str, int]] = PAPER_CAPACITIES[:4]

#: Group sizes the paper simulates.
PAPER_GROUP_SIZES: Tuple[int, ...] = (2, 4, 8)

WORKLOAD_SCALES = ("tiny", "default", "full")


def workload_config(scale: str = "default", seed: int = 42) -> SyntheticTraceConfig:
    """Synthetic-trace config for the named scale."""
    if scale == "tiny":
        return SyntheticTraceConfig(
            num_requests=8_000,
            num_documents=900,
            num_clients=24,
            zero_size_fraction=0.02,
            seed=seed,
        )
    if scale == "default":
        return SyntheticTraceConfig(
            num_requests=72_000,
            num_documents=5_850,
            num_clients=74,
            zero_size_fraction=0.02,
            seed=seed,
        )
    if scale == "full":
        return bu_like_config(seed=seed)
    raise ExperimentError(
        f"unknown workload scale {scale!r}; expected one of {WORKLOAD_SCALES}"
    )


_TRACE_CACHE: Dict[Tuple[str, int], Trace] = {}


def workload_trace(scale: str = "default", seed: int = 42) -> Trace:
    """The experiment trace for a scale (memoised — traces are immutable)."""
    key = (scale, seed)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = generate_trace(workload_config(scale, seed))
    return _TRACE_CACHE[key]


def capacities_for(scale: str = "default") -> List[Tuple[str, int]]:
    """Capacity grid appropriate to a workload scale.

    The tiny workload's footprint is ~4 MB, so sweeping beyond 10 MB would
    produce five identical saturated rows; it stops there.
    """
    if scale == "tiny":
        return PAPER_CAPACITIES[:3]
    return list(PAPER_CAPACITIES)


def resolve_workload(
    scale: str,
    seed: int,
    trace: Optional[Trace],
    capacities: Optional[Sequence[Tuple[str, int]]],
) -> Tuple[Trace, Sequence[Tuple[str, int]]]:
    """A driver's trace and capacity grid: the ones given, else the scale's."""
    trace = trace if trace is not None else workload_trace(scale, seed)
    capacities = capacities if capacities is not None else capacities_for(scale)
    return trace, capacities
