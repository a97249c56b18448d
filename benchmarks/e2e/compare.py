"""Compare two sets written by ``run``: one row per workload and metric.

A row reads ``better`` only when every run of B beats every run of A and
the medians differ by more than the spread of A's own runs,
``worse`` when B's median is worse than A's by more than the metric's bound,
``unresolved`` when the run-to-run spread of either set is wider than the
bound and the runs overlap (so the medians cannot settle it), and ``within``
otherwise. Every ratio is printed with its base.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from harness import spread

#: Per-layer units whose values are exact and should repeat between sets.
EXACT_UNITS = ("count", "share")


def relative_spread(values: Sequence[float]) -> float:
    median, _, _, iqr = spread(values)
    return iqr / median


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    gaps = [sign * (y - x) for x in a for y in b]  # > 0: that run of B is worse
    base = statistics.median(a)
    change = sign * (statistics.median(b) - base) / base  # > 0: B is worse
    if all(gap < 0 for gap in gaps) and -change > relative_spread(a):
        return "better"
    if max(relative_spread(a), relative_spread(b)) > bound and not all(gap > 0 for gap in gaps):
        return "unresolved"
    return "worse" if change > bound else "within"


def compare_sets(
    a: Dict[str, Any], b: Dict[str, Any], definitions: Dict[str, Any],
    ungated: List[Dict[str, Any]],
) -> Tuple[List[str], bool]:
    """(report lines, whether B regressed). ``ungated`` are metric
    definitions judged like those of ``definitions["end_to_end"]``."""
    lines = [
        f"A: commit {a['environment']['commit'][:12]} seed {a['seed']} scale {a['scale']}"
        f"{' (noisy)' if a['calibration']['noisy'] else ''}",
        f"B: commit {b['environment']['commit'][:12]} seed {b['seed']} scale {b['scale']}"
        f"{' (noisy)' if b['calibration']['noisy'] else ''}",
        f"{'workload':<16} {'metric':<15} {'A median':>12} {'B median':>12} {'unit':<5} "
        f"{'B/A':>7} {'bound':>6}  verdict",
    ]
    regressed = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:<16} missing from B")
            regressed = True
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for metric in definitions["end_to_end"] + ungated:
            values_a = side_a["end_to_end"][metric["name"]]["values"]
            values_b = side_b["end_to_end"][metric["name"]]["values"]
            base = statistics.median(values_a)
            outcome = verdict(values_a, values_b, metric["better"], metric["bound"])
            regressed |= outcome == "worse"
            lines.append(
                f"{name:<16} {metric['name']:<15} {base:>12.4f} "
                f"{statistics.median(values_b):>12.4f} {metric['unit']:<5} "
                f"{statistics.median(values_b) / base:>7.3f} {metric['bound']:>6.2f}  {outcome}"
                f" (base A = {base:.4f} {metric['unit']})"
            )
        rose = side_b["failed_share"] > side_a["failed_share"]
        regressed |= rose
        lines.append(
            f"{name:<16} {'failed_share':<15} {side_a['failed_share']:>12.4f} "
            f"{side_b['failed_share']:>12.4f} {'':<5} {'':>7} {0:>6.2f}  "
            f"{'worse' if rose else 'within'}"
        )
        moved = [
            metric["name"]
            for metric in definitions["per_layer"]
            if metric["unit"] in EXACT_UNITS
            and side_a["per_layer"][metric["name"]]["value"]
            != side_b["per_layer"][metric["name"]]["value"]
        ]
        lines.append(
            f"{name:<16} exact per-layer counts: "
            + (f"differ in {', '.join(moved)}" if moved else "identical")
        )
    return lines, regressed
