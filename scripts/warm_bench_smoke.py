#!/usr/bin/env python
"""CI smoke for the batch engine's warm (evicting) regime.

Runs a small hit-dominated *evicting* workload — high Zipf skew over a
footprint a few times the configured capacity, so the replay spends most
requests in resident runs while admissions and evictions keep reordering
the LRUs — through both fast engines, and enforces the two warm-regime
contracts cheaply enough for every CI run:

1. **Byte-identity**: batch and columnar `SimulationResult` JSON must be
   equal, and the workload must actually evict (a fits-in-cache run would
   smoke the cold regime, which `test_bench_batch_speedup_cold` already
   gates).
2. **Speedup floor** (``--min-speedup``): best-of-N batch wall time must
   beat columnar by the given factor. Both run the one replay kernel, so
   this is its vector regimes on against off (3.54-3.99x over three runs
   when the kernels merged). The floor only makes sense where they run:
   without numpy ``simulate_batch`` runs the kernel as
   ``simulate_columnar`` does and the smoke would compare it with itself.

The measured times land in a small JSON artifact (``--out``) so CI can
upload them next to the BENCH summary; schema ``repro-warm-smoke/1``.

Usage::

    python scripts/warm_bench_smoke.py --min-speedup 1.5 --out warm.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from repro.fastpath import simulate_batch, simulate_columnar
from repro.fastpath.numeric import load_numpy
from repro.simulation import SimulationConfig
from repro.trace import bu_like_config, generate_trace

#: The BU-scale workload at the BENCH_8 warm acceptance capacity: the
#: unique footprint slightly overflows 488 MB, so the replay evicts (a
#: few hundred times over 575k requests) while staying hit-dominated.
#: Smaller synthetic workloads evict *uniformly*, which smokes the
#: scalar path instead; this is the smallest workload whose eviction
#: pattern matches what warm replay actually looks like.
WORKLOAD = bu_like_config(seed=42)

CAPACITY = 488 << 20


def best_of(engine_fn, config, trace, rounds: int):
    """Best wall time of ``rounds`` runs plus the (identical) result."""
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = engine_fn(config, trace)
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv: Optional[list] = None) -> int:
    """Run the smoke; exit 1 on divergence or a missed speedup floor."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail unless batch beats columnar by this factor "
        "(0 = identity check only)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="best-of-N rounds per engine"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write measurements as JSON"
    )
    args = parser.parse_args(argv)

    trace = generate_trace(WORKLOAD)
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=CAPACITY, seed=5
    )
    trace.interned()

    batch_time, batch_result = best_of(
        simulate_batch, config, trace, args.rounds
    )
    columnar_time, columnar_result = best_of(
        simulate_columnar, config, trace, args.rounds
    )

    evictions = sum(s.evictions for s in batch_result.cache_stats)
    identical = batch_result.to_json() == columnar_result.to_json()
    speedup = columnar_time / batch_time if batch_time > 0 else float("inf")
    has_numpy = load_numpy() is not None

    payload = {
        "schema": "repro-warm-smoke/1",
        "numpy": has_numpy,
        "requests": len(trace),
        "evictions": evictions,
        "batch_best_s": batch_time,
        "columnar_best_s": columnar_time,
        "speedup": speedup,
        "min_speedup": args.min_speedup,
        "identical": identical,
    }
    if args.out is not None:
        args.out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    leg = "numpy" if has_numpy else "no numpy: vector regimes off"
    print(
        f"warm smoke [{leg}]: batch {batch_time * 1e3:.0f} ms, columnar "
        f"{columnar_time * 1e3:.0f} ms ({speedup:.2f}x), "
        f"{evictions} evictions, byte-identical={identical}"
    )

    if evictions == 0:
        print("error: workload did not evict; smoke is vacuous", file=sys.stderr)
        return 1
    if not identical:
        print("error: batch and columnar results diverged", file=sys.stderr)
        return 1
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(
            f"error: warm speedup {speedup:.2f}x below floor "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
