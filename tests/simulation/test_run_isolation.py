"""A replay's result does not depend on what the process ran before it.

The sweep runner replays many points in one worker process and the memo
store serves a stored result as if it had just been computed, so state
that one replay leaves behind for the next — at module or class level,
whatever its spelling — would make a result depend on which worker ran
it and after what. Each config here is replayed alone in a fresh
interpreter, and again in this process after every other config,
forwards and backwards: the bytes must match.
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace import SyntheticTraceConfig, generate_trace

CAPACITY = 400_000

TRACE = {
    "num_requests": 2_000,
    "num_documents": 400,
    "num_clients": 16,
    "zipf_alpha": 0.8,
    "seed": 31,
}

#: Configs that differ from each other in every field a replay reads.
CONFIGS = [
    {},
    {
        "scheme": "adhoc",
        "policy": "lfu",
        "architecture": "hierarchical",
        "window_size": 50,
    },
    {
        "window_mode": "cumulative",
        "tie_break": "responder",
        "num_caches": 2,
        "engine": "batch",
    },
    {
        "window_mode": "time",
        "window_seconds": 600.0,
        "max_replica_fraction": 0.5,
        "engine": "columnar",
    },
]

_ALONE = f"""
import json, sys
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace import SyntheticTraceConfig, generate_trace
trace = generate_trace(SyntheticTraceConfig(**json.loads(sys.argv[1])))
config = SimulationConfig(aggregate_capacity={CAPACITY}, **json.loads(sys.argv[2]))
sys.stdout.write(run_simulation(config, trace).to_json())
"""


def _alone(overrides) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", _ALONE, json.dumps(TRACE), json.dumps(overrides)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_results_do_not_depend_on_earlier_runs():
    trace = generate_trace(SyntheticTraceConfig(**TRACE))

    def replay(overrides) -> str:
        config = SimulationConfig(aggregate_capacity=CAPACITY, **overrides)
        return run_simulation(config, trace).to_json()

    alone = [_alone(overrides) for overrides in CONFIGS]
    forwards = [replay(overrides) for overrides in CONFIGS]
    backwards = [replay(overrides) for overrides in reversed(CONFIGS)]
    assert forwards == alone
    assert backwards[::-1] == alone
