"""Model-vs-simulation validation: Che bounds around ad-hoc and EA.

The paper argues (analysis deferred to its technical report) that the EA
scheme's value is better *effective* use of the aggregate disk: ad-hoc
replication pushes the group toward N independent caches of X/N bytes,
while perfect placement approaches one logical cache of X bytes. This
experiment computes those two analytical bounds with the Che approximation
and places the simulated ad-hoc and EA hit rates between them — EA should
sit measurably closer to the shared-cache bound.

The Che approximation assumes the **independent reference model** (every
request an i.i.d. draw from the popularity law). The standard experiment
traces carry deliberate temporal locality, which IRM cannot represent and
which lets LRU beat the IRM bounds outright at small caches; this
experiment therefore generates its own IRM workload (``temporal_locality =
0``) unless an explicit trace is supplied.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Optional, Sequence, Tuple

from repro.analysis.che import group_hit_rate_bounds
from repro.experiments.report import ExperimentReport
from repro.experiments.sweep import run_capacity_sweep
from repro.experiments.workload import capacities_for, workload_config
from repro.trace.record import Trace, patch_zero_sizes
from repro.trace.synthetic import generate_trace

EXPERIMENT_ID = "model"


def irm_workload(scale: str = "default", seed: int = 42) -> Trace:
    """The standard workload with temporal locality disabled (pure IRM)."""
    config = dc_replace(workload_config(scale, seed), temporal_locality=0.0)
    return generate_trace(config)


def run(
    scale: str = "default",
    seed: int = 42,
    trace: Optional[Trace] = None,
    capacities: Optional[Sequence[Tuple[str, int]]] = None,
    num_caches: int = 4,
    engine: Optional[str] = None,
) -> ExperimentReport:
    """Compare Che-model bounds with simulated scheme hit rates (IRM workload)."""
    trace = trace if trace is not None else irm_workload(scale, seed)
    capacities = capacities if capacities is not None else capacities_for(scale)
    # The simulator patches zero sizes before replay; feed the model the
    # same effective workload.
    patched = Trace(list(patch_zero_sizes(iter(trace))))
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Model validation: Che bounds vs simulated hit rates",
        headers=[
            "aggregate",
            "che_replicated",
            "sim_adhoc",
            "sim_ea",
            "che_shared",
            "ea_position",
        ],
    )
    report.add_note(
        "ea_position: where EA sits between the bounds "
        "(0 = replicated/worst, 1 = shared/ideal); blank when bounds collapse"
    )
    sweep = run_capacity_sweep(trace, capacities, engine=engine)
    for label, capacity in capacities:
        bounds = group_hit_rate_bounds(patched, num_caches, capacity)
        adhoc = sweep.get("adhoc", label).result.metrics.hit_rate
        ea = sweep.get("ea", label).result.metrics.hit_rate
        spread = bounds.shared - bounds.replicated
        position = (ea - bounds.replicated) / spread if spread > 1e-9 else float("nan")
        report.add_row(
            label, bounds.replicated, adhoc, ea, bounds.shared, position
        )
    return report
