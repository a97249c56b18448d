"""repro: Expiration-Age based document placement for cooperative web caching.

A trace-driven reproduction of Ramaswamy & Liu, *"A New Document Placement
Scheme for Cooperative Caching on the Internet"*, ICDCS 2002.

Quick start::

    from repro import SimulationConfig, run_simulation
    from repro.trace import generate_trace, SyntheticTraceConfig

    trace = generate_trace(SyntheticTraceConfig(num_requests=20_000, seed=7))
    ea = run_simulation(SimulationConfig(scheme="ea", aggregate_capacity=1 << 20), trace)
    adhoc = run_simulation(SimulationConfig(scheme="adhoc", aggregate_capacity=1 << 20), trace)
    print(ea.summary())
    print(adhoc.summary())

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the EA and ad-hoc placement schemes.
* :mod:`repro.cache` — proxy caches, replacement policies, expiration age.
* :mod:`repro.architecture` — distributed and hierarchical cache groups.
* :mod:`repro.protocol` / :mod:`repro.network` — ICP, HTTP piggybacking,
  the paper's latency constants, message accounting.
* :mod:`repro.trace` — trace records, readers, the synthetic BU-like
  workload generator.
* :mod:`repro.simulation` — the trace-driven simulator and metrics.
* :mod:`repro.experiments` — drivers regenerating every paper table/figure.
"""

from repro.core.placement import AdHocScheme, EAScheme, make_scheme
from repro.errors import (
    CacheConfigurationError,
    ExperimentError,
    NetworkError,
    ProtocolError,
    ReproError,
    SimulationError,
    TraceError,
    TraceFormatError,
)
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import (
    CooperativeSimulator,
    SimulationConfig,
    run_simulation,
)

__version__ = "1.0.0"

__all__ = [
    "AdHocScheme",
    "CacheConfigurationError",
    "CooperativeSimulator",
    "EAScheme",
    "ExperimentError",
    "NetworkError",
    "ProtocolError",
    "ReproError",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "TraceError",
    "TraceFormatError",
    "__version__",
    "make_scheme",
    "run_simulation",
]
