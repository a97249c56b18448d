"""Engine dispatch: supported detection, transparent fallback, errors."""

from __future__ import annotations

import logging
import math

import pytest

from repro.errors import SimulationError
from repro.fastpath import (
    columnar_unsupported_reason,
    simulate_batch,
    simulate_columnar,
)
from repro.simulation.simulator import (
    CooperativeSimulator,
    SimulationConfig,
    run_simulation,
)

CAPACITY = 800_000

#: Config overrides the columnar engine must refuse, with a fragment of the
#: reason it must give.
UNSUPPORTED = [
    ({"policy": "fifo"}, "replacement policy"),
    ({"policy": "gdsf"}, "replacement policy"),
    ({"scheme": "ea", "tie_break": "coin-flip"}, "tie_break"),
    ({"sanitize": True}, "sanitize"),
]


def _config(**overrides) -> SimulationConfig:
    return SimulationConfig(
        aggregate_capacity=CAPACITY, engine="columnar", **overrides
    )


@pytest.mark.parametrize(
    "overrides,fragment", UNSUPPORTED, ids=[f for _, f in UNSUPPORTED]
)
def test_unsupported_reasons(overrides, fragment):
    reason = columnar_unsupported_reason(_config(**overrides))
    assert reason is not None and fragment in reason


@pytest.mark.parametrize("policy", ["lru", "lfu"])
@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_supported_configs_have_no_reason(scheme, policy):
    assert columnar_unsupported_reason(_config(scheme=scheme, policy=policy)) is None


def test_simulate_columnar_refuses_unsupported(uniform_trace):
    with pytest.raises(SimulationError, match="unsupported by the columnar engine"):
        simulate_columnar(_config(policy="fifo"), uniform_trace)


def test_run_simulation_falls_back_with_logged_reason(uniform_trace, caplog):
    """An unsupported columnar config silently runs on the object engine,
    yields the object engine's exact result, and logs why."""
    config = _config(policy="fifo")
    with caplog.at_level(logging.INFO, logger="repro.fastpath"):
        fallback = run_simulation(config, uniform_trace)
    object_run = CooperativeSimulator(config).run(uniform_trace)
    assert fallback.to_json() == object_run.to_json()
    messages = [r.getMessage() for r in caplog.records if r.name == "repro.fastpath"]
    assert any(
        "falling back to the object engine" in m and "fifo" in m for m in messages
    )


def test_supported_dispatch_does_not_log_fallback(uniform_trace, caplog):
    with caplog.at_level(logging.INFO, logger="repro.fastpath"):
        run_simulation(_config(), uniform_trace)
    assert not [r for r in caplog.records if r.name == "repro.fastpath"]


def test_object_engine_never_touches_fastpath(uniform_trace, caplog):
    config = SimulationConfig(aggregate_capacity=CAPACITY)  # engine="object"
    with caplog.at_level(logging.INFO, logger="repro.fastpath"):
        run_simulation(config, uniform_trace)
    assert not [r for r in caplog.records if r.name == "repro.fastpath"]


def test_unknown_engine_rejected():
    with pytest.raises(SimulationError, match="engine must be one of"):
        SimulationConfig(engine="vectorised")


#: Scheme, window, size and count parameters the object core refuses; the
#: kernel must refuse each one with the same error.
BAD_PARAMETERS = [
    {"scheme": "ea", "max_replica_fraction": 1.5},
    {"scheme": "ea", "max_replica_fraction": 0.0},
    {"scheme": "ea", "max_replica_fraction": -0.5},
    {"window_size": 0},
    {"window_size": -3},
    {"scheme": "adhoc", "window_size": 0},
    {"window_mode": "time", "window_seconds": 0.0},
    {"window_mode": "time", "window_seconds": -5.0},
    {"window_mode": "time", "window_seconds": math.nan},
    {"window_size": math.nan},
    # Whole numbers only: a fractional patch would store fractional bytes,
    # a fractional or boolean window would count victims the kernel's
    # ring cannot, and a group has a whole number of caches.
    {"patch_size": 4096.5},
    {"window_size": 2.5},
    {"window_size": 1000.0},
    {"window_size": True},
    {"num_caches": 4.0},
]

#: Values on the accepting side of each bound, and values the configured
#: scheme or window mode never reads: the kernel must run all of them.
BOUNDARY_PARAMETERS = [
    {"scheme": "ea", "max_replica_fraction": 1.0},
    {"scheme": "ea", "max_replica_fraction": 1e-9},
    {"scheme": "adhoc", "max_replica_fraction": 1.5},
    {"scheme": "adhoc", "max_replica_fraction": 0.0},
    {"window_size": 1},
    {"window_mode": "cumulative", "window_size": 0},
    {"window_mode": "time", "window_size": 0},
    {"window_mode": "cumulative", "window_size": -3},
    {"window_mode": "time", "window_size": -3},
    {"window_mode": "time", "window_seconds": 1e-6},
    {"window_mode": "time", "window_seconds": math.inf},
    {"window_mode": "count", "window_seconds": -5.0},
]


def _outcome(replay, overrides, trace):
    """``to_json`` of a replay of ``overrides``, or the type and message
    that building or replaying the config raised."""
    try:
        config = SimulationConfig(aggregate_capacity=1_000_000, **overrides)
        return replay(config, trace).to_json()
    except Exception as error:  # the comparison is the assertion
        return (type(error), str(error))


@pytest.mark.parametrize("engine", [simulate_columnar, simulate_batch])
@pytest.mark.parametrize(
    "overrides", BAD_PARAMETERS + BOUNDARY_PARAMETERS, ids=str
)
def test_kernel_validates_like_the_object_core(overrides, engine, bu_style_trace):
    expected = _outcome(
        lambda c, t: CooperativeSimulator(c).run(t), overrides, bu_style_trace
    )
    # A bad parameter is refused; a boundary one runs. By identity: the
    # dict {"window_size": True} equals the boundary {"window_size": 1}.
    boundary = any(overrides is row for row in BOUNDARY_PARAMETERS)
    assert isinstance(expected, str) == boundary, expected
    assert _outcome(engine, overrides, bu_style_trace) == expected
