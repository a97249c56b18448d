"""Differential harness: the columnar engine must be byte-identical to the
object core.

Byte-identical means :meth:`SimulationResult.to_json` — every counter, every
float (expiration ages, latencies, rates), every per-cache stat block and
the config echo — compares equal as *text*. Any drift in decision order,
window arithmetic, or wire-byte accounting shows up here.
"""

from __future__ import annotations

import pytest

from repro.fastpath import simulate_columnar
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig

#: Small aggregate capacity so replacement and the EA decision paths stay
#: busy on every trace.
CAPACITY = 1_200_000

SCHEMES = ("adhoc", "ea")
ARCHITECTURES = ("distributed", "hierarchical")
POLICIES = ("lru", "lfu")


def both_engines(config: SimulationConfig, trace) -> None:
    """Assert object and columnar runs serialise to identical JSON."""
    object_result = CooperativeSimulator(config).run(trace)
    columnar_result = simulate_columnar(config, trace)
    assert object_result.to_json() == columnar_result.to_json()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_full_matrix_on_all_traces(scheme, architecture, policy, all_traces):
    """Scheme x architecture x policy, replayed on all three traces."""
    config = SimulationConfig(
        scheme=scheme,
        architecture=architecture,
        policy=policy,
        num_caches=4,
        num_parents=2,
        aggregate_capacity=CAPACITY,
        engine="columnar",
    )
    for _label, trace in all_traces:
        both_engines(config, trace)


@pytest.mark.parametrize("window_mode", ["cumulative", "count", "time"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_window_modes(scheme, window_mode, bu_style_trace):
    """All three expiration-age window interpretations stay identical —
    the time mode's lazy trims are side effects of every age read."""
    config = SimulationConfig(
        scheme=scheme,
        window_mode=window_mode,
        window_size=40,
        window_seconds=600.0,
        aggregate_capacity=CAPACITY,
        engine="columnar",
    )
    both_engines(config, bu_style_trace)


def test_responder_tie_break(bu_style_trace):
    config = SimulationConfig(
        scheme="ea", tie_break="responder", aggregate_capacity=CAPACITY,
        engine="columnar",
    )
    both_engines(config, bu_style_trace)


@pytest.mark.parametrize("fraction", [0.005, 0.5])
def test_max_replica_fraction(fraction, churn_trace):
    """The EA size-cap veto (and its refresh hand-back) match exactly."""
    config = SimulationConfig(
        scheme="ea",
        max_replica_fraction=fraction,
        aggregate_capacity=CAPACITY,
        engine="columnar",
    )
    both_engines(config, churn_trace)


@pytest.mark.parametrize(
    "partitioner", ["hash", "round-robin-client", "round-robin-request"]
)
def test_partitioners(partitioner, uniform_trace):
    config = SimulationConfig(
        partitioner=partitioner, aggregate_capacity=CAPACITY, engine="columnar"
    )
    both_engines(config, uniform_trace)


def test_single_cache_group(uniform_trace):
    """Degenerate group: no siblings, every miss is an origin fetch."""
    config = SimulationConfig(
        num_caches=1, aggregate_capacity=CAPACITY, engine="columnar"
    )
    both_engines(config, uniform_trace)


def test_childless_parents(uniform_trace):
    """More parents than leaves: childless parents count as leaves and
    receive client requests — topology quirk both engines must share."""
    config = SimulationConfig(
        architecture="hierarchical",
        num_caches=2,
        num_parents=3,
        aggregate_capacity=CAPACITY,
        engine="columnar",
    )
    both_engines(config, uniform_trace)


def test_deep_eviction_pressure(churn_trace):
    """Tiny capacity: every admission evicts; LFU heap laziness and ring
    wraparound get exercised hard."""
    for policy in POLICIES:
        config = SimulationConfig(
            policy=policy,
            aggregate_capacity=300_000,
            window_size=10,
            engine="columnar",
        )
        both_engines(config, churn_trace)


def test_run_simulation_dispatches_to_columnar(bu_style_trace):
    """The public entry point with engine="columnar" equals an explicit
    columnar call AND the object engine's output."""
    from repro.simulation.simulator import run_simulation

    config = SimulationConfig(aggregate_capacity=CAPACITY, engine="columnar")
    via_dispatch = run_simulation(config, bu_style_trace)
    direct = simulate_columnar(config, bu_style_trace)
    object_run = CooperativeSimulator(config).run(bu_style_trace)
    assert via_dispatch.to_json() == direct.to_json() == object_run.to_json()


def test_config_echo_includes_engine(uniform_trace):
    """The result's config echo records which engine was requested."""
    config = SimulationConfig(aggregate_capacity=CAPACITY, engine="columnar")
    result = simulate_columnar(config, uniform_trace)
    assert result.config["engine"] == "columnar"


def test_result_round_trips_through_serialisation(uniform_trace):
    """Columnar results survive the memo store's dict round trip exactly."""
    import json

    from repro.simulation.results import SimulationResult

    config = SimulationConfig(aggregate_capacity=CAPACITY, engine="columnar")
    result = simulate_columnar(config, uniform_trace)
    revived = SimulationResult.from_dict(json.loads(result.to_json()))
    assert revived.to_json() == result.to_json()
