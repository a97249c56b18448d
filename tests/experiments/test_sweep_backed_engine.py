"""The six studies built on ``run_capacity_sweep`` run on the engine asked for.

Each takes ``engine`` and hands it to the sweep, so ``repro experiment NAME
--engine batch`` replays its points on the kernel. A GDSF point still runs
on the object core through the policy row of the fallback matrix. Either
way the rendered report is the object core's, byte for byte.
"""

from __future__ import annotations

import inspect

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments import sweep as sweep_module

SWEEP_BACKED = [
    "ablation-architecture",
    "ablation-policy",
    "ablation-ties",
    "ablation-window",
    "ext-replica-cap",
    "model",
]


@pytest.mark.parametrize("name", SWEEP_BACKED)
def test_batch_report_is_the_object_report(name, monkeypatch):
    driver = EXPERIMENTS[name]
    assert "engine" in inspect.signature(driver).parameters
    expected = driver(scale="tiny", seed=42).render()

    engines = []
    simulate = sweep_module.run_simulation

    def recording(config, trace, *args, **kwargs):
        engines.append(config.engine)
        return simulate(config, trace, *args, **kwargs)

    monkeypatch.setattr(sweep_module, "run_simulation", recording)
    assert driver(scale="tiny", seed=42, engine="batch").render() == expected
    assert engines and set(engines) == {"batch"}


def test_only_the_hand_built_studies_take_no_engine():
    hand_built = sorted(
        name
        for name, driver in EXPERIMENTS.items()
        if "engine" not in inspect.signature(driver).parameters
    )
    assert hand_built == [
        "ablation-measure",
        "ext-admission",
        "ext-baselines",
        "ext-coherence",
        "ext-demotion",
        "ext-heterogeneous",
        "ext-locator",
        "ext-loss",
        "ext-prefetch",
    ]
