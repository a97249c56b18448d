"""Every cell of the nine studies that build their groups by hand.

These drivers construct ``DistributedGroup`` and its relatives directly
and replay through the object core, so no engine differential covers
them. ``hand_built_tiny.json`` holds each report's ``to_dict()`` at
``--scale tiny``, seed 42: what ``repro experiment NAME --scale tiny
--json`` prints. A change to a group constructor, the capacity split or
the latency constants that moves any cell fails here, not only in a
shape check.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.workload import workload_trace

PINS = json.loads((Path(__file__).with_name("hand_built_tiny.json")).read_text())


@pytest.fixture(scope="module")
def trace():
    return workload_trace("tiny", 42)


def test_pins_name_the_nine_hand_built_studies():
    assert sorted(PINS) == [
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


@pytest.mark.parametrize("name", sorted(PINS))
def test_report_matches_its_pin(name, trace):
    report = EXPERIMENTS[name](scale="tiny", seed=42, trace=trace)
    assert report.to_dict() == PINS[name]
