"""Fixture tests for the determinism auditor (RPR111-115)."""

from __future__ import annotations

import pytest

from repro.devtools.analysis import ProjectModel, analyze_determinism, analyze_project

from tests.devtools.conftest import FIXTURE_ROOTS


def audit(root, roots=FIXTURE_ROOTS):
    return analyze_determinism(ProjectModel.load(root), roots=roots)


def rules(root, roots=FIXTURE_ROOTS):
    return [f.rule for f in audit(root, roots)]


class TestRPR111WallClock:
    def test_clean_tree_has_no_findings(self, make_project):
        assert rules(make_project()) == []

    def test_time_time_on_reachable_path_fires(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    import time
                    from dataclasses import dataclass

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        return time.time()
                '''
            }
        )
        findings = audit(root)
        assert [f.rule for f in findings] == ["RPR111"]
        assert "time.time" in findings[0].message

    def test_unreachable_function_is_not_audited(self, make_project):
        root = make_project(
            {
                "repro/simulation/bench.py": '''
                    import time

                    def wall_clock_report():
                        return time.time()
                '''
            }
        )
        assert rules(root) == []


class TestRPR112GlobalRng:
    def test_random_module_call_fires_transitively(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    from dataclasses import dataclass
                    from repro.simulation.jitter import jitter

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        return jitter()
                ''',
                "repro/simulation/jitter.py": '''
                    import random

                    def jitter():
                        return random.random()
                ''',
            }
        )
        assert rules(root) == ["RPR112"]

    def test_seeded_random_instance_is_fine(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    import random
                    from dataclasses import dataclass

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        rng = random.Random(7)
                        return rng.random()
                '''
            }
        )
        assert rules(root) == []


class TestRPR113SetIteration:
    def test_for_over_set_literal_fires(self, make_project):
        root = make_project(
            {
                "repro/fastpath/engine.py": '''
                    from repro.simulation.metrics import GroupMetrics

                    def simulate_columnar(config, trace):
                        used = (config.scheme, config.window_size)
                        total = 0
                        for kind in {"a", "b"}:
                            total += 1
                        return GroupMetrics(requests=total, local_hits=0, misses=0)
                '''
            }
        )
        assert rules(root) == ["RPR113"]

    def test_comprehension_over_set_variable_fires(self, make_project):
        root = make_project(
            {
                "repro/fastpath/engine.py": '''
                    from repro.simulation.metrics import GroupMetrics

                    def simulate_columnar(config, trace):
                        used = (config.scheme, config.window_size)
                        pending = set(trace)
                        sizes = [len(u) for u in pending]
                        return GroupMetrics(requests=len(sizes), local_hits=0, misses=0)
                '''
            }
        )
        assert rules(root) == ["RPR113"]

    def test_sorted_set_is_fine(self, make_project):
        root = make_project(
            {
                "repro/fastpath/engine.py": '''
                    from repro.simulation.metrics import GroupMetrics

                    def simulate_columnar(config, trace):
                        used = (config.scheme, config.window_size)
                        total = 0
                        for kind in sorted({"a", "b"}):
                            total += 1
                        return GroupMetrics(requests=total, local_hits=0, misses=0)
                '''
            }
        )
        assert rules(root) == []


class TestRPR114FilesystemOrder:
    def test_glob_fires_and_sorted_glob_does_not(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    import glob
                    from dataclasses import dataclass

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        raw = glob.glob("*.bu")
                        safe = sorted(glob.glob("*.json"))
                        return raw, safe
                '''
            }
        )
        findings = audit(root)
        assert [f.rule for f in findings] == ["RPR114"]
        assert "glob.glob" in findings[0].message

    def test_path_iterdir_method_fires(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    from dataclasses import dataclass

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        return [p for p in trace.root.iterdir()]
                '''
            }
        )
        assert rules(root) == ["RPR114"]


class TestRPR115SetAccumulation:
    def test_sum_over_set_comprehension_fires(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    from dataclasses import dataclass

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        return sum({r.size for r in trace})
                '''
            }
        )
        assert rules(root) == ["RPR115"]

    def test_sum_over_list_is_fine(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    from dataclasses import dataclass

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        return sum([r.size for r in trace])
                '''
            }
        )
        assert rules(root) == []


#: The fixture simulator, calling `hazard` from the determinism root.
_CALLS_HAZARD = '''
    from dataclasses import dataclass
    from repro.simulation.hazard import hazard

    @dataclass
    class SimulationConfig:
        scheme: str = "ea"
        window_size: int = 1000
        sanitize: bool = False

    def run_simulation(config, trace):
        used = (config.scheme, config.window_size, config.sanitize)
        return hazard(trace)
'''


def reachable_hazard(make_project, module):
    """A fixture tree whose root calls ``hazard`` in ``module``."""
    return make_project(
        {
            "repro/simulation/simulator.py": _CALLS_HAZARD,
            "repro/simulation/hazard.py": module,
        }
    )


class TestRetiredLintTwins:
    """Every case the retired per-file rules RPR001 (wall clock), RPR002
    (global RNG) and RPR004 (set iteration) carried, as a reachable
    function under the call-graph rule that replaced it."""

    @pytest.mark.parametrize(
        "rule, module",
        [
            ("RPR111", "import time\n\ndef hazard(trace):\n    return time.time()\n"),
            (
                "RPR111",
                "from datetime import datetime\n\n"
                "def hazard(trace):\n    return datetime.now()\n",
            ),
            (
                "RPR111",
                "from time import monotonic\n\n"
                "def hazard(trace):\n    return monotonic()\n",
            ),
            (
                "RPR112",
                "import random\n\ndef hazard(trace):\n    return random.random()\n",
            ),
            (
                "RPR112",
                "import random\n\nRNG = random.Random()\n\n"
                "def hazard(trace):\n    return RNG.random()\n",
            ),
            (
                "RPR112",
                "import random\n\n"
                "def hazard(trace):\n    return random.Random().random()\n",
            ),
            (
                "RPR112",
                "from random import choice\n\n"
                "def hazard(trace):\n    return choice(trace)\n",
            ),
            (
                "RPR113",
                "def hazard(urls):\n    for u in set(urls):\n        return u\n",
            ),
            ("RPR113", "def hazard(urls):\n    return [x for x in {1, 2}]\n"),
            ("RPR113", "def hazard(urls):\n    return list(set(urls))\n"),
        ],
        ids=[
            "time-time", "datetime-now", "from-time-monotonic",
            "random-random", "unseeded-Random-module-body",
            "unseeded-Random-in-function", "from-random-choice-called",
            "for-over-set-call", "comprehension-over-set-literal",
            "list-of-set",
        ],
    )
    def test_fires(self, make_project, rule, module):
        assert rules(reachable_hazard(make_project, module)) == [rule]

    @pytest.mark.parametrize(
        "module",
        [
            "def hazard(now):\n    return now + 1.0\n",
            "import random\n\nRNG = random.Random(42)\n\n"
            "def hazard(trace):\n    return RNG.random()\n",
            "def hazard(urls):\n    for u in sorted(set(urls)):\n        return u\n",
            "def hazard(urls):\n    return 'u' in set(urls)\n",
        ],
        ids=["virtual-clock", "seeded-Random", "sorted-set", "membership-test"],
    )
    def test_silent(self, make_project, module):
        assert rules(reachable_hazard(make_project, module)) == []

    @pytest.mark.parametrize(
        "module",
        [
            "import time\n\ndef hazard(trace):\n"
            "    return time.time()  # repro: noqa[RPR111]\n",
            "import random\n\nRNG = random.Random()  # repro: noqa[RPR112]\n\n"
            "def hazard(trace):\n    return RNG.random()\n",
            "def hazard(urls):\n"
            "    for u in set(urls):  # repro: noqa[RPR113]\n        return u\n",
        ],
        ids=["wall-clock", "unseeded-Random", "set-iteration"],
    )
    def test_suppressed_with_pragma(self, make_project, module):
        root = reachable_hazard(make_project, module)
        assert len(rules(root)) == 1
        report = analyze_project(root, analyzers=["determinism"])
        assert report.findings == []
        assert report.suppressed == 1
