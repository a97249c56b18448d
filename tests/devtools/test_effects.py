"""Fixture tests for the direct effect sites and the :func:`propagate` closure."""

from __future__ import annotations

from repro.devtools.analysis import CallGraph, ProjectModel, effect_analysis
from repro.devtools.analysis.effects import (
    BLOCKING,
    IO,
    MUTATES_GLOBAL,
    RNG,
    TIME,
    propagate,
)


def labels_of(root, node_id):
    analysis = effect_analysis(ProjectModel.load(root))
    return {site.effect for site in analysis.sites(node_id)}


def closure_of(root):
    """Transitive labels over the fixture's call graph, via ``propagate``."""
    model = ProjectModel.load(root)
    analysis = effect_analysis(model)
    direct = {
        node_id: frozenset(site.effect for site in sites)
        for node_id, sites in analysis.direct.items()
    }
    return propagate(direct, CallGraph.build(model))


class TestDirectEffects:
    def test_clean_engine_has_no_sites(self, make_project):
        # Config reads are dataflow's business, not an effect label.
        assert labels_of(
            make_project(), "repro.fastpath.engine:simulate_columnar"
        ) == set()

    def test_self_and_param_mutation_carry_no_label(self, make_project):
        root = make_project(
            {
                "repro/simulation/state.py": '''
                    class Tracker:
                        def bump(self):
                            self.count += 1

                        def drain(self, sink):
                            sink.append(self.count)
                '''
            }
        )
        assert labels_of(root, "repro.simulation.state:Tracker.bump") == set()
        assert labels_of(root, "repro.simulation.state:Tracker.drain") == set()

    def test_global_statement_and_module_mutable(self, make_project):
        root = make_project(
            {
                "repro/simulation/registry.py": '''
                    _SEEN = {}
                    _TOTAL = 0

                    def record(url):
                        _SEEN[url] = True

                    def count():
                        global _TOTAL
                        _TOTAL += 1
                '''
            }
        )
        assert labels_of(root, "repro.simulation.registry:record") == {
            MUTATES_GLOBAL
        }
        assert labels_of(root, "repro.simulation.registry:count") == {
            MUTATES_GLOBAL
        }

    def test_local_shadow_of_module_name_is_not_global(self, make_project):
        root = make_project(
            {
                "repro/simulation/shadow.py": '''
                    _CACHE = {}

                    def isolated():
                        _CACHE = {}
                        _CACHE["x"] = 1
                        return _CACHE
                '''
            }
        )
        assert labels_of(root, "repro.simulation.shadow:isolated") == set()

    def test_parameter_shadow_of_module_name_is_not_global(self, make_project):
        root = make_project(
            {
                "repro/simulation/shadow.py": '''
                    _CACHE = {}

                    def fill(_CACHE, key, *_EXTRA, **_OPTS):
                        _CACHE[key] = 1
                        _CACHE.update(_OPTS)
                        return _CACHE
                '''
            }
        )
        assert labels_of(root, "repro.simulation.shadow:fill") == set()

    def test_io_time_rng_labels(self, make_project):
        root = make_project(
            {
                "repro/simulation/side.py": '''
                    import random
                    import time

                    def stamp():
                        return time.time()

                    def roll():
                        return random.random()

                    def report(line):
                        print(line)
                '''
            }
        )
        assert labels_of(root, "repro.simulation.side:stamp") == {TIME}
        assert labels_of(root, "repro.simulation.side:roll") == {RNG}
        assert labels_of(root, "repro.simulation.side:report") == {IO}

    def test_blocking_label(self, make_project):
        root = make_project(
            {
                "repro/protocol/__init__.py": "",
                "repro/protocol/wait.py": '''
                    import subprocess
                    import time

                    def nap():
                        time.sleep(0.1)

                    def ask():
                        return input()

                    def shell(cmd):
                        return subprocess.run(cmd)
                '''
            }
        )
        for name in ("nap", "ask", "shell"):
            assert labels_of(root, f"repro.protocol.wait:{name}") == {
                BLOCKING
            }

    def test_sites_are_in_source_order_and_filter_by_label(
        self, make_project
    ):
        root = make_project(
            {
                "repro/simulation/mixed.py": '''
                    import time

                    _LOG = []

                    def step(line):
                        began = time.perf_counter()
                        print(line)
                        _LOG.append(began)
                '''
            }
        )
        analysis = effect_analysis(ProjectModel.load(root))
        node_id = "repro.simulation.mixed:step"
        sites = analysis.sites(node_id)
        assert [s.effect for s in sites] == [TIME, IO, MUTATES_GLOBAL]
        assert [s.line for s in sites] == sorted(s.line for s in sites)
        assert [s.detail for s in analysis.sites(node_id, MUTATES_GLOBAL)] == [
            "_LOG.append()"
        ]
        assert analysis.sites("repro.simulation.mixed:absent") == ()


class TestPropagation:
    def test_effects_flow_to_transitive_callers(self, make_project):
        root = make_project(
            {
                "repro/simulation/deep.py": '''
                    import time

                    def leaf():
                        return time.time()

                    def middle():
                        return leaf()

                    def top():
                        return middle()
                '''
            }
        )
        assert closure_of(root)["repro.simulation.deep:top"] == {TIME}

    def test_pure_helper_stays_empty(self, make_project):
        root = make_project(
            {
                "repro/simulation/pure.py": '''
                    def double(x):
                        return x * 2

                    def quad(x):
                        return double(double(x))
                '''
            }
        )
        assert closure_of(root)["repro.simulation.pure:quad"] == frozenset()

    def test_recursive_cycle_converges(self, make_project):
        root = make_project(
            {
                "repro/simulation/cycle.py": '''
                    def ping(n):
                        print(n)
                        return pong(n - 1) if n else n

                    def pong(n):
                        return ping(n - 1) if n else n
                '''
            }
        )
        assert closure_of(root)["repro.simulation.cycle:pong"] == {IO}

    def test_only_graph_nodes_are_returned(self):
        class Graph:
            edges = {"a": ["b"], "b": []}

        closure = propagate(
            {"b": frozenset({IO}), "outside": frozenset({TIME})}, Graph()
        )
        assert closure == {"a": frozenset({IO}), "b": frozenset({IO})}


class TestMemo:
    def test_memoized_per_model(self, make_project):
        model = ProjectModel.load(make_project())
        assert effect_analysis(model) is effect_analysis(model)
