"""Fixture tests for the direct effect sites the determinism audit reads."""

from __future__ import annotations

from repro.devtools.analysis import ProjectModel, effect_analysis
from repro.devtools.analysis.effects import RNG, TIME


def labels_of(root, node_id):
    analysis = effect_analysis(ProjectModel.load(root))
    return {site.effect for site in analysis.sites(node_id)}


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

    def test_time_and_rng_labels(self, make_project):
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
        # Console IO is not an effect label: the engines' byte-identity
        # tests catch output that reaches a result.
        assert labels_of(root, "repro.simulation.side:report") == set()

    def test_sites_are_in_source_order_and_filter_by_label(
        self, make_project
    ):
        root = make_project(
            {
                "repro/simulation/mixed.py": '''
                    import random
                    import time

                    def step(line):
                        began = time.perf_counter()
                        print(line)
                        return began, random.random()
                '''
            }
        )
        analysis = effect_analysis(ProjectModel.load(root))
        node_id = "repro.simulation.mixed:step"
        sites = analysis.sites(node_id)
        assert [s.effect for s in sites] == [TIME, RNG]
        assert [s.line for s in sites] == sorted(s.line for s in sites)
        assert [s.detail for s in analysis.sites(node_id, RNG)] == [
            "random.random"
        ]
        assert analysis.sites("repro.simulation.mixed:absent") == ()

    def test_aliased_and_from_imports_resolve(self, make_project):
        root = make_project(
            {
                "repro/simulation/alias.py": '''
                    import time as clock
                    from datetime import datetime
                    from random import shuffle as mix
                    from time import perf_counter

                    def stamp():
                        return clock.monotonic(), perf_counter()

                    def today():
                        return datetime.now()

                    def scramble(items):
                        mix(items)
                '''
            }
        )
        analysis = effect_analysis(ProjectModel.load(root))
        assert [
            s.detail for s in analysis.sites("repro.simulation.alias:stamp")
        ] == ["time.monotonic", "time.perf_counter"]
        assert labels_of(root, "repro.simulation.alias:today") == {TIME}
        assert [
            s.detail for s in analysis.sites("repro.simulation.alias:scramble")
        ] == ["random.shuffle"]

    def test_seeded_instance_and_local_names_carry_no_label(
        self, make_project
    ):
        root = make_project(
            {
                "repro/simulation/seeded.py": '''
                    import random

                    def draw(seed, time):
                        rng = random.Random(seed)
                        return rng.random(), time.time()
                '''
            }
        )
        # ``random.Random`` builds a private generator, and ``time`` is
        # never imported here: ``time.time`` is a call on a parameter.
        assert labels_of(root, "repro.simulation.seeded:draw") == set()


class TestReachable:
    def test_follows_calls_from_the_roots_only(self, make_project):
        root = make_project(
            {
                "repro/simulation/chain.py": '''
                    def top():
                        return middle()

                    def middle():
                        return bottom()

                    def bottom():
                        return 1

                    def elsewhere():
                        return bottom()
                '''
            }
        )
        analysis = effect_analysis(ProjectModel.load(root))
        reached = analysis.reachable(["repro.simulation.chain:top"])
        assert {
            "repro.simulation.chain:top",
            "repro.simulation.chain:middle",
            "repro.simulation.chain:bottom",
        } <= reached
        assert "repro.simulation.chain:elsewhere" not in reached


class TestMemo:
    def test_memoized_per_model(self, make_project):
        model = ProjectModel.load(make_project())
        assert effect_analysis(model) is effect_analysis(model)
