"""Unit tests for the analysis ProjectModel and CallGraph."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.analysis import AnalysisError, CallGraph, ProjectModel
from repro.devtools.analysis.concurrency import ENGINE_ROOTS, HOT_ROOTS, worker_roots
from repro.devtools.analysis.determinism import DEFAULT_ROOTS

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestProjectModel:
    def test_discovers_modules_with_dotted_names(self, make_project):
        model = ProjectModel.load(make_project())
        assert "repro.simulation.simulator" in model.modules
        assert "repro.fastpath.engine" in model.modules
        # Package __init__ maps to the package name itself.
        assert "repro.fastpath" in model.modules

    def test_symbols_and_method_qualnames(self, make_project):
        model = ProjectModel.load(make_project())
        record = model.get("repro.trace.record")
        assert record is not None
        assert "Trace" in record.classes
        assert "Trace.fingerprint" in record.functions
        assert "TraceRecord" in record.classes

    def test_import_table_handles_from_imports(self, make_project):
        model = ProjectModel.load(make_project())
        engine = model.get("repro.fastpath.engine")
        assert engine is not None
        assert engine.imports["GroupMetrics"] == (
            "repro.simulation.metrics.GroupMetrics"
        )

    def test_dataclass_fields_with_lines(self, make_project):
        model = ProjectModel.load(make_project())
        info = model.get("repro.simulation.simulator")
        assert info is not None
        fields = info.dataclass_fields("SimulationConfig")
        assert set(fields) == {"scheme", "window_size", "sanitize"}
        # Lines are 1-based and ordered like the source.
        assert fields["scheme"] < fields["window_size"] < fields["sanitize"]

    def test_dataclass_fields_skip_classvar(self, make_project):
        root = make_project(
            {
                "repro/simulation/metrics.py": '''
                    from dataclasses import dataclass
                    from typing import ClassVar

                    @dataclass
                    class GroupMetrics:
                        TABLE: ClassVar[dict] = {}
                        requests: int = 0
                '''
            }
        )
        model = ProjectModel.load(root)
        info = model.get("repro.simulation.metrics")
        assert info is not None
        assert set(info.dataclass_fields("GroupMetrics")) == {"requests"}

    def test_method_index_spans_modules(self, make_project):
        model = ProjectModel.load(make_project())
        assert "repro.trace.record:Trace.fingerprint" in model.method_index[
            "fingerprint"
        ]

    def test_function_node_lookup(self, make_project):
        model = ProjectModel.load(make_project())
        node = model.function_node("repro.simulation.simulator:run_simulation")
        assert node is not None and node.name == "run_simulation"
        assert model.function_node("repro.simulation.simulator:missing") is None

    def test_syntax_error_files_are_skipped(self, make_project):
        root = make_project({"repro/broken.py": "def oops(:\n"})
        model = ProjectModel.load(root)
        assert "repro.broken" not in model.modules
        assert "repro.simulation.simulator" in model.modules

    def test_empty_root_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            ProjectModel.load(tmp_path / "nothing")


class TestCallGraph:
    def test_local_and_imported_edges(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    from dataclasses import dataclass
                    from repro.fastpath.engine import simulate_columnar

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def helper(config):
                        return config.scheme, config.sanitize

                    def run_simulation(config, trace):
                        window = config.window_size
                        helper(config)
                        return simulate_columnar(config, trace)
                '''
            }
        )
        graph = CallGraph.build(ProjectModel.load(root))
        callees = graph.edges["repro.simulation.simulator:run_simulation"]
        assert "repro.simulation.simulator:helper" in callees
        assert "repro.fastpath.engine:simulate_columnar" in callees

    def test_reexport_is_chased(self, make_project):
        root = make_project(
            {
                "repro/fastpath/__init__.py": '''
                    from repro.fastpath.engine import simulate_columnar

                    FALLBACK_MATRIX = (
                        FallbackRule(field="sanitize", supported=(False,)),
                    )
                    COLUMNAR_NEUTRAL_FIELDS = ()
                ''',
                "repro/simulation/simulator.py": '''
                    from dataclasses import dataclass
                    from repro.fastpath import simulate_columnar

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        return simulate_columnar(config, trace)
                ''',
            }
        )
        graph = CallGraph.build(ProjectModel.load(root))
        callees = graph.edges["repro.simulation.simulator:run_simulation"]
        assert "repro.fastpath.engine:simulate_columnar" in callees

    def test_self_method_resolves_same_module(self, make_project):
        root = make_project(
            {
                "repro/simulation/driver.py": '''
                    class Driver:
                        def run(self):
                            return self.step()

                        def step(self):
                            return 1
                '''
            }
        )
        graph = CallGraph.build(ProjectModel.load(root))
        callees = graph.edges["repro.simulation.driver:Driver.run"]
        assert callees == ["repro.simulation.driver:Driver.step"]

    def test_unknown_receiver_over_approximates(self, make_project):
        root = make_project(
            {
                "repro/simulation/driver.py": '''
                    def run(thing):
                        return thing.fingerprint()
                '''
            }
        )
        graph = CallGraph.build(ProjectModel.load(root))
        callees = graph.edges["repro.simulation.driver:run"]
        assert "repro.trace.record:Trace.fingerprint" in callees

    def test_reachable_is_transitive_and_ignores_unknown_roots(
        self, make_project
    ):
        root = make_project(
            {
                "repro/simulation/driver.py": '''
                    def a():
                        return b()

                    def b():
                        return c()

                    def c():
                        return 1

                    def island():
                        return 2
                '''
            }
        )
        graph = CallGraph.build(ProjectModel.load(root))
        reached = graph.reachable(
            ["repro.simulation.driver:a", "repro.missing:root"]
        )
        assert "repro.simulation.driver:c" in reached
        assert "repro.simulation.driver:island" not in reached


class TestProductionRoots:
    """The analyzers skip roots absent from the model (fixture trees pass
    their own), so a root left behind by a move would shrink an audit
    without a word. Every root they default to must name a function of
    the real tree."""

    @pytest.mark.parametrize(
        "root", sorted(set(DEFAULT_ROOTS) | set(HOT_ROOTS) | set(ENGINE_ROOTS))
    )
    def test_every_default_root_resolves_in_src(self, root):
        model = ProjectModel.load(REPO_SRC)
        assert model.function_node(root) is not None, root

    def test_sweep_worker_path_is_a_worker_root(self):
        # RPR131/132 audit what pool workers run from worker_roots only; a
        # submission idiom it does not know (``executor.map``) would drop
        # the sweep's task and initializer without a word.
        roots = worker_roots(ProjectModel.load(REPO_SRC))
        assert {
            "repro.parallel.runner:_run_task",
            "repro.parallel.runner:_init_worker",
        } <= roots
