"""Golden comparison: the determinism analyzer before and after the port.

RPR111/RPR112 used to be found by a dedicated call-scan inside the
determinism walk; they are now read off the shared effect sites. The
port must be behaviour-preserving, so this test carries an independent
reimplementation of the *old* algorithm (call-graph reachability + a
per-function AST scan against the same constant sets + the unchanged
syntactic RPR113-115 audit) and asserts finding-for-finding equality —
on the real source tree and on defect-seeded fixtures.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

from repro.devtools.analysis import CallGraph, ProjectModel
from repro.devtools.analysis.determinism import (
    DEFAULT_ROOTS,
    _audit_syntactic,
    analyze_determinism,
)
from repro.devtools.analysis.effects import (
    GLOBAL_RNG_CALLS,
    WALL_CLOCK_CALLS,
    dotted_call_name,
)
from repro.devtools.lint.findings import Finding

from tests.devtools.conftest import FIXTURE_ROOTS

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def legacy_analyze_determinism(model, roots) -> List[Finding]:
    """The pre-port algorithm, reimplemented from its original shape."""
    graph = CallGraph.build(model)
    findings: List[Finding] = []
    for node_id in sorted(graph.reachable(roots)):
        module_name = node_id.partition(":")[0]
        info = model.get(module_name)
        func = model.function_node(node_id)
        if info is None or func is None:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_name(info, node.func)
            if dotted in WALL_CLOCK_CALLS:
                findings.append(
                    Finding(
                        path=info.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="RPR111",
                        message=(
                            f"wall-clock call `{dotted}()` on a "
                            "simulation-reachable path; time must come from "
                            "trace timestamps or an injected clock"
                        ),
                    )
                )
            elif dotted in GLOBAL_RNG_CALLS:
                findings.append(
                    Finding(
                        path=info.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="RPR112",
                        message=(
                            f"process-global RNG call `{dotted}()` on a "
                            "simulation-reachable path; draw from a "
                            "config-seeded random.Random instead"
                        ),
                    )
                )
        findings.extend(_audit_syntactic(info, func))
    return sorted(set(findings))


def assert_port_identical(model, roots):
    assert analyze_determinism(model, roots=roots) == (
        legacy_analyze_determinism(model, roots)
    )


class TestGoldenEquivalence:
    def test_real_source_tree(self):
        model = ProjectModel.load(REPO_SRC)
        ported = analyze_determinism(model)
        assert ported == legacy_analyze_determinism(model, DEFAULT_ROOTS)
        # The real tree's findings are all noqa'd at the filter layer, but
        # the raw analyzer must still see the sanctioned perf counters.
        assert any(f.rule == "RPR111" for f in ported)

    def test_clean_fixture_tree(self, make_project):
        model = ProjectModel.load(make_project())
        assert_port_identical(model, FIXTURE_ROOTS)

    def test_seeded_wall_clock_fixture(self, make_project):
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
        model = ProjectModel.load(root)
        assert_port_identical(model, FIXTURE_ROOTS)
        assert [
            f.rule for f in analyze_determinism(model, roots=FIXTURE_ROOTS)
        ] == ["RPR111"]

    def test_seeded_transitive_rng_fixture(self, make_project):
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
        assert_port_identical(ProjectModel.load(root), FIXTURE_ROOTS)

    def test_seeded_mixed_syntactic_fixture(self, make_project):
        root = make_project(
            {
                "repro/fastpath/engine.py": '''
                    import glob
                    import time
                    from repro.simulation.metrics import GroupMetrics

                    def simulate_columnar(config, trace):
                        used = (config.scheme, config.window_size)
                        stamp = time.monotonic()
                        names = glob.glob("*.bu")
                        total = sum({r.size for r in trace})
                        for kind in {"a", "b"}:
                            total += 1
                        return GroupMetrics(requests=total, local_hits=0, misses=0)
                '''
            }
        )
        model = ProjectModel.load(root)
        assert_port_identical(model, FIXTURE_ROOTS)
        fired = sorted(
            {f.rule for f in analyze_determinism(model, roots=FIXTURE_ROOTS)}
        )
        assert fired == ["RPR111", "RPR113", "RPR114", "RPR115"]
