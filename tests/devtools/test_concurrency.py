"""Fixture tests for the concurrency-safety analyzer (RPR131-136).

The two ISSUE-mandated seeded-defect regressions live here too: a
global-mutating helper reached from a pool worker callable must fire
RPR131, and a ``time.sleep`` on a public protocol path must fire RPR136.
"""

from __future__ import annotations

from repro.devtools.analysis import ProjectModel, analyze_concurrency


def rules(root):
    return [f.rule for f in analyze_concurrency(ProjectModel.load(root))]


def audit(root):
    return analyze_concurrency(ProjectModel.load(root))


class TestCleanTree:
    def test_fixture_tree_is_clean(self, make_project):
        assert rules(make_project()) == []


class TestRPR131ForkUnsafeWorkers:
    def test_worker_mutating_global_through_helper_fires(self, make_project):
        """Seeded defect: pool worker -> helper -> module-global mutation."""
        root = make_project(
            {
                "repro/parallel/__init__.py": "",
                "repro/parallel/runner.py": '''
                    from multiprocessing import Pool

                    from repro.parallel.tasks import run_task

                    def sweep(configs):
                        with Pool() as pool:
                            return pool.imap_unordered(run_task, configs)
                ''',
                "repro/parallel/tasks.py": '''
                    from repro.parallel.stats import tally

                    def run_task(config):
                        tally(config)
                        return config
                ''',
                "repro/parallel/stats.py": '''
                    _COUNTS = {}

                    def tally(config):
                        _COUNTS[id(config)] = 1
                ''',
            }
        )
        findings = audit(root)
        assert "RPR131" in [f.rule for f in findings]
        fork = [f for f in findings if f.rule == "RPR131"]
        assert any("stats" in f.path for f in fork)

    def test_pure_worker_is_clean(self, make_project):
        root = make_project(
            {
                "repro/parallel/__init__.py": "",
                "repro/parallel/runner.py": '''
                    from multiprocessing import Pool

                    from repro.parallel.tasks import run_task

                    def sweep(configs):
                        with Pool() as pool:
                            return pool.imap_unordered(run_task, configs)
                ''',
                "repro/parallel/tasks.py": '''
                    def run_task(config):
                        return config * 2
                ''',
            }
        )
        assert rules(root) == []

    def test_initializer_callable_is_a_root(self, make_project):
        root = make_project(
            {
                "repro/parallel/__init__.py": "",
                "repro/parallel/runner.py": '''
                    from multiprocessing import Pool

                    from repro.parallel.tasks import prime, run_task

                    def sweep(configs):
                        with Pool(initializer=prime) as pool:
                            return pool.imap_unordered(run_task, configs)
                ''',
                "repro/parallel/tasks.py": '''
                    _STATE = {}

                    def prime():
                        _STATE["ready"] = True

                    def run_task(config):
                        return config
                ''',
            }
        )
        assert "RPR131" in rules(root)

    def test_parameter_named_like_module_mutable_is_clean(self, make_project):
        # The worker mutates its own argument, which merely shares the
        # module-level dict's name.
        root = make_project(
            {
                "repro/parallel/__init__.py": "",
                "repro/parallel/runner.py": '''
                    from multiprocessing import Pool

                    from repro.parallel.tasks import run_task

                    def sweep(configs):
                        with Pool() as pool:
                            return pool.imap_unordered(run_task, configs)
                ''',
                "repro/parallel/tasks.py": '''
                    _STATE = {}

                    def run_task(_STATE):
                        _STATE["last"] = 1
                        _STATE.update(done=True)
                        return _STATE
                ''',
            }
        )
        assert rules(root) == []


class TestRPR132SharedModuleState:
    def test_read_and_written_across_boundary_fires(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    from dataclasses import dataclass

                    from repro.simulation.shared import bump, peek

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        bump()
                        return peek()
                ''',
                "repro/simulation/shared.py": '''
                    _HITS = {}

                    def bump():
                        _HITS["n"] = _HITS.get("n", 0) + 1

                    def peek():
                        return dict(_HITS)
                ''',
            }
        )
        findings = audit(root)
        fired = [f for f in findings if f.rule == "RPR132"]
        assert len(fired) == 1
        assert "_HITS" in fired[0].message

    def test_writer_only_state_is_clean(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    from dataclasses import dataclass

                    from repro.simulation.shared import bump

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        bump()
                        return 0
                ''',
                "repro/simulation/shared.py": '''
                    _HITS = {}

                    def bump():
                        _HITS["n"] = 1
                ''',
            }
        )
        assert "RPR132" not in rules(root)

    def test_parameter_named_like_state_is_not_a_reader(self, make_project):
        root = make_project(
            {
                "repro/simulation/simulator.py": '''
                    from dataclasses import dataclass

                    from repro.simulation.shared import bump, peek

                    @dataclass
                    class SimulationConfig:
                        scheme: str = "ea"
                        window_size: int = 1000
                        sanitize: bool = False

                    def run_simulation(config, trace):
                        used = (config.scheme, config.window_size, config.sanitize)
                        bump()
                        return peek({})
                ''',
                "repro/simulation/shared.py": '''
                    _HITS = {}

                    def bump():
                        _HITS["n"] = 1

                    def peek(_HITS):
                        return dict(_HITS)
                ''',
            }
        )
        assert "RPR132" not in rules(root)


class TestRPR133HotLoopIO:
    def test_io_two_calls_deep_inside_loop_fires(self, make_project):
        root = make_project(
            {
                "repro/fastpath/engine.py": '''
                    from repro.simulation.metrics import GroupMetrics
                    from repro.fastpath.audit import note

                    def simulate_columnar(config, trace):
                        used = (config.scheme, config.window_size)
                        for record in trace:
                            note(record)
                        return GroupMetrics(requests=0, local_hits=0, misses=0)
                ''',
                "repro/fastpath/audit.py": '''
                    from repro.fastpath.sink import emit

                    def note(record):
                        emit(record)
                ''',
                "repro/fastpath/sink.py": '''
                    def emit(record):
                        print(record)
                ''',
            }
        )
        findings = audit(root)
        assert [f.rule for f in findings if f.rule == "RPR133"] == ["RPR133"]

    def test_io_outside_loop_is_clean(self, make_project):
        root = make_project(
            {
                "repro/fastpath/engine.py": '''
                    from repro.simulation.metrics import GroupMetrics
                    from repro.fastpath.audit import note

                    def simulate_columnar(config, trace):
                        used = (config.scheme, config.window_size)
                        total = 0
                        for record in trace:
                            total += 1
                        note(total)
                        return GroupMetrics(requests=total, local_hits=0, misses=0)
                ''',
                "repro/fastpath/audit.py": '''
                    def note(total):
                        print(total)
                ''',
            }
        )
        assert "RPR133" not in rules(root)

    def test_obs_routed_io_is_exempt(self, make_project):
        root = make_project(
            {
                "repro/obs/__init__.py": "",
                "repro/obs/recorder.py": '''
                    def record(event):
                        print(event)
                ''',
                "repro/fastpath/engine.py": '''
                    from repro.simulation.metrics import GroupMetrics
                    from repro.obs.recorder import record

                    def simulate_columnar(config, trace):
                        used = (config.scheme, config.window_size)
                        for event in trace:
                            record(event)
                        return GroupMetrics(requests=0, local_hits=0, misses=0)
                ''',
            }
        )
        assert "RPR133" not in rules(root)


class TestRPR134InternalStateEscape:
    def test_public_return_of_mutable_internal_fires(self, make_project):
        root = make_project(
            {
                "repro/cache/__init__.py": "",
                "repro/cache/store.py": '''
                    class Store:
                        def __init__(self):
                            self._entries = {}

                        def entries(self):
                            return self._entries
                '''
            }
        )
        findings = audit(root)
        fired = [f for f in findings if f.rule == "RPR134"]
        assert len(fired) == 1
        assert "_entries" in fired[0].message

    def test_copy_return_is_clean(self, make_project):
        root = make_project(
            {
                "repro/cache/__init__.py": "",
                "repro/cache/store.py": '''
                    class Store:
                        def __init__(self):
                            self._entries = {}

                        def entries(self):
                            return dict(self._entries)
                '''
            }
        )
        assert "RPR134" not in rules(root)

    def test_private_method_is_exempt(self, make_project):
        root = make_project(
            {
                "repro/cache/__init__.py": "",
                "repro/cache/store.py": '''
                    class Store:
                        def __init__(self):
                            self._entries = {}

                        def _raw(self):
                            return self._entries
                '''
            }
        )
        assert "RPR134" not in rules(root)


class TestRPR135SharedMutableDefaults:
    def test_module_mutable_as_field_default_fires(self, make_project):
        root = make_project(
            {
                "repro/simulation/settings.py": '''
                    from dataclasses import dataclass, field

                    _SHARED = {}

                    @dataclass
                    class Knobs:
                        overrides: dict = field(default=_SHARED)
                '''
            }
        )
        findings = audit(root)
        fired = [f for f in findings if f.rule == "RPR135"]
        assert len(fired) == 1
        assert "overrides" in fired[0].message

    def test_default_factory_is_clean(self, make_project):
        root = make_project(
            {
                "repro/simulation/settings.py": '''
                    from dataclasses import dataclass, field

                    @dataclass
                    class Knobs:
                        overrides: dict = field(default_factory=dict)
                '''
            }
        )
        assert "RPR135" not in rules(root)

    def test_devtools_dataclasses_are_exempt(self, make_project):
        root = make_project(
            {
                "repro/devtools/__init__.py": "",
                "repro/devtools/knobs.py": '''
                    from dataclasses import dataclass, field

                    _SHARED = {}

                    @dataclass
                    class ToolKnobs:
                        overrides: dict = field(default=_SHARED)
                '''
            }
        )
        assert "RPR135" not in rules(root)


class TestRPR136BlockingServicePaths:
    def test_sleep_on_protocol_path_fires(self, make_project):
        """Seeded defect: time.sleep reachable from a protocol entry point."""
        root = make_project(
            {
                "repro/protocol/__init__.py": "",
                "repro/protocol/peer.py": '''
                    from repro.protocol.transport import push

                    def send_digest(digest):
                        return push(digest)
                ''',
                "repro/protocol/transport.py": '''
                    import time

                    def push(payload):
                        time.sleep(0.05)
                        return payload
                ''',
            }
        )
        findings = audit(root)
        fired = [f for f in findings if f.rule == "RPR136"]
        assert len(fired) == 1
        assert "time.sleep" in fired[0].message

    def test_private_helper_alone_is_clean(self, make_project):
        root = make_project(
            {
                "repro/protocol/__init__.py": "",
                "repro/protocol/peer.py": '''
                    import time

                    def _backoff():
                        time.sleep(0.05)
                '''
            }
        )
        assert "RPR136" not in rules(root)

    def test_network_entry_point_is_also_a_root(self, make_project):
        root = make_project(
            {
                "repro/network/__init__.py": "",
                "repro/network/link.py": '''
                    import subprocess

                    def probe(host):
                        return subprocess.run(["ping", host])
                '''
            }
        )
        assert "RPR136" in rules(root)


class TestSuppression:
    def test_noqa_on_global_write_suppresses_via_runner(self, make_project):
        from repro.devtools.analysis import filter_findings, run_analyzers

        root = make_project(
            {
                "repro/parallel/__init__.py": "",
                "repro/parallel/runner.py": '''
                    from multiprocessing import Pool

                    from repro.parallel.tasks import run_task

                    def sweep(configs):
                        with Pool() as pool:
                            return pool.imap_unordered(run_task, configs)
                ''',
                "repro/parallel/tasks.py": '''
                    _STATE = {}

                    def run_task(config):
                        _STATE["last"] = config  # repro: noqa[RPR131]
                        return config
                ''',
            }
        )
        model = ProjectModel.load(root)
        selected = ("concurrency",)
        raw = run_analyzers(model, selected)
        report = filter_findings(model, raw, selected, baseline_path=None)
        assert [f.rule for f in report.findings] == []
        assert report.suppressed >= 1
