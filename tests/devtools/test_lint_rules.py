"""One positive and one suppressed-negative fixture per lint rule."""

from pathlib import Path

import pytest

from repro.devtools.lint import all_rules, lint_source
from repro.devtools.lint.rules.scalarization import BatchScalarizationRule

REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

CORE = "src/repro/core/module.py"
CACHE = "src/repro/cache/module.py"
SIM = "src/repro/simulation/module.py"
TRACE = "src/repro/trace/module.py"


def codes(source, path):
    return [f.rule for f in lint_source(source, path=path)]


def assert_fires(rule, source, path):
    found = codes(source, path)
    assert rule in found, f"{rule} did not fire; got {found}"


def assert_silent(rule, source, path):
    found = codes(source, path)
    assert rule not in found, f"{rule} fired unexpectedly: {found}"


class TestRPR003AgeEquality:
    def test_age_equality_flagged(self):
        src = (
            '"""m."""\n\ndef f(requester_age, responder_age):\n    """D."""\n'
            "    return requester_age == responder_age\n"
        )
        assert_fires("RPR003", src, CORE)

    def test_age_inequality_flagged(self):
        src = (
            '"""m."""\n\ndef f(cache, other_age, now):\n    """D."""\n'
            "    return cache.expiration_age(now) != other_age\n"
        )
        assert_fires("RPR003", src, CACHE)

    def test_sanctioned_helper_exempt(self):
        src = (
            '"""m."""\n\ndef ages_equal(left, right):\n    """D."""\n'
            "    return left == right\n"
        )
        assert_silent("RPR003", src, "src/repro/core/placement.py")

    def test_ordering_comparisons_ok(self):
        src = (
            '"""m."""\n\ndef f(requester_age, responder_age):\n    """D."""\n'
            "    return requester_age > responder_age\n"
        )
        assert_silent("RPR003", src, CORE)

    def test_suppressed_with_pragma(self):
        src = (
            '"""m."""\n\ndef f(a_age, b_age):\n    """D."""\n'
            "    return a_age == b_age  # repro: noqa[RPR003]\n"
        )
        assert_silent("RPR003", src, CORE)


class TestRPR005FrozenDataclass:
    def test_unfrozen_public_dataclass_flagged(self):
        src = (
            '"""m."""\nfrom dataclasses import dataclass\n\n'
            '@dataclass\nclass Decision:\n    """D."""\n\n    x: int\n'
        )
        assert_fires("RPR005", src, CORE)

    def test_frozen_false_flagged(self):
        src = (
            '"""m."""\nfrom dataclasses import dataclass\n\n'
            '@dataclass(frozen=False)\nclass Decision:\n    """D."""\n\n    x: int\n'
        )
        assert_fires("RPR005", src, CACHE)

    def test_frozen_ok(self):
        src = (
            '"""m."""\nfrom dataclasses import dataclass\n\n'
            '@dataclass(frozen=True)\nclass Decision:\n    """D."""\n\n    x: int\n'
        )
        assert_silent("RPR005", src, CORE)

    def test_private_dataclass_ok(self):
        src = (
            '"""m."""\nfrom dataclasses import dataclass\n\n'
            '@dataclass\nclass _Scratch:\n    """D."""\n\n    x: int\n'
        )
        assert_silent("RPR005", src, CORE)

    def test_outside_core_cache_ok(self):
        src = (
            '"""m."""\nfrom dataclasses import dataclass\n\n'
            '@dataclass\nclass Decision:\n    """D."""\n\n    x: int\n'
        )
        assert_silent("RPR005", src, TRACE)

    def test_suppressed_on_decorator_line(self):
        src = (
            '"""m."""\nfrom dataclasses import dataclass\n\n'
            "@dataclass  # repro: noqa[RPR005] counters are mutable\n"
            'class Stats:\n    """D."""\n\n    hits: int = 0\n'
        )
        assert_silent("RPR005", src, CACHE)


class TestRPR006Docstrings:
    def test_missing_module_docstring_flagged(self):
        assert_fires("RPR006", "X = 1\n", CORE)

    def test_missing_public_function_docstring_flagged(self):
        src = '"""m."""\n\ndef public():\n    return 1\n'
        assert_fires("RPR006", src, CORE)

    def test_missing_public_class_docstring_flagged(self):
        src = '"""m."""\n\nclass Public:\n    pass\n'
        assert_fires("RPR006", src, CORE)

    def test_private_function_ok(self):
        src = '"""m."""\n\ndef _helper():\n    return 1\n'
        assert_silent("RPR006", src, CORE)

    def test_test_files_exempt(self):
        assert_silent("RPR006", "def test_thing():\n    assert True\n", "tests/test_x.py")

    def test_suppressed_with_pragma(self):
        src = '"""m."""\n\ndef public():  # repro: noqa[RPR006]\n    return 1\n'
        assert_silent("RPR006", src, CORE)


class TestRPR007MutableDefaults:
    def test_list_default_flagged(self):
        src = '"""m."""\n\ndef f(items=[]):\n    """D."""\n'
        assert_fires("RPR007", src, CORE)

    def test_dict_call_default_flagged(self):
        src = '"""m."""\n\ndef f(options=dict()):\n    """D."""\n'
        assert_fires("RPR007", src, TRACE)

    def test_applies_to_tests_too(self):
        assert_fires("RPR007", "def helper(acc={}):\n    return acc\n", "tests/test_x.py")

    def test_none_default_ok(self):
        src = '"""m."""\n\ndef f(items=None):\n    """D."""\n'
        assert_silent("RPR007", src, CORE)

    def test_suppressed_with_pragma(self):
        src = '"""m."""\n\ndef f(items=[]):  # repro: noqa[RPR007]\n    """D."""\n'
        assert_silent("RPR007", src, CORE)


class TestParseErrors:
    def test_syntax_error_reported_as_rpr000(self):
        found = lint_source("def broken(:\n", path=CORE)
        assert [f.rule for f in found] == ["RPR000"]

    def test_findings_carry_location(self):
        src = '"""m."""\n\ndef f(a_age, b_age):\n    """D."""\n    return a_age == b_age\n'
        (finding,) = [f for f in lint_source(src, path=SIM) if f.rule == "RPR003"]
        assert finding.line == 5
        assert finding.path == SIM
        assert "ages_equal" in finding.message
        assert SIM in finding.render()


class TestRPR008UnpicklablePoolCallable:
    PARALLEL = "src/repro/parallel/module.py"

    def test_lambda_to_pool_map_flagged(self):
        src = (
            '"""m."""\n\ndef fan_out(pool, xs):\n    """D."""\n'
            "    return pool.map(lambda x: x + 1, xs)\n"
        )
        assert_fires("RPR008", src, self.PARALLEL)

    def test_nested_function_to_apply_async_flagged(self):
        src = (
            '"""m."""\n\ndef fan_out(pool, xs):\n    """D."""\n'
            "    def worker(x):\n        return x + 1\n"
            "    return pool.apply_async(worker, xs)\n"
        )
        assert_fires("RPR008", src, self.PARALLEL)

    def test_lambda_to_submit_flagged(self):
        src = (
            '"""m."""\n\ndef fan_out(executor):\n    """D."""\n'
            "    return executor.submit(lambda: 1)\n"
        )
        assert_fires("RPR008", src, self.PARALLEL)

    def test_module_level_function_ok(self):
        src = (
            '"""m."""\n\ndef worker(x):\n    """D."""\n    return x + 1\n\n'
            'def fan_out(pool, xs):\n    """D."""\n    return pool.map(worker, xs)\n'
        )
        assert_silent("RPR008", src, self.PARALLEL)

    def test_plain_builtin_map_ignored(self):
        src = (
            '"""m."""\n\ndef fan_out(xs):\n    """D."""\n'
            "    return list(map(lambda x: x + 1, xs))\n"
        )
        assert_silent("RPR008", src, self.PARALLEL)

    def test_out_of_scope_package_not_flagged(self):
        src = (
            '"""m."""\n\ndef fan_out(pool, xs):\n    """D."""\n'
            "    return pool.map(lambda x: x + 1, xs)\n"
        )
        assert_silent("RPR008", src, "src/repro/experiments/module.py")

    def test_suppressed_with_pragma(self):
        src = (
            '"""m."""\n\ndef fan_out(pool, xs):\n    """D."""\n'
            "    return pool.map(lambda x: x + 1, xs)  # repro: noqa[RPR008]\n"
        )
        assert_silent("RPR008", src, self.PARALLEL)


class TestRPR009HotLoopAllocation:
    FASTPATH = "src/repro/fastpath/module.py"

    def test_dataclass_in_for_body_flagged(self):
        src = (
            '"""m."""\nfrom repro.cache.document import CacheEntry\n\n'
            'def replay(docs):\n    """D."""\n'
            "    for doc in docs:\n"
            "        entry = CacheEntry(document=doc, entry_time=0.0)\n"
            "        yield entry\n"
        )
        assert_fires("RPR009", src, self.FASTPATH)

    def test_attribute_construction_flagged(self):
        src = (
            '"""m."""\nfrom repro.protocol import http\n\n'
            'def replay(urls):\n    """D."""\n'
            "    for url in urls:\n"
            "        yield http.HttpRequest(url=url, sender='c')\n"
        )
        assert_fires("RPR009", src, self.FASTPATH)

    def test_dict_comprehension_in_while_flagged(self):
        src = (
            '"""m."""\n\ndef drain(queue):\n    """D."""\n'
            "    while queue:\n"
            "        snapshot = {k: v for k, v in queue.items()}\n"
            "        queue.popitem()\n"
            "    return snapshot\n"
        )
        assert_fires("RPR009", src, self.FASTPATH)

    def test_allocation_outside_loop_ok(self):
        src = (
            '"""m."""\nfrom repro.cache.document import EvictionRecord\n\n'
            'def summarise(ages):\n    """D."""\n'
            "    record = EvictionRecord(url='u', size=1, entry_time=0.0,\n"
            "                            last_hit_time=0.0, hit_count=1,\n"
            "                            evict_time=1.0)\n"
            "    total = 0.0\n"
            "    for age in ages:\n"
            "        total += age\n"
            "    return record, total\n"
        )
        assert_silent("RPR009", src, self.FASTPATH)

    def test_dict_comp_in_for_iterable_ok(self):
        # The iterable expression evaluates once, not per iteration.
        src = (
            '"""m."""\n\ndef index(urls):\n    """D."""\n'
            "    out = []\n"
            "    for url in {u: i for i, u in enumerate(urls)}:\n"
            "        out.append(url)\n"
            "    return out\n"
        )
        assert_silent("RPR009", src, self.FASTPATH)

    def test_out_of_scope_package_not_flagged(self):
        src = (
            '"""m."""\nfrom repro.cache.document import CacheEntry\n\n'
            'def replay(docs):\n    """D."""\n'
            "    for doc in docs:\n"
            "        yield CacheEntry(document=doc, entry_time=0.0)\n"
        )
        assert_silent("RPR009", src, "src/repro/simulation/module.py")

    def test_suppressed_with_pragma(self):
        src = (
            '"""m."""\nfrom repro.cache.document import CacheEntry\n\n'
            'def replay(docs):\n    """D."""\n'
            "    for doc in docs:\n"
            "        yield CacheEntry(document=doc, entry_time=0.0)  # repro: noqa[RPR009]\n"
        )
        assert_silent("RPR009", src, self.FASTPATH)


class TestRPR010FastpathConfigAccess:
    FASTPATH = "src/repro/fastpath/module.py"

    def test_config_read_in_for_body_flagged(self):
        src = (
            '"""m."""\n\ndef replay(config, events):\n    """D."""\n'
            "    total = 0\n"
            "    for ev in events:\n"
            '        if config.latency == "constant":\n'
            "            total += 1\n"
            "    return total\n"
        )
        assert_fires("RPR010", src, self.FASTPATH)

    def test_config_read_in_while_condition_flagged(self):
        src = (
            '"""m."""\n\ndef replay(config):\n    """D."""\n'
            "    n = 0\n"
            "    while n < config.warmup_requests:\n"
            "        n += 1\n"
            "    return n\n"
        )
        assert_fires("RPR010", src, self.FASTPATH)

    def test_self_config_chain_flagged(self):
        src = (
            '"""m."""\n\nclass Engine:\n    """D."""\n\n'
            '    def replay(self, events):\n        """D."""\n'
            "        total = 0\n"
            "        for ev in events:\n"
            "            total += self.config.window_size\n"
            "        return total\n"
        )
        assert_fires("RPR010", src, self.FASTPATH)

    def test_hoisted_setup_read_ok(self):
        src = (
            '"""m."""\n\ndef replay(config, events):\n    """D."""\n'
            '    constant = config.latency == "constant"\n'
            "    total = 0\n"
            "    for ev in events:\n"
            "        if constant:\n"
            "            total += 1\n"
            "    return total\n"
        )
        assert_silent("RPR010", src, self.FASTPATH)

    def test_loop_iterable_evaluates_once_ok(self):
        src = (
            '"""m."""\n\ndef replay(config):\n    """D."""\n'
            "    total = 0\n"
            "    for i in range(config.warmup_requests):\n"
            "        total += i\n"
            "    return total\n"
        )
        assert_silent("RPR010", src, self.FASTPATH)

    def test_out_of_scope_package_not_flagged(self):
        src = (
            '"""m."""\n\ndef replay(config, events):\n    """D."""\n'
            "    total = 0\n"
            "    for ev in events:\n"
            "        total += config.window_size\n"
            "    return total\n"
        )
        assert_silent("RPR010", src, "src/repro/simulation/module.py")

    def test_suppressed_with_pragma(self):
        src = (
            '"""m."""\n\ndef replay(config, events):\n    """D."""\n'
            "    total = 0\n"
            "    for ev in events:\n"
            "        total += config.window_size  # repro: noqa[RPR010]\n"
            "    return total\n"
        )
        assert_silent("RPR010", src, self.FASTPATH)


class TestRPR011HotLoopDirectIO:
    def test_print_in_for_loop_flagged(self):
        src = (
            '"""m."""\n\ndef replay(events):\n    """D."""\n'
            "    for ev in events:\n"
            "        print(ev)\n"
        )
        assert_fires("RPR011", src, SIM)

    def test_open_in_while_loop_flagged(self):
        src = (
            '"""m."""\n\ndef drain(queue):\n    """D."""\n'
            "    while queue:\n"
            "        item = queue.pop()\n"
            '        open("log.txt", "a")\n'
        )
        assert_fires("RPR011", src, CACHE)

    def test_write_method_in_loop_flagged(self):
        src = (
            '"""m."""\n\ndef replay(events, handle):\n    """D."""\n'
            "    for ev in events:\n"
            "        handle.write(str(ev))\n"
        )
        assert_fires("RPR011", src, "src/repro/fastpath/module.py")

    def test_io_outside_loop_ok(self):
        src = (
            '"""m."""\n\ndef report(summary, handle):\n    """D."""\n'
            "    handle.write(summary)\n"
            "    print(summary)\n"
        )
        assert_silent("RPR011", src, SIM)

    def test_non_io_attribute_call_in_loop_ok(self):
        src = (
            '"""m."""\n\ndef replay(events, sink):\n    """D."""\n'
            "    for ev in events:\n"
            "        sink.record(ev)\n"
        )
        assert_silent("RPR011", src, SIM)

    def test_out_of_scope_package_not_flagged(self):
        src = (
            '"""m."""\n\ndef replay(events):\n    """D."""\n'
            "    for ev in events:\n"
            "        print(ev)\n"
        )
        assert_silent("RPR011", src, "src/repro/experiments/module.py")

    def test_suppressed_with_pragma(self):
        src = (
            '"""m."""\n\ndef replay(events, handle):\n    """D."""\n'
            "    for ev in events:\n"
            "        handle.write(str(ev))  # repro: noqa[RPR011]\n"
        )
        assert_silent("RPR011", src, SIM)


class TestRPR012BatchScalarization:
    BATCH = "src/repro/fastpath/batch.py"
    NUMERIC = "src/repro/fastpath/numeric.py"
    DECODER = "src/repro/trace/columnar_io.py"
    OTHER_FASTPATH = "src/repro/fastpath/columnar.py"
    OTHER_TRACE = "src/repro/trace/stream.py"

    def test_for_over_np_call_flagged(self):
        src = (
            '"""m."""\n\ndef apply(m, lh):\n    """D."""\n'
            "    for s in np.flatnonzero(m):\n"
            "        lh[s] = 0.0\n"
        )
        assert_fires("RPR012", src, self.BATCH)

    def test_for_over_tracked_name_flagged(self):
        src = (
            '"""m."""\n\ndef apply(m, lh):\n    """D."""\n'
            "    idx = np.flatnonzero(m)\n"
            "    for s in idx:\n"
            "        lh[s] = 0.0\n"
        )
        assert_fires("RPR012", src, self.BATCH)

    def test_zip_of_derived_arrays_flagged(self):
        src = (
            '"""m."""\n\ndef apply(g, slot, cm):\n    """D."""\n'
            "    g = np.asarray(g)\n"
            "    slot = np.asarray(slot)\n"
            "    for a, b in zip(g[cm], slot[cm]):\n"
            "        pass\n"
        )
        assert_fires("RPR012", src, self.BATCH)

    def test_comprehension_over_array_flagged(self):
        src = (
            '"""m."""\n\ndef apply(m):\n    """D."""\n'
            "    idx = np.flatnonzero(m)\n"
            "    return [int(s) for s in idx]\n"
        )
        assert_fires("RPR012", src, self.BATCH)

    def test_tolist_escape_not_flagged(self):
        src = (
            '"""m."""\n\ndef apply(m, lh):\n    """D."""\n'
            "    for s in np.flatnonzero(m).tolist():\n"
            "        lh[s] = 0.0\n"
        )
        assert_silent("RPR012", src, self.BATCH)

    def test_plain_iterables_not_flagged(self):
        src = (
            '"""m."""\n\ndef apply(pending, touched, n):\n    """D."""\n'
            "    for slots, gs in pending:\n"
            "        pass\n"
            "    for slot, pair in touched.items():\n"
            "        pass\n"
            "    for i in range(n):\n"
            "        pass\n"
        )
        assert_silent("RPR012", src, self.BATCH)

    def test_rebound_name_not_flagged(self):
        src = (
            '"""m."""\n\ndef apply(m):\n    """D."""\n'
            "    idx = np.flatnonzero(m)\n"
            "    idx = idx.tolist()\n"
            "    for s in idx:\n"
            "        pass\n"
        )
        assert_silent("RPR012", src, self.BATCH)

    def test_other_fastpath_module_out_of_scope(self):
        src = (
            '"""m."""\n\ndef apply(m, lh):\n    """D."""\n'
            "    for s in np.flatnonzero(m):\n"
            "        lh[s] = 0.0\n"
        )
        assert_silent("RPR012", src, self.OTHER_FASTPATH)

    def test_trace_decoder_in_scope(self):
        src = (
            '"""m."""\n\ndef decode(buf, n, off):\n    """D."""\n'
            "    col = np.frombuffer(buf, np.int64, n, off)\n"
            "    return [int(v) for v in col]\n"
        )
        assert_fires("RPR012", src, self.DECODER)

    def test_numeric_gate_in_scope(self):
        src = (
            '"""m."""\n\ndef probe(m):\n    """D."""\n'
            "    for v in np.asarray(m):\n"
            "        pass\n"
        )
        assert_fires("RPR012", src, self.NUMERIC)

    def test_decoder_tolist_escape_not_flagged(self):
        src = (
            '"""m."""\n\ndef decode(buf, n, off):\n    """D."""\n'
            "    col = np.frombuffer(buf, np.int64, n, off).tolist()\n"
            "    return [int(v) for v in col]\n"
        )
        assert_silent("RPR012", src, self.DECODER)

    def test_other_trace_module_out_of_scope(self):
        src = (
            '"""m."""\n\ndef apply(m, lh):\n    """D."""\n'
            "    for s in np.flatnonzero(m):\n"
            "        lh[s] = 0.0\n"
        )
        assert_silent("RPR012", src, self.OTHER_TRACE)

    def test_suppressed_with_pragma(self):
        src = (
            '"""m."""\n\ndef apply(m, lh):\n    """D."""\n'
            "    for s in np.flatnonzero(m):  # repro: noqa[RPR012]\n"
            "        lh[s] = 0.0\n"
        )
        assert_silent("RPR012", src, self.BATCH)


class TestRuleScopes:
    """A mis-scoped rule silently never fires, so every scope must name
    something that exists in src."""

    @pytest.mark.parametrize("rule", all_rules(), ids=lambda rule: rule.code)
    def test_packages_name_existing_subpackages(self, rule):
        for package in rule.packages or ():
            assert (REPRO / package / "__init__.py").is_file(), (
                f"{rule.code} scopes to missing package repro.{package}"
            )

    @pytest.mark.parametrize("name", sorted(BatchScalarizationRule._SCOPED_FILES))
    def test_scalarization_files_exist(self, name):
        packages = BatchScalarizationRule.packages or ()
        assert any((REPRO / package / name).is_file() for package in packages), (
            f"RPR012 scopes to {name}, which no scoped package holds"
        )
