"""Hot-loop rules: what must not happen once per request.

Three rules share one loop-depth visitor, :class:`LoopRule`:

* **RPR009** — ``repro.fastpath`` exists to replay the request loop
  without per-request object churn: its engine works over pre-interned
  integer arrays, and its throughput edge over the object core comes
  precisely from *not* building a ``CacheEntry`` / ``HttpRequest`` / dict
  per event. A dataclass construction or dict comprehension added inside
  one of its loops quietly reintroduces that cost.
* **RPR010** — the kernel reads :class:`SimulationConfig` exactly once,
  at setup: every field it honours is hoisted into a local or baked into
  the interned arrays before the replay loop starts. That is what makes
  engine parity *auditable* — ``repro analyze parity`` diffs the setup
  reads against the fallback matrix. A ``config.field`` read inside the
  loop re-pays an attribute lookup per request and hides a field where
  the parity diff will not look.
* **RPR011** — the observability layer (``repro.obs``) is the only
  sanctioned output channel from the engines. A stray ``print`` or
  ad-hoc write inside a simulation loop costs syscalls per request even
  with observability off, and produces output the event schema never
  sees.

Each rule flags only inside a loop: a ``for`` target and body, or a
``while`` condition and body (the ``for`` iterable evaluates once).
Setup, result assembly and error paths are fine; a deliberate exception
takes ``# repro: noqa[RPRnnn]``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.devtools.lint.registry import FileContext, RuleVisitor, register


class LoopRule(RuleVisitor):
    """A rule visitor that knows whether it is inside a loop body."""

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self.loop_depth = 0

    def _visit_per_iteration(self, nodes: Iterable[ast.AST]) -> None:
        self.loop_depth += 1
        for child in nodes:
            self.visit(child)
        self.loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._visit_per_iteration([node.target, *node.body])
        for child in node.orelse:
            self.visit(child)

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self._visit_per_iteration([node.test, *node.body])
        for child in node.orelse:
            self.visit(child)


#: Per-event object types the object engine allocates and the kernel
#: must not: constructing any of these inside a fastpath loop body is
#: per-request allocation by definition.
_PER_REQUEST_CLASSES: Set[str] = {
    "CacheEntry",
    "Document",
    "EvictionRecord",
    "RequestOutcome",
    "HttpRequest",
    "HttpResponse",
    "ICPMessage",
    "TraceRecord",
}

#: Variable names conventionally holding a SimulationConfig (kept in sync
#: with repro.devtools.analysis.dataflow.CONFIG_RECEIVER_NAMES).
_CONFIG_NAMES = frozenset({"config", "cfg", "base_config", "sim_config"})

#: Direct-output callables that must not appear per-iteration: console
#: writes, file opens, and raw stream writes.
_DIRECT_IO_NAMES: Set[str] = {"print", "open"}
_DIRECT_IO_ATTRS: Set[str] = {"write", "writelines"}


@register
class HotLoopAllocationRule(LoopRule):
    """RPR009: no per-request object allocation in fastpath hot loops.

    Flags a per-event repro dataclass construction (``CacheEntry``,
    ``http.HttpRequest(...)``, ...) and any dict comprehension.
    """

    code = "RPR009"
    summary = "per-request object allocation inside a fastpath hot loop"
    packages = ("fastpath",)

    def visit_Call(self, node: ast.Call) -> None:
        if self.loop_depth > 0:
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _PER_REQUEST_CLASSES:
                self.report(
                    node,
                    f"`{name}` constructed inside a fastpath loop allocates "
                    "one object per request; hoist it out or work on the "
                    "interned arrays",
                )
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if self.loop_depth > 0:
            self.report(
                node,
                "dict comprehension inside a fastpath loop allocates a dict "
                "per iteration; build it once outside the loop",
            )
        self.generic_visit(node)


@register
class FastpathConfigAccessRule(LoopRule):
    """RPR010: no direct SimulationConfig access in fastpath hot loops.

    Flags ``config.<anything>`` (receiver named ``config`` / ``cfg`` /
    ``base_config`` / ``sim_config``, or ``self.config`` /
    ``<expr>.config``). Hoist the read into a local during setup.
    """

    code = "RPR010"
    summary = "SimulationConfig attribute access inside a fastpath hot loop"
    packages = ("fastpath",)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.loop_depth > 0:
            value = node.value
            is_config = (
                isinstance(value, ast.Name) and value.id in _CONFIG_NAMES
            ) or (isinstance(value, ast.Attribute) and value.attr == "config")
            if is_config:
                self.report(
                    node,
                    f"`config.{node.attr}` read inside a fastpath loop "
                    "bypasses the columnar setup phase; hoist it into a "
                    "local before the loop so the parity audit sees it",
                )
        self.generic_visit(node)


@register
class HotLoopDirectIORule(LoopRule):
    """RPR011: no direct console/file I/O inside simulation hot loops.

    Flags ``print(...)`` / ``open(...)`` and ``.write(...)`` /
    ``.writelines(...)`` on any receiver in the engine-side packages.
    ``repro.obs`` is exempt: it owns the sink.
    """

    code = "RPR011"
    summary = "direct console/file I/O inside a simulation hot loop"
    packages = ("fastpath", "simulation", "cache", "architecture", "core")

    def visit_Call(self, node: ast.Call) -> None:
        if self.loop_depth > 0:
            func = node.func
            if isinstance(func, ast.Name) and func.id in _DIRECT_IO_NAMES:
                self.report(
                    node,
                    f"`{func.id}(...)` inside a simulation loop does I/O per "
                    "iteration even with observability disabled; emit through "
                    "a repro.obs recorder instead",
                )
            elif isinstance(func, ast.Attribute) and func.attr in _DIRECT_IO_ATTRS:
                self.report(
                    node,
                    f"`.{func.attr}(...)` inside a simulation loop writes a "
                    "stream per iteration; route output through repro.obs",
                )
        self.generic_visit(node)
