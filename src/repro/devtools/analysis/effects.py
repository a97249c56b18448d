"""Direct effect sites per function, read by the determinism audit.

The parallel sweep runner and the memo store rest on one assumption:
nothing on a simulation-reachable path reads the wall clock or draws
from the global RNG. This module scans every project function once for
the sites that break it, each tagged with the label its rule reads:

* ``time`` — wall-clock reads (``time.time`` and friends), RPR111;
* ``rng`` — process-global ``random`` module calls, RPR112.

The determinism audit is a reachability filter over these direct sites
on the three-tier :class:`~repro.devtools.analysis.callgraph.CallGraph`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple
from weakref import WeakKeyDictionary

from repro.devtools.analysis.callgraph import CallGraph
from repro.devtools.analysis.model import ModuleInfo, ProjectModel

#: The effect labels, one per consuming rule.
RNG = "rng"
TIME = "time"

#: Fully-dotted callables that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Module-level ``random`` functions sharing hidden global state.
GLOBAL_RNG_CALLS = frozenset(
    {
        f"random.{name}"
        for name in (
            "random",
            "randint",
            "randrange",
            "getrandbits",
            "choice",
            "choices",
            "shuffle",
            "sample",
            "uniform",
            "triangular",
            "gauss",
            "normalvariate",
            "lognormvariate",
            "expovariate",
            "vonmisesvariate",
            "gammavariate",
            "betavariate",
            "paretovariate",
            "weibullvariate",
        )
    }
)


@dataclass(frozen=True)
class EffectSite:
    """One source location contributing a direct effect.

    Attributes:
        effect: The label contributed.
        line: 1-based line of the contributing node.
        col: 0-based column of the contributing node.
        detail: The dotted callable that contributed
            (``"time.perf_counter"``).
    """

    effect: str
    line: int
    col: int
    detail: str


def dotted_call_name(info: ModuleInfo, func: ast.expr) -> Optional[str]:
    """Resolve a call target to a fully-dotted name via the import table.

    ``time.perf_counter`` resolves when ``time`` (or an alias) is
    imported; a bare name or unknown receiver returns None.
    """
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    resolved_head = info.imports.get(node.id)
    if resolved_head is None:
        return None
    parts.append(resolved_head)
    parts.reverse()
    return ".".join(parts)


def _direct_sites(info: ModuleInfo, func: ast.AST) -> Tuple[EffectSite, ...]:
    """One function's wall-clock and global-RNG call sites, in source order."""
    sites: List[EffectSite] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_call_name(info, node.func)
        if dotted is None:
            continue
        if dotted in WALL_CLOCK_CALLS:
            effect = TIME
        elif dotted in GLOBAL_RNG_CALLS:
            effect = RNG
        else:
            continue
        sites.append(EffectSite(effect, node.lineno, node.col_offset, dotted))
    sites.sort(key=lambda site: (site.line, site.col, site.effect))
    return tuple(sites)


class EffectAnalysis:
    """Direct effect sites of every function in a :class:`ProjectModel`.

    Attributes:
        graph: The shared three-tier call graph.
        direct: Node id -> the function's own sites, in source order.
    """

    def __init__(self, model: ProjectModel) -> None:
        self.graph = CallGraph.build(model)
        self.direct: Dict[str, Tuple[EffectSite, ...]] = {
            f"{info.name}:{qualname}": _direct_sites(info, func)
            for info in model.modules.values()
            for qualname, func in info.functions.items()
        }

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Node ids reachable from ``roots`` through the shared graph."""
        return self.graph.reachable(roots)

    def sites(
        self, node_id: str, effect: Optional[str] = None
    ) -> Tuple[EffectSite, ...]:
        """Direct sites of ``node_id``, optionally filtered by label."""
        sites = self.direct.get(node_id, ())
        if effect is None:
            return sites
        return tuple(s for s in sites if s.effect == effect)


#: Memoized analyses, keyed weakly so models are collectable.
_ANALYSIS_CACHE: "WeakKeyDictionary[ProjectModel, EffectAnalysis]" = (
    WeakKeyDictionary()
)


def effect_analysis(model: ProjectModel) -> EffectAnalysis:
    """The (cached) :class:`EffectAnalysis` for ``model``.

    Every analyzer in one ``repro analyze`` invocation shares a single
    model, so this memo makes the effect scan and the
    call graph a build-once cost.
    """
    analysis = _ANALYSIS_CACHE.get(model)
    if analysis is None:
        analysis = EffectAnalysis(model)
        _ANALYSIS_CACHE[model] = analysis
    return analysis
