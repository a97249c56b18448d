"""Direct effect sites per function, shared by the determinism and
concurrency audits.

The parallel sweep runner, the dual-engine parity contract, and the
planned asyncio cluster all rest on the same unstated assumption: nothing
on a hot or worker-reachable path secretly mutates shared state, touches
IO, reads the wall clock, draws from the global RNG, or blocks. This
module scans every project function once for the sites that break that
assumption, each tagged with one label that a rule reads:

* ``time`` — wall-clock reads (``time.time`` and friends), RPR111;
* ``rng`` — process-global ``random`` module calls, RPR112;
* ``mutates-global`` — rebinds a ``global`` name or mutates a
  module-level mutable binding, RPR131;
* ``io`` — console/file IO (``print``, ``open``, ``os``/``shutil`` file
  ops, ``Path.write_text`` idioms), RPR133;
* ``blocking`` — calls that park the thread (``time.sleep``, synchronous
  socket/subprocess ops, ``input``), RPR136.

The audits are reachability filters over these direct sites: determinism
walks the three-tier :class:`~repro.devtools.analysis.callgraph.CallGraph`
and concurrency its precise variant. RPR133 alone needs a transitive
label, which it closes with :func:`propagate` over its own filtered graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple
from weakref import WeakKeyDictionary

from repro.devtools.analysis.callgraph import CallGraph
from repro.devtools.analysis.model import ModuleInfo, ProjectModel

#: The effect labels, one per consuming rule.
MUTATES_GLOBAL = "mutates-global"
IO = "io"
RNG = "rng"
TIME = "time"
BLOCKING = "blocking"

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

#: Fully-dotted callables that park the calling thread.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "select.select",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
    }
)

#: Fully-dotted filesystem/console operations (direct IO).
_IO_DOTTED = frozenset(
    {
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.makedirs",
        "os.mkdir",
        "os.rmdir",
        "os.symlink",
        "os.write",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.move",
        "shutil.rmtree",
    }
)

#: Receiver-agnostic method names that are Path / stream IO idioms.
_IO_METHODS = frozenset(
    {"write_text", "write_bytes", "read_text", "read_bytes"}
)

#: Builtins doing console/file IO when called bare.
_IO_BUILTINS = frozenset({"print", "open"})

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

#: Calls at module level that bind a name to a mutable container.
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
    }
)

_MUTABLE_DISPLAYS = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.DictComp,
    ast.ListComp,
    ast.SetComp,
)

_FunctionNode = ast.AST


@dataclass(frozen=True)
class EffectSite:
    """One source location contributing a direct effect.

    Attributes:
        effect: The label contributed.
        line: 1-based line of the contributing node.
        col: 0-based column of the contributing node.
        detail: What contributed — a dotted callable (``"time.sleep"``)
            or a mutation target (``"global _WORKER_TRACE"``,
            ``"_SEEN[url]"``).
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


def module_state(info: ModuleInfo) -> Dict[str, int]:
    """Every module-level assigned name -> definition line."""
    names: Dict[str, int] = {}
    for stmt in info.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.setdefault(target.id, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                names.setdefault(stmt.target.id, stmt.lineno)
    return names


def _is_mutable_value(value: Optional[ast.expr]) -> bool:
    """Whether an initialiser expression builds a mutable container."""
    if value is None:
        return False
    if isinstance(value, _MUTABLE_DISPLAYS):
        return True
    if isinstance(value, ast.Call):
        callee = value.func
        name = (
            callee.id
            if isinstance(callee, ast.Name)
            else callee.attr if isinstance(callee, ast.Attribute) else ""
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def module_mutable_names(info: ModuleInfo) -> Dict[str, int]:
    """Module-level names bound to mutable containers -> definition line."""
    names: Dict[str, int] = {}
    for stmt in info.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        if not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.setdefault(target.id, stmt.lineno)
    return names


def declared_globals(func: _FunctionNode) -> Set[str]:
    """Names ``func`` (or a def nested in it) declares ``global``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


def local_bound_names(func: _FunctionNode) -> Set[str]:
    """Names bound anywhere inside ``func``, its parameters included.

    Includes parameters, assignment targets, loop/comprehension
    variables, and ``with ... as`` names — everything that shadows a
    module-level binding for the rest of the function. ``global``-declared
    names are excluded: storing to those writes the module binding.
    """
    declared_global = declared_globals(func)
    args = getattr(func, "args", None)
    params = (
        [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if args is not None
        else []
    )
    bound = {arg.arg for arg in params if arg is not None}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            if node.id not in declared_global:
                bound.add(node.id)
    return bound


def _chain_root(node: ast.expr) -> Optional[ast.Name]:
    """The base ``Name`` of an attribute/subscript chain, if it has one."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return current if isinstance(current, ast.Name) else None


def _chain_display(node: ast.expr) -> str:
    """Source-ish rendering of a target chain for finding details."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our input
        return "<target>"


class _DirectEffectScanner:
    """Single-pass extraction of one function's direct effect sites."""

    def __init__(self, info: ModuleInfo, func: _FunctionNode) -> None:
        self.info = info
        self.func = func
        self.module_mutables = module_mutable_names(info)
        self.locals = local_bound_names(func)
        self.declared_global = declared_globals(func)
        self.sites: List[EffectSite] = []

    def scan(self) -> Tuple[EffectSite, ...]:
        """Collect every direct site, in source order."""
        for node in ast.walk(self.func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._mutation_target(target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._mutation_target(node.target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._mutation_target(target)
            elif isinstance(node, ast.Call):
                self._call(node)
        self.sites.sort(key=lambda site: (site.line, site.col, site.effect))
        return tuple(self.sites)

    def _site(self, node: ast.AST, effect: str, detail: str) -> None:
        self.sites.append(
            EffectSite(
                effect=effect,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                detail=detail,
            )
        )

    def _is_global(self, root: str) -> bool:
        """Whether a chain rooted at ``root`` reaches module state."""
        return root in self.declared_global or (
            root in self.module_mutables and root not in self.locals
        )

    def _mutation_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            # A bare store only mutates shared state via `global`.
            if target.id in self.declared_global:
                self._site(target, MUTATES_GLOBAL, f"global {target.id}")
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mutation_target(element)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _chain_root(target)
        if root is None:
            return
        if self._is_global(root.id):
            self._site(target, MUTATES_GLOBAL, _chain_display(target))

    def _call(self, node: ast.Call) -> None:
        func = node.func
        dotted = dotted_call_name(self.info, func)
        if dotted is not None:
            if dotted in WALL_CLOCK_CALLS:
                self._site(node, TIME, dotted)
            elif dotted in GLOBAL_RNG_CALLS:
                self._site(node, RNG, dotted)
            if dotted in BLOCKING_CALLS:
                self._site(node, BLOCKING, dotted)
            if dotted in _IO_DOTTED:
                self._site(node, IO, dotted)
        if isinstance(func, ast.Name):
            if func.id in _IO_BUILTINS:
                self._site(node, IO, func.id)
            elif func.id == "input":
                self._site(node, BLOCKING, "input")
        elif isinstance(func, ast.Attribute):
            if func.attr in _IO_METHODS:
                self._site(node, IO, f".{func.attr}")
            if func.attr in MUTATING_METHODS:
                root = _chain_root(func.value)
                if root is not None and self._is_global(root.id):
                    self._site(
                        node,
                        MUTATES_GLOBAL,
                        f"{_chain_display(func.value)}.{func.attr}()",
                    )


def propagate(
    direct: Mapping[str, FrozenSet[str]], graph: CallGraph
) -> Dict[str, FrozenSet[str]]:
    """Fixpoint closure of ``direct`` labels over the call graph.

    Returns, for every node in ``graph``, the union of its own labels and
    every (transitive) callee's. Nodes absent from ``direct`` start
    empty; nodes absent from the graph are ignored. The worklist runs
    over reverse edges, so cost is proportional to the label churn, not
    to graph size squared.
    """
    callers: Dict[str, List[str]] = {}
    for caller, callees in graph.edges.items():
        for callee in callees:
            callers.setdefault(callee, []).append(caller)
    effects: Dict[str, FrozenSet[str]] = {
        node: direct.get(node, frozenset()) for node in graph.edges
    }
    worklist = [node for node, labels in effects.items() if labels]
    while worklist:
        node = worklist.pop()
        labels = effects.get(node, frozenset())
        for caller in callers.get(node, ()):
            merged = effects[caller] | labels
            if merged != effects[caller]:
                effects[caller] = merged
                worklist.append(caller)
    return effects


class EffectAnalysis:
    """Direct effect sites of every function in a :class:`ProjectModel`.

    Attributes:
        model: The analyzed model.
        graph: The shared three-tier call graph.
        direct: Node id -> the function's own sites, in source order.
    """

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.graph = CallGraph.build(model)
        self._precise_graph: Optional[CallGraph] = None
        self.direct: Dict[str, Tuple[EffectSite, ...]] = {
            f"{info.name}:{qualname}": _DirectEffectScanner(info, func).scan()
            for info in model.modules.values()
            for qualname, func in info.functions.items()
        }

    @property
    def precise_graph(self) -> CallGraph:
        """The method-index-free graph (built on first use, then shared).

        Closure analyses propagate properties over this one: the default
        graph's receiver-agnostic tier would let a single ubiquitous
        method name (``get``, ``put``) smear its effects over every call
        site in the tree.
        """
        if self._precise_graph is None:
            self._precise_graph = CallGraph.build(self.model, precise=True)
        return self._precise_graph

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

    Every analyzer in one ``repro analyze`` / ``repro check`` invocation
    shares a single model, so this memo makes the effect scan and the
    call graph a build-once cost.
    """
    analysis = _ANALYSIS_CACHE.get(model)
    if analysis is None:
        analysis = EffectAnalysis(model)
        _ANALYSIS_CACHE[model] = analysis
    return analysis
