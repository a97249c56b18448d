"""Concurrency-safety audit (``repro analyze concurrency``, RPR131-136).

The sweep runner forks worker processes, the dual engines replay one
trace through two codebases, and the planned asyncio live cluster will
multiplex protocol handling on one event loop. Each of those execution
shapes dies quietly when code relies on shared mutable state, hot-path
IO, or blocking calls — failure modes invisible to per-file lint. This
pass reads the shared per-function effect sites
(:mod:`repro.devtools.analysis.effects`) and audits the specific
boundaries this codebase has:

* **RPR131** — fork-unsafe effects in worker-submitted callables: a
  function reachable from a pool task / initializer mutates
  process-global state. Under fork each worker mutates its own copy and
  the parent never observes it; under spawn the state resets entirely.
* **RPR132** — module-level mutable state written by one function and
  read by another on a boundary-reachable path: the canonical
  hidden-channel that diverges across processes and engines.
* **RPR133** — calls inside hot replay loops whose callees (transitively)
  perform IO. Generalizes syntactic RPR011 across function boundaries
  via the call graph; ``repro.obs`` is the sanctioned sink and is
  excluded from the closure.
* **RPR134** — public methods of cache/fastpath classes returning
  internal mutable containers by reference (store dicts, LRU nodes);
  callers can corrupt cache state without any cache API call.
* **RPR135** — shared mutable defaults on sim-facing dataclasses
  (``field(default=<mutable>)``, module-level mutables as defaults,
  bare class-level containers): every instance aliases one object.
* **RPR136** — blocking calls (``time.sleep``, synchronous
  socket/subprocess ops) reachable from ``repro.protocol`` /
  ``repro.network`` entry points the asyncio service will reuse.

Unlike the determinism pass, every reachability and closure here runs
over the *precise* call graph (no receiver-agnostic method-index tier):
these rules propagate properties transitively, and one ubiquitous method
name (``get``, ``put``) would otherwise smear its effects across the
whole tree. The cost — dynamic dispatch through an unannotated receiver
is not followed — is covered by the syntactic in-package rules (RPR011)
staying in force.

Line-scoped ``# repro: noqa[RPR13x]`` pragmas mark the sanctioned
exceptions (e.g. the worker-trace pinning idiom in
``repro.parallel.runner``); the runner applies them as usual.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.devtools.analysis.callgraph import (
    resolve_call,
    resolve_callable_ref,
)
from repro.devtools.analysis.effects import (
    BLOCKING,
    IO,
    MUTATES_GLOBAL,
    EffectAnalysis,
    _is_mutable_value,
    declared_globals,
    effect_analysis,
    local_bound_names,
    module_mutable_names,
    module_state,
    propagate,
)
from repro.devtools.analysis.model import ModuleInfo, ProjectModel
from repro.devtools.lint.findings import Finding

#: Rule code -> one-line summary (the catalog / docs-index source of truth).
RULES: Dict[str, str] = {
    "RPR131": "process-global mutation reachable from a pool worker "
    "callable (fork-unsafe)",
    "RPR132": "module-level state written and read by different "
    "functions on an engine/worker-reachable path",
    "RPR133": "loop-body call whose callee transitively performs IO on "
    "a hot replay path",
    "RPR134": "public cache/fastpath method returns an internal mutable "
    "container by reference",
    "RPR135": "sim-facing dataclass field defaulting to shared mutable "
    "state",
    "RPR136": "blocking call reachable from a protocol/network entry "
    "point",
}

#: Pool/executor methods that take a callable to run in a worker.
_POOL_METHODS = frozenset(
    {
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
        "map_async",
        "starmap",
        "starmap_async",
        "submit",
    }
)

#: Replay entry points whose loops are the measured hot path (RPR133).
HOT_ROOTS: Tuple[str, ...] = (
    "repro.simulation.simulator:CooperativeSimulator.run",
    "repro.simulation.simulator:run_simulation",
    "repro.fastpath.engine:simulate_columnar",
    "repro.fastpath.batch:simulate_batch",
    "repro.fastpath.batch:replay",
)

#: Engine entry points that, together with worker roots, bound RPR132.
ENGINE_ROOTS: Tuple[str, ...] = (
    "repro.simulation.simulator:CooperativeSimulator.run",
    "repro.simulation.simulator:run_simulation",
    "repro.fastpath.engine:simulate_columnar",
    "repro.fastpath.batch:simulate_batch",
    "repro.fastpath.batch:replay",
    "repro.parallel.runner:ParallelSweepRunner.run",
)

#: Packages whose classes guard internal mutable structures (RPR134).
_INTERNAL_STATE_PACKAGES: Tuple[str, ...] = ("repro.cache", "repro.fastpath")

#: Packages whose public callables the asyncio service reuses (RPR136).
_SERVICE_PACKAGES: Tuple[str, ...] = ("repro.protocol", "repro.network")

#: The sanctioned IO sink, excluded from the RPR133 closure.
_OBS_PACKAGE = "repro.obs"

#: Package exempt from the dataclass-default audit (tooling, not sim).
_NON_SIM_PACKAGE = "repro.devtools"


def _in_package(module_name: str, package: str) -> bool:
    return module_name == package or module_name.startswith(package + ".")


def worker_roots(model: ProjectModel) -> Set[str]:
    """Node ids of callables handed to process pools / executors.

    Two submission idioms are recognised anywhere in the tree: a callable
    passed as the first argument of a pool method
    (``pool.imap(_run_task, ...)``), and an ``initializer=`` keyword
    (``Pool(initializer=_init_worker, ...)``). ``Pool.map`` the *builtin*
    is not an attribute call and is never matched.
    """
    roots: Set[str] = set()
    for info in model.modules.values():
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_METHODS
                and node.args
            ):
                resolved = resolve_callable_ref(model, info, node.args[0])
                if resolved is not None:
                    roots.add(resolved)
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    resolved = resolve_callable_ref(
                        model, info, keyword.value
                    )
                    if resolved is not None:
                        roots.add(resolved)
    return roots


def _finding(
    info: ModuleInfo, line: int, col: int, rule: str, message: str
) -> Finding:
    return Finding(
        path=info.path, line=line, col=col, rule=rule, message=message
    )


def _audit_fork_safety(
    model: ProjectModel, analysis: EffectAnalysis, workers: Set[str]
) -> List[Finding]:
    """RPR131: global mutation reachable from worker callables."""
    findings: List[Finding] = []
    for node_id in sorted(analysis.precise_graph.reachable(workers)):
        info = model.get(node_id.partition(":")[0])
        if info is None:
            continue
        for site in analysis.sites(node_id, MUTATES_GLOBAL):
            findings.append(
                _finding(
                    info,
                    site.line,
                    site.col,
                    "RPR131",
                    f"`{node_id}` mutates process-global state "
                    f"(`{site.detail}`) on a worker-reachable path; each "
                    "forked worker mutates its own copy and the parent "
                    "never sees it — pass state through the task payload "
                    "or return it from the task",
                )
            )
    return findings


def _global_reads_writes(
    info: ModuleInfo, func: ast.AST, candidates: FrozenSet[str]
) -> Tuple[Set[str], Set[str]]:
    """``(reads, writes)`` of module-level ``candidates`` by ``func``."""
    declared_global = declared_globals(func)
    shadowed = local_bound_names(func)
    mutables = set(module_mutable_names(info))
    reads: Set[str] = set()
    writes: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in candidates:
            visible = node.id in declared_global or node.id not in shadowed
            if not visible:
                continue
            if isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif node.id in declared_global:
                writes.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets
                if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target]
            )
            for target in targets:
                root = target
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if (
                    isinstance(root, ast.Name)
                    and root is not target
                    and root.id in candidates
                    and root.id in mutables
                    and root.id not in shadowed
                ):
                    writes.add(root.id)
    return reads, writes


def _audit_shared_module_state(
    model: ProjectModel, analysis: EffectAnalysis, workers: Set[str]
) -> List[Finding]:
    """RPR132: module state written by one function, read by another."""
    boundary = analysis.precise_graph.reachable(set(ENGINE_ROOTS) | workers)
    findings: List[Finding] = []
    for info in model.modules.values():
        defined = module_state(info)
        rebindable: Set[str] = set()
        for func in info.functions.values():
            rebindable |= declared_globals(func)
        candidates = frozenset(
            (set(module_mutable_names(info)) | rebindable) & set(defined)
        )
        if not candidates:
            continue
        readers: Dict[str, Set[str]] = {name: set() for name in candidates}
        writers: Dict[str, Set[str]] = {name: set() for name in candidates}
        for qualname, func in info.functions.items():
            node_id = f"{info.name}:{qualname}"
            reads, writes = _global_reads_writes(info, func, candidates)
            for name in reads:
                readers[name].add(node_id)
            for name in writes:
                writers[name].add(node_id)
        for name in sorted(candidates):
            pure_readers = readers[name] - writers[name]
            if not writers[name] or not pure_readers:
                continue
            involved = writers[name] | pure_readers
            if not involved & boundary:
                continue
            writer = sorted(writers[name])[0]
            reader = sorted(pure_readers)[0]
            findings.append(
                _finding(
                    info,
                    defined[name],
                    0,
                    "RPR132",
                    f"module-level state `{name}` is written by `{writer}` "
                    f"and read by `{reader}` on an engine/worker-reachable "
                    "path; per-process copies silently diverge across "
                    "fork and engine boundaries — thread it through "
                    "arguments or an explicit context object",
                )
            )
    return findings


def _io_closure_without_obs(analysis: EffectAnalysis) -> Dict[str, bool]:
    """Node id -> transitively-performs-IO, with ``repro.obs`` excluded.

    The obs recorders *are* IO by design — engines call them from replay
    loops as the sanctioned telemetry sink — so both their nodes and
    edges into them are removed before propagating.
    """

    def is_obs(node_id: str) -> bool:
        return _in_package(node_id.partition(":")[0], _OBS_PACKAGE)

    direct: Dict[str, FrozenSet[str]] = {
        node_id: frozenset({IO})
        for node_id, sites in analysis.direct.items()
        if not is_obs(node_id) and any(site.effect == IO for site in sites)
    }
    filtered_edges = {
        caller: [c for c in callees if not is_obs(c)]
        for caller, callees in analysis.precise_graph.edges.items()
        if not is_obs(caller)
    }
    closure = propagate(direct, _SubGraph(filtered_edges))
    return {node_id: IO in labels for node_id, labels in closure.items()}


class _SubGraph:
    """Minimal edge holder satisfying :func:`propagate`'s interface."""

    def __init__(self, edges: Dict[str, List[str]]) -> None:
        self.edges = edges


def _loop_calls(func: ast.AST) -> List[ast.Call]:
    """Every call expression nested inside a loop body of ``func``."""
    calls: List[ast.Call] = []

    def visit(node: ast.AST, depth: int) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for child in ast.iter_child_nodes(node):
                visit(child, depth + 1)
            return
        if isinstance(node, ast.Call) and depth > 0:
            calls.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node is not func
        ):
            # Nested defs execute when called, not where defined.
            return
        for child in ast.iter_child_nodes(node):
            visit(child, depth)

    visit(func, 0)
    return calls


def _audit_hot_loop_io(
    model: ProjectModel, analysis: EffectAnalysis
) -> List[Finding]:
    """RPR133: loop-body calls into (transitively) IO-performing code."""
    io_closure = _io_closure_without_obs(analysis)
    findings: List[Finding] = []
    for node_id in sorted(analysis.precise_graph.reachable(HOT_ROOTS)):
        module_name = node_id.partition(":")[0]
        if _in_package(module_name, _OBS_PACKAGE):
            continue
        info = model.get(module_name)
        func = model.function_node(node_id)
        if info is None or func is None:
            continue
        for call in _loop_calls(func):
            culprits = sorted(
                callee
                for callee in resolve_call(model, info, call, precise=True)
                if io_closure.get(callee, False)
            )
            if culprits:
                findings.append(
                    _finding(
                        info,
                        call.lineno,
                        call.col_offset,
                        "RPR133",
                        f"call into `{culprits[0]}` performs IO "
                        "(transitively) inside a hot replay loop; hoist "
                        "the IO out of the loop or route it through the "
                        "repro.obs recorders",
                    )
                )
    return findings


def _mutable_attrs(info: ModuleInfo, class_qualname: str) -> Set[str]:
    """Attributes of ``class_qualname`` initialised to mutable containers."""
    attrs: Set[str] = set()
    for ctor in ("__init__", "__post_init__"):
        func = info.functions.get(f"{class_qualname}.{ctor}")
        if func is None:
            continue
        for node in ast.walk(func):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            if not _is_mutable_value(value):
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
    return attrs


def _audit_internal_state_escape(model: ProjectModel) -> List[Finding]:
    """RPR134: public methods returning internal mutables by reference."""
    findings: List[Finding] = []
    for package in _INTERNAL_STATE_PACKAGES:
        for info in model.iter_package(package):
            for class_qualname in info.classes:
                attrs = _mutable_attrs(info, class_qualname)
                if not attrs:
                    continue
                prefix = class_qualname + "."
                for qualname, func in info.functions.items():
                    if not qualname.startswith(prefix):
                        continue
                    method = qualname[len(prefix) :]
                    if "." in method or method.startswith("_"):
                        continue
                    for node in ast.walk(func):
                        if not isinstance(node, ast.Return):
                            continue
                        value = node.value
                        if (
                            isinstance(value, ast.Attribute)
                            and isinstance(value.value, ast.Name)
                            and value.value.id == "self"
                            and value.attr in attrs
                        ):
                            findings.append(
                                _finding(
                                    info,
                                    node.lineno,
                                    node.col_offset,
                                    "RPR134",
                                    f"public method `{qualname}` returns "
                                    f"internal mutable `self.{value.attr}` "
                                    "by reference; callers can corrupt "
                                    "cache state behind the API — return "
                                    "a copy or a read-only view",
                                )
                            )
    return findings


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute) else ""
        )
        if name == "dataclass":
            return True
    return False


def _shared_default(
    info: ModuleInfo, value: Optional[ast.expr]
) -> Optional[str]:
    """Why a dataclass default aliases shared mutable state, or None."""
    if value is None:
        return None
    if _is_mutable_value(value):
        return "a mutable container"
    if isinstance(value, ast.Name) and value.id in module_mutable_names(info):
        return f"module-level mutable `{value.id}`"
    if isinstance(value, ast.Call):
        callee = value.func
        name = (
            callee.id
            if isinstance(callee, ast.Name)
            else callee.attr if isinstance(callee, ast.Attribute) else ""
        )
        if name == "field":
            for keyword in value.keywords:
                if keyword.arg == "default":
                    return _shared_default(info, keyword.value)
    return None


def _audit_dataclass_defaults(model: ProjectModel) -> List[Finding]:
    """RPR135: shared mutable defaults on sim-facing dataclasses."""
    findings: List[Finding] = []
    for info in model.modules.values():
        if _in_package(info.name, _NON_SIM_PACKAGE):
            continue
        for class_qualname, node in info.classes.items():
            if not _is_dataclass(node):
                continue
            for stmt in node.body:
                value: Optional[ast.expr]
                field_name: Optional[str]
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    value, field_name = stmt.value, stmt.target.id
                elif (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    value, field_name = stmt.value, stmt.targets[0].id
                else:
                    continue
                why = _shared_default(info, value)
                if why is not None:
                    findings.append(
                        _finding(
                            info,
                            stmt.lineno,
                            stmt.col_offset,
                            "RPR135",
                            f"dataclass field `{class_qualname}."
                            f"{field_name}` defaults to {why}; every "
                            "instance aliases one object, so one "
                            "simulation's mutation leaks into the next — "
                            "use field(default_factory=...)",
                        )
                    )
    return findings


def service_roots(model: ProjectModel) -> Set[str]:
    """Public entry points of the protocol/network packages (RPR136)."""
    roots: Set[str] = set()
    for package in _SERVICE_PACKAGES:
        for info in model.iter_package(package):
            for qualname in info.functions:
                if any(
                    part.startswith("_") and not part.startswith("__")
                    for part in qualname.split(".")
                ) or qualname.rsplit(".", 1)[-1].startswith("_"):
                    continue
                roots.add(f"{info.name}:{qualname}")
    return roots


def _audit_blocking_service_paths(
    model: ProjectModel, analysis: EffectAnalysis
) -> List[Finding]:
    """RPR136: blocking calls reachable from service entry points."""
    findings: List[Finding] = []
    roots = service_roots(model)
    for node_id in sorted(analysis.precise_graph.reachable(roots)):
        info = model.get(node_id.partition(":")[0])
        if info is None:
            continue
        for site in analysis.sites(node_id, BLOCKING):
            findings.append(
                _finding(
                    info,
                    site.line,
                    site.col,
                    "RPR136",
                    f"blocking call `{site.detail}` in `{node_id}` is "
                    "reachable from a protocol/network entry point; the "
                    "asyncio service would stall its event loop here — "
                    "use the simulated clock or defer to async IO",
                )
            )
    return findings


def analyze_concurrency(
    model: ProjectModel, roots: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run RPR131-136 over ``model``; findings sorted and deduplicated.

    ``roots`` optionally *extends* the auto-discovered worker roots, so
    fixture trees (and future runner variants) can declare extra worker
    callables without pool-call syntax.
    """
    analysis = effect_analysis(model)
    workers = worker_roots(model)
    if roots is not None:
        workers |= set(roots)
    findings: List[Finding] = []
    findings.extend(_audit_fork_safety(model, analysis, workers))
    findings.extend(_audit_shared_module_state(model, analysis, workers))
    findings.extend(_audit_hot_loop_io(model, analysis))
    findings.extend(_audit_internal_state_escape(model))
    findings.extend(_audit_dataclass_defaults(model))
    findings.extend(_audit_blocking_service_paths(model, analysis))
    return sorted(set(findings))
