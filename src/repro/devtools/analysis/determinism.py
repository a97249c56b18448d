"""Call-graph determinism audit (``repro analyze determinism``, RPR111-115).

The parallel runner merges worker results positionally and the memo store
treats ``sha256(config + trace fingerprint)`` as a proof of byte-identity
— both stake correctness on every simulation-reachable function being
deterministic. This auditor checks exactly the functions a simulation,
a trace generator or an experiment driver can execute, wherever they
live, using the shared per-function effect sites from
:mod:`repro.devtools.analysis.effects` (one model, one call graph, one
scan):

* **RPR111** — wall-clock reads (``time.time`` and friends,
  ``datetime.now``): results would depend on host speed. These are the
  ``time`` effect sites of reachable functions.
* **RPR112** — process-global RNG (``random.random``, ``random.choice``,
  ...): any import can perturb the shared state. These are the ``rng``
  effect sites. An unseeded ``random.Random()`` draws its seed from the
  OS and is flagged too, in a reachable function or in the module body
  of any module holding one. Seeded ``random.Random(seed)`` instances
  are fine.
* **RPR113** — iteration over an unordered ``set``/``frozenset`` feeding
  downstream state, by a loop, a comprehension, or an order-materialising
  call (``list``, ``tuple``, ``enumerate``, ``iter``, ``next``): Python
  set order varies with hash seeding and insert history. (``dict``
  iteration is insertion-ordered and not flagged.)
* **RPR114** — filesystem-order dependence (``os.listdir``, ``glob``,
  ``Path.iterdir`` / ``.glob`` / ``.rglob``) not neutralised by
  ``sorted``/``min``/``max``/``set``/``len``/``any``/``all``.
* **RPR115** — ``sum`` over an unordered set: float accumulation order
  changes the low bits, which breaks byte-identical merges.

RPR113-115 and the unseeded-``Random`` check are about the *source* of an
order or a seed, which the effect lattice does not model, so they stay
syntactic — but they run over the same reachability set the effect
analysis computed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.devtools.analysis.effects import (
    RNG,
    TIME,
    dotted_call_name,
    effect_analysis,
)
from repro.devtools.analysis.model import ModuleInfo, ProjectModel
from repro.devtools.lint.findings import Finding

#: Rule code -> one-line summary (the catalog / docs-index source of truth).
RULES: Dict[str, str] = {
    "RPR111": "wall-clock read on a simulation-reachable path",
    "RPR112": "process-global RNG call or unseeded random.Random() on a "
    "simulation-reachable path",
    "RPR113": "iteration over an unordered set on a simulation-reachable "
    "path",
    "RPR114": "filesystem-order enumeration on a simulation-reachable "
    "path without sorted(...)",
    "RPR115": "sum over an unordered set (unstable float accumulation "
    "order)",
}

#: Entry points whose transitive callees must be deterministic: the
#: engines, the sweep runner and its memo, the hand-built replay loop,
#: the synthetic trace generator, and every experiment driver.
DEFAULT_ROOTS: Sequence[str] = (
    "repro.simulation.simulator:CooperativeSimulator.run",
    "repro.simulation.simulator:run_simulation",
    "repro.simulation.replay:replay_trace",
    "repro.fastpath.engine:simulate_columnar",
    "repro.fastpath.batch:simulate_batch",
    "repro.fastpath.batch:replay",
    "repro.parallel.runner:ParallelSweepRunner.run",
    "repro.parallel.memo:SweepMemoStore.get",
    "repro.parallel.memo:SweepMemoStore.put",
    "repro.trace.synthetic:generate_trace",
    "repro.trace.stream:SyntheticTraceStream.interned_chunks",
    # Reached through a property, a partial and a getattr, which the call
    # graph does not follow.
    "repro.trace.record:Trace.records",
    "repro.trace.synthetic:BULikeTraceGenerator.records_of",
    "repro.trace.record:Trace.fingerprint",
    "repro.experiments.sweep:run_capacity_sweep",
    "repro.experiments.sweep:capacity_sweep_driver",
    "repro.experiments.fig1_document_hit_rates:build_report",
    "repro.experiments.fig2_byte_hit_rates:build_report",
    "repro.experiments.fig3_latency:build_report",
    "repro.experiments.table1_expiration_age:build_report",
    "repro.experiments.table2_hit_breakdown:build_report",
    "repro.experiments.group_size_sweep:run",
    "repro.experiments.model_validation:run",
    "repro.experiments.multiseed:run_multi_seed_comparison",
    "repro.experiments.ablations:run_window_ablation",
    "repro.experiments.ablations:run_tie_break_ablation",
    "repro.experiments.ablations:run_policy_ablation",
    "repro.experiments.ablations:run_measure_ablation",
    "repro.experiments.ablations:run_architecture_ablation",
    "repro.experiments.extensions:run_locator_comparison",
    "repro.experiments.extensions:run_baseline_comparison",
    "repro.experiments.extensions:run_prefetch_study",
    "repro.experiments.extensions:run_loss_resilience",
    "repro.experiments.extensions2:run_coherence_study",
    "repro.experiments.extensions2:run_demotion_study",
    "repro.experiments.extensions2:run_replica_cap_study",
    "repro.experiments.extensions2:run_admission_study",
    "repro.experiments.extensions2:run_heterogeneity_study",
)

#: Calls returning entries in filesystem order.
_FS_ORDER_DOTTED = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
_FS_ORDER_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Wrappers that make enumeration order irrelevant.
_ORDER_NEUTRAL_WRAPPERS = frozenset(
    {"sorted", "min", "max", "set", "frozenset", "len", "any", "all", "sum"}
)

#: Calls that materialise their argument's iteration order.
_ORDER_MATERIALISING_CALLS = frozenset(
    {"list", "tuple", "enumerate", "iter", "next"}
)

_SET_EXPRS = (ast.Set, ast.SetComp)


def analyze_determinism(
    model: ProjectModel, roots: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Audit every function reachable from ``roots``; findings sorted.

    ``roots`` defaults to :data:`DEFAULT_ROOTS`; roots absent from the
    model are ignored, so miniature fixture trees can pass their own
    (``tests/devtools/test_analysis_model.py`` checks that every default
    root names a function of the real tree).
    """
    analysis = effect_analysis(model)
    reachable = analysis.reachable(DEFAULT_ROOTS if roots is None else roots)
    findings: List[Finding] = []
    reached_modules: Set[str] = set()
    for node_id in sorted(reachable):
        module_name = node_id.partition(":")[0]
        info = model.get(module_name)
        func = model.function_node(node_id)
        if info is None or func is None:
            continue
        reached_modules.add(module_name)
        for site in analysis.sites(node_id, TIME):
            findings.append(
                Finding(
                    path=info.path,
                    line=site.line,
                    col=site.col,
                    rule="RPR111",
                    message=(
                        f"wall-clock call `{site.detail}()` on a "
                        "simulation-reachable path; time must come from "
                        "trace timestamps or an injected clock"
                    ),
                )
            )
        for site in analysis.sites(node_id, RNG):
            findings.append(
                Finding(
                    path=info.path,
                    line=site.line,
                    col=site.col,
                    rule="RPR112",
                    message=(
                        f"process-global RNG call `{site.detail}()` on a "
                        "simulation-reachable path; draw from a "
                        "config-seeded random.Random instead"
                    ),
                )
            )
        findings.extend(_audit_syntactic(info, func))
    for module_name in sorted(reached_modules):
        info = model.modules[module_name]
        findings.extend(_unseeded_randoms(info, _module_body_nodes(info.tree)))
    return sorted(set(findings))


def _module_body_nodes(tree: ast.Module) -> List[ast.AST]:
    """Every node that runs at import time: the tree minus function bodies."""
    nodes: List[ast.AST] = []
    pending: List[ast.AST] = [tree]
    while pending:
        node = pending.pop()
        nodes.append(node)
        pending.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
    return nodes


def _unseeded_randoms(
    info: ModuleInfo, nodes: Iterable[ast.AST]
) -> List[Finding]:
    """RPR112: ``random.Random()`` calls without a seed among ``nodes``."""
    return [
        Finding(
            path=info.path,
            line=node.lineno,
            col=node.col_offset,
            rule="RPR112",
            message=(
                "unseeded `random.Random()` draws its seed from the OS on "
                "a simulation-reachable path; pass a config seed"
            ),
        )
        for node in nodes
        if isinstance(node, ast.Call)
        and not node.args
        and not node.keywords
        and dotted_call_name(info, node.func) == "random.Random"
    ]


def _is_set_expression(node: ast.expr) -> bool:
    """Whether ``node`` statically evaluates to an unordered set."""
    if isinstance(node, _SET_EXPRS):
        # A set *display* with literal elements has fixed iteration order
        # only by accident; treat every set expression as unordered.
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _audit_syntactic(info: ModuleInfo, func: ast.AST) -> List[Finding]:
    """RPR112's unseeded ``Random`` and RPR113-115 for one function body."""
    findings: List[Finding] = _unseeded_randoms(info, ast.walk(func))
    parents: Dict[ast.AST, ast.AST] = {}
    set_vars: Dict[str, int] = {}  # name -> assignment count as a set
    assigned: Dict[str, int] = {}  # name -> total assignment count

    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigned[target.id] = assigned.get(target.id, 0) + 1
                if _is_set_expression(node.value):
                    set_vars[target.id] = set_vars.get(target.id, 0) + 1

    def report(node: ast.AST, rule: str, message: str) -> None:
        findings.append(
            Finding(
                path=info.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    def order_neutral(node: ast.AST) -> bool:
        """Whether an enclosing call neutralises enumeration order."""
        current = parents.get(node)
        while current is not None and not isinstance(
            current, (ast.stmt, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            if (
                isinstance(current, ast.Call)
                and isinstance(current.func, ast.Name)
                and current.func.id in _ORDER_NEUTRAL_WRAPPERS
            ):
                return True
            current = parents.get(current)
        return False

    def check_iterable(node: ast.expr) -> None:
        is_unordered = _is_set_expression(node) or (
            isinstance(node, ast.Name)
            and set_vars.get(node.id, 0) > 0
            and assigned.get(node.id, 0) == set_vars.get(node.id, 0)
        )
        if is_unordered and not order_neutral(node):
            report(
                node,
                "RPR113",
                "iteration over an unordered set on a simulation-reachable "
                "path; sort it (or keep a list/dict) so replay order is "
                "stable",
            )

    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            check_iterable(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                check_iterable(generator.iter)
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_MATERIALISING_CALLS
                and node.args
            ):
                check_iterable(node.args[0])
            dotted = dotted_call_name(info, node.func)
            fs_name = _fs_order_call(node, dotted)
            if fs_name is not None and not order_neutral(node):
                report(
                    node,
                    "RPR114",
                    f"`{fs_name}` yields entries in filesystem order on a "
                    "simulation-reachable path; wrap the enumeration in "
                    "sorted(...)",
                )
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and _contains_set_expression(node.args[0])
            ):
                report(
                    node,
                    "RPR115",
                    "`sum` over an unordered set accumulates floats in an "
                    "unstable order on a simulation-reachable path; sort the "
                    "operands first",
                )
    return findings


def _fs_order_call(node: ast.Call, dotted: Optional[str]) -> Optional[str]:
    """The display name of a filesystem-order call, or None."""
    if dotted in _FS_ORDER_DOTTED:
        return dotted
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _FS_ORDER_METHODS:
        # Receiver-agnostic: `.glob` / `.rglob` / `.iterdir` are Path idioms.
        return f".{func.attr}"
    return None


def _contains_set_expression(node: Union[ast.expr, ast.AST]) -> bool:
    """Whether any subexpression of ``node`` is an unordered set."""
    return any(
        isinstance(child, ast.expr) and _is_set_expression(child)
        for child in ast.walk(node)
    )
