"""Static call graph over a :class:`~repro.devtools.analysis.model.ProjectModel`.

Edges are resolved without type inference, in three tiers:

1. **Local name** — ``helper(...)`` inside a module resolves to that
   module's ``helper`` (or to ``Cls.__init__`` when ``Cls`` is a local
   class).
2. **Imported name** — ``simulate_columnar(...)`` resolves through the
   import table to the defining module; imported classes resolve to their
   ``__init__``. ``module.attr(...)`` resolves when ``module`` is an
   imported project module.
3. **Method name** — ``obj.process(...)`` with an unknown receiver
   resolves to *every* project function named ``process`` (the model's
   ``method_index``). This deliberately over-approximates: reachability
   analyses (the determinism auditor) must not lose a path because a
   receiver's type was not statically evident. The cost is a few spurious
   edges into same-named helpers, which the narrow per-node checks keep
   harmless.

Nodes are ``"module:qualname"`` strings, e.g.
``"repro.simulation.simulator:CooperativeSimulator.run"``.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro.devtools.analysis.model import ModuleInfo, ProjectModel


def _split_symbol(model: ProjectModel, dotted: str, depth: int = 0) -> Optional[str]:
    """Resolve a dotted name to a ``module:qualname`` node id, if it is one.

    Tries the longest module prefix first, so ``repro.a.b.Cls.meth``
    resolves against module ``repro.a.b`` with qualname ``Cls.meth``.
    Re-exports are chased one hop at a time (``from repro.fastpath import
    simulate_columnar`` lands on ``repro.fastpath.engine``), bounded to
    keep accidental import cycles from recursing forever.
    """
    if depth > 4:
        return None
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        info = model.modules.get(module_name)
        if info is None:
            continue
        remainder = ".".join(parts[cut:])
        if remainder in info.functions:
            return f"{module_name}:{remainder}"
        if remainder in info.classes:
            init = f"{remainder}.__init__"
            if init in info.functions:
                return f"{module_name}:{init}"
            return None
        reexport = info.imports.get(parts[cut])
        if reexport is not None:
            chased = ".".join([reexport] + parts[cut + 1 :])
            return _split_symbol(model, chased, depth + 1)
        return None
    return None


class CallGraph:
    """Caller -> callees adjacency over project functions.

    Attributes:
        edges: Node id -> sorted callee node ids.
    """

    def __init__(self, edges: Dict[str, List[str]]) -> None:
        self.edges = edges

    @classmethod
    def build(cls, model: ProjectModel) -> "CallGraph":
        """Construct the graph for every function in ``model``."""
        edges: Dict[str, List[str]] = {}
        for info in model.modules.values():
            for qualname, node in info.functions.items():
                caller = f"{info.name}:{qualname}"
                edges[caller] = sorted(_callees(model, info, node))
        return cls(edges)

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every node reachable from ``roots`` (roots included when known)."""
        seen: Set[str] = set()
        queue = deque(root for root in roots if root in self.edges)
        seen.update(queue)
        while queue:
            current = queue.popleft()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return seen


def _callees(model: ProjectModel, info: ModuleInfo, func: ast.AST) -> Set[str]:
    """Resolved callee node ids for one function body."""
    callees: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name):
            resolved = _resolve_name(model, info, target.id)
            if resolved is not None:
                callees.add(resolved)
        elif isinstance(target, ast.Attribute):
            callees.update(_resolve_attribute(model, info, target))
    return callees


def _resolve_name(
    model: ProjectModel, info: ModuleInfo, name: str
) -> Optional[str]:
    """Resolve a bare called name inside ``info``."""
    if name in info.functions:
        return f"{info.name}:{name}"
    if name in info.classes:
        init = f"{name}.__init__"
        if init in info.functions:
            return f"{info.name}:{init}"
        return None
    dotted = info.imports.get(name)
    if dotted is not None:
        return _split_symbol(model, dotted)
    return None


def _resolve_attribute(
    model: ProjectModel, info: ModuleInfo, target: ast.Attribute
) -> Set[str]:
    """Resolve an ``x.y.z(...)`` callee inside ``info``."""
    # Reconstruct the dotted receiver chain when it is made of plain names.
    parts: List[str] = [target.attr]
    value: ast.expr = target.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if isinstance(value, ast.Name):
        parts.append(value.id)
        parts.reverse()
        head, rest = parts[0], parts[1:]
        dotted_head = info.imports.get(head)
        if dotted_head is not None:
            resolved = _split_symbol(model, ".".join([dotted_head] + rest))
            if resolved is not None:
                return {resolved}
        # `self.method(...)` / `cls.method(...)`: prefer same-module methods.
        if head in ("self", "cls") and len(rest) == 1:
            local = [
                f"{info.name}:{qualname}"
                for qualname in info.functions
                if qualname.rsplit(".", 1)[-1] == rest[0] and "." in qualname
            ]
            if local:
                return set(local)
    # Unknown receiver: fall back to the project-wide method-name index
    # (the deliberate over-approximation).
    return set(model.method_index.get(target.attr, ()))
