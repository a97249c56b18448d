"""Scalarization guard for the vectorised hot-path modules.

``repro.fastpath.batch`` earns its throughput by applying whole blocks of
work through numpy gathers and scatters; its scalar protocol path
deliberately reads the buffer-protocol columns (``array``/``bytearray``)
element-wise instead. The regression RPR012 exists to catch is the quiet
middle ground: a Python ``for`` loop iterating a *numpy array* element by
element inside the vectorised helpers — each step materialises a numpy
scalar, which is several times slower than either the vector op it
replaced or the plain-int loop it pretends to be. The sanctioned escape
hatch when per-element Python iteration is genuinely needed is
``.tolist()`` (one bulk conversion, then plain ints), which this rule
deliberately does not flag.

The rule covers every module that mixes numpy arrays with scalar loops:
the batch engine itself, the numpy gate (``fastpath/numeric.py``), and
the packed-trace decoder (``trace/columnar_io.py``), whose numpy branch
decodes columns via ``frombuffer`` and must hand them to the interner as
``.tolist()`` columns, never by element-wise iteration.

RPR013 guards the other numpy hazard those packages carry: a running sum
or product whose width numpy picks. Without ``dtype=`` a bool or narrow
integer input accumulates in the platform default integer, which is
32-bit on Windows, so totals that scale with trace length overflow there
and nowhere a Linux test can see.
"""

from __future__ import annotations

import ast
from typing import Set

from repro.devtools.lint.registry import FileContext, RuleVisitor, register

#: Builtins that iterate their argument element-wise: wrapping a numpy
#: array in one of these is the same scalarization as a bare ``for``.
_ELEMENTWISE_WRAPPERS: Set[str] = {
    "enumerate",
    "zip",
    "map",
    "filter",
    "reversed",
    "sorted",
    "list",
    "tuple",
    "set",
}


def _is_np_call(node: ast.AST) -> bool:
    """Whether ``node`` is a call rooted at the ``np`` module object
    (``np.frombuffer(...)``, ``np.maximum.accumulate(...)``, ...)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    while isinstance(func, ast.Attribute):
        func = func.value
    return isinstance(func, ast.Name) and func.id == "np"


@register
class BatchScalarizationRule(RuleVisitor):
    """RPR012: no Python-level per-element iteration over numpy arrays
    in the vectorised hot-path modules (``fastpath/batch.py``,
    ``fastpath/numeric.py``, ``trace/columnar_io.py``).

    Tracks names bound to numpy expressions (``x = np.flatnonzero(...)``
    and anything derived from a tracked name by subscripting, arithmetic,
    or comparison) and flags a ``for`` statement or comprehension whose
    iterable is such an array — directly, or wrapped in an element-wise
    builtin (``enumerate``/``zip``/``list``/...). Iterating the result of
    ``.tolist()`` is the sanctioned bulk escape and is never flagged; a
    deliberate exception takes ``# repro: noqa[RPR012]``.
    """

    code = "RPR012"
    summary = "per-element Python iteration over a numpy array in bulk hot-path code"
    packages = ("fastpath", "trace")

    #: Module basenames the rule runs against: the vectorised bulk paths.
    #: The other fastpath/trace modules loop over plain lists by design.
    _SCOPED_FILES: Set[str] = {"batch.py", "numeric.py", "columnar_io.py"}

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._np_names: Set[str] = set()

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        """Scoped to the modules that hold numpy bulk code; the scalar
        columns the other fastpath/trace modules loop over are lists."""
        if not super().applies(ctx):
            return False
        name = ctx.path.replace("\\", "/").rsplit("/", 1)[-1]
        return name in cls._SCOPED_FILES

    def _arrayish(self, node: ast.AST) -> bool:
        """Whether ``node`` statically looks like a numpy array value."""
        if isinstance(node, ast.Name):
            return node.id in self._np_names
        if _is_np_call(node):
            return True
        if isinstance(node, ast.Subscript):
            return self._arrayish(node.value)
        if isinstance(node, ast.BinOp):
            return self._arrayish(node.left) or self._arrayish(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._arrayish(node.operand)
        if isinstance(node, ast.Compare):
            return self._arrayish(node.left) or any(
                self._arrayish(c) for c in node.comparators
            )
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if self._arrayish(node.value):
                self._np_names.add(name)
            else:
                self._np_names.discard(name)
        self.generic_visit(node)

    def _check_iterable(self, node: ast.AST, anchor: ast.AST) -> None:
        if self._arrayish(node):
            self.report(
                anchor,
                "per-element Python iteration over a numpy array "
                "materialises one numpy scalar per step; use a vector "
                "op, or `.tolist()` once if a scalar loop is required",
            )
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ELEMENTWISE_WRAPPERS
        ):
            for arg in node.args:
                if self._arrayish(arg):
                    self.report(
                        anchor,
                        f"`{node.func.id}(...)` over a numpy array iterates "
                        "it element-wise in Python; use a vector op, or "
                        "`.tolist()` once if a scalar loop is required",
                    )
                    return

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter, node)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter, node.iter)
        self.generic_visit(node)


#: Methods (and ``np`` functions) that accumulate in a numpy-chosen width.
_ACCUMULATING_METHODS: Set[str] = {"cumsum", "cumprod"}

#: ``np.<ufunc>.accumulate`` ufuncs whose running value grows with length.
_ACCUMULATING_UFUNCS: Set[str] = {"add", "multiply"}


@register
class AccumulatorWidthRule(RuleVisitor):
    """RPR013: running sums and products in ``fastpath`` / ``trace`` spell
    their width.

    Flags ``np.cumsum`` / ``np.cumprod`` and the ``.cumsum()`` /
    ``.cumprod()`` methods, and ``np.add.accumulate`` /
    ``np.multiply.accumulate``, unless the call passes ``dtype=`` or
    ``out=`` (whose array fixes the width). Accumulators that cannot
    overflow (``np.maximum.accumulate``) and ``itertools.accumulate`` are
    not flagged.
    """

    code = "RPR013"
    summary = "cumulative sum/product without an explicit dtype= or out= width"
    packages = ("fastpath", "trace")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and (
            func.attr in _ACCUMULATING_METHODS
            or (
                func.attr == "accumulate"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in _ACCUMULATING_UFUNCS
                and _is_np_call(node)
            )
        ) and not any(kw.arg in ("dtype", "out") for kw in node.keywords):
            self.report(
                node,
                f"`{ast.unparse(func)}` without `dtype=` accumulates bool/narrow "
                "input in the platform default integer, 32-bit on Windows, "
                "so trace-length totals overflow there; pass "
                "`dtype=np.int64` (or `out=`)",
            )
        self.generic_visit(node)
