"""Interprocedural call-graph over a loaded package.

Python has no cheap sound call resolution, so the graph deliberately
*over-approximates* (the safe direction for the worker-safety pass,
which must not miss functions a pool task can reach):

* direct ``f(...)`` calls resolve through module-local definitions and
  ``from x import f``/``import x as m`` aliases;
* attribute calls ``obj.run(...)`` resolve *by method name* to every
  known class method (and module attribute) called ``run`` in the
  analyzed package — dynamic dispatch without type inference;
* calls that resolve to nothing in the package (stdlib, numpy) are
  recorded as unresolved names on the caller's :class:`FunctionInfo`.

Reachability (:meth:`CallGraph.reachable_from`) is a plain BFS closure
over those edges.  Parameter annotations are kept (terminal name only:
``ctx: SearchContext`` → ``"SearchContext"``) so passes can type-match
shared-state receivers without real inference.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.static.loader import ModuleInfo


def annotation_name(node: ast.expr | None) -> str | None:
    """Terminal type name of an annotation: ``a.b.C[X]`` → ``"C"``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: best-effort parse of its terminal name.
        try:
            return annotation_name(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    return None


def walk_scope(root: ast.AST):
    """Yield ``root``'s descendants without entering nested functions.

    A nested ``def`` is yielded (so its *name* can be bound in the outer
    scope) but its body belongs to the nested function's own
    :class:`FunctionInfo` — attributing a closure's stores to the outer
    function produced false "module-global write" facts.  Lambdas stay
    in scope: they share the enclosing namespace.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def callee_parts(func: ast.expr) -> tuple[str | None, str | None]:
    """``(receiver_dotted, terminal_name)`` of a call target.

    ``f(...)`` → ``(None, "f")``; ``np.random.shuffle(...)`` →
    ``("np.random", "shuffle")``; anything else → ``(None, None)``.
    """
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        parts: list[str] = []
        node: ast.expr = func.value
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.insert(0, node.id)
            return ".".join(parts), func.attr
        return None, func.attr
    return None, None


@dataclass
class FunctionInfo:
    """One function/method definition and its locally visible behaviour.

    Attributes:
        qualname: ``module.Class.method`` or ``module.function``.
        module: Dotted module name.
        name: Bare function name.
        class_name: Enclosing class, if a method.
        node: The AST definition.
        params: Parameter name → terminal annotation name (or None).
        direct_calls: Bare names called as ``f(...)``.
        method_calls: Attribute names called as ``x.m(...)``.
        is_nested: Defined inside another function (closure candidate).
        free_names: Names read that are neither params nor locals —
            module globals or (for nested functions) captured cells.
    """

    qualname: str
    module: str
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: dict[str, str | None] = field(default_factory=dict)
    direct_calls: set[str] = field(default_factory=set)
    method_calls: set[str] = field(default_factory=set)
    is_nested: bool = False
    free_names: set[str] = field(default_factory=set)
    nested_quals: set[str] = field(default_factory=set)


def _param_annotations(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, str | None]:
    args = node.args
    every = [
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ]
    return {a.arg: annotation_name(a.annotation) for a in every}


class _FunctionCollector(ast.NodeVisitor):
    """Collects every function definition of one module."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.functions: list[FunctionInfo] = []
        self._class_stack: list[str] = []
        self._func_depth = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._collect(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._collect(node)

    def _collect(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        class_name = self._class_stack[-1] if self._class_stack else None
        scope = f"{class_name}." if class_name else ""
        info = FunctionInfo(
            qualname=f"{self.module.name}.{scope}{node.name}",
            module=self.module.name,
            name=node.name,
            class_name=class_name,
            node=node,
            params=_param_annotations(node),
            is_nested=self._func_depth > 0,
        )
        bound = set(info.params)
        for stmt in walk_scope(node):
            if isinstance(stmt, ast.Call):
                recv, term = callee_parts(stmt.func)
                if term is None:
                    continue
                if recv is None:
                    info.direct_calls.add(term)
                else:
                    info.method_calls.add(term)
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    # Only direct name (and destructuring) targets bind;
                    # the root of `obj.attr = v` / `d[k] = v` is a read
                    # of an existing object, possibly a free name.
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name) and isinstance(
                            leaf.ctx, ast.Store
                        ):
                            bound.add(leaf.id)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                for leaf in ast.walk(stmt.target):
                    if isinstance(leaf, ast.Name):
                        bound.add(leaf.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt is not node:
                    bound.add(stmt.name)
                    # A closure the outer function defines may run
                    # whenever the outer function hands it off, so keep
                    # an explicit reachability edge to it.
                    info.nested_quals.add(
                        f"{self.module.name}.{scope}{stmt.name}"
                    )
            elif isinstance(stmt, ast.comprehension):
                for leaf in ast.walk(stmt.target):
                    if isinstance(leaf, ast.Name):
                        bound.add(leaf.id)
            elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
                bound.update(stmt.names)
        for stmt in walk_scope(node):
            if isinstance(stmt, ast.Name) and isinstance(stmt.ctx, ast.Load):
                if stmt.id not in bound:
                    info.free_names.add(stmt.id)
        self.functions.append(info)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1


def module_imports(module: ModuleInfo) -> dict[str, str]:
    """Alias → dotted-target map of a module's top-level imports.

    ``from repro.pipeline import StagedSearch as S`` → ``{"S":
    "repro.pipeline.StagedSearch"}``; ``import numpy as np`` →
    ``{"np": "numpy"}``.
    """
    aliases: dict[str, str] = {}
    for stmt in ast.walk(module.tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{stmt.module}.{alias.name}"
                )
    return aliases


@dataclass
class CallGraph:
    """Resolved call edges over every function of a loaded package."""

    functions: dict[str, FunctionInfo]
    edges: dict[str, set[str]]
    by_module: dict[str, list[FunctionInfo]]

    def reachable_from(self, roots: set[str]) -> set[str]:
        """BFS closure of qualnames reachable through resolved edges."""
        seen = {r for r in roots if r in self.functions}
        queue = sorted(seen)
        while queue:
            current = queue.pop()
            for nxt in self.edges.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen


def build_call_graph(modules: list[ModuleInfo]) -> CallGraph:
    """Collect every function and resolve its call edges."""
    functions: dict[str, FunctionInfo] = {}
    by_module: dict[str, list[FunctionInfo]] = {}
    by_bare_name: dict[str, list[str]] = {}
    by_method_name: dict[str, list[str]] = {}
    imports: dict[str, dict[str, str]] = {}

    for module in modules:
        collector = _FunctionCollector(module)
        collector.visit(module.tree)
        by_module[module.name] = collector.functions
        imports[module.name] = module_imports(module)
        for info in collector.functions:
            functions[info.qualname] = info
            if info.class_name is None:
                by_bare_name.setdefault(info.name, []).append(info.qualname)
            else:
                by_method_name.setdefault(info.name, []).append(info.qualname)

    edges: dict[str, set[str]] = {}
    for info in functions.values():
        targets = {q for q in info.nested_quals if q in functions}
        aliases = imports.get(info.module, {})
        for name in info.direct_calls:
            local = f"{info.module}.{name}"
            if local in functions:
                targets.add(local)
                continue
            imported = aliases.get(name)
            if imported and imported in functions:
                targets.add(imported)
                continue
            # A class construction runs its __init__/__post_init__.
            for special in ("__init__", "__post_init__"):
                qual = f"{info.module}.{name}.{special}"
                if qual in functions:
                    targets.add(qual)
                if imported:
                    qual = f"{imported}.{special}"
                    if qual in functions:
                        targets.add(qual)
        for name in info.method_calls:
            # Dynamic dispatch: every same-named method in the package.
            targets.update(by_method_name.get(name, ()))
            targets.update(
                qual
                for qual in by_bare_name.get(name, ())
                # `mod.func(...)` via an imported module alias.
            )
        edges[info.qualname] = targets
    return CallGraph(functions=functions, edges=edges, by_module=by_module)
