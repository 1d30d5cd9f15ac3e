"""Tier-B codebase lint: custom AST rules tailored to this repository.

These are repo-specific hazards generic linters do not know about:

* ``LINT001`` — ``==``/``!=`` against a float literal.  Cost comparisons
  must use tolerance helpers (``math.isclose`` or pytest ``approx``);
  exact float equality silently diverges across platforms.  Comparisons
  inside functions whose name mentions ``close``/``approx``/``tol`` (the
  tolerance helpers themselves) are exempt.
* ``LINT002`` — mutation of :class:`~repro.atoms.dag.AtomicDAG` flat
  arrays outside ``repro.atoms``: the CSR edge arrays (``pred_ptr``/
  ``pred_ids``/``pred_bytes`` and the ``succ_`` side), the per-atom
  columns (``atom_sample``/``atom_layer``/``atom_tile``/``atom_bounds``/
  ``atom_weight_slice``/``atom_incoming_bytes``/``atom_dram_bytes``),
  ``costs`` and the ``atoms`` view.  The arrays are index-aligned and the
  two CSR sides hold the same edges; out-of-band mutation desynchronizes
  them, which is exactly what the AD101/AD102/AD104 validators exist to
  catch after the fact.
* ``LINT003`` — every ``repro`` module must start with ``from __future__
  import annotations`` (uniform lazy annotation semantics across the
  package; docstring-only modules are exempt).
* ``LINT004`` — bare ``except:`` clauses (swallow ``KeyboardInterrupt``
  and mask scheduler bugs as "no candidates").
* ``LINT005`` — mutable default argument values (``[]``/``{}``/``set()``),
  shared across calls.
* ``LINT006`` — direct ``SystemSimulator(...)`` construction outside
  ``repro.sim``, the pipeline's evaluation stage, and benchmarks/tests.
  Hand-built simulators rebuild the NoC mesh per call and bypass the
  shared :class:`~repro.pipeline.SearchContext`; go through
  ``SearchContext.simulator`` (or the evaluation stage) instead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.diagnostics import Report, Severity, register_rule

register_rule(
    "LINT001",
    Severity.ERROR,
    "lint",
    "no ==/!= against float literals outside tolerance helpers "
    "(use math.isclose)",
)
register_rule(
    "LINT002",
    Severity.ERROR,
    "lint",
    "no mutation of AtomicDAG flat arrays outside repro.atoms",
)
register_rule(
    "LINT003",
    Severity.ERROR,
    "lint",
    "every module must start with `from __future__ import annotations`",
)
register_rule(
    "LINT004",
    Severity.ERROR,
    "lint",
    "no bare `except:` clauses",
)
register_rule(
    "LINT005",
    Severity.ERROR,
    "lint",
    "no mutable default argument values",
)
register_rule(
    "LINT006",
    Severity.ERROR,
    "lint",
    "no direct SystemSimulator construction outside repro.sim / the "
    "pipeline evaluation stage / benchmarks (use SearchContext.simulator)",
)

#: AtomicDAG's index-aligned flat attributes guarded by LINT002: the
#: CSR edge arrays, the per-atom columns, the costs and the atoms view.
DAG_FLAT_ATTRS = frozenset(
    {
        "atoms", "costs",
        "pred_ptr", "pred_ids", "pred_bytes",
        "succ_ptr", "succ_ids", "succ_bytes",
        "atom_sample", "atom_layer", "atom_tile", "atom_bounds",
        "atom_weight_slice", "atom_incoming_bytes", "atom_dram_bytes",
    }
)

#: Method names that mutate lists/dicts in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "setdefault",
        "update",
        "sort",
        "fill",
    }
)

_TOLERANCE_NAME = re.compile(r"close|approx|tol", re.IGNORECASE)

#: Path components whose files may construct SystemSimulator directly:
#: the simulator package itself, the evaluation stage that owns the
#: construction, and non-library code (benchmarks, tests, examples).
_SIM_EXEMPT_PARTS = frozenset({"sim", "benchmarks", "tests", "examples"})


class _LintVisitor(ast.NodeVisitor):
    """Single-pass visitor emitting all LINT rules for one module."""

    def __init__(
        self,
        report: Report,
        path: str,
        in_atoms_pkg: bool,
        may_build_simulator: bool = False,
    ) -> None:
        self.report = report
        self.path = path
        self.in_atoms_pkg = in_atoms_pkg
        self.may_build_simulator = may_build_simulator
        self._func_stack: list[str] = []

    def _loc(self, node: ast.AST) -> str:
        return f"{self.path}:{getattr(node, 'lineno', 0)}"

    # -- LINT001 ----------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        in_tolerance_helper = any(
            _TOLERANCE_NAME.search(name) for name in self._func_stack
        )
        if not in_tolerance_helper:
            operands = [node.left, *node.comparators]
            for op, (lhs, rhs) in zip(
                node.ops, zip(operands, operands[1:])
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(_is_float_literal(side) for side in (lhs, rhs)):
                    self.report.emit(
                        "LINT001",
                        self._loc(node),
                        "exact ==/!= against a float literal; use "
                        "math.isclose or an integer representation",
                    )
                    break
        self.generic_visit(node)

    # -- LINT002 ----------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_dag_mutation_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_dag_mutation_target(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            not self.in_atoms_pkg
            and isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and _is_dag_flat_attribute(func.value)
        ):
            self.report.emit(
                "LINT002",
                self._loc(node),
                f"in-place mutation `.{func.attr}()` of AtomicDAG flat "
                f"array `{_attr_name(func.value)}` outside repro.atoms",
            )
        if not self.may_build_simulator and _callee_name(func) == (
            "SystemSimulator"
        ):
            self.report.emit(
                "LINT006",
                self._loc(node),
                "direct SystemSimulator construction; build one through "
                "SearchContext.simulator so the shared mesh is reused",
            )
        self.generic_visit(node)

    def _check_dag_mutation_target(self, target: ast.expr) -> None:
        if self.in_atoms_pkg:
            return
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        if _is_dag_flat_attribute(base):
            self.report.emit(
                "LINT002",
                self._loc(target),
                f"assignment into AtomicDAG flat array "
                f"`{_attr_name(base)}` outside repro.atoms",
            )

    # -- LINT004 ----------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report.emit(
                "LINT004",
                self._loc(node),
                "bare `except:`; catch a specific exception "
                "(or at least Exception)",
            )
        self.generic_visit(node)

    # -- LINT005 + function-stack upkeep ----------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                self.report.emit(
                    "LINT005",
                    self._loc(default),
                    f"mutable default argument in `{node.name}()`; "
                    "default to None and create inside the body",
                )
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _is_float_literal(node.operand)
    return False


def _is_dag_flat_attribute(node: ast.expr) -> bool:
    """`<anything>.pred_ids`-shaped access to a guarded flat attribute.

    Attribute *names* alone identify the arrays; the rule intentionally
    over-approximates receiver types (static Python has no cheap way to
    prove `x` is an AtomicDAG) and relies on the guarded names being
    unique to the DAG within this codebase.
    """
    return isinstance(node, ast.Attribute) and node.attr in DAG_FLAT_ATTRS


def _attr_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else "?"


def _callee_name(func: ast.expr) -> str | None:
    """Terminal name of a call target: `f(...)` or `mod.f(...)`."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _may_build_simulator(path: str) -> bool:
    """LINT006 exemption: files allowed to construct SystemSimulator."""
    parts = Path(path).parts
    if parts and parts[-1] == "pipeline.py":
        return True
    return any(part in _SIM_EXEMPT_PARTS for part in parts)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"list", "dict", "set"}
        and not node.args
        and not node.keywords
    )


def _module_needs_future_import(tree: ast.Module) -> bool:
    """Docstring-only (or empty) modules are exempt from LINT003."""
    body = tree.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]
    return bool(body)


def _has_future_annotations(tree: ast.Module) -> bool:
    return any(
        isinstance(stmt, ast.ImportFrom)
        and stmt.module == "__future__"
        and any(alias.name == "annotations" for alias in stmt.names)
        for stmt in tree.body
    )


def lint_source(
    source: str,
    path: str,
    report: Report | None = None,
    in_atoms_pkg: bool | None = None,
    may_build_simulator: bool | None = None,
) -> Report:
    """Run every LINT rule over one module's source text.

    Args:
        source: Python source code.
        path: Display path for locations (also used to infer whether the
            module belongs to ``repro.atoms`` unless overridden).
        report: Optional report to append to.
        in_atoms_pkg: Override the ``repro.atoms`` membership inference
            (LINT002 exemption).
        may_build_simulator: Override the path-based LINT006 exemption
            (``repro.sim``, the pipeline evaluation stage, benchmarks,
            tests, examples).

    Returns:
        The report with any findings added.
    """
    report = report if report is not None else Report()
    report.mark_checked(path)
    if in_atoms_pkg is None:
        parts = Path(path).parts
        in_atoms_pkg = len(parts) >= 2 and parts[-2] == "atoms"
    if may_build_simulator is None:
        may_build_simulator = _may_build_simulator(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.emit(
            "LINT003", f"{path}:{exc.lineno or 0}", f"module does not parse: {exc.msg}"
        )
        return report
    if _module_needs_future_import(tree) and not _has_future_annotations(tree):
        report.emit(
            "LINT003",
            f"{path}:1",
            "missing `from __future__ import annotations`",
        )
    _LintVisitor(report, path, in_atoms_pkg, may_build_simulator).visit(tree)
    return report


def lint_paths(
    paths: list[str | Path], report: Report | None = None
) -> Report:
    """Lint files and/or directory trees (``*.py``, recursively).

    Returns:
        The report with any findings added.
    """
    report = report if report is not None else Report()
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    for f in files:
        lint_source(f.read_text(), str(f), report)
    return report
