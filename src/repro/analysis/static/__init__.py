"""Interprocedural static analysis: determinism & worker safety (Tier C).

Public surface:

* :func:`run_static_analysis` — full engine run over paths with
  suppression + ratchet-baseline filtering (what ``repro check
  --static`` calls);
* :func:`run_passes`, :func:`build_call_graph`, :func:`summarize_all` —
  the raw machinery, for tests and tooling;
* :data:`STATIC_RULES` — LINT007–LINT013 catalog.
"""

from __future__ import annotations

from repro.analysis.static.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.static.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
)
from repro.analysis.static.engine import (
    STATIC_RULES,
    StaticRunResult,
    run_passes,
    run_static_analysis,
)
from repro.analysis.static.findings import StaticFinding
from repro.analysis.static.loader import (
    ModuleInfo,
    ModuleLoadError,
    Suppression,
    load_module,
    load_paths,
    module_name_for,
    parse_suppressions,
)
from repro.analysis.static.summaries import (
    FunctionSummary,
    MutationFact,
    summarize_all,
    summarize_function,
)

__all__ = [
    "BaselineEntry",
    "CallGraph",
    "FunctionInfo",
    "FunctionSummary",
    "ModuleInfo",
    "ModuleLoadError",
    "MutationFact",
    "STATIC_RULES",
    "StaticFinding",
    "StaticRunResult",
    "Suppression",
    "apply_baseline",
    "build_call_graph",
    "load_baseline",
    "load_module",
    "load_paths",
    "module_name_for",
    "parse_suppressions",
    "run_passes",
    "run_static_analysis",
    "save_baseline",
    "summarize_all",
    "summarize_function",
]
