"""Static verification subsystem: artifact validators + codebase lint.

Tier A validates the pipeline's intermediate artifacts (atomic DAGs,
Round schedules, placements, buffer feasibility) against the invariants
every downstream cost number silently assumes; Tier B is a set of
repo-specific AST lint rules; Tier C (:mod:`repro.analysis.static`) is
the interprocedural determinism/worker-safety analyzer behind ``repro
check --static``.  Run ``python -m repro.analysis`` (or ``repro
check``) for the CLI; ``--list-rules`` enumerates every rule.
"""

from __future__ import annotations

from repro.analysis.artifacts import (
    assert_valid,
    validate_artifacts,
    validate_outcome,
    validate_solution_file,
)
from repro.analysis.buffer_rules import check_buffering
from repro.analysis.dag_rules import check_dag
from repro.analysis.diagnostics import (
    ArtifactValidationError,
    Diagnostic,
    Report,
    Rule,
    Severity,
    all_rules,
    get_rule,
    register_rule,
)
from repro.analysis.lint import lint_paths, lint_source
from repro.analysis.mapping_rules import check_placement
from repro.analysis.resilience_rules import (
    check_checkpoint_journal,
    check_resilience_traces,
)
from repro.analysis.schedule_rules import check_schedule
from repro.analysis.service_rules import (
    check_admission_accounting,
    check_job_journal,
    check_service_state,
    check_store,
)
from repro.analysis.static import STATIC_RULES, run_static_analysis
from repro.analysis.tempering_rules import (
    check_tempering_journal,
    check_tempering_records,
)
from repro.analysis.timeline_rules import check_timeline
from repro.analysis.trace_rules import check_search_trace

__all__ = [
    "ArtifactValidationError",
    "Diagnostic",
    "Report",
    "Rule",
    "STATIC_RULES",
    "Severity",
    "all_rules",
    "assert_valid",
    "check_admission_accounting",
    "check_buffering",
    "check_checkpoint_journal",
    "check_dag",
    "check_job_journal",
    "check_placement",
    "check_resilience_traces",
    "check_search_trace",
    "check_schedule",
    "check_service_state",
    "check_store",
    "check_tempering_journal",
    "check_tempering_records",
    "check_timeline",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register_rule",
    "run_static_analysis",
    "validate_artifacts",
    "validate_outcome",
    "validate_solution_file",
]
