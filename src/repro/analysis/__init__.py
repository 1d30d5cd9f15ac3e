"""Static verification subsystem: artifact validators + codebase lint.

Tier A validates the pipeline's intermediate artifacts (atomic DAGs,
Round schedules, placements, buffer feasibility) against the invariants
every downstream cost number silently assumes; Tier B is a set of
repo-specific AST lint rules; Tier C (:mod:`repro.analysis.static`) is
the interprocedural determinism/worker-safety analyzer behind ``repro
check --static``.  Run ``python -m repro.analysis`` (or ``repro
check``) for the CLI; ``--list-rules`` enumerates every rule.

Each checker module sits just above the layer it checks, so the
pipeline can load the checkers it runs under ``validate=True`` without
loading the rest.  The names below load their module on first use;
:func:`all_rules` and :func:`get_rule` come from
:mod:`~repro.analysis.catalog`, which loads every checker so the rule
registry is complete.
"""

from __future__ import annotations

from repro import _lazy_exports

#: Every public name and the module that defines it, loaded on first use.
_EXPORTS = {
    "ArtifactValidationError": "repro.analysis.diagnostics",
    "Diagnostic": "repro.analysis.diagnostics",
    "Report": "repro.analysis.diagnostics",
    "Rule": "repro.analysis.diagnostics",
    "STATIC_RULES": "repro.analysis.static",
    "Severity": "repro.analysis.diagnostics",
    "all_rules": "repro.analysis.catalog",
    "assert_valid": "repro.analysis.diagnostics",
    "check_admission_accounting": "repro.analysis.service_rules",
    "check_buffering": "repro.analysis.buffer_rules",
    "check_checkpoint_journal": "repro.analysis.resilience_rules",
    "check_dag": "repro.analysis.dag_rules",
    "check_job_journal": "repro.analysis.service_rules",
    "check_placement": "repro.analysis.mapping_rules",
    "check_resilience_traces": "repro.analysis.resilience_rules",
    "check_search_trace": "repro.analysis.trace_rules",
    "check_schedule": "repro.analysis.schedule_rules",
    "check_service_state": "repro.analysis.service_rules",
    "check_store": "repro.analysis.service_rules",
    "check_tempering_journal": "repro.analysis.tempering_rules",
    "check_tempering_records": "repro.analysis.tempering_rules",
    "check_timeline": "repro.analysis.timeline_rules",
    "get_rule": "repro.analysis.catalog",
    "lint_paths": "repro.analysis.lint",
    "lint_source": "repro.analysis.lint",
    "register_rule": "repro.analysis.diagnostics",
    "run_static_analysis": "repro.analysis.static",
    "validate_artifacts": "repro.analysis.artifacts",
    "validate_outcome": "repro.analysis.outcome",
    "validate_solution_file": "repro.analysis.outcome",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
