"""The complete rule catalog.

Each checker module registers its rules with
:mod:`~repro.analysis.diagnostics` when it is imported, so the registry
there holds only the rules of the checkers loaded so far.  This module
imports every checker; its :func:`all_rules` and :func:`get_rule` (the
ones :mod:`repro.analysis` exports) see all of them.
"""

from __future__ import annotations

from repro.analysis import (  # noqa: F401  (imported to register their rules)
    buffer_rules,
    dag_rules,
    lint,
    mapping_rules,
    resilience_rules,
    schedule_rules,
    service_rules,
    static,
    tempering_rules,
    timeline_rules,
    trace_rules,
)
from repro.analysis.diagnostics import all_rules, get_rule

__all__ = ["all_rules", "get_rule"]
