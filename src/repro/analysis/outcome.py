"""Tier-A checks of a whole optimizer result.

:func:`validate_outcome` audits everything an in-memory
:class:`~repro.framework.OptimizationOutcome` decided — its artifacts,
its search traces, and a re-simulated timeline; and
:func:`validate_solution_file` audits a serialized solution document
without trusting it.  Both build on
:func:`~repro.analysis.artifacts.validate_artifacts`.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from repro.analysis.artifacts import validate_artifacts
from repro.analysis.diagnostics import Report
from repro.analysis.resilience_rules import check_resilience_traces
from repro.analysis.timeline_rules import check_timeline
from repro.analysis.trace_rules import check_search_trace
from repro.config import ArchConfig
from repro.ir.graph import Graph
from repro.serialize import decode_solution, read_solution
from repro.sim import simulate_timeline


def validate_outcome(outcome, arch: ArchConfig) -> Report:
    """Validate everything an optimizer outcome decided.

    When the outcome carries search traces, the AD5xx trace rules and the
    AD6xx resilience rules run as well, cross-checking the accepted
    candidate against the selected result and DAG and the retry/failure
    annotations against each other.  On an otherwise-clean outcome the
    selected solution is re-simulated with timeline collection and the
    AD7xx timeline rules cross-check the exported occupancy view against
    the outcome's metrics.

    Args:
        outcome: An :class:`~repro.framework.OptimizationOutcome`.
        arch: The architecture the outcome targets.
    """
    report = validate_artifacts(
        outcome.dag,
        schedule=outcome.schedule,
        placement=outcome.placement,
        arch=arch,
    )
    traces = getattr(outcome, "traces", ())
    if traces:
        check_search_trace(
            traces, result=outcome.result, dag=outcome.dag, report=report
        )
        check_resilience_traces(traces, report=report)
    if report.ok:
        result, timeline = simulate_timeline(
            arch,
            outcome.dag,
            outcome.schedule,
            outcome.placement,
            strategy=outcome.result.strategy,
        )
        check_timeline(timeline, result=result, report=report)
        if result.total_cycles != outcome.result.total_cycles:
            report.emit(
                "AD702",
                "timeline",
                f"re-simulated total_cycles {result.total_cycles} does not "
                f"match the outcome's {outcome.result.total_cycles}",
            )
    return report


def validate_solution_file(
    path: str | Path, graph: Graph, arch: ArchConfig
) -> Report:
    """Statically verify a serialized solution document.

    Unlike :func:`repro.serialize.load_solution`, this never raises on an
    illegal schedule or placement — it rebuilds the DAG from the document's
    tiling, resolves atom identities as far as possible, and reports every
    violation as a diagnostic, so a corrupted or adversarial document
    yields a complete finding list instead of one exception.

    Args:
        path: JSON file written by :func:`repro.serialize.save_solution`.
        graph: The workload (pre-fusion) the document claims to order.
        arch: The architecture the document targets.

    Returns:
        The validation report.

    Raises:
        ValueError: Only when the file is not a solution document of a
            supported version.
    """
    doc = read_solution(path)
    report = Report()
    report.mark_checked(f"solution {Path(path).name} ({doc.get('workload')})")
    solution = decode_solution(doc, graph, arch, partial(report.emit, "AD201"))
    if solution is None:
        return report
    return validate_artifacts(
        solution.dag,
        schedule=solution.schedule,
        placement=solution.placement,
        arch=arch,
        report=report,
    )
