"""Tier-A orchestration: validate whole pipeline artifacts in one call.

The individual rule modules (:mod:`~repro.analysis.dag_rules`,
:mod:`~repro.analysis.schedule_rules`, :mod:`~repro.analysis.mapping_rules`,
:mod:`~repro.analysis.buffer_rules`) each verify one artifact kind; this
module composes them over a full solution — as produced by the optimizer
(:func:`validate_outcome`), assembled by hand (:func:`validate_artifacts`),
or loaded from a serialized solution document without trusting it
(:func:`validate_solution_file`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.buffer_rules import check_buffering
from repro.analysis.dag_rules import check_dag
from repro.analysis.diagnostics import ArtifactValidationError, Report
from repro.analysis.mapping_rules import check_placement
from repro.analysis.resilience_rules import check_resilience_traces
from repro.analysis.schedule_rules import check_schedule
from repro.analysis.trace_rules import check_search_trace
from repro.atoms.atom import TileSize
from repro.atoms.dag import AtomicDAG, build_atomic_dag
from repro.config import ArchConfig
from repro.engine.cost_model import EngineCostModel
from repro.engine.dataflow import get_dataflow
from repro.ir.graph import Graph
from repro.ir.transforms import fuse_elementwise
from repro.noc.torus import make_topology
from repro.pipeline import bind_identities
from repro.scheduling.dp import RoundCostFn, default_round_cost
from repro.scheduling.rounds import Schedule
from repro.serialize import FORMAT


def validate_artifacts(
    dag: AtomicDAG,
    schedule: Schedule | None = None,
    placement: dict[int, int] | None = None,
    arch: ArchConfig | None = None,
    report: Report | None = None,
    round_cost_fn: RoundCostFn = default_round_cost,
    expected_cost: float | None = None,
) -> Report:
    """Validate a (partial) pipeline solution.

    Later tiers are only checked when their inputs are present *and* the
    earlier tiers found no errors — a schedule over a cyclic DAG has no
    meaningful legality verdict.

    Args:
        dag: The atomic DAG (always checked).
        schedule: Round schedule, if one exists yet.
        placement: Atom-engine mapping, if one exists yet.
        arch: Architecture; required for placement bounds and buffering
            capacity checks (both skipped when absent).
        report: Optional report to append to.
        round_cost_fn: Cost function for the AD205 cross-check.
        expected_cost: Producer-reported schedule cost for AD205.

    Returns:
        The report with any findings added.
    """
    report = report if report is not None else Report()
    check_dag(dag, report)
    if schedule is None or not report.ok:
        return report

    num_engines = arch.num_engines if arch is not None else max(
        (len(r.atom_indices) for r in schedule.rounds), default=1
    )
    check_schedule(
        dag,
        schedule,
        num_engines,
        report,
        round_cost_fn=round_cost_fn,
        expected_cost=expected_cost,
    )
    if placement is None or not report.ok:
        return report

    if arch is not None:
        mesh = make_topology(arch.mesh_rows, arch.mesh_cols, arch.noc.topology)
        check_placement(dag, schedule, placement, mesh, report)
        if report.ok:
            check_buffering(
                dag,
                schedule,
                placement,
                arch.num_engines,
                arch.engine.buffer_bytes,
                report,
            )
    return report


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
        # Imported lazily: repro.sim pulls in the simulator stack, which
        # this package must not require for pure artifact checks.
        from repro.analysis.timeline_rules import check_timeline
        from repro.sim import simulate_timeline

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


def assert_valid(report: Report) -> Report:
    """Raise when a report carries errors; return it otherwise.

    Raises:
        ArtifactValidationError: When ``report.ok`` is false.
    """
    if not report.ok:
        raise ArtifactValidationError(report)
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
        ValueError: Only when the file is not a solution document at all.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != FORMAT:
        raise ValueError(f"not a solution document: {path}")

    fused = fuse_elementwise(graph).graph
    report = Report()
    report.mark_checked(f"solution {Path(path).name} ({doc.get('workload')})")
    if fused.name != doc.get("workload"):
        report.emit(
            "AD201",
            "document",
            f"solution is for workload {doc.get('workload')!r}, "
            f"got {fused.name!r}",
        )
        return report

    tiling = {
        int(layer): TileSize(*extents)
        for layer, extents in doc["tiling"].items()
    }
    cost_model = EngineCostModel(
        arch.engine,
        get_dataflow(doc["dataflow"]),
        bytes_per_element=arch.bytes_per_element,
    )
    dag = build_atomic_dag(fused, tiling, cost_model, batch=doc["batch"])

    schedule, placement, unresolved = bind_identities(dag, doc)
    for where, atom_id in unresolved:
        report.emit("AD201", where, f"unknown atom identity {atom_id!r}")
    return validate_artifacts(
        dag, schedule=schedule, placement=placement, arch=arch, report=report
    )
