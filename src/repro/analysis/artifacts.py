"""Tier-A orchestration: validate a pipeline solution's artifacts in one call.

The individual rule modules (:mod:`~repro.analysis.dag_rules`,
:mod:`~repro.analysis.schedule_rules`, :mod:`~repro.analysis.mapping_rules`,
:mod:`~repro.analysis.buffer_rules`) each verify one artifact kind;
:func:`validate_artifacts` composes them over a (partial) solution.  It
sits below :mod:`repro.pipeline`, whose ``validate=True`` searches call
it on every candidate; the checks of a whole optimizer result live in
:mod:`repro.analysis.outcome`.
"""

from __future__ import annotations

from repro.analysis.buffer_rules import check_buffering
from repro.analysis.dag_rules import check_dag
from repro.analysis.diagnostics import Report
from repro.analysis.mapping_rules import check_placement
from repro.analysis.schedule_rules import check_schedule
from repro.atoms.dag import AtomicDAG
from repro.config import ArchConfig
from repro.noc.torus import make_topology
from repro.scheduling.dp import RoundCostFn, default_round_cost
from repro.scheduling.rounds import Schedule


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
