"""Tier-A validators for Round schedules (AD2xx).

These re-verify the legality contract of Sec. III independently of the
schedulers that produced the artifact:

* ``AD201`` — every atom scheduled exactly once (no misses, no dups, no
  out-of-range indices);
* ``AD202`` — no Round empty or wider than the engine count;
* ``AD203`` — every dependency resolved in a strictly earlier Round;
* ``AD204`` — Round indices are contiguous and match list position;
* ``AD205`` — a caller-supplied total cost matches recomputation with the
  same ``round_cost_fn`` (catches schedulers whose reported objective
  drifts from the schedule they actually return).
"""

from __future__ import annotations

import math

from repro.analysis.diagnostics import Report, Severity, register_rule
from repro.atoms.dag import AtomicDAG
from repro.scheduling.dp import RoundCostFn, default_round_cost
from repro.scheduling.rounds import Schedule

#: Relative tolerance of the AD205 cost cross-check.
COST_RTOL = 1e-9

register_rule(
    "AD201",
    Severity.ERROR,
    "artifact",
    "every DAG atom must be scheduled exactly once",
)
register_rule(
    "AD202",
    Severity.ERROR,
    "artifact",
    "every Round must schedule between 1 and num_engines atoms",
)
register_rule(
    "AD203",
    Severity.ERROR,
    "artifact",
    "every predecessor must execute in a strictly earlier Round",
)
register_rule(
    "AD204",
    Severity.ERROR,
    "artifact",
    "Round indices must be contiguous and match execution order",
)
register_rule(
    "AD205",
    Severity.ERROR,
    "artifact",
    "reported schedule cost must match round_cost_fn recomputation",
)


def check_schedule(
    dag: AtomicDAG,
    schedule: Schedule,
    num_engines: int,
    report: Report | None = None,
    round_cost_fn: RoundCostFn = default_round_cost,
    expected_cost: float | None = None,
) -> Report:
    """Run every AD2xx rule over one schedule.

    Args:
        dag: The DAG the schedule claims to order.
        schedule: The artifact under test.
        num_engines: Per-Round parallelism cap ``N``.
        report: Optional report to append to.
        round_cost_fn: Cost function used for the AD205 recomputation.
        expected_cost: The producer's reported total cost; AD205 is only
            checked when this is provided (e.g. from
            :func:`~repro.scheduling.dp.schedule_exact_dp`).

    Returns:
        The report with any findings added.
    """
    report = report if report is not None else Report()
    report.mark_checked(
        f"Schedule({schedule.num_rounds} rounds / {dag.num_atoms} atoms)"
    )
    n = dag.num_atoms

    seen: dict[int, int] = {}
    for pos, rnd in enumerate(schedule.rounds):
        if rnd.index != pos:
            report.emit(
                "AD204",
                f"round {pos}",
                f"round at position {pos} carries index {rnd.index}",
            )
        if len(rnd.atom_indices) == 0:
            report.emit("AD202", f"round {pos}", "round schedules no atoms")
        elif len(rnd.atom_indices) > num_engines:
            report.emit(
                "AD202",
                f"round {pos}",
                f"round schedules {len(rnd.atom_indices)} atoms on "
                f"{num_engines} engines",
            )
        for a in rnd.atom_indices:
            if not 0 <= a < n:
                report.emit(
                    "AD201",
                    f"round {pos}",
                    f"atom index {a} out of range [0, {n})",
                )
                continue
            if a in seen:
                report.emit(
                    "AD201",
                    f"atom {a}",
                    f"scheduled in both round {seen[a]} and round {pos}",
                )
            else:
                seen[a] = pos

    missing = [a for a in range(n) if a not in seen]
    if missing:
        report.emit(
            "AD201",
            "schedule",
            f"{len(missing)} atoms never scheduled (e.g. {missing[:5]})",
        )

    ptr = dag.pred_ptr.tolist()
    preds = dag.pred_ids.tolist()
    for a, t in seen.items():
        for p in preds[ptr[a] : ptr[a + 1]]:
            tp = seen.get(p)
            if tp is None:
                continue  # already reported by AD201
            if tp >= t:
                report.emit(
                    "AD203",
                    f"atom {a}",
                    f"runs in round {t} but depends on atom {p} in "
                    f"round {tp}",
                )

    if expected_cost is not None:
        _check_cost(dag, schedule, report, round_cost_fn, expected_cost)
    return report


def _check_cost(
    dag: AtomicDAG,
    schedule: Schedule,
    report: Report,
    round_cost_fn: RoundCostFn,
    expected_cost: float,
) -> None:
    n = dag.num_atoms
    total = 0.0
    for rnd in schedule.rounds:
        if not rnd.atom_indices or any(
            not 0 <= a < n for a in rnd.atom_indices
        ):
            return  # structurally broken; AD201/AD202 already cover it
        total += round_cost_fn(dag, rnd.atom_indices)
    if not math.isclose(total, expected_cost, rel_tol=COST_RTOL, abs_tol=1e-9):
        report.emit(
            "AD205",
            "schedule",
            f"reported cost {expected_cost!r} but round_cost_fn "
            f"recomputation gives {total!r}",
        )
