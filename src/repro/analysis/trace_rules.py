"""Tier-A validators for search traces (AD5xx).

The staged pipeline (:mod:`repro.pipeline`) records one
:class:`~repro.pipeline.CandidateTrace` per candidate the search
considered.  A trace set is consistent w.r.t. the outcome it explains
when:

* ``AD501`` — exactly one candidate is marked accepted, its cycle count
  matches the outcome's, and its fingerprint matches the tiling the
  selected DAG was actually built from;
* ``AD502`` — candidate labels are unique, evaluated candidates carry
  distinct fingerprints (the dedup invariant), every unevaluated
  candidate carries a recognized verdict (``duplicate of <label>``,
  ``failed after N attempt(s): ...``, or ``interrupted``), and every
  duplicate reference names an evaluated candidate.

The resilience-specific AD6xx rules live in
:mod:`repro.analysis.resilience_rules`.
"""

from __future__ import annotations

import re

from repro.analysis.diagnostics import Report, Severity, register_rule

register_rule(
    "AD501",
    Severity.ERROR,
    "artifact",
    "search traces must accept exactly one candidate, consistent with the "
    "selected result",
)
register_rule(
    "AD502",
    Severity.ERROR,
    "artifact",
    "search traces must have unique labels, deduplicated fingerprints, "
    "recognized unevaluated verdicts, and resolvable duplicate references",
)

_DUPLICATE_REASON = re.compile(r"^duplicate of (?P<label>.+)$")

#: Verdicts an unevaluated candidate may legitimately carry besides a
#: dedup skip: a retry-exhausted failure or a Ctrl-C interrupt.
_FAILURE_REASON = re.compile(r"^failed after \d+ attempts?: .+$", re.DOTALL)
_INTERRUPTED_REASON = "interrupted"


def check_search_trace(
    traces,
    result=None,
    dag=None,
    report: Report | None = None,
) -> Report:
    """Run every AD5xx rule over one search's candidate traces.

    Args:
        traces: Iterable of :class:`~repro.pipeline.CandidateTrace`.
        result: The selected :class:`~repro.metrics.RunResult`, when
            available; enables the accepted-cycles cross-check.
        dag: The selected :class:`~repro.atoms.dag.AtomicDAG`, when
            available; enables the accepted-fingerprint cross-check.
        report: Optional report to append to.

    Returns:
        The report with any findings added.
    """
    from repro.pipeline import tiling_fingerprint  # kept off --list-rules

    report = report if report is not None else Report()
    traces = list(traces)
    report.mark_checked(f"SearchTrace({len(traces)} candidates)")

    accepted = [t for t in traces if t.accepted]
    if len(accepted) != 1:
        report.emit(
            "AD501",
            "traces",
            f"{len(accepted)} candidates marked accepted "
            f"({[t.label for t in accepted]}); expected exactly 1",
        )
    else:
        winner = accepted[0]
        if not winner.evaluated:
            report.emit(
                "AD501",
                f"candidate {winner.label}",
                "accepted candidate was never evaluated (no cycle count)",
            )
        if result is not None and winner.total_cycles is not None and (
            winner.total_cycles != result.total_cycles
        ):
            report.emit(
                "AD501",
                f"candidate {winner.label}",
                f"accepted candidate reports {winner.total_cycles} cycles "
                f"but the selected result has {result.total_cycles}",
            )
        if dag is not None:
            tiling = {layer: grid.tile for layer, grid in dag.grids.items()}
            expected = tiling_fingerprint(tiling)
            if winner.fingerprint != expected:
                report.emit(
                    "AD501",
                    f"candidate {winner.label}",
                    f"accepted fingerprint {winner.fingerprint} does not "
                    f"match the selected DAG's tiling ({expected})",
                )

    labels = [t.label for t in traces]
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            report.emit(
                "AD502", f"candidate {label}", "duplicate candidate label"
            )
        seen.add(label)

    evaluated_fps: dict[str, str] = {}
    for t in traces:
        if not t.evaluated:
            continue
        if t.fingerprint in evaluated_fps:
            report.emit(
                "AD502",
                f"candidate {t.label}",
                f"evaluated fingerprint {t.fingerprint} already evaluated "
                f"as {evaluated_fps[t.fingerprint]}; dedup should have "
                "skipped one",
            )
        else:
            evaluated_fps[t.fingerprint] = t.label

    evaluated_labels = {t.label for t in traces if t.evaluated}
    for t in traces:
        if t.evaluated:
            continue
        if t.reason == _INTERRUPTED_REASON or _FAILURE_REASON.match(t.reason):
            continue
        m = _DUPLICATE_REASON.match(t.reason)
        if m is None:
            report.emit(
                "AD502",
                f"candidate {t.label}",
                f"unevaluated candidate has reason {t.reason!r}; expected "
                "'duplicate of <label>', 'failed after N attempt(s): ...', "
                "or 'interrupted'",
            )
        elif m.group("label") not in evaluated_labels:
            report.emit(
                "AD502",
                f"candidate {t.label}",
                f"duplicate reference {m.group('label')!r} does not name an "
                "evaluated candidate",
            )
    return report
