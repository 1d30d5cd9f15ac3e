"""Tier-A validator for parallel-tempering journal records (AD604).

A replica-exchange search (:mod:`repro.search.tempering`) journals one
``pt-segment[s]`` record per completed segment: the post-swap rung
states, the segment's exchange decisions, and the exchange-stream
cursor.  Resume trusts these records, so AD604 audits that the recorded
exchange history is *legal* — the checks are exactly the invariants the
coordinator's swap loop enforces by construction:

* segments are consecutive from 0 with a consistent rung count K;
* every swap proposal is neighbor-only (``upper == lower + 1``) within
  the ladder, and its pair family matches the segment parity
  (``lower % 2 == segment % 2``);
* exchange sequence numbers increase strictly across the whole journal
  and each record's ``next_seq`` chains to the last proposal it holds;
* the replica-id permutation is conserved: each record's ``replicas``
  is a permutation of ``range(K)`` that follows from the previous
  record's permutation under exactly the accepted swaps.

A journal that violates any of these was not produced by the
coordinator (or was tampered with), and resuming from it would
silently diverge from the uninterrupted run.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.diagnostics import Report, Severity, register_rule
from repro.journal import read_lines
from repro.search.tempering import SEGMENT_KIND

register_rule(
    "AD604",
    Severity.ERROR,
    "artifact",
    "tempering journal records must chain legally: consecutive segments, "
    "neighbor-only parity-matched swaps, monotone exchange sequence, "
    "conserved replica permutation",
)


def _emit(report: Report, where: str, message: str) -> None:
    report.emit("AD604", where, message)


def check_tempering_records(
    records: list[dict], report: Report | None = None, where: str = "journal"
) -> Report:
    """Run AD604 over parsed ``pt-segment`` records (any order)."""
    report = report if report is not None else Report()
    report.mark_checked(f"TemperingRecords({len(records)} segments)")
    if not records:
        return report

    by_segment: dict[int, dict] = {}
    for record in records:
        seg = record.get("segment")
        if not isinstance(seg, int) or seg < 0:
            _emit(report, where, f"record has invalid segment {seg!r}")
            return report
        if seg in by_segment:
            _emit(report, where, f"duplicate record for segment {seg}")
            return report
        by_segment[seg] = record

    segments = sorted(by_segment)
    if segments != list(range(len(segments))):
        _emit(
            report,
            where,
            f"segments {segments} are not consecutive from 0; resume "
            "requires an unbroken prefix",
        )
        return report

    first = by_segment[0]
    rungs = first.get("rungs")
    if not isinstance(rungs, int) or rungs < 1:
        _emit(report, where, f"segment 0 declares invalid rung count {rungs!r}")
        return report

    identity = list(range(rungs))
    replicas = identity  # before segment 0 every rung holds its own replica
    last_seq = 0
    for seg in segments:
        record = by_segment[seg]
        loc = f"{where} pt-segment[{seg}]"
        if record.get("rungs") != rungs:
            _emit(
                report,
                loc,
                f"rung count {record.get('rungs')!r} != segment 0's {rungs}",
            )
            return report
        states = record.get("states")
        if not isinstance(states, list) or len(states) != rungs:
            held = len(states) if isinstance(states, list) else "?"
            _emit(report, loc, f"record holds {held} states for {rungs} rungs")
            return report

        expected = list(replicas)
        for ex in record.get("exchanges", ()):
            seq = ex.get("seq")
            lower, upper = ex.get("lower"), ex.get("upper")
            if not isinstance(seq, int) or seq <= last_seq:
                _emit(
                    report,
                    loc,
                    f"exchange seq {seq!r} does not increase past {last_seq}",
                )
                return report
            last_seq = seq
            if ex.get("segment") != seg:
                _emit(
                    report,
                    loc,
                    f"exchange claims segment {ex.get('segment')!r}",
                )
                return report
            if (
                not isinstance(lower, int)
                or not isinstance(upper, int)
                or upper != lower + 1
                or lower < 0
                or upper >= rungs
            ):
                _emit(
                    report,
                    loc,
                    f"swap ({lower!r}, {upper!r}) is not a neighbor pair "
                    f"inside {rungs} rungs",
                )
                return report
            if lower % 2 != seg % 2:
                _emit(
                    report,
                    loc,
                    f"swap pair ({lower}, {upper}) has parity {lower % 2} "
                    f"in a parity-{seg % 2} segment",
                )
                return report
            if ex.get("accepted"):
                expected[lower], expected[upper] = (
                    expected[upper], expected[lower],
                )

        next_seq = record.get("next_seq")
        if next_seq != last_seq:
            _emit(
                report,
                loc,
                f"next_seq {next_seq!r} does not chain to the last "
                f"proposal's seq {last_seq}",
            )
            return report

        recorded = record.get("replicas")
        if sorted(recorded or ()) != identity:
            _emit(
                report,
                loc,
                f"replicas {recorded!r} are not a permutation of "
                f"range({rungs}); a swap conserves the replica set",
            )
            return report
        if list(recorded) != expected:
            _emit(
                report,
                loc,
                f"replicas {list(recorded)} do not follow from the previous "
                f"segment's {replicas} under the accepted swaps "
                f"(expected {expected})",
            )
            return report
        state_replicas = [doc.get("replica") for doc in states]
        if state_replicas != list(recorded):
            _emit(
                report,
                loc,
                f"per-state replica ids {state_replicas} disagree with the "
                f"record's replicas {list(recorded)}",
            )
            return report
        replicas = expected
    return report


def check_tempering_journal(
    path: str | Path, report: Report | None = None
) -> Report:
    """Run AD604 over every ``pt-segment`` record in a journal file.

    Journals without tempering records pass vacuously (plain restart
    searches write none).  Every whole line is scanned, header or not;
    the torn tail is left out by the reader, and lines that are not
    JSON objects are skipped (AD601 owns structural complaints).
    """
    report = report if report is not None else Report()
    path = Path(path)
    try:
        lines = read_lines(path)
    except OSError as exc:
        report.emit("AD604", str(path), f"unreadable journal: {exc}")
        return report
    docs = (line.obj for line in lines)
    records = [doc for doc in docs if doc and doc.get("kind") == SEGMENT_KIND]
    return check_tempering_records(records, report, where=path.name)


__all__ = ["check_tempering_journal", "check_tempering_records"]
