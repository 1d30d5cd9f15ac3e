"""Tier-A validators for resilient-search artifacts (AD6xx).

The resilience layer (:mod:`repro.resilience`) adds two artifact kinds
the original AD5xx trace rules know nothing about: checkpoint journals
on disk and the retry/failure annotations a supervised search leaves on
its traces.  Three rules guard them:

* ``AD601`` — a checkpoint journal is internally consistent: a valid
  header line, JSON-object records with unique non-empty labels, each
  embedding a trace whose label and fingerprint match the record's own
  and whose cycle count matches the embedded result;
* ``AD602`` — no lost candidates: every trace is exactly one of
  evaluated / deduplicated / failed / interrupted, so the search
  accounted for its entire candidate set (the invariant the old
  ``assert all(t is not None ...)`` only half-guarded);
* ``AD603`` — retry-trace sanity: attempts are >= 1, a failed trace's
  reason agrees with its recorded attempt count and carries its error,
  non-failing candidates carry no error, and restored candidates are
  evaluated (a checkpoint only ever stores completed work).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.diagnostics import Report, Severity, register_rule
from repro.journal import read_lines
from repro.resilience.checkpoint import CHECKPOINT_FORMAT, CHECKPOINT_VERSION

register_rule(
    "AD601",
    Severity.ERROR,
    "artifact",
    "checkpoint journals must have a valid header and self-consistent "
    "candidate records",
)
register_rule(
    "AD602",
    Severity.ERROR,
    "artifact",
    "every search candidate must end as exactly one of evaluated, "
    "deduplicated, failed, or interrupted",
)
register_rule(
    "AD603",
    Severity.ERROR,
    "artifact",
    "retry annotations must be sane: attempts >= 1, failure reasons "
    "consistent with attempt counts, restored candidates evaluated",
)

_FAILED_ATTEMPTS = re.compile(r"^failed after (?P<n>\d+) attempts?: ")


def check_resilience_traces(traces, report: Report | None = None) -> Report:
    """Run AD602 + AD603 over one search's candidate traces."""
    report = report if report is not None else Report()
    traces = list(traces)
    report.mark_checked(f"ResilienceTraces({len(traces)} candidates)")

    for t in traces:
        verdicts = [
            name
            for name, holds in (
                ("evaluated", t.evaluated),
                ("deduplicated", t.deduplicated),
                ("failed", t.failed),
                ("interrupted", t.interrupted),
            )
            if holds
        ]
        if len(verdicts) != 1:
            report.emit(
                "AD602",
                f"candidate {t.label}",
                f"candidate holds verdict(s) {verdicts or ['none']}; every "
                "candidate must end as exactly one of evaluated / "
                "deduplicated / failed / interrupted",
            )

        if t.attempts < 1:
            report.emit(
                "AD603",
                f"candidate {t.label}",
                f"attempts={t.attempts}; every candidate consumes at least "
                "one attempt",
            )
        if t.failed:
            if not t.error:
                report.emit(
                    "AD603",
                    f"candidate {t.label}",
                    "failed candidate carries no error description",
                )
            m = _FAILED_ATTEMPTS.match(t.reason)
            if m is not None and int(m.group("n")) != t.attempts:
                report.emit(
                    "AD603",
                    f"candidate {t.label}",
                    f"failure reason says {m.group('n')} attempt(s) but the "
                    f"trace records attempts={t.attempts}",
                )
        elif t.error and t.evaluated and t.attempts <= 1:
            report.emit(
                "AD603",
                f"candidate {t.label}",
                f"evaluated candidate carries error {t.error!r} without any "
                "retry that could have recorded it",
            )
        if t.restored and not t.evaluated:
            report.emit(
                "AD603",
                f"candidate {t.label}",
                "restored candidate is not evaluated; checkpoints only "
                "store completed candidates",
            )
    return report


def check_checkpoint_journal(
    path: str | Path, report: Report | None = None
) -> Report:
    """Run AD601 over a checkpoint-journal file.

    Structural validation only — the journal key is *not* checked against
    any particular search (that is resume-time behaviour); this verifies
    the file is a journal whose records agree with themselves.
    """
    from repro.pipeline import CandidateTrace  # kept off --list-rules

    report = report if report is not None else Report()
    path = Path(path)
    report.mark_checked(f"CheckpointJournal({path.name})")

    try:
        lines = read_lines(path)
    except OSError as exc:
        report.emit("AD601", str(path), f"unreadable journal: {exc}")
        return report
    if not lines:
        report.emit("AD601", str(path), "empty journal (missing header)")
        return report

    header = lines[0].obj
    if header is None:
        report.emit("AD601", f"{path.name}:1", "header is not a JSON object")
    else:
        if header.get("format") != CHECKPOINT_FORMAT:
            report.emit(
                "AD601",
                f"{path.name}:1",
                f"header format {header.get('format')!r}; expected "
                f"{CHECKPOINT_FORMAT!r}",
            )
        if header.get("version") != CHECKPOINT_VERSION:
            report.emit(
                "AD601",
                f"{path.name}:1",
                f"unsupported version {header.get('version')!r}; expected "
                f"{CHECKPOINT_VERSION}",
            )
        if not isinstance(header.get("key"), dict):
            report.emit(
                "AD601", f"{path.name}:1", "header carries no search key"
            )

    seen: set[str] = set()
    for line in lines[1:]:
        where = f"{path.name}:{line.number}"
        last = line is lines[-1]
        record = line.obj
        if record is None:
            # The journal drops a bad last line like a torn tail; so do we.
            if not last:
                report.emit("AD601", where, "line is not a JSON object")
            continue
        label = record.get("label")
        if not isinstance(label, str) or not label:
            if not last:
                report.emit("AD601", where, "record has no candidate label")
            continue
        if label in seen:
            report.emit("AD601", where, f"duplicate record for {label!r}")
        seen.add(label)
        if record.get("kind") == "pt-segment":
            # Tempering segment records follow their own schema; AD604
            # (repro.analysis.tempering_rules) audits them.
            continue
        missing = [
            k
            for k in ("fingerprint", "tiling", "rounds", "placement",
                      "result", "trace")
            if k not in record
        ]
        if missing:
            report.emit(
                "AD601", where, f"record {label!r} missing keys {missing}"
            )
            continue
        try:
            trace = CandidateTrace.from_dict(record["trace"])
        except ValueError as exc:
            report.emit("AD601", where, f"record {label!r}: {exc}")
            continue
        if trace.label != label:
            report.emit(
                "AD601",
                where,
                f"embedded trace label {trace.label!r} != record label "
                f"{label!r}",
            )
        if trace.fingerprint != record["fingerprint"]:
            report.emit(
                "AD601",
                where,
                f"embedded trace fingerprint {trace.fingerprint!r} != record "
                f"fingerprint {record['fingerprint']!r}",
            )
        cycles = record["result"].get("total_cycles") if isinstance(
            record["result"], dict
        ) else None
        if trace.total_cycles != cycles:
            report.emit(
                "AD601",
                where,
                f"embedded trace reports {trace.total_cycles} cycles but the "
                f"record's result has {cycles}",
            )
    return report
