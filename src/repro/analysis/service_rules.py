"""Tier-A validators for compile-service state (AD8xx).

The service layer (:mod:`repro.service`) adds durable state the earlier
artifact rules know nothing about: a content-addressed solution store, a
job journal, and admission accounting.  Three rules guard them:

* ``AD801`` — store integrity: the index parses, every indexed entry's
  object file exists with matching size and content digest and holds a
  well-formed solution document whose workload/cycles agree with the
  index, no orphan objects shadow the index, and access sequence numbers
  are internally consistent (the LRU clock never runs backwards);
* ``AD802`` — job-journal consistency: a valid header, every event line
  parses to a record whose state matches the event, per-job transitions
  follow the lifecycle (``queued → running → done/failed/cancelled``,
  with restart re-queues allowed, and nothing after a terminal state),
  searched ``done`` jobs carry cycles and ``failed`` jobs carry errors —
  the invariant a daemon kill-and-restart must preserve;
* ``AD803`` — quota-accounting sanity: an admission snapshot's totals
  add up, no tenant exceeds its quota, the total respects the queue
  depth cap, and (given the job table) no tenant holds more slots than
  it has non-terminal jobs.

``AD804``-``AD806`` extend the journal checks to lease legality, orphan
leases, and retry-cap accounting; the observability plane adds two more:

* ``AD807`` — event-log agreement: the per-job event-kind sequence in
  ``events.jsonl`` equals the sequence the job journal's state
  transitions imply (:func:`repro.service.events.expected_events`),
  ``seq`` strictly increases, kinds are known, trace ids match the
  journal's, and every event names a journaled job;
* ``AD808`` — per-job span-tree well-formedness: a persisted
  ``traces/<job_id>.json`` parses, its daemon-pid spans form a tree
  with exactly one root, no span names an absent same-pid parent, child
  windows nest within their parents, and worker-process span windows
  fall inside the root's.

All imports of :mod:`repro.service` are deferred into the check
functions, so ``--list-rules`` (which imports every checker through
:mod:`repro.analysis.catalog` to register its rules) does not load the
service and the optimizer behind it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.diagnostics import Report, Severity, register_rule
from repro.journal import read_lines

register_rule(
    "AD801",
    Severity.ERROR,
    "artifact",
    "solution-store entries must match their index: existing objects, "
    "matching digests, well-formed documents, consistent LRU sequencing",
)
register_rule(
    "AD802",
    Severity.ERROR,
    "artifact",
    "job-journal events must follow the job lifecycle and replay to a "
    "consistent job table after a daemon restart",
)
register_rule(
    "AD803",
    Severity.ERROR,
    "artifact",
    "admission accounting must be sane: totals add up, quotas and queue "
    "depth respected, slots backed by live jobs",
)
register_rule(
    "AD804",
    Severity.ERROR,
    "artifact",
    "job leases must be legal: running events carry a runner and a "
    "1-based attempt, lease sequence numbers strictly increase journal-"
    "wide, attempts advance by exactly one per lease",
)
register_rule(
    "AD805",
    Severity.ERROR,
    "artifact",
    "no orphaned leases: a runner holds at most one live lease, and a "
    "quiescent journal (drained or recovered) ends with every lease "
    "closed",
)
register_rule(
    "AD806",
    Severity.ERROR,
    "artifact",
    "retry-cap accounting: no job consumes more leases than the "
    "journaled max_attempts cap",
)
register_rule(
    "AD807",
    Severity.ERROR,
    "artifact",
    "event-log agreement: every job's event sequence in events.jsonl "
    "must equal the sequence its journal transitions imply, with "
    "monotone seq numbers and matching trace ids",
)
register_rule(
    "AD808",
    Severity.ERROR,
    "artifact",
    "trace well-formedness: a persisted job trace has exactly one root "
    "span, no orphan parents, and child windows nested within their "
    "parents",
)

#: Legal predecessor states for each job-journal event.  A job's first
#: event must be ``queued`` (a real submission) or ``done`` (a cache hit
#: journaled terminal immediately); ``None`` marks "no prior event".
_LEGAL_TRANSITIONS: dict[str, tuple[str | None, ...]] = {
    "queued": (None, "queued", "running"),  # running→queued = restart
    "running": ("queued",),
    "done": (None, "queued", "running"),  # None = cache hit at submit
    "failed": ("queued", "running"),  # queued→failed = coalesce collapse
    "cancelled": ("queued",),
}


def check_store(root: str | Path, report: Report | None = None) -> Report:
    """Run AD801 over a solution-store directory."""
    report = report if report is not None else Report()
    root = Path(root)
    report.mark_checked(f"SolutionStore({root})")

    from repro.service.store import (
        STORE_FORMAT,
        STORE_VERSION,
        check_solution_document,
    )

    index_path = root / "index.json"
    objects = root / "objects"
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        if objects.exists() and any(objects.glob("*.json")):
            report.emit(
                "AD801", str(root), "objects exist but index.json is missing"
            )
        return report
    except (OSError, ValueError) as exc:
        report.emit("AD801", str(index_path), f"unreadable index: {exc}")
        return report

    if index.get("format") != STORE_FORMAT:
        report.emit(
            "AD801",
            str(index_path),
            f"index format {index.get('format')!r}; expected {STORE_FORMAT!r}",
        )
        return report
    if index.get("version") != STORE_VERSION:
        report.emit(
            "AD801",
            str(index_path),
            f"unsupported index version {index.get('version')!r}",
        )
        return report
    entries = index.get("entries")
    access_seq = index.get("access_seq")
    if not isinstance(entries, dict) or not isinstance(access_seq, int):
        report.emit(
            "AD801", str(index_path), "index carries no entries/access_seq"
        )
        return report

    for fp, entry in sorted(entries.items()):
        where = f"{root}/objects/{fp}.json"
        if not isinstance(entry, dict):
            report.emit("AD801", where, "index entry is not an object")
            continue
        path = objects / f"{fp}.json"
        try:
            payload = path.read_bytes()
        except OSError:
            report.emit("AD801", where, "indexed object file is missing")
            continue
        if len(payload) != entry.get("size_bytes"):
            report.emit(
                "AD801",
                where,
                f"object is {len(payload)} bytes; index says "
                f"{entry.get('size_bytes')}",
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != entry.get("sha256"):
            report.emit(
                "AD801",
                where,
                "content digest mismatch: stored bytes were modified after "
                "indexing",
            )
            continue  # the document checks below would double-report
        try:
            doc = json.loads(payload)
        except ValueError:
            report.emit("AD801", where, "object is not valid JSON")
            continue
        problem = check_solution_document(doc)
        if problem is not None:
            report.emit("AD801", where, f"stored document invalid: {problem}")
            continue
        if doc.get("workload") != entry.get("workload"):
            report.emit(
                "AD801",
                where,
                f"document workload {doc.get('workload')!r} != index "
                f"{entry.get('workload')!r}",
            )
        if doc["metrics"]["total_cycles"] != entry.get("total_cycles"):
            report.emit(
                "AD801",
                where,
                f"document reports {doc['metrics']['total_cycles']} cycles; "
                f"index says {entry.get('total_cycles')}",
            )
        created = entry.get("created_seq")
        accessed = entry.get("last_access")
        if (
            not isinstance(created, int)
            or not isinstance(accessed, int)
            or accessed < created
            or accessed > access_seq
        ):
            report.emit(
                "AD801",
                where,
                f"LRU sequencing inconsistent: created_seq={created!r}, "
                f"last_access={accessed!r}, index access_seq={access_seq}",
            )

    if objects.exists():
        orphans = sorted(
            p.stem for p in objects.glob("*.json") if p.stem not in entries
        )
        for fp in orphans:
            report.emit(
                "AD801",
                f"{root}/objects/{fp}.json",
                "object exists but is not indexed (orphan from a torn write)",
            )
    return report


def check_job_journal(
    path: str | Path, report: Report | None = None
) -> Report:
    """Run AD802 over a job-journal file."""
    report = report if report is not None else Report()
    path = Path(path)
    report.mark_checked(f"JobJournal({path.name})")

    from repro.service.jobs import _READABLE_VERSIONS, JOB_FORMAT, JobRecord

    try:
        lines = read_lines(path)
    except OSError as exc:
        report.emit("AD802", str(path), f"unreadable journal: {exc}")
        return report
    if not lines:
        report.emit("AD802", str(path), "empty journal (missing header)")
        return report

    header = lines[0].obj
    if header is None or header.get("format") != JOB_FORMAT:
        report.emit(
            "AD802",
            f"{path.name}:1",
            f"header is not a {JOB_FORMAT!r} header",
        )
        return report
    if header.get("version") not in _READABLE_VERSIONS:
        report.emit(
            "AD802",
            f"{path.name}:1",
            f"unsupported version {header.get('version')!r}",
        )
        return report

    last_state: dict[str, str] = {}
    fingerprints: dict[str, str] = {}
    for line in lines[1:]:
        where = f"{path.name}:{line.number}"
        last = line is lines[-1]  # the journal drops a bad last line
        obj = line.obj
        if obj is None:
            if not last:
                report.emit("AD802", where, "line is not a JSON object")
            continue
        event = obj.get("event")
        try:
            record = JobRecord.from_dict(obj.get("job") or {})
        except (TypeError, ValueError) as exc:
            if not last:
                report.emit("AD802", where, f"bad job record: {exc}")
            continue
        if event != record.state:
            report.emit(
                "AD802",
                where,
                f"event {event!r} disagrees with record state "
                f"{record.state!r}",
            )
        prior = last_state.get(record.job_id)
        legal = _LEGAL_TRANSITIONS.get(record.state, ())
        if prior in ("done", "failed", "cancelled"):
            report.emit(
                "AD802",
                where,
                f"job {record.job_id} transitions {prior} -> {record.state}; "
                "terminal states are final",
            )
        elif prior not in legal:
            report.emit(
                "AD802",
                where,
                f"job {record.job_id} transitions "
                f"{prior or '(none)'} -> {record.state}; legal predecessors: "
                f"{sorted(s or '(none)' for s in legal)}",
            )
        known_fp = fingerprints.setdefault(record.job_id, record.fingerprint)
        if record.fingerprint != known_fp:
            report.emit(
                "AD802",
                where,
                f"job {record.job_id} changed fingerprint mid-lifecycle",
            )
        if record.state == "done":
            if record.source == "search" and record.total_cycles is None:
                report.emit(
                    "AD802",
                    where,
                    f"searched job {record.job_id} finished without a cycle "
                    "count",
                )
        if record.state == "failed" and not record.error:
            report.emit(
                "AD802",
                where,
                f"failed job {record.job_id} carries no error description",
            )
        last_state[record.job_id] = record.state
    return report


def is_job_journal(path: str | Path) -> bool:
    """Whether ``path`` starts with a job-journal header.

    ``repro check --journal`` dispatches on this: job journals get
    AD802 + AD804-806, candidate checkpoint journals get AD601-603.
    """
    from repro.service.jobs import JOB_FORMAT

    try:
        lines = read_lines(path)
    except OSError:
        return False
    header = lines[0].obj if lines else None
    return header is not None and header.get("format") == JOB_FORMAT


def check_job_leases(
    path: str | Path,
    report: Report | None = None,
    max_attempts: int | None = None,
) -> Report:
    """Run AD804-806 (lease legality / orphans / retry caps) over a journal.

    The retry cap comes from ``max_attempts`` when given, else from the
    journal header's ``max_attempts`` key (journaled by the daemon at
    creation); with neither, AD806's cap comparisons are skipped.

    The orphan check (AD805) expects a *quiescent* journal: a drained
    daemon closes every lease before exiting, and a restarted daemon
    requeues every leased job before serving — so a journal that still
    ends mid-lease is the audit trail of a job that would be lost.
    """
    report = report if report is not None else Report()
    path = Path(path)
    report.mark_checked(f"JobLeases({path.name})")

    from repro.service.jobs import JOB_FORMAT, JobRecord

    try:
        lines = read_lines(path)
    except OSError as exc:
        report.emit("AD804", str(path), f"unreadable journal: {exc}")
        return report
    if not lines:
        report.emit("AD804", str(path), "empty journal (missing header)")
        return report

    header = lines[0].obj
    if header is None or header.get("format") != JOB_FORMAT:
        report.emit(
            "AD804", f"{path.name}:1", f"header is not a {JOB_FORMAT!r} header"
        )
        return report
    cap = max_attempts
    if cap is None:
        journaled_cap = header.get("max_attempts")
        if isinstance(journaled_cap, int) and journaled_cap >= 1:
            cap = journaled_cap

    last_global_seq = 0  # lease_seq is one monotone clock, journal-wide
    attempts: dict[str, int] = {}  # job -> attempt of its latest lease
    last_lease_seq: dict[str, int] = {}  # job -> lease_seq of its latest lease
    open_leases: dict[str, tuple[str, int]] = {}  # job -> (runner, line_no)
    runner_open: dict[str, str] = {}  # runner -> job holding its live lease
    for line in lines[1:]:
        where = f"{path.name}:{line.number}"
        obj = line.obj
        if obj is None:
            continue  # AD802 owns garbage line reporting
        try:
            record = JobRecord.from_dict(obj.get("job") or {})
        except (TypeError, ValueError):
            continue  # ditto
        job_id = record.job_id
        if record.state == "running":
            if not record.runner_id:
                report.emit(
                    "AD804", where, f"running job {job_id} carries no runner_id"
                )
            if record.attempt < 1:
                report.emit(
                    "AD804",
                    where,
                    f"running job {job_id} has attempt {record.attempt}; "
                    "leases are 1-based",
                )
            if record.lease_seq < 1:
                report.emit(
                    "AD804",
                    where,
                    f"running job {job_id} has lease_seq {record.lease_seq}; "
                    "a lease always draws a positive sequence number",
                )
            elif record.lease_seq <= last_global_seq:
                report.emit(
                    "AD804",
                    where,
                    f"lease_seq {record.lease_seq} does not advance the "
                    f"journal-wide lease clock (last {last_global_seq}); the "
                    "lease clock must be strictly monotone",
                )
            expected = attempts.get(job_id, 0) + 1
            if record.attempt != expected:
                report.emit(
                    "AD804",
                    where,
                    f"job {job_id} leased at attempt {record.attempt}; "
                    f"expected attempt {expected} (one per lease)",
                )
            if record.runner_id:
                holding = runner_open.get(record.runner_id)
                if holding is not None and holding != job_id:
                    report.emit(
                        "AD805",
                        where,
                        f"runner {record.runner_id} takes a lease on "
                        f"{job_id} while still holding one on {holding}",
                    )
                runner_open[record.runner_id] = job_id
            if job_id in open_leases:
                report.emit(
                    "AD805",
                    where,
                    f"job {job_id} re-leased while its previous lease "
                    "(line {}) was never closed".format(open_leases[job_id][1]),
                )
            open_leases[job_id] = (record.runner_id or "", line.number)
            attempts[job_id] = record.attempt
            last_lease_seq[job_id] = max(
                last_lease_seq.get(job_id, 0), record.lease_seq
            )
            last_global_seq = max(last_global_seq, record.lease_seq)
            if cap is not None and record.attempt > cap:
                report.emit(
                    "AD806",
                    where,
                    f"job {job_id} consumed lease attempt {record.attempt}, "
                    f"over the journaled max_attempts cap of {cap}",
                )
        else:
            # Any non-running event closes the job's open lease.
            opened = open_leases.pop(job_id, None)
            if opened is not None:
                runner = opened[0]
                if runner_open.get(runner) == job_id:
                    del runner_open[runner]
            if record.state == "queued" and record.runner_id is not None:
                report.emit(
                    "AD804",
                    where,
                    f"queued job {job_id} still names runner "
                    f"{record.runner_id}; a requeue must clear ownership",
                )
            if record.attempt != attempts.get(job_id, 0):
                report.emit(
                    "AD804",
                    where,
                    f"{record.state} job {job_id} carries attempt "
                    f"{record.attempt}; its latest lease was attempt "
                    f"{attempts.get(job_id, 0)}",
                )
            if record.lease_seq != last_lease_seq.get(job_id, 0):
                report.emit(
                    "AD804",
                    where,
                    f"{record.state} job {job_id} carries lease_seq "
                    f"{record.lease_seq}; its latest lease was "
                    f"{last_lease_seq.get(job_id, 0)}",
                )
    for job_id, (runner, line_no) in sorted(open_leases.items()):
        report.emit(
            "AD805",
            f"{path.name}:{line_no}",
            f"journal ends with job {job_id} still leased to "
            f"{runner or '(unknown runner)'}; a drained daemon closes every "
            "lease and a restart requeues it — this job would be lost",
        )
    return report


def check_event_log(
    events_path: str | Path,
    journal_path: str | Path,
    report: Report | None = None,
) -> Report:
    """Run AD807: the event log must agree with the job journal.

    Agreement is *class-wise* — ``requeue`` and ``reclaim`` are one
    class (see :func:`repro.service.events.event_class`) because the
    journal cannot distinguish a supervisor reclaim from an ordinary
    requeue.  Events appended by restart reconciliation (flagged
    ``recovered``) count like any other: a reconciled log is clean.
    """
    report = report if report is not None else Report()
    events_path = Path(events_path)
    report.mark_checked(f"EventLog({events_path.name})")

    from repro.service.events import (
        EVENT_KINDS,
        EventLogError,
        event_class,
        expected_events,
        read_events,
    )

    try:
        _, events = read_events(events_path)
    except (OSError, EventLogError) as exc:
        report.emit("AD807", str(events_path), f"unreadable event log: {exc}")
        return report
    try:
        expected = expected_events(journal_path)
    except (OSError, EventLogError) as exc:
        report.emit(
            "AD807", str(journal_path), f"unreadable job journal: {exc}"
        )
        return report

    last_seq = 0
    actual: dict[str, list[dict]] = {}
    for i, event in enumerate(events):
        where = f"{events_path.name}:{i + 2}"  # +1 header, +1 one-based
        seq = event.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            report.emit(
                "AD807",
                where,
                f"seq {seq!r} does not advance the event clock "
                f"(last {last_seq}); seq must strictly increase",
            )
        else:
            last_seq = seq
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            report.emit("AD807", where, f"unknown event kind {kind!r}")
            continue
        job_id = event.get("job_id")
        if not isinstance(job_id, str):
            report.emit("AD807", where, f"event carries no job_id: {event!r}")
            continue
        if job_id not in expected:
            report.emit(
                "AD807",
                where,
                f"event names job {job_id} which the journal never recorded",
            )
            continue
        actual.setdefault(job_id, []).append({**event, "_where": where})

    for job_id in sorted(expected):
        exp = expected[job_id]
        act = actual.get(job_id, [])
        for pos, entry in enumerate(exp):
            if pos >= len(act):
                report.emit(
                    "AD807",
                    str(events_path),
                    f"job {job_id} is missing event #{pos + 1} "
                    f"({entry['kind']!r}); the journal implies "
                    f"{len(exp)} event(s), the log has {len(act)}",
                )
                break
            got = act[pos]
            got_class = event_class(str(got.get("kind")))
            if got_class != entry["kind"]:
                report.emit(
                    "AD807",
                    got["_where"],
                    f"job {job_id} event #{pos + 1} is "
                    f"{got.get('kind')!r}; the journal implies "
                    f"{entry['kind']!r}",
                )
                break
            want_trace = entry.get("trace_id")
            got_trace = got.get("trace_id")
            if want_trace is not None and got_trace != want_trace:
                report.emit(
                    "AD807",
                    got["_where"],
                    f"job {job_id} event #{pos + 1} carries trace "
                    f"{got_trace!r}; the journal says {want_trace!r}",
                )
        if len(act) > len(exp):
            report.emit(
                "AD807",
                act[len(exp)]["_where"],
                f"job {job_id} has {len(act)} event(s); the journal "
                f"implies only {len(exp)}",
            )
    return report


#: Slack on same-process parent/child window nesting (float rounding).
_SAME_PID_EPS_US = 0.5

#: Slack on cross-process window containment: worker spans are stamped
#: on each worker's own wall anchor (``time.time`` at tracer start), so
#: their axis can sit several ms off the daemon's.
_CROSS_PID_EPS_US = 100_000.0


def check_trace_file(path: str | Path, report: Report | None = None) -> Report:
    """Run AD808 over one persisted ``traces/<job_id>.json`` document."""
    report = report if report is not None else Report()
    path = Path(path)
    report.mark_checked(f"JobTrace({path.name})")

    from repro.obs.tracer import SpanRecord
    from repro.service.events import TRACE_FORMAT, TRACE_VERSION

    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        report.emit("AD808", str(path), f"unreadable trace document: {exc}")
        return report
    if not isinstance(doc, dict) or doc.get("format") != TRACE_FORMAT:
        report.emit(
            "AD808", str(path), f"not a {TRACE_FORMAT!r} document"
        )
        return report
    if doc.get("version") != TRACE_VERSION:
        report.emit(
            "AD808",
            str(path),
            f"unsupported trace version {doc.get('version')!r}",
        )
        return report
    root_pid = doc.get("root_pid")
    if not isinstance(root_pid, int):
        report.emit("AD808", str(path), "document carries no root_pid")
        return report

    spans: list[SpanRecord] = []
    for i, raw in enumerate(doc.get("spans") or ()):
        try:
            spans.append(SpanRecord.from_dict(raw))
        except ValueError as exc:
            report.emit("AD808", f"{path.name}[spans][{i}]", str(exc))
    if not spans:
        report.emit("AD808", str(path), "trace document carries no spans")
        return report

    by_pid: dict[int, list[SpanRecord]] = {}
    for span in spans:
        by_pid.setdefault(span.pid, []).append(span)

    daemon_spans = by_pid.get(root_pid, [])
    roots = [s for s in daemon_spans if s.parent_id == 0]
    if len(roots) != 1:
        report.emit(
            "AD808",
            str(path),
            f"expected exactly one root span in pid {root_pid}, found "
            f"{len(roots)} ({sorted(s.name for s in roots)})",
        )
        return report
    root = roots[0]
    root_args = dict(root.args)
    if root_args.get("trace") != doc.get("trace_id"):
        report.emit(
            "AD808",
            str(path),
            f"root span carries trace {root_args.get('trace')!r}; the "
            f"document says {doc.get('trace_id')!r}",
        )

    # Same-process forests: every named parent exists, children nest.
    for pid, group in sorted(by_pid.items()):
        ids = {s.span_id: s for s in group}
        if len(ids) != len(group):
            report.emit(
                "AD808",
                str(path),
                f"pid {pid} has duplicate span ids; (pid, id) must be "
                "unique",
            )
            continue
        for span in group:
            if span.parent_id == 0:
                continue
            parent = ids.get(span.parent_id)
            if parent is None:
                report.emit(
                    "AD808",
                    str(path),
                    f"span {span.name!r} (pid {pid}, id {span.span_id}) "
                    f"names absent parent {span.parent_id} — an orphan",
                )
                continue
            if (
                span.start_us < parent.start_us - _SAME_PID_EPS_US
                or span.start_us + span.duration_us
                > parent.start_us + parent.duration_us + _SAME_PID_EPS_US
            ):
                report.emit(
                    "AD808",
                    str(path),
                    f"span {span.name!r} (pid {pid}, id {span.span_id}) "
                    f"window [{span.start_us:.1f}, "
                    f"{span.start_us + span.duration_us:.1f}] escapes its "
                    f"parent {parent.name!r} window [{parent.start_us:.1f}, "
                    f"{parent.start_us + parent.duration_us:.1f}]",
                )

    # Worker-process spans must at least fall inside the root window
    # (generously: their wall anchor is their own).
    lo = root.start_us - _CROSS_PID_EPS_US
    hi = root.start_us + root.duration_us + _CROSS_PID_EPS_US
    for pid, group in sorted(by_pid.items()):
        if pid == root_pid:
            continue
        for span in group:
            if span.parent_id != 0:
                continue  # nested under a same-pid parent, checked above
            if span.start_us < lo or span.start_us + span.duration_us > hi:
                report.emit(
                    "AD808",
                    str(path),
                    f"worker span {span.name!r} (pid {pid}) window "
                    f"[{span.start_us:.1f}, "
                    f"{span.start_us + span.duration_us:.1f}] falls outside "
                    f"the root job window",
                )
    return report


def check_admission_accounting(
    snapshot: Mapping[str, Any],
    jobs: Mapping[str, Any] | None = None,
    report: Report | None = None,
) -> Report:
    """Run AD803 over an :meth:`AdmissionController.snapshot` document.

    Args:
        snapshot: The accounting snapshot.
        jobs: Optional job table (job id → record dict or
            :class:`~repro.service.jobs.JobRecord`) to cross-check slot
            holdings against live jobs.
    """
    report = report if report is not None else Report()
    report.mark_checked("AdmissionAccounting")

    in_flight = snapshot.get("in_flight")
    if not isinstance(in_flight, Mapping):
        report.emit("AD803", "snapshot", "snapshot carries no in_flight map")
        return report
    total = snapshot.get("total_in_flight")
    if total != sum(in_flight.values()):
        report.emit(
            "AD803",
            "snapshot",
            f"total_in_flight={total} but per-tenant counts sum to "
            f"{sum(in_flight.values())}",
        )
    depth = snapshot.get("max_queue_depth")
    if isinstance(depth, int) and sum(in_flight.values()) > depth:
        report.emit(
            "AD803",
            "snapshot",
            f"{sum(in_flight.values())} in-flight job(s) exceed "
            f"max_queue_depth={depth}",
        )
    quotas = snapshot.get("quotas") or {}
    default_quota = snapshot.get("default_quota")
    for tenant, count in sorted(in_flight.items()):
        if not isinstance(count, int) or count < 1:
            report.emit(
                "AD803",
                f"tenant {tenant}",
                f"in-flight count {count!r}; empty entries must be dropped",
            )
            continue
        quota = quotas.get(tenant, default_quota)
        if isinstance(quota, int) and count > quota:
            report.emit(
                "AD803",
                f"tenant {tenant}",
                f"{count} in-flight job(s) exceed quota {quota}",
            )

    if jobs is not None:
        live: dict[str, int] = {}
        for record in jobs.values():
            state = record["state"] if isinstance(record, Mapping) else record.state
            tenant = record["tenant"] if isinstance(record, Mapping) else record.tenant
            if state in ("queued", "running"):
                live[tenant] = live.get(tenant, 0) + 1
        for tenant, count in sorted(in_flight.items()):
            if count > live.get(tenant, 0):
                report.emit(
                    "AD803",
                    f"tenant {tenant}",
                    f"holds {count} slot(s) but has only "
                    f"{live.get(tenant, 0)} non-terminal job(s)",
                )
    return report


def check_service_state(
    state_dir: str | Path, report: Report | None = None
) -> Report:
    """Validate a serve state directory: AD801 on its store, AD802 and
    AD804-806 on its job journal, AD807 on its event log, and AD808 on
    its persisted job traces (whichever exist).

    Accepts either a state directory (containing ``store/`` and
    ``jobs.jsonl``) or a bare store directory (containing
    ``index.json``).
    """
    report = report if report is not None else Report()
    state_dir = Path(state_dir)
    if (state_dir / "index.json").exists() or (state_dir / "objects").exists():
        return check_store(state_dir, report)
    checked = False
    if (state_dir / "store").exists():
        check_store(state_dir / "store", report)
        checked = True
    if (state_dir / "jobs.jsonl").exists():
        check_job_journal(state_dir / "jobs.jsonl", report)
        check_job_leases(state_dir / "jobs.jsonl", report)
        if (state_dir / "events.jsonl").exists():
            check_event_log(
                state_dir / "events.jsonl", state_dir / "jobs.jsonl", report
            )
        for trace_path in sorted((state_dir / "traces").glob("*.json")):
            check_trace_file(trace_path, report)
        checked = True
    if not checked:
        report.emit(
            "AD801",
            str(state_dir),
            "neither a store (index.json/objects) nor a serve state "
            "directory (store/, jobs.jsonl)",
        )
    return report


__all__ = [
    "check_admission_accounting",
    "check_event_log",
    "check_job_journal",
    "check_job_leases",
    "check_service_state",
    "check_store",
    "check_trace_file",
    "is_job_journal",
]
