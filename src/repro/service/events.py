"""Structured service event log + per-job trace document formats.

The daemon appends one JSON line to ``events.jsonl`` for every
externally meaningful thing that happens to a job — ``submit``,
``lease``, ``requeue``/``reclaim``, ``complete`` — each carrying the
job's ``trace_id``, a strictly increasing ``seq``, and kind-specific
fields (tenant, runner, attempt, reason...).  The log is a
:class:`repro.journal.Journal` (header line, fsync per append, and the
whole-line rule: a torn final line is truncated on reopen).

The log is *derived* observability data; the job journal stays the
source of truth.  Their agreement is a checkable invariant (AD807 in
:mod:`repro.analysis.service_rules`): the per-job event-kind sequence
must equal the sequence implied by the journal's state transitions.
:func:`expected_events` computes that implied sequence, and
:meth:`EventLog.reconcile` repairs the log on restart — a daemon killed
between a journal append and the matching event append (or by an
injected ``torn-events`` fault) reopens the log, truncates the torn
tail, and appends the missing events flagged ``"recovered": true`` —
so a restarted daemon is always AD807-clean.

This module also pins the on-disk format of per-job trace documents
(``traces/<job_id>.json``), validated by AD808.
"""

from __future__ import annotations

import os
from typing import Any, Mapping

from repro.journal import Journal, read_lines
from repro.resilience.faults import ServiceFaultPlan

#: Format tag in the event-log header.
EVENTS_FORMAT = "atomic-dataflow-service-events"
EVENTS_VERSION = 1

#: Format tag of a persisted per-job trace document.
TRACE_FORMAT = "atomic-dataflow-job-trace"
TRACE_VERSION = 1

#: Every event kind the daemon emits, in rough lifecycle order.
EVENT_KINDS = ("submit", "lease", "requeue", "reclaim", "complete")

#: Kinds that mean "the job went back to the queue" — a supervisor
#: reclaim and an ordinary requeue (retry, drain, restart) are the same
#: transition in the job journal, so AD807 matches them as one class.
REQUEUE_KINDS = frozenset({"requeue", "reclaim"})


class EventLogError(ValueError):
    """The event log on disk cannot be used."""


def event_class(kind: str) -> str:
    """The journal-agreement class of an event kind (see AD807)."""
    return "requeue" if kind in REQUEUE_KINDS else kind


def _validate_header(header: dict[str, Any]) -> None:
    if header.get("format") != EVENTS_FORMAT:
        raise ValueError(f"not a {EVENTS_FORMAT} log")
    if header.get("version") != EVENTS_VERSION:
        raise ValueError(
            "unsupported event log version "
            f"{header.get('version')!r} (expected {EVENTS_VERSION})"
        )


class EventLog:
    """Append-only JSONL log of service events (a :class:`Journal`).

    Usage::

        log = EventLog(path)
        events = log.open()                   # replayed whole lines
        log.append("submit", "job-000001", trace_id="tr-...", tenant="a")
        log.close()

    ``faults`` arms the ``torn-events`` chaos fault: one append writes
    only a prefix of its line and the log closes — the appending thread
    dies with :class:`~repro.resilience.faults.InjectedRunnerDeath`,
    and a reopen on the same path must truncate the torn tail.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        faults: ServiceFaultPlan | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.header: dict[str, Any] = {}
        self._journal = Journal(
            self.path, "event log", EventLogError,
            faults=faults, fault="torn-events",
        )
        self._seq = 0
        self._events: list[dict[str, Any]] = []

    @property
    def closed(self) -> bool:
        """True when the log cannot accept appends (never opened,
        explicitly closed, or killed by an injected torn write)."""
        return self._journal.closed

    def open(
        self, header_extras: Mapping[str, Any] | None = None
    ) -> list[dict[str, Any]]:
        """Open for appending; return every replayed event.

        An existing log has its torn final line (if any) truncated and
        the ``seq`` counter resumed past the highest replayed value.
        """
        if os.path.exists(self.path):
            self.header, self._events = self._journal.resume(_validate_header)
            self._seq = max((int(e.get("seq", 0)) for e in self._events), default=0)
        else:
            extras = header_extras or {}
            self.header = {**extras, "format": EVENTS_FORMAT, "version": EVENTS_VERSION}
            self._journal.create(self.header)
        return list(self._events)

    def close(self) -> None:
        self._journal.close()

    def append(
        self,
        kind: str,
        job_id: str,
        trace_id: str | None = None,
        **fields: Any,
    ) -> dict[str, Any]:
        """Durably append one event; returns the written record."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self._seq += 1
        event: dict[str, Any] = {
            "seq": self._seq,
            "kind": kind,
            "job_id": job_id,
            "trace_id": trace_id,
        }
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        self._journal.append(event)
        self._events.append(event)
        return event

    # -- restart reconciliation --------------------------------------------

    def reconcile(self, journal_path: str | os.PathLike) -> int:
        """Append events the job journal implies but the log is missing.

        For every job whose actual event-kind sequence is a strict
        prefix (class-wise) of the journal-implied one, the missing
        suffix is appended with ``"recovered": true``.  A log that
        *diverges* from the journal (not a prefix) is left alone —
        that is corruption for AD807 to flag, not a crash window to
        repair.  Returns the number of events appended.
        """
        if self.closed:
            raise RuntimeError("event log is not open")
        expected = expected_events(journal_path)
        actual: dict[str, list[dict[str, Any]]] = {}
        for event in self._events:
            actual.setdefault(str(event.get("job_id")), []).append(event)
        appended = 0
        for job_id in sorted(expected):
            exp = expected[job_id]
            act = actual.get(job_id, [])
            if len(act) >= len(exp):
                continue
            prefix_ok = all(
                event_class(str(a.get("kind"))) == e["kind"]
                for a, e in zip(act, exp)
            )
            if not prefix_ok:
                continue
            for entry in exp[len(act):]:
                self.append(
                    entry["kind"],
                    job_id,
                    trace_id=entry.get("trace_id"),
                    state=entry.get("state"),
                    recovered=True,
                )
                appended += 1
        return appended


def read_events(
    path: str | os.PathLike,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read an event log: ``(header, events)``, torn tail tolerated.

    Raises:
        EventLogError: Missing/alien header or a corrupt non-final line.
    """
    header, events, _ = Journal(path, "event log", EventLogError).read(
        _validate_header
    )
    return header, events


def expected_events(
    journal_path: str | os.PathLike,
) -> dict[str, list[dict[str, Any]]]:
    """The per-job event sequence a job journal implies (AD807's oracle).

    Walks every journal line in order and maps state transitions to
    event-kind classes:

    * a job's first record in state ``queued`` → ``submit``;
    * a first record already ``done`` (store hit at submit) →
      ``submit`` then ``complete``;
    * a later ``queued`` record → ``requeue`` (reclaim, retry, drain,
      or restart — one class, see :func:`event_class`);
    * a ``running`` record → ``lease``;
    * a later terminal record → ``complete``.

    Returns ``{job_id: [{"kind", "state", "trace_id"}, ...]}``.  A torn
    final journal line is skipped (its event was never emitted either —
    the daemon appends journal-first).  Journal headers/versions are
    not validated here; that is AD802's job.
    """
    lines = read_lines(journal_path)
    expected: dict[str, list[dict[str, Any]]] = {}
    for line in lines[1:]:
        if line.obj is None:
            if line is lines[-1]:
                continue  # dropped like a torn tail: no event was emitted
            raise EventLogError(
                f"{os.fspath(journal_path)}:{line.number}: corrupt job "
                "journal line"
            )
        job = line.obj.get("job", {})
        job_id = job.get("job_id")
        state = job.get("state")
        if not isinstance(job_id, str) or state is None:
            continue
        entry = {
            "state": state,
            "trace_id": job.get("trace_id"),
        }
        seen = expected.setdefault(job_id, [])
        if not seen:
            seen.append({"kind": "submit", **entry})
            if state in ("done", "failed", "cancelled"):
                seen.append({"kind": "complete", **entry})
            continue
        if state == "queued":
            seen.append({"kind": "requeue", **entry})
        elif state == "running":
            seen.append({"kind": "lease", **entry})
        else:
            seen.append({"kind": "complete", **entry})
    return expected


__all__ = [
    "EVENTS_FORMAT",
    "EVENTS_VERSION",
    "EVENT_KINDS",
    "REQUEUE_KINDS",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "EventLog",
    "EventLogError",
    "event_class",
    "expected_events",
    "read_events",
]
