"""Durable job state: records, states, leases, and the JSONL job journal.

Every job state transition is appended to one JSONL journal before it
takes effect in memory, so a killed daemon replays the journal on
restart and resumes exactly the jobs that were queued or running.  The
journal is a :class:`repro.journal.Journal` (header line, one JSON
object per event, fsync per append, and the whole-line rule for the
write a kill interrupted).

Ownership of a running job is a **lease**: the runner that picks a job
up journals a ``running`` event carrying its ``runner_id``, the job's
``attempt`` number (1-based, bumped per lease), and a ``lease_seq``
drawn from one monotone service-wide clock.  The supervisor reclaims
leases whose runner died or stalled by journaling the job back to
``queued`` (same attempt, no runner) — so the journal is a complete
audit trail of who owned what, in what order, validated by the AD804-806
rules in :mod:`repro.analysis.service_rules`.

Job ids are allocated sequentially (``job-000001``...) by a
:class:`JobIdAllocator` seeded from the highest id in the journal — no
clocks, no randomness — so a restarted daemon never reissues an id and
concurrent submissions never collide.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.journal import Journal
from repro.resilience.faults import ServiceFaultPlan

#: Format tag in the job-journal header; bump the version on any
#: record-shape change.
JOB_FORMAT = "atomic-dataflow-job-journal"
JOB_VERSION = 3

#: Journal versions :meth:`JobJournal.open` still replays (version-1
#: records lack the lease fields, which default to "never leased";
#: version-2 records lack ``trace_id``, which defaults to None).
_READABLE_VERSIONS = (1, 2, JOB_VERSION)

#: Every legal job state, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

_RECORD_KEYS = frozenset(
    {
        "job_id",
        "fingerprint",
        "model",
        "tenant",
        "request",
        "state",
        "source",
        "error",
        "total_cycles",
        "search_seconds",
        "lease_seq",
        "attempt",
        "runner_id",
        "trace_id",
    }
)


class JobJournalError(ValueError):
    """The job journal on disk cannot be used."""


@dataclass(frozen=True)
class JobRecord:
    """One job's durable state.

    Attributes:
        job_id: Sequentially allocated id (``job-%06d``).
        fingerprint: Request fingerprint (store / coalescing key).
        model: Model-zoo name, denormalized for listings.
        tenant: Submitting tenant, for quota accounting on replay.
        request: The full serialized :class:`CompileRequest`, so a
            restarted daemon can re-run the job without the client.
        state: One of :data:`JOB_STATES`.
        source: How the result was (or will be) produced — ``search``
            for a real search, ``cache`` for a store hit at submit time,
            ``coalesced`` for a waiter on another job's search.
        error: Failure description when ``state == "failed"``.
        total_cycles: Solution cost once done.
        search_seconds: Wall seconds the search took (0.0 for hits).
        lease_seq: Monotone service-wide sequence of the job's current
            (or last) lease; 0 = never leased.  Strictly increasing
            across every ``running`` event in a journal (AD804).
        attempt: How many leases this job has held (1-based on the
            first ``running`` event; 0 = never leased).  Bounded by the
            service's retry cap (AD806).
        runner_id: Runner holding the live lease.  Cleared (None) when
            a reclaim/drain journals the job back to ``queued``; kept
            on terminal records as the runner that finished the job.
        trace_id: Request trace id minted at submit time (journal v3);
            deterministic (derived from the job id and fingerprint, no
            clocks or randomness), carried on every wire response and
            into the per-job span tree.  None on pre-v3 records.
    """

    job_id: str
    fingerprint: str
    model: str
    tenant: str
    request: dict = field(default_factory=dict)
    state: str = "queued"
    source: str = "search"
    error: str | None = None
    total_cycles: int | None = None
    search_seconds: float = 0.0
    lease_seq: int = 0
    attempt: int = 0
    runner_id: str | None = None
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(f"unknown job state {self.state!r}")
        if self.source not in ("search", "cache", "coalesced"):
            raise ValueError(f"unknown job source {self.source!r}")
        if self.lease_seq < 0:
            raise ValueError("lease_seq must be >= 0")
        if self.attempt < 0:
            raise ValueError("attempt must be >= 0")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "model": self.model,
            "tenant": self.tenant,
            "request": self.request,
            "state": self.state,
            "source": self.source,
            "error": self.error,
            "total_cycles": self.total_cycles,
            "search_seconds": self.search_seconds,
            "lease_seq": self.lease_seq,
            "attempt": self.attempt,
            "runner_id": self.runner_id,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "JobRecord":
        unknown = sorted(set(doc) - _RECORD_KEYS)
        if unknown:
            raise ValueError(f"unknown job record key(s): {', '.join(unknown)}")
        missing = [k for k in ("job_id", "fingerprint", "model", "tenant") if k not in doc]
        if missing:
            raise ValueError(f"job record missing key(s): {', '.join(missing)}")
        return cls(**dict(doc))

    def advanced(self, state: str, **changes: Any) -> "JobRecord":
        """A copy in ``state`` with ``changes`` applied."""
        return replace(self, state=state, **changes)


def next_job_id(existing: Mapping[str, JobRecord] | None = None) -> str:
    """The next sequential job id given already-journaled jobs.

    Stateless helper for one-shot callers; the daemon allocates through
    a :class:`JobIdAllocator`, which is collision-safe under concurrent
    submissions (this function recomputes from the mapping every call,
    so two unsynchronized callers can draw the same id).
    """
    highest = 0
    for job_id in existing or ():
        try:
            highest = max(highest, int(job_id.rsplit("-", 1)[1]))
        except (IndexError, ValueError):
            continue
    return f"job-{highest + 1:06d}"


class JobIdAllocator:
    """Atomic sequential job-id allocator (``job-%06d``).

    Seeded once from the journaled jobs (highest numeric suffix wins;
    malformed ids are ignored), then every :meth:`next` call increments
    under the allocator's own lock — concurrent submissions and runners
    can never draw the same id, and a restarted daemon never reissues
    one.
    """

    def __init__(self, existing: Mapping[str, JobRecord] | None = None) -> None:
        self._lock = threading.Lock()
        self._highest = 0
        for job_id in existing or ():
            try:
                self._highest = max(
                    self._highest, int(job_id.rsplit("-", 1)[1])
                )
            except (IndexError, ValueError):
                continue

    def next(self) -> str:
        """The next unused job id (thread-safe)."""
        with self._lock:
            self._highest += 1
            return f"job-{self._highest:06d}"


def _validate_header(header: dict[str, Any]) -> None:
    if header.get("format") != JOB_FORMAT:
        raise ValueError(f"not a {JOB_FORMAT} journal")
    if header.get("version") not in _READABLE_VERSIONS:
        raise ValueError(
            "unsupported job journal version "
            f"{header.get('version')!r} (expected one of {_READABLE_VERSIONS})"
        )


def _job_record(line: dict[str, Any]) -> JobRecord:
    try:
        return JobRecord.from_dict(line["job"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad job record ({exc})") from exc


class JobJournal:
    """Append-only JSONL journal of job state transitions.

    Usage::

        journal = JobJournal(path)
        jobs = journal.open()                 # job_id -> latest JobRecord
        journal.record("queued", job)         # before each transition
        journal.close()

    The file is a :class:`repro.journal.Journal`, so a kill loses at
    most the torn final line.  :meth:`open` on an existing file replays
    every event over journal versions 1-3 and returns the *latest*
    record per job id — the daemon's restart state.  A last line that
    is not a :class:`JobRecord` is dropped like a torn tail.

    ``faults`` arms the service-level chaos harness: a ``torn-journal``
    fault makes one :meth:`record` write only a prefix of its line and
    then close the journal — the on-disk state of a daemon that died
    mid-``fsync``.  From that point the journal (and the daemon built on
    it) is dead; a restart on the same path must drop the torn line and
    recover from the last whole one.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        faults: ServiceFaultPlan | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.header: dict[str, Any] = {}
        self._journal = Journal(
            self.path, "job journal", JobJournalError,
            faults=faults, fault="torn-journal",
        )

    @property
    def closed(self) -> bool:
        """True when the journal cannot accept appends (never opened,
        explicitly closed, or killed by an injected torn write)."""
        return self._journal.closed

    def open(
        self, header_extras: Mapping[str, Any] | None = None
    ) -> dict[str, JobRecord]:
        """Open for appending; return the latest record per job id.

        ``header_extras`` are merged into the header of a *fresh*
        journal (e.g. the service's ``max_attempts`` retry cap, which
        the AD806 validator reads back); an existing journal keeps its
        own header, exposed as :attr:`header`.
        """
        if os.path.exists(self.path):
            self.header, records = self._journal.resume(_validate_header, _job_record)
            return {record.job_id: record for record in records}
        extras = header_extras or {}
        self.header = {**extras, "format": JOB_FORMAT, "version": JOB_VERSION}
        self._journal.create(self.header)
        return {}

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def record(self, event: str, job: JobRecord) -> None:
        """Durably append one state transition."""
        if event != job.state:
            raise ValueError(
                f"event {event!r} disagrees with record state {job.state!r}"
            )
        self._journal.append({"event": event, "job": job.to_dict()})


__all__ = [
    "JOB_FORMAT",
    "JOB_STATES",
    "JOB_VERSION",
    "TERMINAL_STATES",
    "JobIdAllocator",
    "JobJournal",
    "JobJournalError",
    "JobRecord",
    "next_job_id",
]
