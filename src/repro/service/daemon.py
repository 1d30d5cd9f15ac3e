"""The ``repro serve`` daemon: job queue, runner pool, and wire front end.

:class:`ReproService` owns the whole serving state machine:

* submissions check the :class:`~repro.service.store.SolutionStore`
  first — a hit completes instantly with the byte-exact stored
  document, consuming no search capacity;
* misses pass :class:`~repro.service.admission.AdmissionController`
  (bounded queue depth + per-tenant quotas, clean typed backpressure),
  then either *coalesce* onto an identical in-flight fingerprint or
  enqueue a real search;
* a supervised pool of ``runners`` threads drains the queue through
  warm :class:`~repro.service.session.CompileSession` objects.  A
  runner owns its job through a **lease** (journaled ``runner_id`` /
  ``attempt`` / monotone ``lease_seq``); the supervisor reclaims leases
  whose runner died or stalled and requeues the job — it resumes from
  its per-job candidate checkpoint, retries with deterministic backoff,
  and becomes a first-class ``failed`` record once the attempt cap is
  hit.  Completion is lease-guarded, so a superseded runner's late
  result is discarded: a job is never lost and never *completes* twice,
  and coalesced waiters ride across reclaims untouched (they key on the
  primary's job id, which reclaims never change);
* every state transition is journaled
  (:class:`~repro.service.jobs.JobJournal`) *before* it takes effect,
  and every search runs with a per-job candidate checkpoint, so a
  killed daemon restarted on the same state directory resumes
  in-flight jobs and produces identical results.

The wire protocol (:func:`serve`) is line-delimited JSON over a unix
socket: one request object in, one response object out per connection —
``{"op": "submit", ...}`` → ``{"ok": true, ...}`` or ``{"ok": false,
"error": {"code": ..., "message": ...}}``.  ``health`` reports runner
liveness, live leases, lease statistics, and a mergeable
:mod:`repro.obs` metrics snapshot; ``drain`` (or SIGTERM) gracefully
stops the daemon — no new admissions, running jobs journaled back to
``queued`` if they cannot finish in time, nothing lost.  No new
dependencies; the stdlib ``socketserver`` does the listening.

**Observability plane** (protocol v3): every submission mints a
deterministic ``trace_id`` (sha256 of job id + fingerprint — no clocks,
no randomness) that is journaled on the :class:`JobRecord`, echoed on
every wire response, written to the append-only ``events.jsonl`` event
log, and used to stitch a per-job span tree: a synthesized
``service.job`` root covers submit→completion, with
``service.queue_wait`` and ``service.lease`` children and — when
tracing is enabled — every ``search.*``/``sa.*`` span the runner's
capture collected, reparented under the lease span.  Latency SLO
histograms (``service.latency.{queue_wait,lease_hold,compile_wall,
e2e,cache_hit}``) and per-tenant counters feed the ``health``/``stats``
ops and the HTTP ``/metrics`` exporter
(:mod:`repro.service.metrics_http`).  None of it feeds back into
search decisions: traced + scraped serving is byte-identical to
untraced serving.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

from repro.obs.log import get_logger
from repro.obs.metrics import get_registry, summarize_histograms
from repro.obs.tracer import SpanRecord, get_tracer
from repro.resilience.faults import InjectedRunnerDeath, ServiceFaultPlan
from repro.resilience.timing import Deadline, backoff_for
from repro.serialize import solution_to_dict
from repro.service.admission import AdmissionController, AdmissionError
from repro.service.client import socket_path_problem
from repro.service.events import TRACE_FORMAT, TRACE_VERSION, EventLog
from repro.service.jobs import JobIdAllocator, JobJournal, JobRecord
from repro.service.request import CompileRequest
from repro.service.session import SessionManager
from repro.service.store import SolutionStore

_log = get_logger(__name__)

#: Wire protocol version, echoed by ``ping``.  v3 added request tracing
#: (``trace_id`` on every response, the ``trace`` op) and the service
#: latency histograms surfaced by ``health``/``stats``.
PROTOCOL_VERSION = 3

#: Histogram name prefix of the service SLO latencies (seconds).
LATENCY_PREFIX = "service.latency."


@dataclass
class _Lease:
    """In-memory view of one live lease (journal holds the durable half)."""

    job_id: str
    runner_id: str
    lease_seq: int
    attempt: int
    beat_seq: int
    deadline: Deadline = field(repr=False)


@dataclass
class _JobTrace:
    """Per-job trace bookkeeping: latency clocks + collected spans.

    ``*_s`` fields are ``perf_counter`` readings for the SLO histograms;
    ``*_us`` fields are tracer wall-anchor timestamps for synthesized
    spans (0.0 when tracing was off at submit).  ``root_id`` is the
    pre-allocated span id of the ``service.job`` root, so children
    synthesized before completion can already name their parent.
    """

    trace_id: str
    tenant: str
    root_id: int
    submit_s: float
    submit_us: float
    enqueue_s: float = 0.0
    enqueue_us: float = 0.0
    lease_s: float = 0.0
    lease_us: float = 0.0
    lease_open: bool = False
    spans: list[SpanRecord] = field(default_factory=list)


class ReproService:
    """The serving state machine (transport-agnostic; see :func:`serve`).

    Args:
        state_dir: Durable state root — ``store/`` (solution cache),
            ``jobs.jsonl`` (job journal), ``ck/`` (candidate checkpoints
            of non-terminal jobs).  Restarting on the same directory
            resumes in-flight jobs.
        jobs: Default worker count for searches whose request leaves
            ``options.jobs`` at 1 (a request asking for more keeps it).
        store_capacity_bytes: Solution-store LRU cap (None = unbounded).
        max_queue_depth: Total in-flight job cap.
        default_quota: Per-tenant in-flight cap.
        quotas: Per-tenant overrides.
        session_capacity: Warm sessions kept alive.
        runners: Runner threads draining the queue concurrently.
        max_job_attempts: Leases a job may consume before a failure is
            final (crash-loop bound; journaled in the header for AD806).
        retry_backoff_s: Base of the deterministic exponential backoff
            a runner sleeps before re-running a reclaimed/retried job.
        heartbeat_timeout_s: A lease whose runner has not heartbeat for
            this long is considered stalled and reclaimed (None
            disables stall detection; dead-thread detection stays on).
        supervise_interval_s: Supervisor scan period.
        faults: Optional service-level chaos plan (tests/tools only).
    """

    def __init__(
        self,
        state_dir: str | os.PathLike,
        jobs: int = 1,
        store_capacity_bytes: int | None = None,
        max_queue_depth: int = 16,
        default_quota: int = 4,
        quotas: dict[str, int] | None = None,
        session_capacity: int = 4,
        runners: int = 1,
        max_job_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        heartbeat_timeout_s: float | None = 600.0,
        supervise_interval_s: float = 0.2,
        faults: ServiceFaultPlan | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if runners < 1:
            raise ValueError("runners must be >= 1")
        if max_job_attempts < 1:
            raise ValueError("max_job_attempts must be >= 1")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        (self.state_dir / "ck").mkdir(exist_ok=True)
        self.default_jobs = jobs
        self.runners_target = runners
        self.max_job_attempts = max_job_attempts
        self.retry_backoff_s = retry_backoff_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.supervise_interval_s = supervise_interval_s
        self.faults = faults
        self.store = SolutionStore(
            self.state_dir / "store", capacity_bytes=store_capacity_bytes
        )
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            default_quota=default_quota,
            quotas=quotas,
        )
        self.sessions = SessionManager(capacity=session_capacity)
        self.journal = JobJournal(self.state_dir / "jobs.jsonl", faults=faults)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = self.journal.open(
            header_extras={"max_attempts": max_job_attempts}
        )
        self._ids = JobIdAllocator(self._jobs)
        self._queue: deque[str] = deque()
        self._active: dict[str, str] = {}  # fingerprint -> primary job_id
        self._waiters: dict[str, list[str]] = {}  # primary -> coalesced ids
        self._slots: dict[str, str] = {}  # job_id -> tenant holding a slot
        self._leases: dict[str, _Lease] = {}  # job_id -> live lease
        self._lease_seq = max(
            (j.lease_seq for j in self._jobs.values()), default=0
        )
        self._stop = threading.Event()
        self._draining = False
        self._closed = False
        self._drain_lock = threading.Lock()
        self._runner_threads: dict[str, threading.Thread] = {}
        self._runner_seq = 0
        self._supervisor: threading.Thread | None = None
        (self.state_dir / "traces").mkdir(exist_ok=True)
        self._traces: dict[str, _JobTrace] = {}
        # The event log opens (and reconciles against the journal as it
        # was on disk) before recovery requeues anything — a crash
        # window between a journal append and its event append, or a
        # torn-events fault, heals here, restoring AD807 agreement.
        self.events = EventLog(self.state_dir / "events.jsonl", faults=faults)
        self.events.open()
        recovered_events = self.events.reconcile(self.state_dir / "jobs.jsonl")
        if recovered_events:
            _log.info("reconciled %d missing event(s)", recovered_events)
            get_registry().counter("service.events.recovered").inc(
                recovered_events
            )
        self._recover()

    # -- restart recovery ---------------------------------------------------

    def _recover(self) -> None:
        """Re-enqueue every non-terminal journaled job.

        Queued and running jobs go back on the queue; each re-runs with
        its candidate checkpoint (``resume=True``), so completed
        candidates are restored, not re-searched.  A job that was
        ``running`` keeps its attempt count — its next lease is attempt
        N+1, so crash-looping jobs still hit the retry cap.  Coalesced
        waiters re-enqueue as ordinary jobs — by the time a runner
        reaches them their primary has published to the store, so they
        finish as cache hits.  Admission slots are re-claimed
        best-effort: a job admitted before the kill is never dropped for
        quota reasons.
        """
        pending = sorted(
            (j for j in self._jobs.values() if not j.terminal),
            key=lambda j: j.job_id,
        )
        for job in pending:
            requeued = job.advanced("queued", runner_id=None)
            self._record(requeued)
            self._jobs[job.job_id] = requeued
            self._event("requeue", requeued, reason="restart")
            self._trace_begin(requeued, time.perf_counter())
            try:
                self.admission.admit(job.tenant)
                self._slots[job.job_id] = job.tenant
            except AdmissionError:  # pragma: no cover - shrunken quotas
                pass
            self._queue.append(job.job_id)
        if pending:
            _log.info("recovered %d in-flight job(s) from journal", len(pending))
            get_registry().counter("service.recovered").inc(len(pending))

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the runner pool and its supervisor (idempotent)."""
        with self._wakeup:
            if self._closed:
                raise RuntimeError("service is closed")
            while len(self._runner_threads) < self.runners_target:
                self._spawn_runner_locked()
            if self._supervisor is None or not self._supervisor.is_alive():
                self._supervisor = threading.Thread(
                    target=self._supervise,
                    name="repro-serve-supervisor",
                    daemon=True,
                )
                self._supervisor.start()

    def _spawn_runner_locked(self) -> str:
        self._runner_seq += 1
        name = f"runner-{self._runner_seq}"
        thread = threading.Thread(
            target=self._runner_loop,
            args=(name,),
            name=f"repro-serve-{name}",
            daemon=True,
        )
        self._runner_threads[name] = thread
        thread.start()
        return name

    def stop(self) -> None:
        """Stop every runner after its current job; release resources."""
        if self._closed:
            return
        self._stop.set()
        with self._wakeup:
            self._wakeup.notify_all()
        for thread in list(self._runner_threads.values()):
            thread.join()
        self._runner_threads.clear()
        if self._supervisor is not None:
            self._supervisor.join()
            self._supervisor = None
        self._closed = True
        self.sessions.close()
        self.journal.close()
        self.events.close()

    def drain(self, timeout_s: float | None = 60.0) -> dict:
        """Graceful shutdown: stop admitting, checkpoint, journal, exit.

        The SIGTERM path.  New submissions are rejected with code
        ``draining``; runners finish (or are given ``timeout_s`` to
        finish) their current jobs.  Any job still running at the
        deadline is journaled back to ``queued`` — its candidate
        checkpoint holds the completed work, so a daemon restarted on
        the same state directory resumes it without loss, and the
        wedged runner's eventual result is discarded by the lease
        guard.  Queued jobs simply stay journaled as ``queued``.

        Returns a summary: ``{"requeued": [...], "queued": N}``.
        """
        with self._drain_lock:
            if self._closed:
                return {"draining": True, "requeued": [], "queued": 0}
            with self._wakeup:
                self._draining = True
                self._wakeup.notify_all()
            deadline = Deadline(timeout_s)
            for thread in list(self._runner_threads.values()):
                thread.join(deadline.remaining_s())
            requeued: list[str] = []
            with self._wakeup:
                for job_id in sorted(self._leases):
                    lease = self._leases.pop(job_id)
                    job = self._jobs[job_id]
                    record = job.advanced("queued", runner_id=None)
                    self._record(record)
                    self._jobs[job_id] = record
                    self._event("requeue", record, reason="drain")
                    jt = self._traces.get(job_id)
                    if jt is not None:
                        self._close_lease_trace_locked(jt)
                    requeued.append(job_id)
                    _log.warning(
                        "drain: requeued in-flight job %s (runner %s still busy)",
                        job_id,
                        lease.runner_id,
                    )
                queued = len(self._queue)
            self._stop.set()
            with self._wakeup:
                self._wakeup.notify_all()
            if self._supervisor is not None:
                self._supervisor.join()
                self._supervisor = None
            self._runner_threads.clear()  # anything left is wedged; it dies with the process
            self._closed = True
            self.sessions.close()
            self.journal.close()
            self.events.close()
            registry = get_registry()
            registry.counter("service.drained").inc()
            if requeued:
                registry.counter("service.drain.requeued").inc(len(requeued))
            _log.info(
                "drained: %d requeued, %d left queued", len(requeued), queued
            )
            return {"draining": True, "requeued": requeued, "queued": queued}

    # -- the runner pool ----------------------------------------------------

    def _runner_loop(self, name: str) -> None:
        # InjectedRunnerDeath can surface from _execute (kill-runner) or
        # from the lease append itself (torn-journal): either way the
        # runner dies with no cleanup and the supervisor reclaims.  A
        # return, not a re-raise, kills the thread just the same without
        # tripping threading.excepthook in the chaos harness.
        try:
            while True:
                with self._wakeup:
                    while (
                        not self._queue
                        and not self._stop.is_set()
                        and not self._draining
                    ):
                        self._wakeup.wait()
                    if self._stop.is_set() or self._draining:
                        return
                    job_id = self._queue.popleft()
                    get_registry().gauge("service.queue_depth").set(
                        len(self._queue)
                    )
                    job = self._jobs[job_id]
                    if job.terminal:
                        continue  # cancelled while queued
                    job = self._lease_locked(job, name)
                delay = backoff_for(
                    job.attempt - 1, base_s=self.retry_backoff_s
                )
                if delay > 0:
                    time.sleep(delay)  # deterministic retry backoff ladder
                try:
                    self._execute(job)
                except InjectedRunnerDeath:
                    raise  # crashed runner: no cleanup, no retry accounting
                except BaseException as exc:  # noqa: BLE001 - runner must survive
                    _log.error(
                        "job %s attempt %d failed: %s",
                        job.job_id,
                        job.attempt,
                        exc,
                    )
                    # Keep whatever spans the failed attempt captured —
                    # they stitch into the job trace either way.
                    self._retry_or_fail(
                        job,
                        str(exc) or type(exc).__name__,
                        spans=get_tracer().stop_capture(),
                    )
        except InjectedRunnerDeath:
            return

    def _lease_locked(self, job: JobRecord, runner_id: str) -> JobRecord:
        """Take ownership of a queued job (journal-first, under the lock)."""
        self._lease_seq += 1
        seq = self._lease_seq
        leased = job.advanced(
            "running", runner_id=runner_id, lease_seq=seq, attempt=job.attempt + 1
        )
        self._record(leased)
        self._jobs[job.job_id] = leased
        self._leases[job.job_id] = _Lease(
            job_id=job.job_id,
            runner_id=runner_id,
            lease_seq=seq,
            attempt=leased.attempt,
            beat_seq=seq,
            deadline=Deadline(self.heartbeat_timeout_s),
        )
        get_registry().counter("service.lease.issued").inc()
        jt = self._traces.get(job.job_id)
        if jt is not None:
            now_s = time.perf_counter()
            self._observe_latency("queue_wait", now_s - jt.enqueue_s)
            jt.lease_s = now_s
            jt.lease_open = True
            tracer = get_tracer()
            if tracer.enabled and jt.root_id:
                now_us = tracer.now_us()
                jt.spans.append(
                    SpanRecord(
                        name="service.queue_wait",
                        category="service",
                        start_us=jt.enqueue_us,
                        duration_us=now_us - jt.enqueue_us,
                        pid=os.getpid(),
                        tid=threading.get_ident(),
                        span_id=tracer.allocate_id(),
                        parent_id=jt.root_id,
                        args=(
                            ("attempt", leased.attempt),
                            ("runner", runner_id),
                            ("trace", jt.trace_id),
                        ),
                    )
                )
                jt.lease_us = now_us
        self._event(
            "lease",
            leased,
            runner=runner_id,
            attempt=leased.attempt,
            lease_seq=seq,
        )
        return leased

    def _beat(self, job_id: str) -> None:
        """Heartbeat the job's lease (in memory; leases journal only on
        transitions — a beat draws from the same monotone clock)."""
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is None:
                return
            self._lease_seq += 1
            lease.beat_seq = self._lease_seq
            lease.deadline.reset()

    def _execute(self, job: JobRecord) -> None:
        request = CompileRequest.from_dict(job.request)
        fingerprint = job.fingerprint
        tracer = get_tracer()
        # Capture this thread's spans for the job trace: everything the
        # search records (and everything its workers ship back through
        # absorb) lands in a per-job buffer instead of the process-wide
        # one, so a long-lived daemon never accumulates unattributed
        # spans.
        if tracer.enabled:
            tracer.start_capture()
        # A second store check at dequeue time: an identical job (or a
        # pre-kill incarnation of this one) may have published since
        # submission — recovered coalesced waiters finish here.
        if self.store.get(fingerprint) is not None:
            entry = self.store.info(fingerprint)
            self._finish_done(
                job,
                source="cache",
                total_cycles=entry.total_cycles if entry else None,
                search_seconds=0.0,
                spans=tracer.stop_capture(),
            )
            return
        self._beat(job.job_id)
        if self.faults is not None:
            if self.faults.take("kill-runner", attempt=job.attempt) is not None:
                raise InjectedRunnerDeath(
                    f"injected runner death @ {job.job_id} attempt {job.attempt}"
                )
            if self.faults.take("sigterm", attempt=job.attempt) is not None:
                threading.Thread(
                    target=self.drain, name="repro-serve-sigterm", daemon=True
                ).start()
        options = request.options
        if options.jobs == 1 and self.default_jobs > 1:
            options = replace(options, jobs=self.default_jobs)
        options = replace(
            options,
            checkpoint=str(self._checkpoint_path(job.job_id)),
            resume=True,
        )
        with tracer.span(
            "service.search", category="service",
            job=job.job_id, workload=job.model, fingerprint=fingerprint,
        ):
            session = self.sessions.acquire(request.graph, request.arch, options)
            try:
                outcome = session.optimize(options)
            finally:
                self.sessions.release(session)
        self._beat(job.job_id)
        doc = solution_to_dict(outcome, request.options.dataflow, include_search=False)
        self.store.put(fingerprint, doc, graph=request.graph, arch=request.arch)
        if self.faults is not None:
            if self.faults.take("corrupt-store", attempt=job.attempt) is not None:
                self._corrupt_store_object(fingerprint)
        self._finish_done(
            job,
            source="search",
            total_cycles=outcome.result.total_cycles,
            search_seconds=outcome.search_seconds,
            spans=tracer.stop_capture(),
        )
        get_registry().counter("service.searches").inc()

    def _corrupt_store_object(self, fingerprint: str) -> None:
        """Chaos helper: flip one byte of a just-published store object.

        The store's read-path digest check must turn this into a miss
        (recompute), never a wrong answer.
        """
        path = self.store.objects / f"{fingerprint}.json"
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        _log.warning("injected store corruption @ %s", fingerprint)

    # -- the supervisor -----------------------------------------------------

    def _supervise(self) -> None:
        """Reap dead runners, reclaim their (and stalled) leases, respawn."""
        while not self._stop.wait(self.supervise_interval_s):
            with self._wakeup:
                if self.journal.closed or self.events.closed:
                    # Torn journal or torn event log: the daemon is
                    # dead; a restart truncates and recovers.
                    return
                if self._draining:
                    continue  # drain() owns shutdown bookkeeping
                dead = [
                    name
                    for name, thread in self._runner_threads.items()
                    if not thread.is_alive()
                ]
                for name in dead:
                    del self._runner_threads[name]
                    held = [
                        job_id
                        for job_id, lease in self._leases.items()
                        if lease.runner_id == name
                    ]
                    for job_id in held:
                        self._reclaim_locked(job_id, f"runner {name} died")
                    self._spawn_runner_locked()
                    get_registry().counter("service.runner.respawned").inc()
                for job_id, lease in list(self._leases.items()):
                    if not lease.deadline.expired:
                        continue
                    if lease.runner_id not in self._runner_threads:
                        continue  # already reaped above
                    # The runner is wedged mid-search: abandon its
                    # thread (the lease guard discards whatever it
                    # eventually produces) and hand the job to a
                    # replacement.
                    self._runner_threads.pop(lease.runner_id)
                    self._reclaim_locked(
                        job_id,
                        f"lease heartbeat expired (runner {lease.runner_id} stalled)",
                    )
                    get_registry().counter("service.lease.stalled").inc()
                    self._spawn_runner_locked()
                    get_registry().counter("service.runner.respawned").inc()

    def _reclaim_locked(self, job_id: str, reason: str) -> None:
        """Take a lease back from a dead/stalled runner (under the lock)."""
        self._leases.pop(job_id)
        job = self._jobs[job_id]
        get_registry().counter("service.lease.reclaimed").inc()
        _log.warning("reclaiming job %s: %s", job_id, reason)
        jt = self._traces.get(job_id)
        if jt is not None:
            # The dead runner's captured spans died with its thread;
            # close the lease window so lease_hold is still observed.
            self._close_lease_trace_locked(jt)
        if job.attempt >= self.max_job_attempts:
            self._finish_failed_locked(
                job,
                f"{reason}; retries exhausted "
                f"(attempt {job.attempt}/{self.max_job_attempts})",
            )
            return
        self._requeue_locked(job, kind="reclaim", reason=reason)

    def _requeue_locked(
        self, job: JobRecord, kind: str = "requeue", reason: str | None = None
    ) -> None:
        requeued = job.advanced("queued", runner_id=None)
        self._record(requeued)
        self._jobs[job.job_id] = requeued
        self._queue.append(job.job_id)
        self._event(kind, requeued, reason=reason)
        jt = self._traces.get(job.job_id)
        if jt is not None:
            jt.enqueue_s = time.perf_counter()
            tracer = get_tracer()
            if tracer.enabled and jt.root_id:
                jt.enqueue_us = tracer.now_us()
        registry = get_registry()
        registry.counter("service.lease.retries").inc()
        registry.gauge("service.queue_depth").set(len(self._queue))
        self._wakeup.notify()

    def _retry_or_fail(
        self, job: JobRecord, error: str, spans: Iterable[SpanRecord] = ()
    ) -> None:
        """A leased job's attempt failed: requeue below the cap, else fail."""
        with self._wakeup:
            if self._lease_superseded_locked(job):
                return
            self._leases.pop(job.job_id)
            jt = self._traces.get(job.job_id)
            if jt is not None:
                attach = self._close_lease_trace_locked(jt)
                self._stitch_spans_locked(jt, spans, attach)
            if job.attempt >= self.max_job_attempts:
                self._finish_failed_locked(
                    job,
                    f"{error} (attempt {job.attempt}/{self.max_job_attempts})",
                )
                return
            self._requeue_locked(job)

    def _lease_superseded_locked(self, job: JobRecord) -> bool:
        """Whether ``job``'s lease was reclaimed out from under its runner.

        True means some other incarnation owns (or already finished)
        the job — the caller must discard its result, preserving
        exactly-once completion.
        """
        lease = self._leases.get(job.job_id)
        if lease is None or lease.lease_seq != job.lease_seq:
            get_registry().counter("service.lease.superseded").inc()
            _log.warning(
                "discarding superseded result for %s (lease %d, runner %s)",
                job.job_id,
                job.lease_seq,
                job.runner_id,
            )
            return True
        return False

    # -- tracing, events, and SLO latency plumbing --------------------------

    def _mint_trace(self, job_id: str, fingerprint: str) -> str:
        """A deterministic trace id: no clocks, no randomness, and not
        part of the request fingerprint (cache keys stay shared across
        resubmissions; the trace id is unique per *job*)."""
        digest = hashlib.sha256(f"{job_id}:{fingerprint}".encode("utf-8"))
        return f"tr-{digest.hexdigest()[:16]}"

    def _event(self, kind: str, job: JobRecord, **fields: Any) -> None:
        """Append one event, correlated to the job's trace.

        A no-op once the event log is torn/closed: the daemon is
        already dead at that point and restart reconciliation rebuilds
        whatever went unrecorded.
        """
        if self.events.closed:
            return
        self.events.append(kind, job.job_id, trace_id=job.trace_id, **fields)

    def _observe_latency(self, name: str, seconds: float) -> None:
        get_registry().histogram(f"{LATENCY_PREFIX}{name}").observe(seconds)

    def _tenant_counter(self, tenant: str, what: str, n: int = 1) -> None:
        get_registry().counter(f"service.tenant.{tenant}.{what}").inc(n)

    def _trace_begin(self, job: JobRecord, submit_s: float) -> _JobTrace:
        """Start per-job trace bookkeeping (at submit or restart requeue)."""
        tracer = get_tracer()
        submit_us = tracer.now_us() if tracer.enabled else 0.0
        jt = _JobTrace(
            trace_id=job.trace_id or "",
            tenant=job.tenant,
            root_id=tracer.allocate_id() if tracer.enabled else 0,
            submit_s=submit_s,
            submit_us=submit_us,
            enqueue_s=time.perf_counter(),
            enqueue_us=submit_us,
        )
        self._traces[job.job_id] = jt
        return jt

    def _close_lease_trace_locked(self, jt: _JobTrace) -> int:
        """Observe lease-hold latency and synthesize the lease span.

        Returns the span id later spans should attach to: the lease
        span when one was synthesized, else the root (0 = tracing off).
        """
        if not jt.lease_open:
            return jt.root_id
        jt.lease_open = False
        self._observe_latency("lease_hold", time.perf_counter() - jt.lease_s)
        tracer = get_tracer()
        if not (tracer.enabled and jt.root_id):
            return jt.root_id
        now_us = tracer.now_us()
        lease_id = tracer.allocate_id()
        jt.spans.append(
            SpanRecord(
                name="service.lease",
                category="service",
                start_us=jt.lease_us,
                duration_us=now_us - jt.lease_us,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=lease_id,
                parent_id=jt.root_id,
                args=(("trace", jt.trace_id),),
            )
        )
        return lease_id

    def _stitch_spans_locked(
        self, jt: _JobTrace, spans: Iterable[SpanRecord], attach_id: int
    ) -> None:
        """Fold a runner capture into the job trace.

        Top-level spans from *this* process (parentless, or pointing at
        a parent the capture never saw) are reparented under
        ``attach_id`` (the lease span); worker-process spans keep their
        own parent chains — AD808 checks them by window containment.
        """
        spans = list(spans)
        if not spans:
            return
        pid = os.getpid()
        known = {s.span_id for s in spans if s.pid == pid}
        for span in spans:
            if attach_id and span.pid == pid and (
                span.parent_id == 0 or span.parent_id not in known
            ):
                span = replace(span, parent_id=attach_id)
            jt.spans.append(span)

    def _synthesize_root_locked(self, jt: _JobTrace, job: JobRecord) -> None:
        """Record the ``service.job`` root span (submit → completion)."""
        tracer = get_tracer()
        if not (tracer.enabled and jt.root_id):
            return
        end_us = tracer.now_us()
        jt.spans.append(
            SpanRecord(
                name="service.job",
                category="service",
                start_us=jt.submit_us,
                duration_us=end_us - jt.submit_us,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=jt.root_id,
                parent_id=0,
                args=tuple(
                    sorted(
                        {
                            "job": job.job_id,
                            "trace": jt.trace_id,
                            "tenant": job.tenant,
                            "workload": job.model,
                            "state": job.state,
                            "source": job.source,
                        }.items()
                    )
                ),
            )
        )

    def _persist_trace_locked(self, jt: _JobTrace, job: JobRecord) -> None:
        """Write ``traces/<job_id>.json`` (atomic replace; AD808 input)."""
        if not jt.spans:
            return
        path = self.state_dir / "traces" / f"{job.job_id}.json"
        doc = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "job_id": job.job_id,
            "trace_id": jt.trace_id,
            "root_pid": os.getpid(),
            "spans": [span.to_dict() for span in jt.spans],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    def _complete_trace_locked(
        self, job: JobRecord, spans: Iterable[SpanRecord] = ()
    ) -> None:
        """Completion-side trace work shared by done/failed/cancelled."""
        jt = self._traces.get(job.job_id)
        if jt is None:
            return
        attach = self._close_lease_trace_locked(jt)
        self._stitch_spans_locked(jt, spans, attach)
        self._observe_latency("e2e", time.perf_counter() - jt.submit_s)
        self._tenant_counter(job.tenant, "completed")
        self._synthesize_root_locked(jt, job)
        self._persist_trace_locked(jt, job)

    # -- transitions (all journal-first) ------------------------------------

    def _checkpoint_path(self, job_id: str) -> Path:
        return self.state_dir / "ck" / f"{job_id}.jsonl"

    def _record(self, job: JobRecord) -> None:
        """Journal one transition before it takes effect.

        A job's candidate checkpoint exists only so a requeued job can
        resume; once its terminal record is durable nothing reads it
        again, so it is deleted then — never before.
        """
        self.journal.record(job.state, job)
        if job.terminal:
            self._checkpoint_path(job.job_id).unlink(missing_ok=True)

    def _release(self, job_id: str) -> None:
        tenant = self._slots.pop(job_id, None)
        if tenant is not None:
            self.admission.release(tenant)

    def _finish_done(
        self,
        job: JobRecord,
        source: str,
        total_cycles: int | None,
        search_seconds: float,
        spans: Iterable[SpanRecord] = (),
    ) -> None:
        waiters: list[str] = []
        with self._lock:
            if self._lease_superseded_locked(job):
                return
            self._leases.pop(job.job_id)
            done = job.advanced(
                "done",
                source=source,
                total_cycles=total_cycles,
                search_seconds=search_seconds,
            )
            self._record(done)
            self._jobs[job.job_id] = done
            self._release(job.job_id)
            self._event("complete", done, state="done", source=source)
            if source == "search":
                self._observe_latency("compile_wall", search_seconds)
            self._complete_trace_locked(done, spans)
            if self._active.get(job.fingerprint) == job.job_id:
                del self._active[job.fingerprint]
                waiters = self._waiters.pop(job.job_id, [])
            for waiter_id in waiters:
                waiter = self._jobs[waiter_id]
                if waiter.terminal:
                    continue
                finished = waiter.advanced(
                    "done",
                    source="coalesced",
                    total_cycles=total_cycles,
                    search_seconds=0.0,
                )
                self._record(finished)
                self._jobs[waiter_id] = finished
                self._release(waiter_id)
                self._event(
                    "complete", finished, state="done", source="coalesced"
                )
                self._complete_trace_locked(finished)
            get_registry().counter("service.completed").inc(1 + len(waiters))

    def _finish_failed_locked(self, job: JobRecord, error: str) -> None:
        waiters: list[str] = []
        failed = job.advanced("failed", error=error)
        self._record(failed)
        self._jobs[job.job_id] = failed
        self._release(job.job_id)
        self._event("complete", failed, state="failed")
        self._complete_trace_locked(failed)
        if self._active.get(job.fingerprint) == job.job_id:
            del self._active[job.fingerprint]
            waiters = self._waiters.pop(job.job_id, [])
        for waiter_id in waiters:
            waiter = self._jobs[waiter_id]
            if waiter.terminal:
                continue
            finished = waiter.advanced(
                "failed", error=f"coalesced onto failed job {job.job_id}: {error}"
            )
            self._record(finished)
            self._jobs[waiter_id] = finished
            self._release(waiter_id)
            self._event("complete", finished, state="failed")
            self._complete_trace_locked(finished)
        get_registry().counter("service.failed").inc(1 + len(waiters))

    # -- the service API (one method per wire op) ---------------------------

    def submit(self, doc: dict) -> dict:
        """Admit one request; returns ``{"job_id", "state", "source",
        "trace_id"}``.

        Raises:
            ValueError: Malformed request (unknown keys, unknown model).
            AdmissionError: Queue full, tenant over quota, or draining.
        """
        submit_s = time.perf_counter()
        with self._lock:
            if self._draining or self._closed:
                raise AdmissionError(
                    "draining", "daemon is draining; resubmit to its successor"
                )
        try:
            request = CompileRequest.from_dict(doc)
            fingerprint = request.fingerprint
        except KeyError as exc:
            raise ValueError(f"unknown model {exc.args[0]!r}") from exc
        registry = get_registry()
        cached = self.store.get(fingerprint)
        with self._wakeup:
            if self._draining or self._closed:
                raise AdmissionError(
                    "draining",
                    "daemon is draining; resubmit to its successor",
                )
            job_id = self._ids.next()
            trace_id = self._mint_trace(job_id, fingerprint)
            self._tenant_counter(request.tenant, "submitted")
            if cached is not None:
                entry = self.store.info(fingerprint)
                job = JobRecord(
                    job_id=job_id,
                    fingerprint=fingerprint,
                    model=request.model,
                    tenant=request.tenant,
                    request=request.to_dict(),
                    state="done",
                    source="cache",
                    total_cycles=entry.total_cycles if entry else None,
                    search_seconds=0.0,
                    trace_id=trace_id,
                )
                self._record(job)
                self._jobs[job_id] = job
                jt = self._trace_begin(job, submit_s)
                self._event("submit", job, tenant=job.tenant, source="cache")
                self._event("complete", job, state="done", source="cache")
                self._observe_latency(
                    "cache_hit", time.perf_counter() - submit_s
                )
                self._observe_latency("e2e", time.perf_counter() - submit_s)
                self._tenant_counter(job.tenant, "completed")
                self._synthesize_root_locked(jt, job)
                self._persist_trace_locked(jt, job)
                registry.counter("service.cache_hits").inc()
                return {
                    "job_id": job_id,
                    "state": "done",
                    "source": "cache",
                    "trace_id": trace_id,
                }
            self.admission.admit(request.tenant)  # raises AdmissionError
            primary = self._active.get(fingerprint)
            if primary is not None:
                job = JobRecord(
                    job_id=job_id,
                    fingerprint=fingerprint,
                    model=request.model,
                    tenant=request.tenant,
                    request=request.to_dict(),
                    state="queued",
                    source="coalesced",
                    trace_id=trace_id,
                )
                self._record(job)
                self._jobs[job_id] = job
                self._slots[job_id] = request.tenant
                self._waiters.setdefault(primary, []).append(job_id)
                self._trace_begin(job, submit_s)
                self._event(
                    "submit",
                    job,
                    tenant=job.tenant,
                    source="coalesced",
                    coalesced_with=primary,
                )
                registry.counter("service.coalesced").inc()
                return {
                    "job_id": job_id,
                    "state": "queued",
                    "source": "coalesced",
                    "coalesced_with": primary,
                    "trace_id": trace_id,
                }
            job = JobRecord(
                job_id=job_id,
                fingerprint=fingerprint,
                model=request.model,
                tenant=request.tenant,
                request=request.to_dict(),
                state="queued",
                source="search",
                trace_id=trace_id,
            )
            self._record(job)
            self._jobs[job_id] = job
            self._slots[job_id] = request.tenant
            self._active[fingerprint] = job_id
            self._queue.append(job_id)
            self._trace_begin(job, submit_s)
            self._event("submit", job, tenant=job.tenant, source="search")
            registry.counter("service.submitted").inc()
            registry.gauge("service.queue_depth").set(len(self._queue))
            self._wakeup.notify()
            return {
                "job_id": job_id,
                "state": "queued",
                "source": "search",
                "trace_id": trace_id,
            }

    def status(self, job_id: str) -> dict:
        """The job's current record (raises KeyError on unknown id)."""
        with self._lock:
            return self._jobs[job_id].to_dict()

    def result(self, job_id: str) -> dict:
        """The stored solution of a done job, byte-exact.

        The ``solution_json`` field is the stored bytes decoded as
        UTF-8 — clients write it back out verbatim, preserving byte
        identity with the original search's document.
        """
        with self._lock:
            job = self._jobs[job_id]
        if job.state != "done":
            raise ValueError(
                f"job {job_id} is {job.state}"
                + (f": {job.error}" if job.error else "")
            )
        payload = self.store.get(job.fingerprint)
        if payload is None:
            raise ValueError(
                f"job {job_id} result was evicted from the store; resubmit"
            )
        return {
            "job_id": job_id,
            "fingerprint": job.fingerprint,
            "total_cycles": job.total_cycles,
            "source": job.source,
            "trace_id": job.trace_id,
            "solution_json": payload.decode("utf-8"),
        }

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued (or coalesced-waiting) job.

        A running job cannot be cancelled — the search is already
        spending its quota slot and will publish a reusable result.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.terminal:
                return {"job_id": job_id, "state": job.state}
            if job.state != "queued":
                raise ValueError(f"job {job_id} is {job.state}; not cancellable")
            cancelled = job.advanced("cancelled")
            self._record(cancelled)
            self._jobs[job_id] = cancelled
            self._release(job_id)
            self._event("complete", cancelled, state="cancelled")
            self._complete_trace_locked(cancelled)
            if self._active.get(job.fingerprint) == job_id:
                # Cancelling a primary promotes nothing: waiters fail
                # over to their own store check when the runner next
                # sees them — but they are not queued, so fail them.
                del self._active[job.fingerprint]
                for waiter_id in self._waiters.pop(job_id, []):
                    waiter = self._jobs[waiter_id]
                    if waiter.terminal:
                        continue
                    finished = waiter.advanced(
                        "failed",
                        error=f"coalesced onto cancelled job {job_id}",
                    )
                    self._record(finished)
                    self._jobs[waiter_id] = finished
                    self._release(waiter_id)
                    self._event("complete", finished, state="failed")
                    self._complete_trace_locked(finished)
            get_registry().counter("service.cancelled").inc()
            return {"job_id": job_id, "state": "cancelled"}

    def jobs(self) -> list[dict]:
        """Every journaled job, in id order."""
        with self._lock:
            return [
                self._jobs[job_id].to_dict() for job_id in sorted(self._jobs)
            ]

    def health(self) -> dict:
        """Liveness + lease snapshot (the ``health`` wire op).

        The ``metrics`` field is a full mergeable
        :class:`repro.obs.metrics.MetricsSnapshot` document — fleets
        merge health responses across daemons with
        ``MetricsSnapshot.merge``.
        """
        with self._lock:
            job_by_runner = {
                lease.runner_id: job_id
                for job_id, lease in self._leases.items()
            }
            runners = [
                {
                    "runner": name,
                    "alive": thread.is_alive(),
                    "job": job_by_runner.get(name),
                }
                for name, thread in sorted(self._runner_threads.items())
            ]
            leases = [
                {
                    "job_id": lease.job_id,
                    "runner_id": lease.runner_id,
                    "lease_seq": lease.lease_seq,
                    "attempt": lease.attempt,
                    "beat_seq": lease.beat_seq,
                }
                for _, lease in sorted(self._leases.items())
            ]
            draining = self._draining
            queue_depth = len(self._queue)
        snapshot = get_registry().snapshot()
        lease_stats = {
            stat: snapshot.counters.get(f"service.lease.{stat}", 0)
            for stat in (
                "issued", "reclaimed", "retries", "superseded", "stalled"
            )
        }
        return {
            "protocol": PROTOCOL_VERSION,
            "draining": draining,
            "runners": runners,
            "runners_target": self.runners_target,
            "max_job_attempts": self.max_job_attempts,
            "queue_depth": queue_depth,
            "leases": leases,
            "lease_stats": lease_stats,
            "latency": summarize_histograms(
                snapshot.histograms, prefix=LATENCY_PREFIX
            ),
            "metrics": snapshot.to_dict(),
        }

    def stats(self) -> dict:
        """Operational snapshot: queue, store, admission, sessions."""
        with self._lock:
            queue_depth = len(self._queue)
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            runners_alive = sum(
                1 for t in self._runner_threads.values() if t.is_alive()
            )
            draining = self._draining
        snapshot = get_registry().snapshot()
        counters = {
            name: value
            for name, value in snapshot.counters.items()
            if name.split(".")[0]
            in ("service", "store", "admission", "session", "context_cache")
        }
        return {
            "protocol": PROTOCOL_VERSION,
            "queue_depth": queue_depth,
            "jobs_by_state": states,
            "runners": {"target": self.runners_target, "alive": runners_alive},
            "draining": draining,
            "store": {
                "entries": len(self.store),
                "bytes": self.store.total_bytes,
                "capacity_bytes": self.store.capacity_bytes,
            },
            "admission": self.admission.snapshot(),
            "sessions": len(self.sessions),
            "counters": counters,
            "latency": summarize_histograms(
                snapshot.histograms, prefix=LATENCY_PREFIX
            ),
        }

    def jobs_summary(self) -> dict:
        """Queue/lease summary for the HTTP ``/jobs`` endpoint."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            leases = [
                {
                    "job_id": lease.job_id,
                    "runner_id": lease.runner_id,
                    "lease_seq": lease.lease_seq,
                    "attempt": lease.attempt,
                }
                for _, lease in sorted(self._leases.items())
            ]
            return {
                "protocol": PROTOCOL_VERSION,
                "queue_depth": len(self._queue),
                "jobs_by_state": states,
                "leases": leases,
                "draining": self._draining,
            }

    def trace(self, job_id: str) -> dict:
        """The job's stitched span tree (the ``trace`` wire op).

        In-memory spans win while the daemon that ran the job is alive;
        after a restart the persisted ``traces/<job_id>.json`` document
        serves the same tree.  An untraced job returns an empty span
        list (the trace id is still real).

        Raises:
            KeyError: Unknown job id.
        """
        with self._lock:
            job = self._jobs[job_id]
            jt = self._traces.get(job_id)
            if jt is not None and jt.spans:
                return {
                    "job_id": job_id,
                    "trace_id": job.trace_id,
                    "root_pid": os.getpid(),
                    "spans": [span.to_dict() for span in jt.spans],
                }
            trace_id = job.trace_id
        path = self.state_dir / "traces" / f"{job_id}.json"
        if path.exists():
            doc = json.loads(path.read_text(encoding="utf-8"))
            return {
                "job_id": job_id,
                "trace_id": doc.get("trace_id") or trace_id,
                "root_pid": doc.get("root_pid"),
                "spans": doc.get("spans", []),
            }
        return {
            "job_id": job_id,
            "trace_id": trace_id,
            "root_pid": None,
            "spans": [],
        }


# ---------------------------------------------------------------------------
# The unix-socket wire front end
# ---------------------------------------------------------------------------

_OPS = frozenset(
    {
        "ping",
        "submit",
        "status",
        "result",
        "cancel",
        "jobs",
        "stats",
        "health",
        "trace",
        "drain",
        "shutdown",
    }
)


def _handle_op(service: ReproService, request: dict) -> dict:
    """Dispatch one wire request; exceptions become error responses."""
    op = request.get("op")
    if op not in _OPS:
        return _error("bad-request", f"unknown op {op!r}")
    try:
        if op == "ping":
            return {"ok": True, "protocol": PROTOCOL_VERSION}
        if op == "submit":
            return {"ok": True, **service.submit(request.get("request", {}))}
        if op == "status":
            return {"ok": True, "job": service.status(_job_id(request))}
        if op == "result":
            return {"ok": True, **service.result(_job_id(request))}
        if op == "cancel":
            return {"ok": True, **service.cancel(_job_id(request))}
        if op == "jobs":
            return {"ok": True, "jobs": service.jobs()}
        if op == "stats":
            return {"ok": True, "stats": service.stats()}
        if op == "health":
            return {"ok": True, "health": service.health()}
        if op == "trace":
            return {"ok": True, **service.trace(_job_id(request))}
        if op == "drain":
            timeout_s = request.get("timeout_s", 60.0)
            if timeout_s is not None and not isinstance(timeout_s, (int, float)):
                raise ValueError("timeout_s must be a number or null")
            summary = service.drain(timeout_s)
            return {"ok": True, **summary, "stopping": True}
        return {"ok": True, "stopping": True}  # shutdown: caller stops server
    except AdmissionError as exc:
        return _error(exc.code, str(exc))
    except KeyError as exc:
        return _error("not-found", f"unknown job {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        return _error("bad-request", str(exc))


def _job_id(request: dict) -> str:
    job_id = request.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise ValueError("request needs a 'job_id' string")
    return job_id


def _error(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


def serve(
    service: ReproService,
    socket_path: str | os.PathLike,
    drain_timeout_s: float | None = 60.0,
    metrics_port: int | None = None,
) -> None:
    """Run the wire front end until ``shutdown``/``drain``/SIGTERM (blocking).

    One connection = one request line = one response line; the client
    reconnects per call, which keeps the handler trivially stateless.
    When running on the main thread, SIGTERM triggers a graceful drain
    (stop admitting, journal in-flight jobs, exit) bounded by
    ``drain_timeout_s``.

    ``metrics_port`` (``repro serve --metrics-port``) additionally
    starts the read-only HTTP exporter
    (:class:`repro.service.metrics_http.MetricsHTTPServer`) on
    ``127.0.0.1:<port>`` — ``/metrics`` (Prometheus), ``/healthz``,
    ``/jobs``.

    Raises:
        ValueError: ``socket_path`` exceeds the platform ``sun_path``
            limit (checked up front — binding would fail cryptically).
    """
    socket_path = os.fspath(socket_path)
    problem = socket_path_problem(socket_path)
    if problem is not None:
        raise ValueError(problem)
    if os.path.exists(socket_path):
        os.unlink(socket_path)  # stale socket from a killed daemon

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            line = self.rfile.readline()
            if not line.strip():
                return
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request is not a JSON object")
            except ValueError as exc:
                request = {}
                response = _error("bad-request", f"unparseable request: {exc}")
            else:
                response = _handle_op(service, request)
            if service.faults is not None:
                dropped = service.faults.take("drop-socket", op=request.get("op"))
                if dropped is not None:
                    _log.warning(
                        "injected socket drop @ op=%s", request.get("op")
                    )
                    return  # close the connection without a response line
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
            if response.get("stopping"):
                threading.Thread(target=server.shutdown, daemon=True).start()

    server = _Server(socket_path, Handler)

    def _graceful() -> None:
        service.drain(drain_timeout_s)
        server.shutdown()

    def _on_sigterm(signum: int, frame: Any) -> None:
        _log.info("SIGTERM: draining")
        threading.Thread(
            target=_graceful, name="repro-serve-sigterm", daemon=True
        ).start()

    previous_handler: Any = None
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    service.start()
    exporter = None
    if metrics_port is not None:
        from repro.service.metrics_http import MetricsHTTPServer

        exporter = MetricsHTTPServer(service, port=metrics_port)
        exporter.start()
        _log.info("metrics exporter on http://127.0.0.1:%d", exporter.port)
    _log.info("serving on %s (state %s)", socket_path, service.state_dir)
    try:
        server.serve_forever()
    finally:
        if exporter is not None:
            exporter.stop()
        if on_main_thread and previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        server.server_close()
        service.stop()
        if os.path.exists(socket_path):
            os.unlink(socket_path)


__all__ = ["LATENCY_PREFIX", "PROTOCOL_VERSION", "ReproService", "serve"]
