"""A respawnable, retrying process-pool supervisor.

``concurrent.futures.ProcessPoolExecutor`` treats every worker death as
fatal (``BrokenProcessPool`` aborts the whole ``map``) and has no notion
of per-task deadlines or retries.  :class:`ResilientExecutor` wraps one
pool with the supervision a long search needs:

* **bounded retry with exponential backoff** — a task attempt that
  raises, returns a result failing the caller's integrity check, or is
  lost to a pool failure is re-run up to ``RetryPolicy.retries`` more
  times, each retry delayed by ``backoff_s * backoff_factor**k``;
* **per-task timeouts** — a task observed running longer than
  ``candidate_timeout_s`` is charged a timed-out attempt and the pool is
  recycled (a stuck worker cannot be cancelled, only killed).  Deadlines
  are measured from the moment the task is *observed running*, so queue
  wait behind a slow sibling never counts against a task.  Caveat: the
  stdlib pool marks a future running when it is handed to the call
  queue, which on a freshly (re)spawned pool includes worker start-up
  (~1 s for a spawn-context worker) — set ``candidate_timeout_s``
  comfortably above that, it is a safety net, not a stopwatch;
* **worker-crash recovery** — on ``BrokenProcessPool`` the pool is
  respawned and only unfinished tasks re-run; every in-flight task is
  charged one attempt (its partial work is lost and any armed
  first-attempt fault has burned), completed results are kept;
* **graceful degradation** — after ``max_pool_restarts`` pool failures
  the supervisor stops respawning and runs the remaining tasks inline in
  the parent process (``degraded`` is set so callers can report it);
* **clean interruption** — ``KeyboardInterrupt`` terminates the pool,
  marks unfinished tasks ``"interrupted"``, and *returns* the reports,
  so the caller keeps every completed result.

Tasks are executed via a module-level trampoline that converts worker
exceptions to ``("error", message)`` tuples *inside* the worker — the
result queue only ever carries plain picklable data, so an exception
type with a non-trivial constructor can never poison the pool.

Determinism: a retried attempt re-runs the same pure payload (the
attempt number is passed through only for fault-plan keying), so retries
and pool recycling change wall-clock behaviour, never results.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Sequence

from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracer import (
    SpanRecord,
    absorb_observations,
    drain_observations,
    ensure_tracing,
    get_tracer,
)

#: The pinned start method: ``spawn`` behaves identically across
#: Linux/macOS/Windows (fork would silently share parent state on Linux
#: only) — see the module docstring of :mod:`repro.pipeline`.
START_METHOD = "spawn"

_log = get_logger(__name__)

_TIMEOUT_ERROR = "candidate exceeded timeout"
_POOL_LOST_ERROR = "in-flight work lost to a worker-pool failure"


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs for one search.

    Attributes:
        retries: Extra attempts after the first failed one (0 = fail on
            the first error).
        candidate_timeout_s: Per-task running-time budget; ``None``
            disables deadlines.  Only enforceable for pool execution —
            inline (serial) tasks cannot be pre-empted, which is
            documented behaviour, not a bug.
        backoff_s: Delay before the first retry.
        backoff_factor: Multiplier applied per further retry.
        max_pool_restarts: Pool failures tolerated before degrading to
            inline execution for the remainder of the run.
    """

    retries: int = 1
    candidate_timeout_s: float | None = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_pool_restarts: int = 3

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.candidate_timeout_s is not None and self.candidate_timeout_s <= 0:
            raise ValueError("candidate_timeout_s must be positive")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_s must be >= 0 and backoff_factor >= 1")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def backoff_for(self, attempt: int) -> float:
        """Delay before re-running a task that has burned ``attempt`` tries."""
        return self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)


@dataclass(eq=False)
class TaskReport:
    """Everything the supervisor decided about one task.

    Attributes:
        index: Position in the submitted payload list.
        value: The task's return value when ``status == "ok"``.
        status: ``"pending"`` → ``"ok"`` | ``"failed"`` | ``"interrupted"``.
        error: Final (or latest) failure description; empty on success.
        attempts: Attempts consumed (>= 1 unless never started).
    """

    index: int
    value: Any = None
    status: str = "pending"
    error: str = ""
    attempts: int = 0
    _eligible_at: float = field(default=0.0, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _guarded_call(fn: Callable, attempt: int, payload: Any) -> tuple[str, Any]:
    """Worker trampoline: exceptions become data before crossing the pipe."""
    try:
        return ("ok", fn(attempt, payload))
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}")


class ResilientExecutor:
    """Supervised fan-out over a respawnable spawn-context process pool.

    One executor spans all phases of a search: the pool (and its
    initialized worker state) is reused across :meth:`map` calls and
    respawned transparently after failures.  ``jobs=1`` runs everything
    inline through the identical bookkeeping, so serial and parallel
    searches share one code path for retry and failure accounting.

    Attributes:
        pool_failures: Pool breakdowns observed (crash or timeout kill).
        degraded: Whether execution fell back to inline after repeated
            pool failures.
        interrupted: Whether a ``KeyboardInterrupt`` stopped the run;
            once set, further :meth:`map` calls return immediately with
            every task marked ``"interrupted"``.
    """

    def __init__(
        self,
        jobs: int = 1,
        initializer: Callable | None = None,
        initargs: tuple = (),
        policy: RetryPolicy | None = None,
        poll_s: float = 0.05,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.initializer = initializer
        self.initargs = initargs
        self.policy = policy or RetryPolicy()
        self.poll_s = poll_s
        self.pool_failures = 0
        self.degraded = False
        self.interrupted = False
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ResilientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release the pool (terminating workers if any are still alive)."""
        self._discard_pool(terminate=True)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=get_context(START_METHOD),
                initializer=self.initializer,
                initargs=self.initargs,
            )
        return self._pool

    def _discard_pool(self, terminate: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # _processes is stdlib-private but the only handle on stuck
        # workers; shutdown() alone would leave a stalled task running
        # (and its process alive) indefinitely.
        procs = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=not terminate, cancel_futures=True)
        except Exception:
            pass
        if terminate:
            for proc in procs:
                try:
                    if proc.is_alive():
                        proc.terminate()
                except Exception:
                    pass

    def _pool_broke(self, charges: dict[TaskReport, str]) -> None:
        """Handle one pool failure: charge in-flight tasks, maybe degrade."""
        self.pool_failures += 1
        get_registry().counter("executor.pool_failures").inc()
        _log.warning(
            "worker pool failure %d (%d task(s) in flight)",
            self.pool_failures, len(charges),
        )
        self._discard_pool(terminate=True)
        for report, error in charges.items():
            if report.status == "pending":
                self._charge(report, error)
        if self.pool_failures > self.policy.max_pool_restarts:
            self.degraded = True
            _log.warning(
                "exceeded %d pool restart(s); degrading to inline execution",
                self.policy.max_pool_restarts,
            )

    # -- attempt accounting ------------------------------------------------

    def _charge(self, report: TaskReport, error: str) -> None:
        """Burn one attempt; the task fails once the budget is gone."""
        report.attempts += 1
        report.error = error
        get_registry().counter("executor.attempts_failed").inc()
        if report.attempts >= self.policy.max_attempts:
            report.status = "failed"
            _log.warning(
                "task %d failed after %d attempt(s): %s",
                report.index, report.attempts, error,
            )
        else:
            report._eligible_at = time.monotonic() + self.policy.backoff_for(
                report.attempts
            )
            _log.warning(
                "task %d attempt %d failed, will retry: %s",
                report.index, report.attempts, error,
            )

    def _settle(
        self,
        report: TaskReport,
        kind: str,
        value: Any,
        verify: Callable[[int, Any], str | None] | None,
        on_success: Callable[[TaskReport], None] | None,
    ) -> None:
        """Fold one attempt outcome (from worker or inline) into the report."""
        if kind != "ok":
            self._charge(report, value)
            return
        error = verify(report.index, value) if verify is not None else None
        if error is not None:
            self._charge(report, error)
            return
        report.attempts += 1
        report.value = value
        report.status = "ok"
        report.error = ""
        get_registry().counter("executor.attempts_ok").inc()
        if on_success is not None:
            on_success(report)

    # -- execution ---------------------------------------------------------

    def map(
        self,
        fn: Callable[[int, Any], Any],
        payloads: Sequence[Any],
        verify: Callable[[int, Any], str | None] | None = None,
        on_success: Callable[[TaskReport], None] | None = None,
    ) -> list[TaskReport]:
        """Run ``fn(attempt, payload)`` for every payload, supervised.

        Args:
            fn: Module-level (picklable) task function.
            payloads: One picklable payload per task.
            verify: Optional integrity check called in the parent on each
                completed value; a non-None string rejects the attempt
                (counted and retried like an exception).
            on_success: Parent-side callback on each accepted task; may
                replace ``report.value`` (e.g. to stamp attempt counts)
                and is the checkpoint-journal hook.

        Returns:
            One :class:`TaskReport` per payload, in payload order.
        """
        reports = [TaskReport(index=i) for i in range(len(payloads))]
        if self.interrupted:
            for report in reports:
                report.status = "interrupted"
                report.error = "interrupted"
            return reports
        with get_tracer().span(
            "executor.map", category="resilience", tasks=len(payloads)
        ):
            try:
                while any(r.status == "pending" for r in reports):
                    if self.jobs == 1 or self.degraded:
                        self._run_inline(
                            fn, payloads, reports, verify, on_success
                        )
                    else:
                        self._run_pool_round(
                            fn, payloads, reports, verify, on_success
                        )
            except KeyboardInterrupt:
                self.interrupted = True
                self._discard_pool(terminate=True)
                _log.warning("interrupted; returning completed results")
                for report in reports:
                    if report.status == "pending":
                        report.status = "interrupted"
                        report.error = "interrupted"
        return reports

    def _run_inline(self, fn, payloads, reports, verify, on_success) -> None:
        """Serial execution with identical retry bookkeeping (no deadlines).

        The initializer runs on every entry, not once per executor: a
        warm executor may be driven from a different thread than the one
        that first used it, and several warm executors may interleave on
        one thread — with thread-local worker state, whichever executor
        ran last owns the thread's state, so each run re-installs its own.
        """
        if self.initializer is not None:
            self.initializer(*self.initargs)
        for report in reports:
            while report.status == "pending":
                delay = report._eligible_at - time.monotonic()
                # static-ok: LINT008 -- wall-clock backoff pacing; values attempt-invariant
                if delay > 0:
                    time.sleep(delay)
                try:
                    value = fn(report.attempts, payloads[report.index])
                except Exception as exc:
                    self._settle(
                        report,
                        "error",
                        f"{type(exc).__name__}: {exc}",
                        verify,
                        on_success,
                    )
                else:
                    self._settle(report, "ok", value, verify, on_success)

    def _run_pool_round(self, fn, payloads, reports, verify, on_success) -> None:
        """Submit every eligible task once and harvest until quiescent.

        Returns after all submitted futures settle or the pool dies; the
        caller's loop re-enters for retries and not-yet-eligible tasks.
        """
        now = time.monotonic()
        open_reports = [r for r in reports if r.status == "pending"]
        # static-ok: LINT008 -- wall-clock retry eligibility; values attempt-invariant
        eligible = [r for r in open_reports if r._eligible_at <= now]
        if not eligible:
            time.sleep(max(min(r._eligible_at for r in open_reports) - now, 0.0))
            return
        futures: dict[Any, TaskReport] = {}
        try:
            pool = self._ensure_pool()
            for report in eligible:
                futures[
                    pool.submit(
                        _guarded_call, fn, report.attempts, payloads[report.index]
                    )
                ] = report
        except BrokenProcessPool:
            self._pool_broke({r: _POOL_LOST_ERROR for r in futures.values()})
            return
        self._watch(futures, verify, on_success)

    def _watch(self, futures, verify, on_success) -> None:
        """Poll in-flight futures: results, crashes, and deadlines."""
        timeout_s = self.policy.candidate_timeout_s
        started: dict[Any, float] = {}
        while futures:
            done, _ = wait(
                list(futures), timeout=self.poll_s, return_when=FIRST_COMPLETED
            )
            broken: list[TaskReport] = []
            for fut in done:
                report = futures.pop(fut)
                try:
                    kind, value = fut.result()
                except BrokenProcessPool:
                    broken.append(report)
                    continue
                except Exception as exc:
                    kind, value = "error", f"{type(exc).__name__}: {exc}"
                self._settle(report, kind, value, verify, on_success)
            if broken:
                charges = {r: _POOL_LOST_ERROR for r in broken}
                charges.update({r: _POOL_LOST_ERROR for r in futures.values()})
                self._pool_broke(charges)
                return
            if timeout_s is None:
                continue
            now = time.monotonic()
            for fut in futures:
                if fut not in started and fut.running():
                    started[fut] = now
            overdue = {
                futures[fut]
                for fut, t0 in started.items()
                # static-ok: LINT008 -- wall-clock hang detection; payloads re-run pure
                if fut in futures and now - t0 > timeout_s
            }
            if overdue:  # static-ok: LINT008 -- triggers pool recycling only; results re-derive
                # A stuck worker cannot be cancelled; recycle the pool.
                charges = {
                    r: (
                        f"{_TIMEOUT_ERROR} ({timeout_s}s)"
                        # static-ok: LINT008 -- labels the failure cause; task values unchanged
                        if r in overdue
                        else _POOL_LOST_ERROR
                    )
                    for r in futures.values()
                }
                self._pool_broke(charges)
                return


# ---------------------------------------------------------------------------
# Search workers: the per-process state every search task reads
# ---------------------------------------------------------------------------


class _WorkerState(threading.local):
    """Per-thread state for task functions, installed by :func:`init_worker`.

    Pool workers install it once per process (tasks run in the worker's
    main thread).  The inline (jobs=1) path installs it in the *calling*
    thread instead, so both paths execute the exact same task functions —
    and because the daemon's runner pool drives concurrent inline
    searches over different contexts in one process, the state must be
    thread-local, not module-global, or runners would read each other's
    context mid-search.
    """

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self._data[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)


#: The search context (``"ctx"``) and profiling flag (``"profile"``)
#: of the worker — or inline caller — running a search task.
WORKER_STATE = _WorkerState()


def init_worker(ctx: Any, profile: bool = False) -> None:
    """Install the per-process shared state: the search context alone.

    ``ctx`` is a :class:`~repro.pipeline.SearchContext`.  Everything
    request-specific — pipeline, strategy label, fault plan — rides
    inside each task payload instead, so a warm pool initialized for one
    context serves any number of searches over it without
    re-initialization (the service's warm-session path).
    """
    WORKER_STATE["ctx"] = ctx
    WORKER_STATE["profile"] = profile
    if profile:
        # ensure (not enable): the inline jobs=1 path runs this in the
        # parent, whose tracer already holds recorded spans.
        ensure_tracing()


def make_search_executor(
    ctx: Any,
    jobs: int = 1,
    policy: RetryPolicy | None = None,
    profile: bool = False,
) -> ResilientExecutor:
    """A supervised executor whose worker state is exactly ``ctx``.

    The executor outlives individual searches: pass it to
    :class:`~repro.pipeline.StagedSearch` as ``executor=`` and it is
    *not* shut down when the search finishes, so the next request over
    the same context skips pool spawn and context pickling entirely.
    ``policy`` is only the initial supervision policy — each search
    installs its own before running.  The caller owns shutdown.
    """
    return ResilientExecutor(
        jobs=jobs,
        initializer=init_worker,
        initargs=(ctx, profile),
        policy=policy or RetryPolicy(),
    )


@dataclass(frozen=True)
class ObsEnvelope:
    """A task result carrying the worker's drained observations.

    Spawned workers trace into their own process-local tracer/registry;
    the observations ride home inside the task result and the parent
    absorbs them before unwrapping (see :func:`unwrap_obs`).  Only built
    when profiling — unprofiled searches return bare values.
    """

    value: Any
    spans: tuple[SpanRecord, ...]
    metrics: dict


def wrap_obs(value: Any) -> Any:
    """Attach this process's pending observations to a task result."""
    if not WORKER_STATE.get("profile"):
        return value
    spans, metrics = drain_observations()
    return ObsEnvelope(value, tuple(spans), metrics)


def unwrap_obs(value: Any) -> Any:
    """Absorb an envelope's observations and return the bare value."""
    if isinstance(value, ObsEnvelope):
        absorb_observations(value.spans, value.metrics)
        return value.value
    return value
