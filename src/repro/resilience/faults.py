"""Deterministic fault injection for the staged search.

A :class:`FaultPlan` is a picklable description of *which* candidate
fails, *how*, and *on which attempt* — it ships to pool workers with the
rest of the worker state, so the same plan replays identically under any
job count, and a fault keyed to attempt 0 is transient by construction:
the supervisor's retry runs the candidate at attempt 1, where the plan
is silent.

Four fault kinds cover the failure modes a long search actually meets:

* ``"raise"`` — a stage raises mid-candidate (:class:`InjectedFault`);
* ``"stall"`` — the candidate hangs (in a pool worker: a real sleep that
  the supervisor's timeout must cut short; inline: an immediate
  :class:`InjectedFault`, since the parent process must never sleep);
* ``"kill-worker"`` — the worker process dies without cleanup
  (``os._exit``; inline it degrades to :class:`InjectedFault` so a
  serial search is never killed);
* ``"corrupt-result"`` — the candidate *completes* but returns a
  tampered solution, which the supervisor's integrity check must catch.

Plans are either explicit (:meth:`FaultPlan.single`, tests pinning one
fault to one candidate) or seeded (:meth:`FaultPlan.seeded`): candidate
``i`` draws its fault from ``SeedSequence(seed, i)``, so chaos replays
are reproducible from ``(seed, n_candidates)`` alone.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

#: Every fault kind the harness can inject.
FAULT_KINDS = ("raise", "stall", "kill-worker", "corrupt-result")

#: Every *service-level* fault kind (see :class:`ServiceFaultPlan`).
SERVICE_FAULT_KINDS = (
    "kill-runner", "torn-journal", "torn-events", "corrupt-store",
    "drop-socket", "sigterm"
)

#: Phases a fault can target: annealing-chain segments and evaluations.
FAULT_PHASES = ("tiling", "eval")


class InjectedFault(RuntimeError):
    """Raised (or simulated) by the fault harness — never by real code."""


class InjectedRunnerDeath(BaseException):
    """Kills a daemon runner thread outright (service-level fault).

    Deliberately a ``BaseException``: the runner loop's ordinary
    failure handling catches ``Exception`` and retries the job, but a
    *crashed runner* must die without cleanup so the supervisor's
    dead-thread reclaim path is what recovers the job — exactly like a
    SIGKILLed process.
    """


def _in_worker() -> bool:
    """Whether we are executing inside a spawned pool worker."""
    return multiprocessing.parent_process() is not None


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    Attributes:
        index: Candidate (spec) index the fault targets.  A
            ``"tiling"`` fault targets the annealing chain of that index
            (``sa[i]`` or ``pt[k]``) and fires on every segment it runs;
            the even split is computed in the parent and cannot be hit.
        kind: One of :data:`FAULT_KINDS`.
        phase: ``"eval"`` (default) or ``"tiling"``.
        attempt: Fire only when the supervised attempt number equals
            this (``None`` = every attempt, i.e. a *permanent* fault).
            The default 0 makes the fault transient: one failure, then
            the retry goes through clean.
        stall_s: Sleep length of a ``"stall"`` inside a pool worker.
            Must exceed the supervisor's ``candidate_timeout_s`` for the
            timeout path to be exercised; the sleep also *ends* in an
            :class:`InjectedFault` so an unsupervised stall still
            resolves instead of hanging forever.
    """

    index: int
    kind: str
    phase: str = "eval"
    attempt: int | None = 0
    stall_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.phase not in FAULT_PHASES:
            raise ValueError(f"unknown fault phase {self.phase!r}")
        if self.kind == "corrupt-result" and self.phase != "eval":
            raise ValueError("corrupt-result faults only apply to the eval phase")
        if self.index < 0:
            raise ValueError("fault index must be >= 0")

    def matches(self, phase: str, index: int, attempt: int) -> bool:
        return (
            self.phase == phase
            and self.index == index
            and (self.attempt is None or self.attempt == attempt)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable, replayable set of injected faults.

    The plan is pure data; :meth:`fire` and :meth:`tamper` are the only
    side-effectful entry points, called from the supervised task
    functions in :mod:`repro.pipeline`.
    """

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def single(cls, index: int, kind: str, **kwargs) -> "FaultPlan":
        """A plan with exactly one fault (the chaos-matrix building block)."""
        return cls(specs=(FaultSpec(index=index, kind=kind, **kwargs),))

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_candidates: int,
        kinds: tuple[str, ...] = FAULT_KINDS,
        rate: float = 1.0,
        stall_s: float = 30.0,
    ) -> "FaultPlan":
        """A reproducible plan: candidate ``i`` draws from its own stream.

        Per-candidate streams come from ``SeedSequence(seed).spawn``-style
        keys ``(seed, i)``, so the plan for candidate ``i`` is independent
        of ``n_candidates`` and of every other candidate — the property
        that makes chaos replays stable when the candidate list grows.
        """
        specs = []
        for i in range(n_candidates):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            )
            if rng.random() >= rate:
                continue
            kind = kinds[int(rng.integers(len(kinds)))]
            specs.append(FaultSpec(index=i, kind=kind, stall_s=stall_s))
        return cls(specs=tuple(specs))

    def spec_for(self, phase: str, index: int, attempt: int) -> FaultSpec | None:
        """The first fault armed for this (phase, candidate, attempt)."""
        for spec in self.specs:
            if spec.matches(phase, index, attempt):
                return spec
        return None

    def fire(self, phase: str, index: int, attempt: int) -> None:
        """Trigger any armed raise/stall/kill fault; corrupt is a no-op here.

        Raises:
            InjectedFault: For ``raise`` faults, inline ``stall``/
                ``kill-worker`` faults, and worker stalls whose sleep
                elapsed without the supervisor cutting them short.
        """
        spec = self.spec_for(phase, index, attempt)
        if spec is None or spec.kind == "corrupt-result":
            return
        where = f"{phase} candidate {index} attempt {attempt}"
        if spec.kind == "raise":
            raise InjectedFault(f"injected raise @ {where}")
        if spec.kind == "stall":
            if _in_worker():
                time.sleep(spec.stall_s)
                raise InjectedFault(
                    f"injected stall elapsed ({spec.stall_s}s) @ {where}"
                )
            raise InjectedFault(f"injected stall (inline) @ {where}")
        # kill-worker: only a pool worker may actually die; the inline
        # path simulates the death as an ordinary retryable failure.
        if _in_worker():
            os._exit(1)
        raise InjectedFault(f"injected worker death (inline) @ {where}")

    def tamper(self, phase: str, index: int, attempt: int, solution):
        """Apply any armed corrupt-result fault to a completed solution.

        The tampering flips the solution trace's fingerprint (and nudges
        its cycle count), which the supervisor's integrity check — the
        expected tiling fingerprint from the dedup barrier — must reject.
        """
        spec = self.spec_for(phase, index, attempt)
        if spec is None or spec.kind != "corrupt-result":
            return solution
        trace = solution.trace
        tampered = replace(
            trace,
            fingerprint="corrupted-by-fault",
            total_cycles=(trace.total_cycles or 0) + 1,
        )
        return replace(solution, trace=tampered)


# ---------------------------------------------------------------------------
# Service-level faults (the `repro serve` chaos harness)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceFaultSpec:
    """One injected *service-level* fault.

    Attributes:
        kind: One of :data:`SERVICE_FAULT_KINDS` —

            * ``"kill-runner"`` — the runner thread dies mid-job
              (:class:`InjectedRunnerDeath`), after the lease is taken
              but before the search runs;
            * ``"torn-journal"`` — a job-journal append writes only a
              prefix of its line, then the journal closes (a crashed
              ``fsync``); the daemon is dead from that point and a
              restart must recover from the last whole line;
            * ``"torn-events"`` — the same torn write, but on the
              service *event log* (``events.jsonl``): the log closes,
              the appending runner dies, and a restart must truncate
              the torn tail and reconcile the missing events from the
              job journal (AD807 must pass afterwards);
            * ``"corrupt-store"`` — a freshly published store object
              gets a byte flipped, which the store's read-path digest
              check must catch (miss, recompute — never a wrong answer);
            * ``"drop-socket"`` — the wire front end closes a connection
              without writing the response (the client's retry path);
            * ``"sigterm"`` — a graceful drain is initiated at the
              injection point, as if SIGTERM arrived mid-flight.
        index: Which *matching arrival* at this kind's injection point
            fires (0 = the first).  Each spec counts its own arrivals.
        attempt: For attempt-aware points (``kill-runner``,
            ``sigterm``): fire only when the job attempt equals this
            (``None`` = every attempt, i.e. a *permanent* fault).  The
            default 1 makes runner kills transient: the first lease
            dies, the reclaimed retry goes through clean.
        op: For ``drop-socket``: fire only on this wire op (``None`` =
            any), so tests can drop a ``submit`` response without
            starving the harness's startup ``ping``.
    """

    kind: str
    index: int = 0
    attempt: int | None = 1
    op: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ValueError(f"unknown service fault kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("fault index must be >= 0")


class ServiceFaultPlan:
    """A thread-safe, deterministic set of service-level faults.

    Unlike :class:`FaultPlan` (pure data shipped to pool workers), a
    service plan lives inside one daemon process and *counts arrivals*
    at each injection point under a lock: :meth:`take` is called at the
    point, and returns the armed spec exactly once — the call both
    checks and consumes the arrival, so concurrent runners see one
    coherent fault schedule.
    """

    def __init__(self, specs: tuple[ServiceFaultSpec, ...] | list = ()) -> None:
        self.specs = tuple(specs)
        self._lock = threading.Lock()
        self._seen = [0] * len(self.specs)
        self._fired = [0] * len(self.specs)

    @classmethod
    def single(cls, kind: str, **kwargs) -> "ServiceFaultPlan":
        """A plan with exactly one fault (the chaos-matrix building block)."""
        return cls(specs=(ServiceFaultSpec(kind=kind, **kwargs),))

    def take(
        self, kind: str, attempt: int | None = None, op: str | None = None
    ) -> ServiceFaultSpec | None:
        """Record one arrival at ``kind``'s injection point; maybe fire.

        Every spec matching ``(kind, attempt, op)`` advances its private
        arrival counter; the first spec whose counter equals its
        ``index`` fires.  Deterministic given a deterministic arrival
        order (which single-job chaos scenarios guarantee).
        """
        with self._lock:
            fired: ServiceFaultSpec | None = None
            for i, spec in enumerate(self.specs):
                if spec.kind != kind:
                    continue
                if spec.op is not None and spec.op != op:
                    continue
                if (
                    spec.attempt is not None
                    and attempt is not None
                    and spec.attempt != attempt
                ):
                    continue
                seen = self._seen[i]
                self._seen[i] = seen + 1
                if seen == spec.index and fired is None:
                    fired = spec
                    self._fired[i] += 1
            return fired

    def torn_append(self, kind: str, path: str) -> InjectedRunnerDeath | None:
        """One arrival at a torn-write point (``torn-journal``,
        ``torn-events``), as a :class:`~repro.journal.Journal` ``tear``
        hook: the death the torn append raises if it fires, else None."""
        if self.take(kind) is None:
            return None
        return InjectedRunnerDeath(f"injected {kind}: torn append to {path}")

    def fired_count(self, kind: str | None = None) -> int:
        """How many faults have fired (of one kind, or in total)."""
        with self._lock:
            return sum(
                n
                for spec, n in zip(self.specs, self._fired)
                if kind is None or spec.kind == kind
            )
