"""Warm compile sessions: reusable contexts and worker pools.

A cold ``repro optimize`` pays three request-independent costs every
invocation: building the :class:`~repro.pipeline.SearchContext` (graph
fusion, cost-kernel statics, mesh tables), spawning the worker pool, and
warming the memoized engine cost model.  A :class:`CompileSession` keeps
all three alive between requests; :class:`SessionManager` is the LRU pool
of sessions the daemon routes requests through.

Reuse is decision-safe by construction: worker state is exactly the
``(ctx, profile)`` pair (everything request-specific rides in task
payloads — see :mod:`repro.pipeline`), and the memoized cost model
caches pure functions of ``(layer, arch)``, so a warm second search is
bit-identical to a cold one.  The determinism test suite pins this.
"""

from __future__ import annotations

import threading

from repro.config import ArchConfig
from repro.framework import AtomicDataflowOptimizer, OptimizationOutcome, OptimizerOptions
from repro.ir.graph import Graph
from repro.obs.metrics import get_registry
from repro.pipeline import ContextCache, SearchContext
from repro.resilience.executor import ResilientExecutor, make_search_executor


class CompileSession:
    """One warm context plus its executors, reusable across searches.

    A session is bound to one ``(graph, arch, dataflow, batch)`` — the
    same key that identifies its context in the
    :class:`~repro.pipeline.ContextCache`.  Executors are created per
    distinct ``jobs`` count on first use and live until :meth:`close`;
    the session owns their shutdown (StagedSearch never shuts down an
    executor it was handed).
    """

    def __init__(self, graph: Graph, arch: ArchConfig, ctx: SearchContext) -> None:
        self.graph = graph
        self.arch = arch
        self.ctx = ctx
        self.searches_run = 0
        self.busy = False  # owned by SessionManager, mutated under its lock
        self._executors: dict[int, ResilientExecutor] = {}
        self._closed = False

    def executor(self, jobs: int) -> ResilientExecutor:
        """The warm executor for a ``jobs`` count, spawning on first use."""
        if self._closed:
            raise RuntimeError("session is closed")
        executor = self._executors.get(jobs)
        if executor is None:
            executor = make_search_executor(self.ctx, jobs=jobs)
            self._executors[jobs] = executor
        return executor

    def optimize(
        self, options: OptimizerOptions, strategy_label: str = "AD"
    ) -> OptimizationOutcome:
        """Run one search on the warm context and pool.

        ``options.dataflow`` / ``options.batch`` must match what the
        session was built for (the daemon guarantees this by routing on
        the context key).
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if (options.dataflow, options.batch) != (
            self.ctx.dataflow,
            self.ctx.batch,
        ):
            raise ValueError(
                f"session is warm for dataflow={self.ctx.dataflow!r} "
                f"batch={self.ctx.batch}, request wants "
                f"dataflow={options.dataflow!r} batch={options.batch}"
            )
        optimizer = AtomicDataflowOptimizer(
            self.graph,
            self.arch,
            options,
            context=self.ctx,
            executor=self.executor(options.jobs),
        )
        outcome = optimizer.optimize(strategy_label=strategy_label)
        self.searches_run += 1
        get_registry().counter("session.searches").inc()
        return outcome

    def close(self) -> None:
        """Shut down every pool this session spawned."""
        self._closed = True
        executors, self._executors = self._executors, {}
        for executor in executors.values():
            executor.shutdown()


class SessionManager:
    """Thread-safe LRU pool of warm sessions, sharing one context cache.

    Sessions are keyed by :meth:`ContextCache.key_for` — ``(graph
    fingerprint, arch fingerprint, dataflow, batch)``.  Eviction closes
    the evicted session's pools; its context may survive in the
    (larger) context cache and re-warm a future session cheaply.

    Concurrent runners check sessions out with :meth:`acquire` /
    :meth:`release`: a checked-out (busy) session is never handed to a
    second runner and never evicted.  When the warm session for a key is
    busy, acquire builds an *overflow* session for the same context —
    two runners searching the same workload overlap safely — and release
    either promotes it into the warm pool (if the slot freed up) or
    closes it.

    Args:
        capacity: Live sessions kept warm (pools are the scarce
            resource — each holds worker processes).
        context_capacity: Entries in the shared context cache.
    """

    def __init__(self, capacity: int = 4, context_capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.contexts = ContextCache(capacity=context_capacity)
        self._lock = threading.RLock()
        self._sessions: dict[tuple, CompileSession] = {}
        self._loaned: list[CompileSession] = []
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    @staticmethod
    def _key(session: CompileSession) -> tuple:
        return ContextCache.key_for(
            session.graph, session.arch, session.ctx.dataflow, session.ctx.batch
        )

    def _build(
        self, graph: Graph, arch: ArchConfig, options: OptimizerOptions
    ) -> CompileSession:
        ctx = self.contexts.get(graph, arch, options.dataflow, options.batch)
        return CompileSession(graph, arch, ctx)

    def _evict_idle(self) -> None:
        registry = get_registry()
        while len(self._sessions) > self.capacity:
            oldest = next(
                (k for k, s in self._sessions.items() if not s.busy), None
            )
            if oldest is None:
                return  # every warm session is checked out; over-capacity is transient
            self._sessions.pop(oldest).close()
            registry.counter("session.evictions").inc()

    def acquire(
        self, graph: Graph, arch: ArchConfig, options: OptimizerOptions
    ) -> CompileSession:
        """Check out a session for exclusive use by one runner."""
        with self._lock:
            if self._closed:
                raise RuntimeError("session manager is closed")
            registry = get_registry()
            key = ContextCache.key_for(graph, arch, options.dataflow, options.batch)
            session = self._sessions.pop(key, None)
            if session is not None and not session.busy:
                self._sessions[key] = session  # re-insert: most recently used
                session.busy = True
                self._loaned.append(session)
                registry.counter("session.hits").inc()
                return session
            if session is not None:
                self._sessions[key] = session  # warm one is busy: overflow
                registry.counter("session.overflow").inc()
            else:
                registry.counter("session.misses").inc()
            fresh = self._build(graph, arch, options)
            fresh.busy = True
            self._loaned.append(fresh)
            if key not in self._sessions:
                self._sessions[key] = fresh
                self._evict_idle()
            return fresh

    def release(self, session: CompileSession) -> None:
        """Return a checked-out session to the pool (idempotent)."""
        with self._lock:
            session.busy = False
            if session in self._loaned:
                self._loaned.remove(session)
            if self._closed:
                session.close()
                return
            key = self._key(session)
            pooled = self._sessions.get(key)
            if pooled is session:
                self._evict_idle()
                return
            if pooled is None:
                self._sessions[key] = session  # promote the overflow session
                self._evict_idle()
                return
            session.close()  # the key's warm slot is taken; drop the overflow

    def close(self) -> None:
        """Close every session and drop every context (idempotent)."""
        with self._lock:
            self._closed = True
            sessions, self._sessions = self._sessions, {}
            loaned, self._loaned = self._loaned, []
            for session in sessions.values():
                session.close()
            for session in loaned:
                if session not in sessions.values():
                    session.close()
            self.contexts.clear()


__all__ = ["CompileSession", "SessionManager"]
