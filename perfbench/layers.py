"""Outside-in layer trace: timed wrappers around each layer's entry points.

The traced run installs :func:`traced` wrappers on the public entry
point of every layer (the stage ``run`` methods, ``SearchContext.build_dag``,
``CostKernel.price_regions``, the service's store/journal/event-log/
session/client calls, ...).  Each wrapper calls the original and records
one :class:`Span` plus the counters the program already hands back
(``GenerationResult.iterations``, ``RunResult.num_rounds``, ...); none
of it feeds back into a decision, so a traced run decides bit-identically
to an untraced one.  Untraced runs never install anything.

Self time partitions the traced wall: every instant belongs to the
deepest layer with a span open at that instant (:data:`DEPTH`), so a
layer's self time is its spans minus what inner layers cover —
``engine.batch`` nested inside tiling, DAG build or validation is
subtracted from them — and the self times plus the uncovered remainder
(``pipeline.other_s``) add up to the wall exactly.  The daemon's
handler and runner threads run while the one client thread waits, so
the same rule also splits a request's round trip between the client
and the server-side layers that ran during it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Nesting depth of each layer; an instant goes to the deepest open span.
DEPTH = {
    "service.client": 0,
    "fingerprint": 1,
    "service.store": 1,
    "service.jobs": 1,
    "service.events": 1,
    "service.session": 1,
    "atoms.generation": 2,
    "atoms.dag": 2,
    "scheduling": 2,
    "mapping": 2,
    "sim": 2,
    "engine.batch": 3,
}

#: ``(name, unit)`` of every per-layer metric a traced run reports.
PER_LAYER = (
    ("atoms.generation.self_s", "s"),
    ("atoms.generation.iterations", "count"),
    ("search.tempering.swap_accept_ratio", "ratio"),
    ("atoms.dag.self_s", "s"),
    ("atoms.dag.atoms", "count"),
    ("scheduling.self_s", "s"),
    ("scheduling.rounds", "count"),
    ("mapping.self_s", "s"),
    ("sim.self_s", "s"),
    ("sim.rounds", "count"),
    ("engine.batch.self_s", "s"),
    ("engine.batch.calls", "count"),
    ("engine.batch.rows", "count"),
    ("pipeline.evaluated", "count"),
    ("pipeline.evaluated_ratio", "ratio"),
    ("pipeline.other_s", "s"),
    ("fingerprint.self_ms", "ms"),
    ("fingerprint.calls", "count"),
    ("service.store.self_s", "s"),
    ("service.store.get_ms", "ms"),
    ("service.store.put_ms", "ms"),
    ("service.store.hit_ratio", "ratio"),
    ("service.jobs.self_s", "s"),
    ("service.jobs.append_ms", "ms"),
    ("service.jobs.appends_per_req", "1/req"),
    ("service.events.self_s", "s"),
    ("service.events.append_ms", "ms"),
    ("service.events.appends_per_req", "1/req"),
    ("service.session.self_s", "s"),
    ("service.session.hit_ratio", "ratio"),
    ("service.session.compile_s", "s"),
    ("service.daemon.queue_wait_ms", "ms"),
    ("service.daemon.lease_hold_s", "s"),
    ("service.client.self_s", "s"),
    ("service.client.rtt_ms", "ms"),
    ("service.client.polls_per_cold", "1/req"),
    ("host.probe_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: Program timers (``SearchStats`` fields) and the wrapped calls that sit
#: at the same boundaries; a traced run checks that they agree.
STATS_BOUNDARIES = {
    "dag_seconds": ("atoms.dag",),
    "schedule_seconds": ("scheduling.dp", "scheduling.ls"),
    "mapping_seconds": ("mapping",),
    "sim_seconds": ("sim",),
}


@dataclass(frozen=True)
class Span:
    """One wrapped call: its layer, the call it wraps, and its interval."""

    layer: str
    op: str
    start: float
    end: float


@dataclass
class Recorder:
    """Spans, per-call durations and counters of one traced unit."""

    spans: list[Span] = field(default_factory=list)
    durations: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    counts: Counter = field(default_factory=Counter)
    outcomes: list[Any] = field(default_factory=list)

    def wrap(
        self,
        fn: Callable,
        layer: str | None,
        op: str,
        on_result: Callable[["Recorder", Any, tuple], None] | None,
    ) -> Callable:
        """``fn`` timed as ``op`` (a span of ``layer`` unless None)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if layer is not None:
                    self.spans.append(Span(layer, op, t0, t1))
                self.durations[op].append(t1 - t0)
            if on_result is not None:
                on_result(self, result, args)
            return result

        return wrapper


def _count(name: str, of: Callable[[Any], float]) -> Callable:
    """A hook adding ``of(result)`` to counter ``name``."""

    def hook(rec: Recorder, result: Any, args: tuple) -> None:
        rec.counts[name] += of(result)

    return hook


def _count_tempering(rec: Recorder, outcome: Any, args: tuple) -> None:
    rec.counts["atoms.generation.iterations"] += sum(
        r.iterations for r in outcome.results
    )


def _keep_outcome(rec: Recorder, outcome: Any, args: tuple) -> None:
    rec.outcomes.append(outcome)


def _patch_table() -> list[tuple[Any, str, str | None, str, Callable | None]]:
    """``(owner, attribute, layer, op, on_result)`` per wrapped entry point.

    ``run_tempering`` and ``request_fingerprint`` are patched where the
    pipeline and ``CompileRequest.fingerprint`` look them up.
    ``AtomGenerator.generate_sa`` only contributes its iteration count:
    it runs inside ``SATilingStage.run``, which carries the span.
    """
    import repro.pipeline as pipeline
    import repro.service.request as request
    from repro.atoms.generation import AtomGenerator
    from repro.engine.batch import CostKernel
    from repro.service.client import ServeClient
    from repro.service.events import EventLog
    from repro.service.jobs import JobJournal
    from repro.service.session import CompileSession, SessionManager
    from repro.service.store import SolutionStore

    rounds = _count("scheduling.rounds", lambda r: r[0].num_rounds)
    return [
        (pipeline.SATilingStage, "run", "atoms.generation", "atoms.generation", None),
        (pipeline, "run_tempering", "atoms.generation", "atoms.generation",
         _count_tempering),
        (AtomGenerator, "generate_sa", None, "atoms.generation.sa",
         _count("atoms.generation.iterations", lambda r: r.iterations)),
        (pipeline.SearchContext, "build_dag", "atoms.dag", "atoms.dag",
         _count("atoms.dag.atoms", lambda r: r.num_atoms)),
        (pipeline.DPSchedulingStage, "run", "scheduling", "scheduling.dp", rounds),
        (pipeline.LayerSequentialSchedulingStage, "run", "scheduling",
         "scheduling.ls", rounds),
        (pipeline.TransferCostMappingStage, "run", "mapping", "mapping", None),
        (pipeline.SimulationEvaluationStage, "run", "sim", "sim",
         _count("sim.rounds", lambda r: r.num_rounds)),
        (CostKernel, "price_regions", "engine.batch", "engine.batch",
         _count("engine.batch.rows", len)),
        (request, "request_fingerprint", "fingerprint", "fingerprint", None),
        (SolutionStore, "get", "service.store", "service.store.get",
         _count("service.store.hits", lambda r: r is not None)),
        (SolutionStore, "put", "service.store", "service.store.put", None),
        (JobJournal, "record", "service.jobs", "service.jobs.append", None),
        (EventLog, "append", "service.events", "service.events.append", None),
        (SessionManager, "acquire", "service.session", "service.session.acquire",
         None),
        (CompileSession, "optimize", "service.session", "service.session.compile",
         _keep_outcome),
        (ServeClient, "call", "service.client", "service.client.call",
         lambda rec, r, a: rec.counts.update([f"service.client.{a[1]}"])),
    ]


@contextmanager
def traced(rec: Recorder) -> Iterator[Recorder]:
    """Install every wrapper for the ``with`` block, then restore."""
    installed: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, layer, op, hook in _patch_table():
            original = vars(owner)[attr]  # defined on the owner itself
            setattr(owner, attr, rec.wrap(original, layer, op, hook))
            installed.append((owner, attr, original))
        yield rec
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def self_times(
    spans: list[Span], window: tuple[float, float] | None = None
) -> dict[str, float]:
    """Per-layer self seconds: each instant to the deepest open span.

    Spans are clipped to ``window`` when one is given.  Ties at equal
    depth go to the later-started span, which on one thread is the
    inner one.
    """
    events: list[tuple[float, int, int]] = []
    for i, span in enumerate(spans):
        start, end = span.start, span.end
        if window is not None:
            start, end = max(start, window[0]), min(end, window[1])
        if end > start:
            events.append((start, 1, i))
            events.append((end, 0, i))
    events.sort()  # at equal times, closes (0) sort before opens (1)
    totals: dict[str, float] = defaultdict(float)
    active: set[int] = set()
    prev = 0.0
    for t, opens, i in events:
        if active and t > prev:
            owner = max(
                active, key=lambda j: (DEPTH[spans[j].layer], spans[j].start, j)
            )
            totals[spans[owner].layer] += t - prev
        if opens:
            active.add(i)
        else:
            active.discard(i)
        prev = t
    return dict(totals)


def stats_agreement(rec: Recorder, stats: list[Any]) -> list[str]:
    """Disagreements between wrapped-call totals and ``SearchStats``.

    The program's stage timers enclose the wrapped calls, so each pair
    may differ only by call overhead: 1 ms plus 1% of the stage.
    """
    problems = []
    for attr, ops in STATS_BOUNDARIES.items():
        program = sum(getattr(s, attr) for s in stats)
        wrapped = sum(sum(rec.durations.get(op, ())) for op in ops)
        if abs(program - wrapped) > 1e-3 + 0.01 * program:
            problems.append(
                f"SearchStats.{attr}={program:.4f}s but wrapped "
                f"{'+'.join(ops)}={wrapped:.4f}s"
            )
    return problems


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _latency_mean(before: dict, after: dict, name: str) -> float:
    """Mean of one daemon latency histogram over the measured window."""
    b, a = before.get(name, {}), after.get(name, {})
    count = a.get("count", 0.0) - b.get("count", 0.0)
    total = a.get("count", 0.0) * a.get("mean", 0.0) - b.get(
        "count", 0.0
    ) * b.get("mean", 0.0)
    return _ratio(total, count)


def layer_metrics(
    rec: Recorder,
    window: tuple[float, float],
    outcomes: list[Any],
    requests: int,
    colds: int,
    daemon: tuple[dict, dict],
    untraced_wall: float,
    probe_ms: float,
) -> dict[str, float]:
    """Fold one traced unit into the :data:`PER_LAYER` metrics.

    Args:
        rec: The unit's recorder.
        window: The unit's measured interval (``perf_counter`` seconds).
        outcomes: Every ``OptimizationOutcome`` the unit produced.
        requests: Requests the unit's client completed.
        colds: Of those, requests answered by a search.
        daemon: The daemon's ``stats`` op before and after the unit.
        untraced_wall: Wall of the same unit without wrappers.
        probe_ms: The run's host probe.
    """
    wall = window[1] - window[0]
    own = self_times(rec.spans, window)
    stats = [o.search_stats for o in outcomes]
    traces = [t for o in outcomes for t in o.traces]
    d = rec.durations
    stats_before, stats_after = daemon
    counters_delta = Counter(stats_after.get("counters", {}))
    counters_delta.subtract(stats_before.get("counters", {}))
    lat_before = stats_before.get("latency", {})
    lat_after = stats_after.get("latency", {})
    evaluated = sum(s.evaluated for s in stats)
    return {
        "atoms.generation.self_s": own.get("atoms.generation", 0.0),
        "atoms.generation.iterations": rec.counts["atoms.generation.iterations"],
        "search.tempering.swap_accept_ratio": _ratio(
            sum(t.swaps_accepted for t in traces),
            sum(t.swaps_proposed for t in traces),
        ),
        "atoms.dag.self_s": own.get("atoms.dag", 0.0),
        "atoms.dag.atoms": rec.counts["atoms.dag.atoms"],
        "scheduling.self_s": own.get("scheduling", 0.0),
        "scheduling.rounds": rec.counts["scheduling.rounds"],
        "mapping.self_s": own.get("mapping", 0.0),
        "sim.self_s": own.get("sim", 0.0),
        "sim.rounds": rec.counts["sim.rounds"],
        "engine.batch.self_s": own.get("engine.batch", 0.0),
        "engine.batch.calls": len(d["engine.batch"]),
        "engine.batch.rows": rec.counts["engine.batch.rows"],
        "pipeline.evaluated": evaluated,
        "pipeline.evaluated_ratio": _ratio(
            evaluated, sum(s.candidates for s in stats)
        ),
        "pipeline.other_s": wall - sum(own.values()),
        "fingerprint.self_ms": own.get("fingerprint", 0.0) * 1e3,
        "fingerprint.calls": len(d["fingerprint"]),
        "service.store.self_s": own.get("service.store", 0.0),
        "service.store.get_ms": _mean(d["service.store.get"]) * 1e3,
        "service.store.put_ms": _mean(d["service.store.put"]) * 1e3,
        "service.store.hit_ratio": _ratio(
            rec.counts["service.store.hits"], len(d["service.store.get"])
        ),
        "service.jobs.self_s": own.get("service.jobs", 0.0),
        "service.jobs.append_ms": _mean(d["service.jobs.append"]) * 1e3,
        "service.jobs.appends_per_req": _ratio(
            len(d["service.jobs.append"]), requests
        ),
        "service.events.self_s": own.get("service.events", 0.0),
        "service.events.append_ms": _mean(d["service.events.append"]) * 1e3,
        "service.events.appends_per_req": _ratio(
            len(d["service.events.append"]), requests
        ),
        "service.session.self_s": own.get("service.session", 0.0),
        "service.session.hit_ratio": _ratio(
            counters_delta["session.hits"],
            counters_delta["session.hits"] + counters_delta["session.misses"],
        ),
        "service.session.compile_s": _mean(d["service.session.compile"]),
        "service.daemon.queue_wait_ms": _latency_mean(
            lat_before, lat_after, "queue_wait"
        ) * 1e3,
        "service.daemon.lease_hold_s": _latency_mean(
            lat_before, lat_after, "lease_hold"
        ),
        "service.client.self_s": own.get("service.client", 0.0),
        "service.client.rtt_ms": _mean(d["service.client.call"]) * 1e3,
        "service.client.polls_per_cold": _ratio(
            rec.counts["service.client.status"], colds
        ),
        "host.probe_ms": probe_ms,
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / untraced_wall - 1.0,
    }
