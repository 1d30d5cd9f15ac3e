"""One seeded violation per analysis rule, and the ``--self-check`` loop.

:data:`CASES` holds one row ``(rule, label, build)`` for every rule in
:func:`~repro.analysis.diagnostics.all_rules`.  ``build`` seeds the
rule's violation into a corrupted copy of the shared :class:`Artifacts`
(or, for the lint rules, into a one-rule module) and returns the report
of the checker that guards it, which must fire exactly ``{rule}``.

The AD101-AD105 rows seed :data:`DAG_CORRUPTIONS` onto the winner's
CSR arrays; the property tests seed the same corruptions onto generated
DAGs.

The artifacts are built once per process (:func:`shared_artifacts`): a
``vgg19_bench`` search on a 4x4 mesh with its checkpoint journal and
simulator timeline, a 3-rung tempering journal, a store directory
published through Tier A, and synthetic job journal, event log, job
trace and admission snapshot.  They are themselves clean
(:func:`clean_reports`), and a row that writes a file writes a fresh one.

Tier-1 runs every row and clean leg (``tests/analysis/test_selfcheck.py``);
``python -m repro.analysis --self-check``, the CI gate, is
:func:`run_self_check`: the same clean legs and rows plus the Tier-C
pass over the installed ``repro`` tree.
"""

from __future__ import annotations

import functools
import json
import shutil
import tempfile
import textwrap
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

import repro
from repro.analysis.artifacts import validate_artifacts, validate_outcome
from repro.analysis.buffer_rules import check_buffering
from repro.analysis.dag_rules import check_dag
from repro.analysis.diagnostics import Report
from repro.analysis.lint import lint_paths, lint_source
from repro.analysis.resilience_rules import (
    check_checkpoint_journal,
    check_resilience_traces,
)
from repro.analysis.service_rules import (
    check_admission_accounting,
    check_event_log,
    check_job_journal,
    check_job_leases,
    check_store,
    check_trace_file,
)
from repro.analysis.static import run_static_analysis
from repro.analysis.tempering_rules import (
    check_tempering_journal,
    check_tempering_records,
)
from repro.analysis.timeline_rules import check_timeline
from repro.analysis.trace_rules import check_search_trace
from repro.atoms.dag import AtomicDAG, csr_rows, row_owners
from repro.atoms.generation import SAParams
from repro.buffering.policy import BufferPolicy, Eviction
from repro.config import ArchConfig
from repro.fingerprint import request_fingerprint
from repro.framework import (
    AtomicDataflowOptimizer,
    OptimizationOutcome,
    OptimizerOptions,
)
from repro.metrics import RunResult
from repro.models import get_model
from repro.obs.tracer import SpanRecord
from repro.scheduling.rounds import Round, Schedule
from repro.serialize import solution_to_dict
from repro.service.events import (
    TRACE_FORMAT,
    TRACE_VERSION,
    EventLog,
    expected_events,
)
from repro.service.jobs import JobJournal, JobRecord
from repro.service.store import SolutionStore
from repro.sim import SimTimeline, simulate_timeline

_PACKAGE = Path(repro.__file__).parent
_TRACE_ID = "tr-selfcheck01"
_LEASE_1 = {"runner_id": "runner-1", "lease_seq": 1, "attempt": 1}
_LEASE_2 = {"runner_id": "runner-2", "lease_seq": 2, "attempt": 2}
_LEASE_3 = {"runner_id": "runner-1", "lease_seq": 3, "attempt": 3}
#: A job's clean lifecycle: lease, crash requeue, re-lease, done.
_RETRIED = (
    ("queued", {}),
    ("running", _LEASE_1),
    ("queued", {"lease_seq": 1, "attempt": 1}),
    ("running", _LEASE_2),
    ("done", {**_LEASE_2, "total_cycles": 1000}),
)
#: A consistent admission snapshot and the live job table behind it.
_ADMISSION = (
    {
        "max_queue_depth": 4,
        "default_quota": 2,
        "quotas": {},
        "in_flight": {"ci": 1},
        "total_in_flight": 1,
    },
    {"job-000002": {"state": "queued", "tenant": "ci"}},
)


def _span(
    name: str, start: float, dur: float, sid: int, parent: int,
    pid: int = 1000, **args: str,
) -> SpanRecord:
    return SpanRecord(
        name=name, category="service", start_us=start, duration_us=dur,
        pid=pid, tid=1, span_id=sid, parent_id=parent,
        args=tuple(sorted(args.items())),
    )


#: A well-formed job trace: one root, nested windows, a worker's forest.
_TREE = (
    _span("service.job", 0.0, 1000.0, 1, 0, trace=_TRACE_ID),
    _span("service.queue_wait", 10.0, 90.0, 2, 1),
    _span("service.lease", 100.0, 800.0, 3, 1),
    _span("search.pipeline", 150.0, 700.0, 4, 3),
    _span("stage.sim", 200.0, 100.0, 1, 0, pid=2000),
)


@dataclass(frozen=True)
class Artifacts:
    """The shared artifacts every row corrupts a copy of.

    Attributes:
        root: Temporary directory holding every file below; removed when
            the owning ``TemporaryDirectory`` (``keep``) is collected.
        outcome: The ``restarts=2`` search; ``dag``, ``schedule`` and
            ``placement`` are its winner's.
        result / timeline: ``simulate_timeline`` of the winner.
        checkpoint / tempering: The search's checkpoint journal and a
            3-rung tempering search's segment journal.
        store: Store directory holding the winner, published through Tier A.
        jobs / events / trace: Job journal of :data:`_RETRIED`, its event
            log, and a job trace document of :data:`_TREE`.
    """

    keep: tempfile.TemporaryDirectory[str]
    root: Path
    arch: ArchConfig
    outcome: OptimizationOutcome
    dag: AtomicDAG
    schedule: Schedule
    placement: dict[int, int]
    result: RunResult
    timeline: SimTimeline
    checkpoint: Path
    tempering: Path
    store: Path
    jobs: Path
    events: Path
    trace: Path

    def fresh(self, name: str) -> Path:
        """A file path in a new directory, for a row that writes a file."""
        return Path(tempfile.mkdtemp(dir=self.root)) / name


def _write_jobs(path: Path, events) -> Path:
    journal = JobJournal(path)
    journal.open(header_extras={"max_attempts": 2})
    for state, fields in events:
        journal.record(state, JobRecord(
            job_id="job-000001", fingerprint="ab" * 32, model="vgg19_bench",
            tenant="ci", trace_id=_TRACE_ID, state=state, **fields,
        ))
    journal.close()
    return path


def _write_events(path: Path, jobs: Path, drop: str = "") -> Path:
    """The event log ``jobs`` implies, without events of kind ``drop``."""
    log = EventLog(path)
    log.open()
    for job_id, entries in sorted(expected_events(jobs).items()):
        for e in entries:
            if e["kind"] != drop:
                log.append(
                    e["kind"], job_id, trace_id=e["trace_id"], state=e["state"]
                )
    log.close()
    return path


def _write_trace(path: Path, spans) -> Path:
    path.write_text(json.dumps({
        "format": TRACE_FORMAT, "version": TRACE_VERSION,
        "job_id": "job-000001", "trace_id": _TRACE_ID, "root_pid": 1000,
        "spans": [s.to_dict() for s in spans],
    }, sort_keys=True), encoding="utf-8")
    return path


@functools.lru_cache(maxsize=1)
def shared_artifacts() -> Artifacts:
    """Build the shared artifacts (once per process)."""
    keep = tempfile.TemporaryDirectory(prefix="repro-selfcheck-")
    root = Path(keep.name)
    checkpoint, tempering = root / "checkpoint.jsonl", root / "tempering.jsonl"
    arch = ArchConfig(mesh_rows=4, mesh_cols=4)
    graph = get_model("vgg19_bench")
    options = OptimizerOptions(
        sa_params=SAParams(max_iterations=12), restarts=2, seed=0
    )
    outcome = AtomicDataflowOptimizer(
        graph, arch, replace(options, checkpoint=str(checkpoint))
    ).optimize()
    AtomicDataflowOptimizer(graph, arch, replace(
        options, restarts=1, rungs=3, exchange_every=4,
        checkpoint=str(tempering),
    )).optimize()
    result, timeline = simulate_timeline(
        arch, outcome.dag, outcome.schedule, outcome.placement,
        strategy=outcome.result.strategy,
    )
    SolutionStore(root / "store").put(
        request_fingerprint(graph, arch, options),
        solution_to_dict(outcome, options.dataflow, include_search=False),
        graph=graph,
        arch=arch,
    )
    jobs = _write_jobs(root / "jobs.jsonl", _RETRIED)
    return Artifacts(
        keep=keep, root=root, arch=arch, outcome=outcome, dag=outcome.dag,
        schedule=outcome.schedule, placement=outcome.placement,
        result=result, timeline=timeline, checkpoint=checkpoint,
        tempering=tempering, store=root / "store", jobs=jobs,
        events=_write_events(root / "events.jsonl", jobs),
        trace=_write_trace(root / "trace.json", _TREE),
    )


def _patched(seq, index: int, value) -> list:
    """A copy of ``seq`` with ``seq[index]`` replaced by ``value``."""
    out = list(seq)
    out[index] = value
    return out


def _validate(a: Artifacts, schedule=None, placement=None, **kw) -> Report:
    """Tier A over the winner with its schedule or placement replaced."""
    return validate_artifacts(
        a.dag, schedule or a.schedule, placement or a.placement,
        arch=a.arch, **kw,
    )


def with_edges(
    dag: AtomicDAG,
    producers: np.ndarray,
    consumers: np.ndarray,
    nbytes: np.ndarray,
) -> AtomicDAG:
    """A copy of ``dag`` whose two CSR sides hold exactly these edges."""
    n = dag.num_atoms
    pred_ptr, pred_ids, pred_bytes = csr_rows(consumers, producers, nbytes, n)
    succ_ptr, succ_ids, succ_bytes = csr_rows(producers, consumers, nbytes, n)
    return replace(
        dag, pred_ptr=pred_ptr, pred_ids=pred_ids, pred_bytes=pred_bytes,
        succ_ptr=succ_ptr, succ_ids=succ_ids, succ_bytes=succ_bytes,
    )


def _longer_pred_ptr(dag: AtomicDAG) -> AtomicDAG:
    return replace(dag, pred_ptr=np.append(dag.pred_ptr, dag.pred_ptr[-1]))


def _succ_only_edge(dag: AtomicDAG) -> AtomicDAG:
    """The succ side gains an edge from the first atom to the last."""
    n = dag.num_atoms
    succ_ptr, succ_ids, succ_bytes = csr_rows(
        np.append(row_owners(dag.succ_ptr), 0),
        np.append(dag.succ_ids, n - 1),
        np.append(dag.succ_bytes, 1),
        n,
    )
    return replace(
        dag, succ_ptr=succ_ptr, succ_ids=succ_ids, succ_bytes=succ_bytes
    )


def _reversed_edge(dag: AtomicDAG) -> AtomicDAG:
    """Sample 0's first edge gains its reverse, in every sample alike."""
    consumers = row_owners(dag.pred_ptr)
    producer, consumer = int(dag.pred_ids[0]), int(consumers[0])
    shift = np.arange(dag.batch, dtype=np.int64) * (dag.num_atoms // dag.batch)
    return with_edges(
        dag,
        np.append(dag.pred_ids, consumer + shift),
        np.append(consumers, producer + shift),
        np.append(dag.pred_bytes, np.ones(dag.batch, dtype=np.int64)),
    )


def _unequal_payload(dag: AtomicDAG) -> AtomicDAG:
    succ_bytes = dag.succ_bytes.copy()
    succ_bytes[0] += 1
    return replace(dag, succ_bytes=succ_bytes)


#: DAG rule -> a corruption of any clean DAG with an edge that fires
#: exactly that rule.  The arrays are the only edge representation, so
#: every corruption lands on them.
DAG_CORRUPTIONS: dict[str, tuple[str, Callable[[AtomicDAG], AtomicDAG]]] = {
    "AD101": ("pred_ptr one entry longer than the atoms", _longer_pred_ptr),
    "AD102": ("succ edge without its pred", _succ_only_edge),
    "AD103": ("reversed edge closes a cycle", _reversed_edge),
    "AD104": ("succ side carries a different payload", _unequal_payload),
    "AD105": ("batch claims one more sample than it replicates",
              lambda dag: replace(dag, batch=dag.batch + 1)),
}


def _uncovered(a: Artifacts) -> Report:
    """One layer's grid loses its last tile."""
    layer, grid = next(iter(a.dag.grids.items()))
    short = SimpleNamespace(shape=grid.shape, regions=lambda: grid.regions()[:-1])
    return check_dag(replace(a.dag, grids={**a.dag.grids, layer: short}))


def _swapped(a: Artifacts) -> Report:
    """Rounds 0 and 1 trade places, keeping every Round's width."""
    r0, r1, *rest = a.schedule.rounds
    return _validate(a, Schedule(rounds=[
        Round(0, r1.atom_indices), Round(1, r0.atom_indices), *rest
    ]))


def _shared_engine(a: Artifacts) -> Report:
    first, second = a.schedule.rounds[0].atom_indices[:2]
    return _validate(a, placement={**a.placement, second: a.placement[first]})


class _UnderFreeing(BufferPolicy):
    """Algorithm 3 that never evicts, so stores overflow."""

    def make_room(self, buffer, needed_bytes, t0):
        return []


class _Flushing(BufferPolicy):
    """Algorithm 3 that empties the buffer before every store."""

    def make_room(self, buffer, needed_bytes, t0):
        return [
            Eviction(key, buffer.release(key), 0) for key in list(buffer.keys())
        ]


def _buffering(a: Artifacts, capacity: int, policy=None) -> Report:
    return check_buffering(
        a.dag, a.schedule, a.placement, a.arch.num_engines, capacity,
        policy=policy and policy(a.dag, a.schedule),
    )


def _tampered_checkpoint(a: Artifacts) -> Report:
    """Record 1's fingerprint no longer matches its embedded trace."""
    lines = a.checkpoint.read_text().splitlines()
    lines[1] = lines[1].replace('"fingerprint": "', '"fingerprint": "bad-', 1)
    path = a.fresh("checkpoint.jsonl")
    path.write_text("\n".join(lines) + "\n")
    return check_checkpoint_journal(path)


def _non_neighbor_swap(a: Artifacts) -> Report:
    docs = [json.loads(line) for line in a.tempering.read_text().splitlines()]
    segments = [d for d in docs if d.get("kind") == "pt-segment"]
    swap = segments[0]["exchanges"][0]
    swap["upper"] = swap["lower"] + 2
    return check_tempering_records(segments)


def _corrupted_store(a: Artifacts) -> Report:
    """Flip one byte of the stored solution object."""
    root = a.fresh("store")
    shutil.copytree(a.store, root)
    [obj] = (root / "objects").iterdir()
    data = bytearray(obj.read_bytes())
    data[len(data) // 2] ^= 0xFF
    obj.write_bytes(bytes(data))
    return check_store(root)


def _leases(a: Artifacts, events) -> Report:
    return check_job_leases(_write_jobs(a.fresh("jobs.jsonl"), events))


def _lint(source: str, a: Artifacts) -> Report:
    return lint_source(source, "seeded.py")


def _static(source: str, a: Artifacts) -> Report:
    path = a.fresh("seeded.py")
    path.write_text(textwrap.dedent(source).lstrip())
    return run_static_analysis([path]).report


_FUTURE = "from __future__ import annotations\n\n"

#: Tier-B rule -> (label, module seeding only that rule).
_LINT_SNIPPETS = {
    "LINT001": ("float literal equality",
                _FUTURE + "def check(cost):\n    return cost == 1.5\n"),
    "LINT002": ("DAG flat array assignment",
                _FUTURE + "def wipe(dag):\n    dag.pred_ids[0] = 0\n"),
    "LINT003": ("module without the future import", "x = 1\n"),
    "LINT004": ("bare except", _FUTURE + (
        "def guard(step):\n    try:\n        step()\n"
        "    except:\n        pass\n")),
    "LINT005": ("mutable default argument", _FUTURE + (
        "def collect(cost, seen=[]):\n    seen.append(cost)\n"
        "    return seen\n")),
    "LINT006": ("direct simulator construction", _FUTURE + (
        "def simulate(arch, dag):\n    return SystemSimulator(arch, dag)\n")),
}

#: Tier-C rule -> (label, module planting only that hazard).
_STATIC_HAZARDS = {
    "LINT007": ("process-global RNG", """
        from __future__ import annotations

        import numpy as np

        def jitter(values):
            np.random.shuffle(values)
            return values
        """),
    "LINT008": ("clock reading decides a branch", """
        from __future__ import annotations

        import time

        def pick(a, b):
            now = time.perf_counter()
            if now > 100.0:
                return a
            return b
        """),
    "LINT009": ("set iteration feeds ordered output", """
        from __future__ import annotations

        def emit_order(items):
            pending = set(items)
            return [x for x in pending]
        """),
    "LINT010": ("worker mutates the shared context", """
        from __future__ import annotations

        def _task(payload, ctx: SearchContext):
            ctx.best = payload
            return payload

        def fan_out(pool, payloads):
            return list(pool.map(_task, payloads))
        """),
    "LINT011": ("worker writes a module global", """
        from __future__ import annotations

        _CACHE = {}

        def _work(item):
            _CACHE[item] = True
            return item

        def fan_out(pool, items):
            return list(pool.map(_work, items))
        """),
    "LINT012": ("float ceil of a division", """
        from __future__ import annotations

        import math

        def tiles(total, size):
            return math.ceil(total / size)
        """),
    "LINT013": ("product without an int64 accumulator", """
        from __future__ import annotations

        import numpy as np

        def volume(shape):
            return np.prod(shape)
        """),
}

#: Must give no Tier-C finding: seeded rng, sorted set, integer ceil.
_CLEAN_CONTROL = """
    from __future__ import annotations

    import numpy as np

    def ceil_div(a, b):
        return -(-a // b)

    def centered(values, rng: np.random.Generator):
        ordered = sorted(set(values))
        return [float(rng.normal()) for _ in ordered]
    """


class Case(NamedTuple):
    """One seeded violation: ``build(artifacts)`` fires exactly ``rule``."""

    rule: str
    label: str
    build: Callable[[Artifacts], Report]


#: One row per registered rule, sorted by rule id.
CASES: tuple[Case, ...] = (
    *(
        Case(rule, label, lambda a, corrupt=corrupt: check_dag(corrupt(a.dag)))
        for rule, (label, corrupt) in DAG_CORRUPTIONS.items()
    ),
    Case("AD106", "tile grid missing its last tile", _uncovered),
    Case("AD201", "schedule without its last Round", lambda a: _validate(
        a, Schedule(rounds=a.schedule.rounds[:-1]))),
    Case("AD202", "empty trailing Round", lambda a: _validate(a, Schedule(
        rounds=[*a.schedule.rounds, Round(a.schedule.num_rounds, ())]))),
    Case("AD203", "Rounds 0 and 1 swapped", _swapped),
    Case("AD204", "misnumbered last Round", lambda a: _validate(a, Schedule(
        rounds=_patched(a.schedule.rounds, -1, replace(
            a.schedule.rounds[-1], index=a.schedule.num_rounds + 1))))),
    Case("AD205", "reported cost no recomputation gives",
         lambda a: _validate(a, expected_cost=-1.0)),
    Case("AD301", "scheduled atom without an engine", lambda a: _validate(
        a, placement={k: v for k, v in a.placement.items() if k != 0})),
    Case("AD302", "two atoms of Round 0 on one engine", _shared_engine),
    Case("AD303", "atom placed past the mesh", lambda a: _validate(
        a, placement={**a.placement, 0: a.arch.num_engines})),
    Case("AD401", "eviction policy that never evicts", lambda a: _buffering(
        a, a.arch.engine.buffer_bytes, _UnderFreeing)),
    Case("AD402", "eviction policy that flushes every store",
         lambda a: _buffering(a, a.arch.engine.buffer_bytes, _Flushing)),
    Case("AD403", "buffer half the largest atom output", lambda a: _buffering(
        a, max(a.dag.atom_ofmap_bytes) // 2)),
    Case("AD501", "every candidate accepted", lambda a: check_search_trace(
        [replace(t, accepted=True, reason="selected")
         for t in a.outcome.traces],
        result=a.outcome.result, dag=a.dag)),
    Case("AD502", "every candidate under one label",
         lambda a: check_search_trace([
             replace(t, label=a.outcome.traces[0].label)
             for t in a.outcome.traces])),
    Case("AD601", "checkpoint record with a foreign fingerprint",
         _tampered_checkpoint),
    Case("AD602", "evaluated candidate also failed",
         lambda a: check_resilience_traces(_patched(
             a.outcome.traces, 0, replace(
                 a.outcome.traces[0], reason="failed after 2 attempts: boom",
                 error="boom", attempts=2)))),
    Case("AD603", "candidate with zero attempts",
         lambda a: check_resilience_traces(_patched(
             a.outcome.traces, 0, replace(a.outcome.traces[0], attempts=0)))),
    Case("AD604", "non-neighbor rung swap", _non_neighbor_swap),
    Case("AD701", "duplicated engine interval", lambda a: check_timeline(
        replace(a.timeline,
                intervals=a.timeline.intervals + a.timeline.intervals[:1]))),
    Case("AD702", "tampered PE utilization", lambda a: check_timeline(
        a.timeline, result=replace(
            a.result, pe_utilization=(a.result.pe_utilization + 0.5) % 1.0))),
    Case("AD703", "HBM sample above full bandwidth", lambda a: check_timeline(
        replace(a.timeline, hbm=_patched(a.timeline.hbm, 0, replace(
            a.timeline.hbm[0], utilization=1.5))))),
    Case("AD801", "flipped byte in a stored object", _corrupted_store),
    Case("AD802", "transition after the terminal state",
         lambda a: check_job_journal(_write_jobs(
             a.fresh("jobs.jsonl"), _RETRIED + (("running", _LEASE_2),)))),
    Case("AD803", "tenant over its quota",
         lambda a: check_admission_accounting(
             {**_ADMISSION[0], "in_flight": {"ci": 5}, "total_in_flight": 5},
             _ADMISSION[1])),
    Case("AD804", "lease clock runs backwards", lambda a: _leases(
        a, _patched(_RETRIED, 3, ("running", {**_LEASE_2, "lease_seq": 1})))),
    Case("AD805", "journal ends mid-lease",
         lambda a: _leases(a, _RETRIED[:2])),
    Case("AD806", "third lease over a cap of two", lambda a: _leases(
        a, _RETRIED[:4] + (
            ("queued", {"lease_seq": 2, "attempt": 2}),
            ("running", _LEASE_3), ("failed", _LEASE_3)))),
    Case("AD807", "event log missing its lease events",
         lambda a: check_event_log(
             _write_events(a.fresh("events.jsonl"), a.jobs, drop="lease"),
             a.jobs)),
    Case("AD808", "job trace with two roots", lambda a: check_trace_file(
        _write_trace(a.fresh("trace.json"), _TREE + (
            _span("service.job", 0.0, 1000.0, 9, 0),)))),
    *(Case(rule, label, functools.partial(_lint, source))
      for rule, (label, source) in _LINT_SNIPPETS.items()),
    *(Case(rule, label, functools.partial(_static, source))
      for rule, (label, source) in _STATIC_HAZARDS.items()),
)


def clean_reports(a: Artifacts) -> list[tuple[str, Report]]:
    """The clean legs, as ``(label, report)``; no report may fire.

    Every shared artifact through its checkers, the Tier-C clean control
    module, and the Tier-B lint of the installed ``repro`` tree.
    """
    tempering = check_checkpoint_journal(a.tempering)
    check_tempering_journal(a.tempering, tempering)
    jobs = check_job_journal(a.jobs)
    check_job_leases(a.jobs, jobs)
    return [
        ("pipeline artifacts [vgg19_bench]", validate_outcome(a.outcome, a.arch)),
        ("checkpoint journal", check_checkpoint_journal(a.checkpoint)),
        ("simulator timeline", check_timeline(a.timeline, result=a.result)),
        ("tempering journal", tempering),
        ("solution store", check_store(a.store)),
        ("job journal", jobs),
        ("event log", check_event_log(a.events, a.jobs)),
        ("job trace", check_trace_file(a.trace)),
        ("admission accounting", check_admission_accounting(*_ADMISSION)),
        ("static clean control", _static(_CLEAN_CONTROL, a)),
        ("lint repro source tree", lint_paths([_PACKAGE])),
    ]


def run_self_check() -> tuple[bool, str]:
    """Run the clean legs, the Tier-C pass over ``repro``, and every row.

    Returns:
        (passed, human-readable transcript).
    """
    a = shared_artifacts()
    legs = clean_reports(a) + [
        ("static repro source tree", run_static_analysis([_PACKAGE]).report)
    ]
    lines = [
        f"FAIL {label}: unexpected findings:\n{report.render()}"
        if report.diagnostics
        else f"ok   {label}: clean ({len(report.checked)} artifact(s))"
        for label, report in legs
    ]
    for case in CASES:
        fired = sorted(case.build(a).fired_rule_ids())
        verdict = "ok  " if fired == [case.rule] else "FAIL"
        lines.append(f"{verdict} {case.rule} {case.label}: fired {fired}")
    passed = all(line.startswith("ok") for line in lines)
    lines.append("self-check PASSED" if passed else "self-check FAILED")
    return passed, "\n".join(lines)
