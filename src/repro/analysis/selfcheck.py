"""Analysis self-check: prove the checker catches what it claims to catch.

CI runs ``python -m repro.analysis --self-check``, which must fail loudly
if the analysis subsystem ever rots.  Four legs:

1. **Clean positive** — the framework's staged pipeline on two zoo
   workloads produces artifacts that pass every Tier-A validator; one
   workload additionally runs multi-restart with ``jobs=2`` and
   ``validate=True`` so every intermediate artifact is verified
   stage-by-stage inside the pipeline itself, and the resulting search
   traces pass the AD5xx trace rules;
2. **Chaos determinism** — the same staged search re-runs with a fault
   injected at every candidate index (raise, worker kill, corrupt
   result) and a checkpoint journal attached: it must survive, decide
   bit-identically to the fault-free run, leave traces that satisfy the
   AD6xx resilience rules, and write a journal that passes AD601; a
   parallel-tempering search then writes a segment journal that must
   pass AD601 + AD604, and seeded exchange-history corruptions
   (non-neighbor swap, decreasing sequence, duplicated replica id)
   must each trip AD604;
3. **Seeded negatives** — deliberately corrupted copies of those same
   artifacts (dependency swap, duplicate engine, phantom edge, corrupted
   search trace, broken retry annotations, tampered journal, duplicated
   timeline interval, tampered utilization, …) must each trip exactly
   the rule that guards the broken invariant;
4. **Lint round-trip** — an embedded bad snippet fires all Tier-B rules,
   an embedded clean snippet fires none, and the installed ``repro``
   source tree itself lints clean;
5. **Static-analysis round-trip** — fixture modules planting one hazard
   per Tier-C rule (LINT007–LINT013) must each be detected, a clean
   control module must not fire, and the installed ``repro`` tree must
   pass the interprocedural passes with every remaining finding covered
   by a justified suppression;
6. **Service-state round-trip** — a real solution document written
   through the content-addressed store passes AD801, a legal job
   lifecycle replays AD802-clean, a consistent admission snapshot passes
   AD803, and seeded corruptions (flipped object bytes, a post-terminal
   job transition, over-quota accounting) each trip exactly the rule
   that guards them.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import repro
from repro.analysis.artifacts import validate_artifacts, validate_outcome
from repro.analysis.resilience_rules import (
    check_checkpoint_journal,
    check_resilience_traces,
)
from repro.analysis.tempering_rules import (
    check_tempering_journal,
    check_tempering_records,
)
from repro.analysis.trace_rules import check_search_trace
from repro.analysis.diagnostics import Report
from repro.analysis.lint import lint_paths, lint_source
from repro.atoms.generation import SAParams
from repro.config import ArchConfig
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.resilience import FaultPlan, FaultSpec
from repro.scheduling.rounds import Round, Schedule

#: Workloads the self-check pushes through the default pipeline.
SELF_CHECK_MODELS = ("vgg19_bench", "mobilenet_v2_bench")

#: Deliberately rule-breaking module; every Tier-B rule must fire on it.
_BAD_SNIPPET = '''\
def check(cost, seen=[]):
    if cost == 1.5:
        seen.append(cost)
    try:
        dag.preds[0] = ()
    except:
        pass
    return SystemSimulator(arch, dag)
'''

_CLEAN_SNIPPET = '''\
"""Clean module."""

from __future__ import annotations

import math


def check(cost: float, seen: list | None = None) -> bool:
    if math.isclose(cost, 1.5):
        return True
    return False
'''

#: Tier-B rules the bad snippet must trip.
_LINT_RULES = (
    "LINT001",
    "LINT002",
    "LINT003",
    "LINT004",
    "LINT005",
    "LINT006",
)


def _swap_dependency(schedule: Schedule) -> Schedule:
    """Move the last Round's atoms into Round 0, breaking dependencies."""
    first, last = schedule.rounds[0], schedule.rounds[-1]
    rounds = list(schedule.rounds[1:-1])
    merged = Round(index=0, atom_indices=last.atom_indices + first.atom_indices)
    rebuilt = [merged] + [
        Round(index=t + 1, atom_indices=r.atom_indices)
        for t, r in enumerate(rounds)
    ]
    return Schedule(rounds=rebuilt)


def _expect(
    label: str,
    report: Report,
    expect_rules: tuple[str, ...],
    lines: list[str],
) -> bool:
    fired = report.fired_rule_ids()
    missing = [r for r in expect_rules if r not in fired]
    if missing:
        lines.append(
            f"FAIL {label}: expected rule(s) {missing} to fire; "
            f"fired: {sorted(fired) or 'none'}"
        )
        return False
    lines.append(f"ok   {label}: fired {sorted(set(expect_rules))}")
    return True


def _expect_clean(label: str, report: Report, lines: list[str]) -> bool:
    if not report.ok:
        lines.append(f"FAIL {label}: unexpected errors:\n{report.render()}")
        return False
    lines.append(
        f"ok   {label}: clean ({len(report.checked)} artifact(s), "
        f"{len(report.warnings)} warning(s))"
    )
    return True


def run_self_check() -> tuple[bool, str]:
    """Execute all four legs.

    Returns:
        (passed, human-readable transcript).
    """
    lines: list[str] = []
    passed = True
    arch = ArchConfig(mesh_rows=4, mesh_cols=4)
    options = OptimizerOptions(
        sa_params=SAParams(max_iterations=12), restarts=1, seed=0
    )

    from repro.models import get_model

    outcomes = []
    for name in SELF_CHECK_MODELS:
        outcome = AtomicDataflowOptimizer(
            get_model(name), arch, options
        ).optimize()
        outcomes.append((name, outcome))
        passed &= _expect_clean(
            f"pipeline artifacts [{name}]", validate_outcome(outcome, arch), lines
        )

    # Staged-pipeline positive: multi-restart, parallel, validating every
    # intermediate artifact inside the evaluation stage itself.
    staged = AtomicDataflowOptimizer(
        get_model(SELF_CHECK_MODELS[0]),
        arch,
        replace(options, restarts=2, jobs=2, validate=True),
    ).optimize()
    passed &= _expect_clean(
        f"staged pipeline w/ tracing [{SELF_CHECK_MODELS[0]}]",
        validate_outcome(staged, arch),
        lines,
    )

    # Chaos determinism: the same staged search with a fault injected at
    # every candidate index and a checkpoint journal attached must
    # survive, decide bit-identically to the fault-free run above, and
    # leave AD6xx-clean traces and journal behind.
    chaos_kinds = ("raise", "kill-worker", "corrupt-result")
    plan = FaultPlan(
        specs=tuple(
            FaultSpec(index=i, kind=chaos_kinds[i % len(chaos_kinds)])
            for i in range(len(staged.traces))
        )
    )
    with tempfile.TemporaryDirectory(prefix="repro-selfcheck-") as tmp:
        journal_path = str(Path(tmp) / "chaos.jsonl")
        chaos = AtomicDataflowOptimizer(
            get_model(SELF_CHECK_MODELS[0]),
            arch,
            replace(
                options,
                restarts=2,
                jobs=2,
                validate=True,
                retries=2,
                faults=plan,
                checkpoint=journal_path,
            ),
        ).optimize()

        def decisions(outcome):
            return [
                (t.label, t.accepted, t.reason, t.total_cycles)
                for t in outcome.traces
            ]

        if decisions(chaos) != decisions(staged):
            passed = False
            lines.append(
                "FAIL chaos determinism: fault-surviving search diverged "
                f"from the fault-free run:\n  fault-free: {decisions(staged)}"
                f"\n  chaos:      {decisions(chaos)}"
            )
        else:
            lines.append(
                "ok   chaos determinism: faults at every candidate index, "
                f"bit-identical decisions ({chaos.result.total_cycles} cycles,"
                f" {chaos.pool_restarts} pool restart(s))"
            )
        passed &= _expect_clean(
            "chaos outcome artifacts", validate_outcome(chaos, arch), lines
        )
        passed &= _expect_clean(
            "chaos checkpoint journal",
            check_checkpoint_journal(journal_path),
            lines,
        )

        # Tampered journal: flip one record's fingerprint → AD601.
        journal_lines = Path(journal_path).read_text().splitlines()
        tampered = Path(tmp) / "tampered.jsonl"
        tampered.write_text(
            "\n".join(
                line.replace(
                    '"fingerprint": "', '"fingerprint": "bad-', 1
                ) if i == 1 else line
                for i, line in enumerate(journal_lines)
            )
            + "\n"
        )
        passed &= _expect(
            "seeded tampered journal",
            check_checkpoint_journal(tampered),
            ("AD601",),
            lines,
        )

    # Tempering round-trip: a small replica-exchange search journals its
    # segments; the journal must pass AD601 + AD604, and seeded
    # corruptions of the exchange history must each trip AD604.
    with tempfile.TemporaryDirectory(prefix="repro-selfcheck-pt-") as tmp:
        pt_journal = str(Path(tmp) / "tempering.jsonl")
        pt = AtomicDataflowOptimizer(
            get_model(SELF_CHECK_MODELS[0]),
            arch,
            replace(
                options, rungs=3, exchange_every=4, checkpoint=pt_journal
            ),
        ).optimize()
        passed &= _expect_clean(
            "tempering outcome artifacts", validate_outcome(pt, arch), lines
        )
        pt_report = check_checkpoint_journal(pt_journal)
        check_tempering_journal(pt_journal, pt_report)
        passed &= _expect_clean(
            "tempering segment journal", pt_report, lines
        )

        segs = [
            doc
            for doc in map(json.loads, Path(pt_journal).read_text().splitlines())
            if isinstance(doc, dict) and doc.get("kind") == "pt-segment"
        ]

        def corrupt(mutate):
            copies = json.loads(json.dumps(segs))
            mutate(copies)
            return check_tempering_records(copies)

        passed &= _expect(
            "seeded non-neighbor swap",
            corrupt(
                lambda s: s[0]["exchanges"][0].update(
                    upper=s[0]["exchanges"][0]["lower"] + 2
                )
            ),
            ("AD604",),
            lines,
        )
        passed &= _expect(
            "seeded decreasing exchange seq",
            corrupt(lambda s: s[1]["exchanges"][0].update(seq=0)),
            ("AD604",),
            lines,
        )
        passed &= _expect(
            "seeded duplicated replica id",
            corrupt(lambda s: s[0].update(replicas=[0] * s[0]["rungs"])),
            ("AD604",),
            lines,
        )

    # Seeded AD6xx trace negatives: a candidate with two verdicts, and a
    # retry annotation the search could never have produced.
    two_verdicts = (
        replace(
            staged.traces[0],
            reason="failed after 2 attempts: boom",
            error="boom",
            attempts=2,
        ),
    ) + tuple(staged.traces[1:])
    passed &= _expect(
        "seeded double-verdict trace",
        check_resilience_traces(two_verdicts),
        ("AD602",),
        lines,
    )
    zero_attempts = (replace(staged.traces[0], attempts=0),) + tuple(
        staged.traces[1:]
    )
    passed &= _expect(
        "seeded zero-attempt trace",
        check_resilience_traces(zero_attempts),
        ("AD603",),
        lines,
    )

    # Seeded negatives, corrupting the first workload's real artifacts.
    _, outcome = outcomes[0]
    dag, schedule, placement = outcome.dag, outcome.schedule, outcome.placement

    passed &= _expect(
        "seeded dependency swap",
        validate_artifacts(dag, _swap_dependency(schedule), arch=arch),
        ("AD203",),
        lines,
    )

    first_round = schedule.rounds[0]
    if len(first_round.atom_indices) >= 2:
        a, b = first_round.atom_indices[:2]
        doubled = dict(placement)
        doubled[b] = doubled[a]
        passed &= _expect(
            "seeded duplicate engine-slot",
            validate_artifacts(dag, schedule, doubled, arch=arch),
            ("AD302",),
            lines,
        )

    phantom_dag = dag.with_views(
        edge_bytes={**dag.edge_bytes, (dag.num_atoms - 1, 0): 1}
    )
    passed &= _expect(
        "seeded phantom edge_bytes",
        validate_artifacts(phantom_dag),
        ("AD104",),
        lines,
    )

    truncated = Schedule(rounds=list(schedule.rounds[:-1]))
    passed &= _expect(
        "seeded truncated schedule",
        validate_artifacts(dag, truncated, arch=arch),
        ("AD201",),
        lines,
    )

    # Timeline round-trip: re-simulate the same solution with occupancy
    # collection; the real timeline must pass every AD7xx rule, and
    # seeded corruptions of it must each trip the guarding rule.
    from repro.analysis.timeline_rules import check_timeline
    from repro.sim import simulate_timeline

    tl_result, timeline = simulate_timeline(
        arch,
        dag,
        schedule,
        placement,
        strategy=outcome.result.strategy,
    )
    passed &= _expect_clean(
        f"simulator timeline [{outcomes[0][0]}]",
        check_timeline(timeline, result=tl_result),
        lines,
    )
    longest = max(timeline.intervals, key=lambda iv: iv.duration)
    passed &= _expect(
        "seeded overlapping intervals",
        check_timeline(replace(timeline, intervals=timeline.intervals + (longest,))),
        ("AD701",),
        lines,
    )
    tampered_result = replace(
        tl_result,
        pe_utilization=(tl_result.pe_utilization + 0.5) % 1.0,
    )
    passed &= _expect(
        "seeded tampered PE utilization",
        check_timeline(timeline, result=tampered_result),
        ("AD702",),
        lines,
    )
    if timeline.hbm:
        saturated = replace(timeline.hbm[0], utilization=1.5)
        passed &= _expect(
            "seeded impossible HBM sample",
            check_timeline(replace(timeline, hbm=timeline.hbm + (saturated,))),
            ("AD703",),
            lines,
        )

    doubly_accepted = tuple(
        replace(t, accepted=True, reason="selected") for t in staged.traces
    )
    passed &= _expect(
        "seeded doubly-accepted trace",
        check_search_trace(
            doubly_accepted, result=staged.result, dag=staged.dag
        ),
        ("AD501",),
        lines,
    )
    relabeled = tuple(
        replace(t, label=staged.traces[0].label) for t in staged.traces
    )
    passed &= _expect(
        "seeded duplicate trace labels",
        check_search_trace(relabeled),
        ("AD502",),
        lines,
    )

    # Service-state round-trip (AD8xx): real store + journal + admission
    # snapshot pass; seeded corruptions trip the guarding rules.
    from repro.analysis.service_rules import (
        check_admission_accounting,
        check_job_journal,
        check_job_leases,
        check_store,
    )
    from repro.fingerprint import request_fingerprint
    from repro.serialize import solution_to_dict
    from repro.service.jobs import JobJournal, JobRecord
    from repro.service.store import SolutionStore

    with tempfile.TemporaryDirectory(prefix="repro-selfcheck-svc-") as tmp:
        graph = get_model(outcomes[0][0])
        fingerprint = request_fingerprint(graph, arch, options)
        store_dir = Path(tmp) / "store"
        store = SolutionStore(store_dir)
        store.put(
            fingerprint,
            solution_to_dict(outcome, options.dataflow, include_search=False),
            graph=graph,
            arch=arch,
        )
        passed &= _expect_clean(
            "service solution store", check_store(store_dir), lines
        )

        obj_path = store_dir / "objects" / f"{fingerprint}.json"
        tampered_obj = bytearray(obj_path.read_bytes())
        tampered_obj[len(tampered_obj) // 2] ^= 0xFF
        obj_path.write_bytes(bytes(tampered_obj))
        passed &= _expect(
            "seeded corrupted store object",
            check_store(store_dir),
            ("AD801",),
            lines,
        )

        journal_path = Path(tmp) / "jobs.jsonl"
        jobs_journal = JobJournal(journal_path)
        jobs_journal.open(header_extras={"max_attempts": 3})
        job = JobRecord(
            job_id="job-000001",
            fingerprint=fingerprint,
            model=graph.name,
            tenant="ci",
        )
        jobs_journal.record("queued", job)
        job = job.advanced(
            "running", runner_id="runner-1", lease_seq=1, attempt=1
        )
        jobs_journal.record("running", job)
        job = job.advanced(
            "done",
            total_cycles=outcome.result.total_cycles,
            search_seconds=1.0,
        )
        jobs_journal.record("done", job)
        jobs_journal.close()
        clean_journal = check_job_journal(journal_path)
        check_job_leases(journal_path, clean_journal)
        passed &= _expect_clean("service job journal", clean_journal, lines)

        with open(journal_path, "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"event": "running", "job": job.advanced("running").to_dict()}
                )
                + "\n"
            )
        passed &= _expect(
            "seeded post-terminal job transition",
            check_job_journal(journal_path),
            ("AD802",),
            lines,
        )

        # Lease lifecycle (AD804-806): a clean retry — lease, crash
        # requeue, re-lease, done — validates silently; seeded lease
        # corruptions trip exactly the guarding rule.
        def lease_journal(events: list[tuple[str, dict]]) -> Path:
            path = Path(tmp) / "leases.jsonl"
            base = {
                "job_id": "job-000001",
                "fingerprint": fingerprint,
                "model": graph.name,
                "tenant": "ci",
            }
            journal = JobJournal(path)
            journal.open(header_extras={"max_attempts": 2})
            for state, fields in events:
                journal.record(
                    state, JobRecord(**base, state=state, **fields)
                )
            journal.close()
            return path

        retried = [
            ("queued", {}),
            ("running", {"runner_id": "runner-1", "lease_seq": 1, "attempt": 1}),
            ("queued", {"lease_seq": 1, "attempt": 1}),
            ("running", {"runner_id": "runner-2", "lease_seq": 2, "attempt": 2}),
            ("done", {"runner_id": "runner-2", "lease_seq": 2, "attempt": 2}),
        ]
        passed &= _expect_clean(
            "service lease lifecycle",
            check_job_leases(lease_journal(retried)),
            lines,
        )
        regressed = list(retried)
        regressed[3] = (
            "running",
            {"runner_id": "runner-2", "lease_seq": 1, "attempt": 2},
        )
        passed &= _expect(
            "seeded lease-clock regression",
            check_job_leases(lease_journal(regressed)),
            ("AD804",),
            lines,
        )
        orphaned = retried[:2]
        passed &= _expect(
            "seeded orphaned lease",
            check_job_leases(lease_journal(orphaned)),
            ("AD805",),
            lines,
        )
        over_cap = retried[:3] + [
            ("running", {"runner_id": "runner-2", "lease_seq": 2, "attempt": 2}),
            ("queued", {"lease_seq": 2, "attempt": 2}),
            ("running", {"runner_id": "runner-1", "lease_seq": 3, "attempt": 3}),
            ("failed", {"runner_id": "runner-1", "lease_seq": 3, "attempt": 3}),
        ]
        passed &= _expect(
            "seeded retry-cap overrun",
            check_job_leases(lease_journal(over_cap)),
            ("AD806",),
            lines,
        )

        # Event-log agreement (AD807): a log derived from the journal's
        # own oracle validates silently; a dropped or mislabeled event
        # trips the rule.
        from repro.analysis.service_rules import (
            check_event_log,
            check_trace_file,
        )
        from repro.service.events import (
            TRACE_FORMAT,
            TRACE_VERSION,
            EventLog,
            expected_events,
        )

        traced = [
            (state, {**fields, "trace_id": "tr-selfcheck01"})
            for state, fields in retried
        ]
        events_journal = lease_journal(traced)

        def write_event_log(
            name: str, drop_kind: str | None = None, trace_id: str | None = None
        ) -> Path:
            path = Path(tmp) / name
            log = EventLog(path)
            log.open()
            for job_id, entries in sorted(
                expected_events(events_journal).items()
            ):
                for entry in entries:
                    if entry["kind"] == drop_kind:
                        continue
                    log.append(
                        entry["kind"],
                        job_id,
                        trace_id=trace_id or entry["trace_id"],
                        state=entry["state"],
                    )
            log.close()
            return path

        passed &= _expect_clean(
            "service event log",
            check_event_log(write_event_log("ev-clean.jsonl"), events_journal),
            lines,
        )
        passed &= _expect(
            "seeded missing lease event",
            check_event_log(
                write_event_log("ev-missing.jsonl", drop_kind="lease"),
                events_journal,
            ),
            ("AD807",),
            lines,
        )
        passed &= _expect(
            "seeded mismatched event trace id",
            check_event_log(
                write_event_log("ev-trace.jsonl", trace_id="tr-wrong"),
                events_journal,
            ),
            ("AD807",),
            lines,
        )

        # Span-tree well-formedness (AD808): a nested forest validates
        # silently; structural corruptions trip the rule.
        from repro.obs.tracer import SpanRecord

        def svc_span(name: str, start: float, dur: float, sid: int,
                     parent: int, pid: int = 1000, **args: str) -> SpanRecord:
            return SpanRecord(
                name=name, category="service", start_us=start,
                duration_us=dur, pid=pid, tid=1, span_id=sid,
                parent_id=parent, args=tuple(sorted(args.items())),
            )

        root_span = svc_span(
            "service.job", 0.0, 1000.0, 1, 0, trace="tr-selfcheck01"
        )
        tree = [
            root_span,
            svc_span("service.queue_wait", 10.0, 90.0, 2, 1),
            svc_span("service.lease", 100.0, 800.0, 3, 1),
            svc_span("search.pipeline", 150.0, 700.0, 4, 3),
            svc_span("stage.sim", 200.0, 100.0, 1, 0, pid=2000),
        ]

        def trace_doc(name: str, spans: list[SpanRecord]) -> Path:
            path = Path(tmp) / name
            path.write_text(
                json.dumps(
                    {
                        "format": TRACE_FORMAT,
                        "version": TRACE_VERSION,
                        "job_id": "job-000001",
                        "trace_id": "tr-selfcheck01",
                        "root_pid": 1000,
                        "spans": [s.to_dict() for s in spans],
                    },
                    sort_keys=True,
                ),
                encoding="utf-8",
            )
            return path

        passed &= _expect_clean(
            "service job trace",
            check_trace_file(trace_doc("tr-clean.json", tree)),
            lines,
        )
        passed &= _expect(
            "seeded double-rooted trace",
            check_trace_file(
                trace_doc(
                    "tr-roots.json",
                    tree + [svc_span("service.job", 0.0, 1000.0, 9, 0)],
                )
            ),
            ("AD808",),
            lines,
        )
        passed &= _expect(
            "seeded orphan span parent",
            check_trace_file(
                trace_doc(
                    "tr-orphan.json",
                    tree + [svc_span("sa.anneal", 200.0, 100.0, 9, 99)],
                )
            ),
            ("AD808",),
            lines,
        )
        passed &= _expect(
            "seeded child window overflow",
            check_trace_file(
                trace_doc(
                    "tr-window.json",
                    tree + [svc_span("sa.anneal", 850.0, 100.0, 9, 3)],
                )
            ),
            ("AD808",),
            lines,
        )

    snapshot = {
        "max_queue_depth": 4,
        "default_quota": 2,
        "quotas": {},
        "in_flight": {"ci": 1},
        "total_in_flight": 1,
    }
    live_jobs = {
        "job-000002": JobRecord(
            job_id="job-000002",
            fingerprint=fingerprint,
            model=graph.name,
            tenant="ci",
            state="queued",
        )
    }
    passed &= _expect_clean(
        "service admission accounting",
        check_admission_accounting(snapshot, live_jobs),
        lines,
    )
    passed &= _expect(
        "seeded over-quota accounting",
        check_admission_accounting(
            {**snapshot, "in_flight": {"ci": 5}, "total_in_flight": 5},
            live_jobs,
        ),
        ("AD803",),
        lines,
    )

    # Tier-B round-trip.
    passed &= _expect(
        "lint bad snippet",
        lint_source(_BAD_SNIPPET, "bad_snippet.py"),
        _LINT_RULES,
        lines,
    )
    passed &= _expect_clean(
        "lint clean snippet", lint_source(_CLEAN_SNIPPET, "clean_snippet.py"), lines
    )
    passed &= _expect_clean(
        "lint repro source tree",
        lint_paths([Path(repro.__file__).parent]),
        lines,
    )

    # Tier-C round-trip: every planted hazard detected, clean control
    # silent, and the installed source tree clean after suppressions.
    from repro.analysis.static import run_static_analysis, run_static_self_check

    static_ok, static_transcript = run_static_self_check()
    if static_ok:
        lines.append("ok   static planted hazards: all rules detected")
    else:
        passed = False
        lines.append(f"FAIL static planted hazards:\n{static_transcript}")
    passed &= _expect_clean(
        "static repro source tree",
        run_static_analysis([Path(repro.__file__).parent]).report,
        lines,
    )

    lines.append("self-check PASSED" if passed else "self-check FAILED")
    return passed, "\n".join(lines)
