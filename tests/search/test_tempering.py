"""Parallel-tempering tests: ladder construction, the determinism
contract (``jobs=1`` ≡ ``jobs=N``), resume across a swap boundary, and
the trace plumbing that carries rung/swap provenance to the caller."""

import json

import numpy as np
import pytest

from repro.atoms.generation import AtomGenerator, SAParams
from repro.config import ArchConfig, EngineConfig
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import get_model
from repro.pipeline import (
    CandidateTrace,
    SATilingStage,
    SearchContext,
    tiling_fingerprint,
)
from repro.resilience import FaultPlan, FaultSpec
from repro.search.tempering import (
    LADDER_RATIO,
    MOVE_FAMILIES,
    SEGMENT_KIND,
    ExchangeRecord,
    TemperingPlan,
    _restore_segments,
    segment_label,
)


@pytest.fixture(scope="module")
def arch():
    return ArchConfig(
        mesh_rows=2, mesh_cols=2,
        engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=64 * 1024),
    )


def run_search(model, arch, **overrides):
    settings = dict(
        sa_params=SAParams(max_iterations=12),
        rungs=3,
        exchange_every=4,
        seed=0,
    )
    settings.update(overrides)
    options = OptimizerOptions(**settings)
    return AtomicDataflowOptimizer(get_model(model), arch, options).optimize()


def decisions(outcome):
    return [
        (t.label, t.fingerprint, t.accepted, t.reason, t.total_cycles,
         t.rung, t.swaps_proposed, t.swaps_accepted)
        for t in outcome.traces
    ]


class TestPlan:
    def test_ladder_temperatures_and_portfolio(self):
        plan = TemperingPlan(
            rungs=4, base=SAParams(temperature=1.5), portfolio="mixed"
        )
        for k in range(4):
            p = plan.rung_params(k)
            assert p.temperature == pytest.approx(1.5 * LADDER_RATIO**k)
            assert p.schedule == ("exponential" if k % 2 == 0 else "linear")
            assert p.move_length_frac == pytest.approx(
                SAParams().move_length_frac * MOVE_FAMILIES[k % 3]
            )

    def test_pinned_portfolios(self):
        for portfolio in ("exponential", "linear"):
            plan = TemperingPlan(rungs=3, portfolio=portfolio)
            assert all(
                plan.rung_params(k).schedule == portfolio for k in range(3)
            )

    def test_segment_count_covers_iterations(self):
        plan = TemperingPlan(
            rungs=2, exchange_every=5, base=SAParams(max_iterations=12)
        )
        assert plan.segments == 3
        assert TemperingPlan(rungs=2, exchange_every=100).segments == 2

    def test_restarts_are_a_ladder_that_never_exchanges(self):
        base = SAParams(max_iterations=12)
        plan = TemperingPlan(
            rungs=3, exchange_every=4, base=base, seed=5, exchange=False
        )
        assert plan.segments == 1 and plan.segment_length == 12
        assert [plan.rung_params(k) for k in range(3)] == [base] * 3
        assert [plan.label(k) for k in range(3)] == ["sa[0]", "sa[1]", "sa[2]"]
        sources, exchange = plan.streams()
        assert exchange is None and sources[0] == 5
        spawned = np.random.SeedSequence(5).spawn(2)
        assert [s.spawn_key for s in sources[1:]] == [
            s.spawn_key for s in spawned
        ]

    def test_ladder_streams_spawn_one_child_per_rung_plus_exchange(self):
        plan = TemperingPlan(rungs=3, seed=5)
        sources, exchange = plan.streams()
        keys = [s.spawn_key for s in np.random.SeedSequence(5).spawn(4)]
        assert [s.spawn_key for s in sources] == keys[:3]
        assert exchange.spawn_key == keys[3]
        assert plan.label(2) == "pt[2]"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rungs=0),
            dict(rungs=2, exchange_every=0),
            dict(rungs=2, portfolio="adaptive"),
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TemperingPlan(**kwargs)

    def test_exchange_record_roundtrip(self):
        rec = ExchangeRecord(
            seq=3, segment=1, lower=1, upper=2,
            energy_lower=0.25, energy_upper=0.5, accepted=True,
        )
        assert ExchangeRecord.from_dict(rec.to_dict()) == rec


class TestOptions:
    def test_rungs_require_sa(self):
        with pytest.raises(ValueError, match="sa"):
            OptimizerOptions(rungs=2, atom_generation="even")

    def test_rungs_exclude_restarts(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            OptimizerOptions(rungs=2, restarts=4)

    def test_bad_portfolio_rejected(self):
        with pytest.raises(ValueError, match="portfolio"):
            OptimizerOptions(rungs=2, portfolio="bogus")

    def test_trace_swaps_roundtrip(self):
        trace = CandidateTrace(
            label="pt[1]", fingerprint="f" * 16, accepted=False,
            reason="beaten", total_cycles=10,
            rung=1, swaps_proposed=3, swaps_accepted=2,
        )
        back = CandidateTrace.from_dict(trace.to_dict())
        assert (back.rung, back.swaps_proposed, back.swaps_accepted) == (1, 3, 2)

    def test_trace_parses_pre_tempering_docs(self):
        doc = CandidateTrace(
            label="sa[0]", fingerprint="f" * 16, accepted=True,
            reason="selected", total_cycles=10,
        ).to_dict()
        doc.pop("rung")
        doc.pop("swaps")
        back = CandidateTrace.from_dict(doc)
        assert back.rung is None
        assert (back.swaps_proposed, back.swaps_accepted) == (0, 0)


class TestTemperedSearch:
    def test_rung_provenance_on_traces(self, arch):
        outcome = run_search("vgg19_bench", arch)
        by_label = {t.label: t for t in outcome.traces}
        assert set(by_label) == {"pt[0]", "pt[1]", "pt[2]", "even-split"}
        for k in range(3):
            assert by_label[f"pt[{k}]"].rung == k
        assert by_label["even-split"].rung is None
        # Two exchange segments: rungs 0 and 2 join one proposal each,
        # the middle rung joins both.
        assert by_label["pt[1]"].swaps_proposed == 2
        assert sum(t.swaps_proposed for t in outcome.traces) == 4

    def test_jobs_do_not_change_decisions(self, arch):
        serial = run_search("vgg19_bench", arch, jobs=1)
        parallel = run_search("vgg19_bench", arch, jobs=2)
        assert decisions(parallel) == decisions(serial)
        assert parallel.result.total_cycles == serial.result.total_cycles
        assert parallel.result.to_dict() == serial.result.to_dict()

    def test_resume_across_swap_boundary(self, arch, tmp_path):
        baseline = run_search("vgg19_bench", arch)

        journal = tmp_path / "pt.jsonl"
        full = run_search("vgg19_bench", arch, checkpoint=str(journal))
        assert decisions(full) == decisions(baseline)

        lines = journal.read_text().splitlines()
        keep = None
        for i, line in enumerate(lines):
            doc = json.loads(line)
            if doc.get("kind") == "pt-segment" and any(
                e["accepted"] for e in doc["exchanges"]
            ):
                keep = i
                break
        assert keep is not None, "no accepted swap; pick hotter params"
        journal.write_text("\n".join(lines[: keep + 1]) + "\n")

        resumed = run_search(
            "vgg19_bench", arch, checkpoint=str(journal), resume=True
        )
        assert decisions(resumed) == decisions(baseline)
        assert resumed.result.to_dict() == baseline.result.to_dict()

    def test_resume_with_complete_journal_restores_everything(
        self, arch, tmp_path
    ):
        journal = tmp_path / "pt.jsonl"
        full = run_search("vgg19_bench", arch, checkpoint=str(journal))
        resumed = run_search(
            "vgg19_bench", arch, checkpoint=str(journal), resume=True
        )
        assert decisions(resumed) == decisions(full)
        restored = [t for t in resumed.traces if t.restored]
        assert restored, "completed candidates must restore from journal"

    def test_corrupt_segment_record_costs_work_not_correctness(
        self, arch, tmp_path
    ):
        baseline = run_search("vgg19_bench", arch)
        journal = tmp_path / "pt.jsonl"
        run_search("vgg19_bench", arch, checkpoint=str(journal))

        lines = journal.read_text().splitlines()
        mangled = []
        for line in lines:
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                mangled.append(line)
                continue
            label = doc.get("label", "")
            if doc.get("kind") != "pt-segment" and label.startswith("pt["):
                continue  # force the rungs to re-run from segment records
            if doc.get("kind") == "pt-segment" and doc["segment"] == 0:
                doc["rungs"] = 99  # poison the prefix root
            mangled.append(json.dumps(doc))
        journal.write_text("\n".join(mangled) + "\n")

        resumed = run_search(
            "vgg19_bench", arch, checkpoint=str(journal), resume=True
        )
        assert decisions(resumed) == decisions(baseline)


def _segments(count, rungs=3):
    return {
        segment_label(s): {
            "kind": SEGMENT_KIND,
            "segment": s,
            "rungs": rungs,
            "states": [{}] * rungs,
            "exchanges": [],
        }
        for s in range(count)
    }


def _tiling_fault(attempt):
    return FaultPlan(
        specs=(FaultSpec(index=1, kind="raise", phase="tiling", attempt=attempt),)
    )


class TestDriverRules:
    """The four rules the one annealing driver follows."""

    def test_restore_never_reaches_the_final_segment(self):
        records = _segments(3)
        restored = _restore_segments(records, rungs=3, limit=2)
        assert restored["next_segment"] == 2
        assert restored["last"]["segment"] == 1
        assert _restore_segments(records, rungs=3, limit=1)["next_segment"] == 1
        assert _restore_segments(records, rungs=3, limit=0) is None
        assert _restore_segments(_segments(1), rungs=3, limit=2)[
            "next_segment"
        ] == 1
        assert _restore_segments(records, rungs=2, limit=2) is None

    def test_final_segment_is_not_journaled(self, arch, tmp_path):
        journal = tmp_path / "pt.jsonl"
        run_search("vgg19_bench", arch, checkpoint=str(journal))
        docs = [json.loads(line) for line in journal.read_text().splitlines()]
        segments = [d["segment"] for d in docs if d.get("kind") == SEGMENT_KIND]
        assert segments == [0, 1]  # 12 iterations / 4 per segment

    def test_journal_with_the_final_segment_still_resumes(self, arch, tmp_path):
        # Journals written before the final segment went unjournaled hold
        # its record too; resume restores at most segments - 1 of them.
        baseline = run_search("vgg19_bench", arch)
        journal = tmp_path / "pt.jsonl"
        run_search("vgg19_bench", arch, checkpoint=str(journal))
        docs = [json.loads(line) for line in journal.read_text().splitlines()]
        kept = [docs[0]] + [d for d in docs if d.get("kind") == SEGMENT_KIND]
        final = dict(kept[-1], segment=2, label=segment_label(2), exchanges=[])
        journal.write_text(
            "".join(json.dumps(d) + "\n" for d in kept + [final])
        )
        resumed = run_search(
            "vgg19_bench", arch, checkpoint=str(journal), resume=True
        )
        assert decisions(resumed) == decisions(baseline)

    def test_restored_restarts_are_not_annealed_again(
        self, arch, tmp_path, monkeypatch
    ):
        # One segment: no exchange reads a restored chain's state, so the
        # resumed search steps only the chains it still needs.
        journal = tmp_path / "ck.jsonl"
        full = run_search(
            "vgg19_bench", arch, rungs=0, restarts=3, checkpoint=str(journal)
        )
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")  # sa[0], sa[1]
        seeded = []
        original = AtomGenerator.init_rung

        def counting(self, *args, **kwargs):
            seeded.append(kwargs.get("replica"))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(AtomGenerator, "init_rung", counting)
        resumed = run_search(
            "vgg19_bench", arch, rungs=0, restarts=3,
            checkpoint=str(journal), resume=True,
        )
        assert decisions(resumed) == decisions(full)
        assert [t.label for t in resumed.traces if t.restored] == [
            "sa[0]", "sa[1]"
        ]
        assert seeded == [2]

    def test_restart_chains_anneal_like_independent_generate_sa(self, arch):
        params = SAParams(max_iterations=12)
        outcome = run_search(
            "vgg19_bench", arch, rungs=0, restarts=2, seed=3, dedup=False
        )
        ctx = SearchContext.create(get_model("vgg19_bench"), arch)
        sources = [3, *np.random.SeedSequence(3).spawn(1)]
        for label, source in zip(("sa[0]", "sa[1]"), sources):
            tiling, _ = SATilingStage(params=params).run(
                ctx, np.random.default_rng(source)
            )
            trace = next(t for t in outcome.traces if t.label == label)
            assert trace.fingerprint == tiling_fingerprint(
                ctx.canonical_tiling(tiling)
            )
            assert trace.rung is None and trace.swaps_proposed == 0

    def test_lost_rung_before_an_exchange_sinks_the_ladder(self, arch):
        outcome = run_search(
            "vgg19_bench", arch, retries=1, faults=_tiling_fault(None)
        )
        by_label = {t.label: t for t in outcome.traces}
        for k in range(3):
            trace = by_label[f"pt[{k}]"]
            assert trace.failed and trace.attempts == 1
            assert trace.reason.startswith(
                "failed after 1 attempt: tempering rung 1 segment 0 failed: "
            )
            assert "InjectedFault" in trace.error
        assert by_label["even-split"].accepted
        assert outcome.search_stats.failed == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_segment_retries_count_in_attempts(self, arch, jobs):
        baseline = run_search("vgg19_bench", arch)
        outcome = run_search(
            "vgg19_bench", arch, jobs=jobs, retries=1,
            faults=_tiling_fault(0),
        )
        assert decisions(outcome) == decisions(baseline)
        by_label = {t.label: t for t in outcome.traces}
        # A transient fault fires on attempt 0 of each of the 3 segments.
        assert by_label["pt[1]"].attempts == 4
        assert by_label["pt[0]"].attempts == by_label["pt[2]"].attempts == 1
        assert outcome.search_stats.retry_attempts == 3
