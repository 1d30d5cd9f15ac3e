"""Chaos-determinism tests: the supervised search must survive injected
faults at every candidate index and still decide bit-identically to a
fault-free run — the paper's search is deterministic, so resilience may
change wall-clock behaviour but never results."""

import itertools
import json

import pytest

from repro.atoms.generation import SAParams
from repro.config import ArchConfig, EngineConfig
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import get_model
from repro.resilience import CheckpointError, FaultPlan, FaultSpec

FAULT_KINDS = ("raise", "stall", "kill-worker", "corrupt-result")


@pytest.fixture(scope="module")
def arch():
    return ArchConfig(
        mesh_rows=2, mesh_cols=2,
        engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=64 * 1024),
    )


def run_search(model, arch, **overrides):
    settings = dict(
        sa_params=SAParams(max_iterations=8), restarts=2, seed=11
    )
    settings.update(overrides)
    options = OptimizerOptions(**settings)
    return AtomicDataflowOptimizer(get_model(model), arch, options).optimize()


def decisions(outcome):
    """The resilience-invariant part of a trace (no timings/attempts)."""
    return [
        (t.label, t.fingerprint, t.accepted, t.reason, t.total_cycles)
        for t in outcome.traces
    ]


@pytest.fixture(scope="module")
def baseline_vgg(arch):
    return run_search("vgg19_bench", arch, jobs=1)


@pytest.fixture(scope="module")
def baseline_mobilenet(arch):
    return run_search("mobilenet_v2_bench", arch, jobs=1)


def assert_identical(outcome, baseline):
    assert decisions(outcome) == decisions(baseline)
    assert outcome.result.total_cycles == baseline.result.total_cycles
    assert outcome.placement == baseline.placement
    assert [r.atom_indices for r in outcome.schedule.rounds] == [
        r.atom_indices for r in baseline.schedule.rounds
    ]


class TestChaosMatrix:
    """Every (fault kind, candidate index) cell on vgg19_bench."""

    @pytest.mark.parametrize(
        "kind,index",
        list(itertools.product(FAULT_KINDS, range(3))),
    )
    def test_single_fault_is_invisible_in_the_answer(
        self, kind, index, arch, baseline_vgg
    ):
        assert len(baseline_vgg.traces) == 3  # matrix covers every index
        outcome = run_search(
            "vgg19_bench", arch, jobs=2, retries=2,
            faults=FaultPlan.single(index, kind, stall_s=0.5),
        )
        assert_identical(outcome, baseline_vgg)
        assert all(t.attempts >= 1 for t in outcome.traces)
        if kind == "kill-worker":
            assert outcome.pool_restarts >= 1

    @pytest.mark.parametrize("index", range(len(FAULT_KINDS)))
    def test_second_model_cycled_kinds(self, index, arch, baseline_mobilenet):
        """Every fault kind once on the second model, rotating the index."""
        assert len(baseline_mobilenet.traces) == 3
        kind = FAULT_KINDS[index % len(FAULT_KINDS)]
        outcome = run_search(
            "mobilenet_v2_bench", arch, jobs=2, retries=2,
            faults=FaultPlan.single(index % 3, kind, stall_s=0.5),
        )
        assert_identical(outcome, baseline_mobilenet)

    def test_jobs_four_with_worker_death(self, arch, baseline_vgg):
        outcome = run_search(
            "vgg19_bench", arch, jobs=4, retries=2,
            faults=FaultPlan.single(1, "kill-worker"),
        )
        assert_identical(outcome, baseline_vgg)

    def test_tiling_phase_fault(self, arch, baseline_vgg):
        outcome = run_search(
            "vgg19_bench", arch, jobs=2, retries=2,
            faults=FaultPlan(
                specs=(FaultSpec(index=1, kind="raise", phase="tiling"),)
            ),
        )
        assert_identical(outcome, baseline_vgg)
        assert outcome.traces[1].attempts >= 2

    def test_inline_faults_follow_the_same_supervision(self, arch, baseline_vgg):
        outcome = run_search(
            "vgg19_bench", arch, jobs=1, retries=2,
            faults=FaultPlan.single(2, "raise"),
        )
        assert_identical(outcome, baseline_vgg)
        assert outcome.traces[2].attempts == 2


class TestFailureIsolation:
    def test_permanent_failure_skips_candidate_not_search(self, arch):
        outcome = run_search(
            "vgg19_bench", arch, jobs=1, retries=2,
            faults=FaultPlan(
                specs=(FaultSpec(index=1, kind="raise", attempt=None),)
            ),
        )
        failed = outcome.traces[1]
        assert failed.failed and not failed.accepted
        assert failed.reason.startswith("failed after 3 attempts: ")
        assert "InjectedFault" in failed.error
        assert failed.total_cycles is None
        # The search still selected a best among the survivors.
        assert sum(t.accepted for t in outcome.traces) == 1
        assert outcome.search_stats.failed == 1
        assert outcome.result.total_cycles > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_permanent_tiling_fault_fails_only_that_restart(
        self, jobs, arch, baseline_vgg
    ):
        # Restarts are one segment each: a chain lost there sinks only
        # itself, and the other candidates decide as without the fault.
        outcome = run_search(
            "vgg19_bench", arch, jobs=jobs, retries=1,
            faults=FaultPlan(
                specs=(
                    FaultSpec(
                        index=1, kind="raise", phase="tiling", attempt=None
                    ),
                )
            ),
        )
        assert [t.label for t in outcome.traces if t.failed] == ["sa[1]"]
        failed = outcome.traces[1]
        assert failed.reason.startswith("failed after 2 attempts: ")
        assert "InjectedFault" in failed.error and failed.attempts == 2
        for t, base in zip(outcome.traces, baseline_vgg.traces):
            if t.label != "sa[1]":
                assert (t.fingerprint, t.total_cycles) == (
                    base.fingerprint, base.total_cycles
                )
        assert sum(t.accepted for t in outcome.traces) == 1
        assert outcome.search_stats.retry_attempts == 1

    def test_even_tiling_that_raises_is_a_failure_trace(
        self, arch, baseline_vgg, monkeypatch
    ):
        import repro.pipeline

        def broken(graph, parts):
            raise RuntimeError("no even split today")

        monkeypatch.setattr(repro.pipeline, "layer_sequential_tiling", broken)
        outcome = run_search("vgg19_bench", arch, jobs=1)
        even = next(t for t in outcome.traces if t.label == "even-split")
        assert even.failed and not even.accepted
        assert even.reason == (
            "failed after 1 attempt: RuntimeError: no even split today"
        )
        assert even.attempts == 1 and "no even split" in even.error
        assert sum(t.accepted for t in outcome.traces) == 1
        restarts = [t for t in baseline_vgg.traces if t.label.startswith("sa[")]
        assert outcome.result.total_cycles == min(
            t.total_cycles for t in restarts if t.evaluated
        )

    def test_all_candidates_failing_raises_with_the_causes(self, arch):
        with pytest.raises(RuntimeError, match="InjectedFault"):
            run_search(
                "vgg19_bench", arch, jobs=1, retries=0,
                faults=FaultPlan(
                    specs=tuple(
                        FaultSpec(index=i, kind="raise", attempt=None)
                        for i in range(3)
                    )
                ),
            )


class TestCheckpointResume:
    def test_full_resume_reevaluates_nothing(self, arch, baseline_vgg, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first = run_search("vgg19_bench", arch, jobs=1, checkpoint=path)
        assert_identical(first, baseline_vgg)
        resumed = run_search(
            "vgg19_bench", arch, jobs=1, checkpoint=path, resume=True
        )
        assert_identical(resumed, baseline_vgg)
        evaluated = sum(t.evaluated for t in baseline_vgg.traces)
        assert resumed.search_stats.restored == evaluated
        assert all(t.restored for t in resumed.traces if t.evaluated)

    def test_mid_search_resume_matches_uninterrupted_run(
        self, arch, baseline_vgg, tmp_path
    ):
        path = tmp_path / "ck.jsonl"
        run_search("vgg19_bench", arch, jobs=1, checkpoint=str(path))
        # Keep the header and the first completed candidate only — the
        # journal a run killed mid-search would have left behind.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_search(
            "vgg19_bench", arch, jobs=1, checkpoint=str(path), resume=True
        )
        assert_identical(resumed, baseline_vgg)
        assert resumed.search_stats.restored == 1
        label = json.loads(lines[1])["label"]
        restored = [t for t in resumed.traces if t.restored]
        assert [t.label for t in restored] == [label]

    def test_resume_with_faults_still_matches(self, arch, baseline_vgg, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_search("vgg19_bench", arch, jobs=1, checkpoint=str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_search(
            "vgg19_bench", arch, jobs=2, retries=2,
            checkpoint=str(path), resume=True,
            faults=FaultPlan.single(1, "raise"),
        )
        assert_identical(resumed, baseline_vgg)

    def test_faulted_run_leaves_clean_artifacts(self, arch, baseline_vgg, tmp_path):
        """Faults at every candidate index: the outcome and the journal
        the surviving search wrote pass Tier A (warnings allowed)."""
        from repro.analysis import check_checkpoint_journal, validate_outcome

        path = tmp_path / "ck.jsonl"
        kinds = ("raise", "kill-worker", "corrupt-result")
        outcome = run_search(
            "vgg19_bench", arch, jobs=2, retries=2, checkpoint=str(path),
            faults=FaultPlan(specs=tuple(
                FaultSpec(index=i, kind=kind) for i, kind in enumerate(kinds)
            )),
        )
        assert_identical(outcome, baseline_vgg)
        assert validate_outcome(outcome, arch).ok
        assert not check_checkpoint_journal(path).diagnostics

    def test_mismatched_search_refuses_to_resume(self, arch, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        run_search("vgg19_bench", arch, jobs=1, checkpoint=path)
        with pytest.raises(CheckpointError, match="different search"):
            run_search(
                "vgg19_bench", arch, jobs=1, checkpoint=path, resume=True,
                seed=12,
            )

    @staticmethod
    def _resume_tampered(arch, baseline_vgg, tmp_path, tamper):
        """Resume from a journal whose first record ``tamper`` edited: the
        record must be re-evaluated, and the answer stay unchanged."""
        path = tmp_path / "ck.jsonl"
        run_search("vgg19_bench", arch, jobs=1, checkpoint=str(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        tamper(record)
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        resumed = run_search(
            "vgg19_bench", arch, jobs=1, checkpoint=str(path), resume=True
        )
        assert_identical(resumed, baseline_vgg)
        trace = next(t for t in resumed.traces if t.label == record["label"])
        assert not trace.restored

    def test_corrupt_record_is_reevaluated_not_trusted(
        self, arch, baseline_vgg, tmp_path
    ):
        # The tampered tiling fails fingerprint re-verification.
        def tamper(record):
            record["tiling"] = {k: [1, 1, 1, 1] for k in record["tiling"]}

        self._resume_tampered(arch, baseline_vgg, tmp_path, tamper)

    def test_record_naming_an_unknown_atom_is_reevaluated(
        self, arch, baseline_vgg, tmp_path
    ):
        def tamper(record):
            record["rounds"][0][0] = [0, 9999, 0]

        self._resume_tampered(arch, baseline_vgg, tmp_path, tamper)
