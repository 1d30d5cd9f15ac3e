"""Tests for the staged search pipeline: determinism, dedup, selection."""

import pytest

from repro.atoms.atom import TileSize
from repro.atoms.generation import SAParams
from repro.config import ArchConfig, EngineConfig
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import get_model
from repro.pipeline import (
    CandidateTrace,
    SearchContext,
    select_best,
    tiling_fingerprint,
)


@pytest.fixture(scope="module")
def arch():
    return ArchConfig(
        mesh_rows=2, mesh_cols=2,
        engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=64 * 1024),
    )


def run_search(model, arch, jobs, **overrides):
    options = OptimizerOptions(
        sa_params=SAParams(max_iterations=8),
        restarts=3,
        seed=11,
        jobs=jobs,
        **overrides,
    )
    return AtomicDataflowOptimizer(get_model(model), arch, options).optimize()


def decisions(outcome):
    """The jobs-invariant part of a trace (timings are per-process)."""
    return [
        (t.label, t.fingerprint, t.accepted, t.reason, t.total_cycles)
        for t in outcome.traces
    ]


class TestSeedDeterminism:
    @pytest.mark.parametrize("model", ["vgg19_bench", "mobilenet_v2_bench"])
    def test_jobs_do_not_change_the_answer(self, model, arch):
        serial = run_search(model, arch, jobs=1)
        parallel = run_search(model, arch, jobs=4)
        assert serial.result.total_cycles == parallel.result.total_cycles
        assert serial.placement == parallel.placement
        assert [r.atom_indices for r in serial.schedule.rounds] == [
            r.atom_indices for r in parallel.schedule.rounds
        ]
        assert decisions(serial) == decisions(parallel)

    def test_same_seed_same_outcome(self, arch):
        a = run_search("vgg19_bench", arch, jobs=1)
        b = run_search("vgg19_bench", arch, jobs=1)
        assert a.result.total_cycles == b.result.total_cycles
        assert decisions(a) == decisions(b)


class TestDedup:
    def test_duplicate_tilings_evaluated_once(self, arch):
        # "even" generation ignores the RNG, so every restart produces the
        # same tiling; dedup must evaluate the first and skip the rest.
        outcome = run_search(
            "vgg19_bench", arch, jobs=1, atom_generation="even"
        )
        traces = outcome.traces
        assert len(traces) == 3
        evaluated = [t for t in traces if t.evaluated]
        skipped = [t for t in traces if not t.evaluated]
        assert len(evaluated) == 1 and evaluated[0].label == "even[0]"
        assert evaluated[0].accepted
        for t in skipped:
            assert t.reason == "duplicate of even[0]"
            assert t.total_cycles is None
            assert t.fingerprint == evaluated[0].fingerprint

    def test_dedup_can_be_disabled(self, arch):
        outcome = run_search(
            "vgg19_bench", arch, jobs=1, atom_generation="even", dedup=False
        )
        assert all(t.evaluated for t in outcome.traces)

    def test_search_stats_count_dedup(self, arch):
        outcome = run_search(
            "vgg19_bench", arch, jobs=1, atom_generation="even"
        )
        stats = outcome.search_stats
        assert stats.candidates == 3
        assert stats.evaluated == 1
        assert stats.deduplicated == 2


class _FakeSolution:
    def __init__(self, cycles, fingerprint):
        class _R:
            total_cycles = cycles

        class _T:
            pass

        _T.fingerprint = fingerprint
        self.result = _R()
        self.trace = _T()


class TestSelection:
    def test_tie_broken_on_fingerprint_not_order(self):
        a = _FakeSolution(100, "aaaa")
        b = _FakeSolution(100, "bbbb")
        assert select_best([a, b]) == 0
        assert select_best([b, a]) == 1  # still picks "aaaa"

    def test_cycles_dominate_fingerprint(self):
        fast = _FakeSolution(50, "zzzz")
        slow = _FakeSolution(100, "aaaa")
        assert select_best([slow, fast]) == 1

    def test_deduplicated_slots_are_skipped(self):
        sol = _FakeSolution(100, "aaaa")
        assert select_best([None, sol, None]) == 1

    def test_no_evaluated_candidate_raises(self):
        with pytest.raises(ValueError):
            select_best([None, None])


class TestFingerprint:
    def test_canonical_tiling_clamps_like_dag_build(self, arch):
        ctx = SearchContext.create(get_model("vgg19_bench"), arch)
        oversized = {
            layer: TileSize(10**6, 10**6, 10**6, 10**6)
            for layer in ctx.canonical_tiling({})
        }
        fp_oversized = tiling_fingerprint(ctx.canonical_tiling(oversized))
        fp_full = tiling_fingerprint(ctx.canonical_tiling({}))
        assert fp_oversized == fp_full

    def test_distinct_tilings_distinct_fingerprints(self, arch):
        ctx = SearchContext.create(get_model("vgg19_bench"), arch)
        full = ctx.canonical_tiling({})
        halved = {
            layer: TileSize(max(1, t.h // 2), t.w, t.ci, t.co)
            for layer, t in full.items()
        }
        assert tiling_fingerprint(full) != tiling_fingerprint(halved)


class TestSearchContext:
    def test_simulator_reuses_shared_mesh(self, arch):
        ctx = SearchContext.create(get_model("vgg19_bench"), arch)
        tiling = ctx.canonical_tiling({})
        dag = ctx.build_dag(tiling)
        sim = ctx.simulator(dag)
        assert sim.mesh is ctx.mesh

    def test_accepted_trace_matches_result(self, arch):
        outcome = run_search("vgg19_bench", arch, jobs=1)
        accepted = [t for t in outcome.traces if t.accepted]
        assert len(accepted) == 1
        assert accepted[0].total_cycles == outcome.result.total_cycles


class TestKernelCounters:
    """The per-candidate cost-kernel accounting added with the SoA core."""

    def test_evaluated_traces_record_batch_activity(self, arch):
        outcome = run_search("vgg19_bench", arch, jobs=1)
        evaluated = [t for t in outcome.traces if t.evaluated]
        assert evaluated
        for t in evaluated:
            # Every evaluation prices at least its DAG's tile lattices
            # through the batched kernel.
            assert t.kernel_batch_calls > 0
            assert t.kernel_batch_rows >= t.kernel_batch_calls

    def test_counters_survive_dict_round_trip(self):
        trace = CandidateTrace(
            label="sa[0]", fingerprint="f",
            kernel_batch_calls=7, kernel_batch_rows=123,
        )
        doc = trace.to_dict()
        assert doc["cost_kernel"] == {"batch_calls": 7, "batch_rows": 123}
        back = CandidateTrace.from_dict(doc)
        assert back.kernel_batch_calls == 7
        assert back.kernel_batch_rows == 123

    def test_pre_refactor_documents_still_load(self):
        doc = CandidateTrace(label="x", fingerprint="f").to_dict()
        del doc["cost_kernel"]
        back = CandidateTrace.from_dict(doc)
        assert back.kernel_batch_calls == 0
        assert back.kernel_batch_rows == 0

    def test_validated_staged_run_agrees_with_array_costs(self, arch):
        """jobs=2 + validate=True: the AD2xx schedule-cost cross-checks
        re-derive round costs from the flat atom arrays and must agree."""
        outcome = run_search("vgg19_bench", arch, jobs=2, validate=True)
        reference = run_search("vgg19_bench", arch, jobs=1)
        assert outcome.result.total_cycles == reference.result.total_cycles
        assert decisions(outcome) == decisions(reference)


class TestOptions:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            OptimizerOptions(jobs=0)

    def test_trace_is_frozen(self):
        trace = CandidateTrace(label="x", fingerprint="f")
        with pytest.raises(AttributeError):
            trace.label = "y"


class TestArrayWalks:
    """Build, schedule, map and simulate walk the DAG's arrays, not objects."""

    def test_evaluate_materializes_no_view_and_no_atom(self, monkeypatch):
        from repro.atoms.atom import Atom
        from repro.atoms.generation import layer_sequential_tiling
        from repro.config import DEFAULT_ARCH
        from repro.pipeline import (
            CandidatePipeline,
            DPSchedulingStage,
            TransferCostMappingStage,
        )

        built = []
        init = Atom.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Atom, "__init__", counting_init)
        ctx = SearchContext.create(
            get_model("resnet50_bench"), DEFAULT_ARCH, batch=2
        )
        pipeline = CandidatePipeline(
            scheduling=(DPSchedulingStage(),),
            mapping=TransferCostMappingStage(),
        )
        solution = pipeline.evaluate(
            ctx,
            layer_sequential_tiling(ctx.graph, ctx.num_engines),
            label="probe",
        )
        dag = solution.dag
        assert solution.result.total_cycles > 0
        assert dag.num_atoms > 0 and len(solution.placement) == dag.num_atoms
        assert "atoms" not in vars(dag)
        assert built == []
        # The probes see the view being derived.
        assert len(dag.atoms) == dag.num_atoms
        assert "atoms" in vars(dag) and len(built) == dag.num_atoms

    @pytest.fixture(scope="class")
    def probe(self):
        """An evaluated resnet50_bench candidate at batch 2, whose trace
        is reset to its decision fields (its wall times vary per run)."""
        from dataclasses import replace

        from repro.atoms.generation import layer_sequential_tiling
        from repro.config import DEFAULT_ARCH
        from repro.pipeline import (
            CandidatePipeline,
            DPSchedulingStage,
            TransferCostMappingStage,
        )

        ctx = SearchContext.create(
            get_model("resnet50_bench"), DEFAULT_ARCH, batch=2
        )
        pipeline = CandidatePipeline(
            scheduling=(DPSchedulingStage(),),
            mapping=TransferCostMappingStage(),
        )
        solution = pipeline.evaluate(
            ctx,
            layer_sequential_tiling(ctx.graph, ctx.num_engines),
            label="probe",
        )
        trace = CandidateTrace(
            label="probe",
            fingerprint=solution.trace.fingerprint,
            total_cycles=solution.result.total_cycles,
        )
        return replace(solution, trace=trace)

    @staticmethod
    def _encode(solution):
        """(canonical store bytes, checkpoint journal line) of a candidate."""
        import json

        from repro.framework import OptimizationOutcome
        from repro.pipeline import solution_record
        from repro.fingerprint import canonical_solution_bytes
        from repro.serialize import solution_to_dict

        outcome = OptimizationOutcome(
            result=solution.result,
            dag=solution.dag,
            schedule=solution.schedule,
            placement=solution.placement,
            tiling_energy=solution.tiling_energy,
        )
        doc = solution_to_dict(outcome, "kc", include_search=False)
        line = json.dumps(solution_record(solution), sort_keys=True)
        return canonical_solution_bytes(doc), line.encode()

    def test_encoders_materialize_no_atom(self, probe, monkeypatch):
        from repro.atoms.atom import Atom

        built = []
        init = Atom.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Atom, "__init__", counting_init)
        self._encode(probe)
        assert built == []
        assert "atoms" not in vars(probe.dag)

    def test_encoded_bytes_are_pinned(self, probe):
        """Digests recorded while both encoders still read ``dag.atoms``."""
        import hashlib

        doc_bytes, record_line = self._encode(probe)
        assert (probe.dag.num_atoms, len(probe.schedule.rounds)) == (9214, 144)
        assert hashlib.sha256(doc_bytes).hexdigest() == (
            "00eeb96fe9b2f7eaf436a57a89260cc1e66125ee5c9c86e95cd6f6d7f59e8e13"
        )
        assert hashlib.sha256(record_line).hexdigest() == (
            "ca41f9e54dd2844531c2dff842e8fac869e527d77f9ad574e56d88f5c4fa920b"
        )
