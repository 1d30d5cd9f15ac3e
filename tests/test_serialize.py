"""Tests for solution serialization round trips."""

import json

import pytest

from repro.atoms.generation import SAParams
from repro.config import ArchConfig, EngineConfig
from repro.fingerprint import SOLUTION_FORMAT
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import vgg19
from repro.pipeline import CandidateTrace
from repro.serialize import (
    TRACE_FORMAT,
    load_search_trace,
    load_solution,
    save_search_trace,
    save_solution,
    solution_to_dict,
)
from repro.sim import SystemSimulator


@pytest.fixture(scope="module")
def solution():
    arch = ArchConfig(
        mesh_rows=2, mesh_cols=2,
        engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=64 * 1024),
    )
    graph = vgg19(input_size=32, width_mult=0.25)
    opts = OptimizerOptions(
        scheduler="greedy", sa_params=SAParams(max_iterations=15)
    )
    outcome = AtomicDataflowOptimizer(graph, arch, opts).optimize()
    return graph, arch, outcome


class TestRoundTrip:
    def test_document_shape(self, solution):
        _, _, outcome = solution
        doc = solution_to_dict(outcome, "kc")
        assert doc["format"] == SOLUTION_FORMAT
        assert doc["batch"] == 1
        assert len(doc["rounds"]) == outcome.schedule.num_rounds
        assert len(doc["placement"]) == outcome.dag.num_atoms

    def test_save_load_validates(self, solution, tmp_path):
        graph, arch, outcome = solution
        path = tmp_path / "sol.json"
        save_solution(outcome, path, dataflow="kc")
        doc = load_solution(path, graph, arch)
        assert doc.dag.num_atoms == outcome.dag.num_atoms
        assert doc.schedule.num_rounds == outcome.schedule.num_rounds
        assert doc.batch == 1

    def test_reloaded_solution_simulates_identically(self, solution, tmp_path):
        graph, arch, outcome = solution
        path = tmp_path / "sol.json"
        save_solution(outcome, path)
        doc = load_solution(path, graph, arch)
        rerun = SystemSimulator(arch, doc.dag).run(doc.schedule, doc.placement)
        assert rerun.total_cycles == outcome.result.total_cycles

    def test_wrong_workload_rejected(self, solution, tmp_path):
        _, arch, outcome = solution
        path = tmp_path / "sol.json"
        save_solution(outcome, path)
        other = vgg19(input_size=64, width_mult=0.25)
        with pytest.raises(ValueError, match="workload"):
            load_solution(path, other, arch)

    def test_wrong_format_rejected(self, solution, tmp_path):
        graph, arch, _ = solution
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a solution"):
            load_solution(path, graph, arch)

    def test_wrong_version_rejected(self, solution, tmp_path):
        graph, arch, outcome = solution
        doc = solution_to_dict(outcome, "kc")
        doc["version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_solution(path, graph, arch)


class TestUnknownIdentities:
    """One resolver binds identities; each loader keeps its own policy."""

    @pytest.fixture
    def broken(self, solution, tmp_path):
        graph, arch, outcome = solution
        doc = solution_to_dict(outcome, "kc")
        doc["rounds"][0][0] = [0, 9999, 0]
        doc["placement"][0][2] = 10**6
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        return graph, arch, path

    def test_load_solution_raises_value_error(self, broken):
        graph, arch, path = broken
        with pytest.raises(ValueError, match=r"^round 0: unknown atom identity"):
            load_solution(path, graph, arch)

    def test_out_of_range_tile_raises_value_error(self, solution, tmp_path):
        graph, arch, outcome = solution
        doc = solution_to_dict(outcome, "kc")
        doc["placement"][0][2] = 10**6
        path = tmp_path / "tile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^placement: unknown atom identity"):
            load_solution(path, graph, arch)

    def test_validator_reports_every_one(self, broken):
        from repro.analysis import validate_solution_file

        graph, arch, path = broken
        report = validate_solution_file(path, graph, arch)
        assert [d.location for d in report.by_rule("AD201")][:2] == [
            "round 0", "placement",
        ]


class TestTraceRoundTrip:
    def test_trace_dict_round_trip(self, solution):
        _, _, outcome = solution
        assert outcome.traces
        for trace in outcome.traces:
            assert CandidateTrace.from_dict(trace.to_dict()) == trace

    def test_malformed_trace_rejected(self):
        with pytest.raises(ValueError):
            CandidateTrace.from_dict({"label": "sa[0]"})

    def test_solution_document_carries_search(self, solution):
        graph, arch, outcome = solution
        doc = solution_to_dict(outcome, "kc")
        assert doc["search"]["traces"]
        assert doc["search"]["search_seconds"] == outcome.search_seconds

    def test_solution_load_restores_traces(self, solution, tmp_path):
        graph, arch, outcome = solution
        path = tmp_path / "sol.json"
        save_solution(outcome, path)
        loaded = load_solution(path, graph, arch)
        assert loaded.traces == outcome.traces
        assert loaded.search_seconds == outcome.search_seconds

    def test_standalone_trace_round_trip(self, solution, tmp_path):
        graph, arch, outcome = solution
        path = tmp_path / "trace.json"
        save_search_trace(outcome, path)
        with open(path) as f:
            doc = json.load(f)
        assert doc["format"] == TRACE_FORMAT
        assert doc["workload"] == outcome.dag.graph.name
        assert load_search_trace(path) == outcome.traces

    def test_non_trace_document_rejected(self, solution, tmp_path):
        graph, arch, outcome = solution
        path = tmp_path / "sol.json"
        save_solution(outcome, path)
        with pytest.raises(ValueError):
            load_search_trace(path)
