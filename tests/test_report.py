"""Tests for schedule reports and comparison tables."""

import pytest

from repro.mapping import zigzag_placement
from repro.metrics import EnergyBreakdown, RunResult
from repro.noc import Mesh2D
from repro.report import (
    comparison_table,
    layer_utilization_table,
    render_gantt,
    round_composition,
    summarize_schedule,
)
from repro.scheduling import Schedule, schedule_greedy


@pytest.fixture
def scheduled(chain_dag):
    schedule = schedule_greedy(chain_dag, 4)
    placement = zigzag_placement(chain_dag, Mesh2D(2, 2), schedule)
    return chain_dag, schedule, placement


def _result(strategy="AD", workload="net", cycles=1000) -> RunResult:
    return RunResult(
        strategy=strategy,
        workload=workload,
        batch=1,
        total_cycles=cycles,
        compute_cycles=cycles,
        noc_blocking_cycles=0,
        dram_blocking_cycles=0,
        num_rounds=3,
        pe_utilization=0.5,
        onchip_reuse_ratio=0.5,
        dram_bytes_read=0,
        dram_bytes_written=0,
        noc_bytes_hops=0,
        energy=EnergyBreakdown(mac_pj=1.0),
        frequency_hz=500e6,
    )


class TestSummarize:
    def test_counts(self, scheduled):
        dag, schedule, _ = scheduled
        s = summarize_schedule(dag, schedule, 4)
        assert s.num_rounds == schedule.num_rounds
        assert s.num_atoms == dag.num_atoms
        assert 0 < s.mean_occupancy <= 1.0
        assert s.samples_per_round == 1.0

    def test_empty_schedule(self, chain_dag):
        s = summarize_schedule(chain_dag, Schedule(), 4)
        assert s.num_rounds == 0 and s.mean_occupancy == 0.0


class TestGantt:
    def test_contains_all_engines(self, scheduled):
        dag, schedule, placement = scheduled
        chart = render_gantt(dag, schedule, placement, 4)
        for e in range(4):
            assert f"E{e}" in chart

    def test_truncation_notice(self, scheduled):
        dag, schedule, placement = scheduled
        chart = render_gantt(dag, schedule, placement, 4, max_rounds=1)
        if schedule.num_rounds > 1:
            assert "more rounds" in chart

    def test_idle_cells_marked(self, scheduled):
        dag, schedule, placement = scheduled
        # With 8 engines but rounds of <=4 atoms, idle slots appear.
        chart = render_gantt(dag, schedule, placement, 8)
        assert "." in chart


class TestTables:
    def test_layer_utilization_sorted_worst_first(self, scheduled):
        dag, _, _ = scheduled
        table = layer_utilization_table(dag)
        assert "mean PE util" in table
        assert len(table.splitlines()) >= 2

    def test_round_composition_mentions_layers(self, scheduled):
        dag, schedule, _ = scheduled
        line = round_composition(dag, schedule, 0)
        assert line.startswith("Round 0")
        assert "x" in line

    def test_comparison_table(self):
        table = comparison_table([_result("AD"), _result("LS", cycles=2000)])
        assert "AD" in table and "LS" in table
        assert "latency" in table

    def test_comparison_rejects_mixed_workloads(self):
        with pytest.raises(ValueError, match="mix"):
            comparison_table([_result(workload="a"), _result(workload="b")])

    def test_comparison_rejects_empty(self):
        with pytest.raises(ValueError):
            comparison_table([])


class TestChromeTrace:
    """Simulated time reaches Chrome traces through ``trace_to_chrome``."""

    @pytest.fixture
    def timeline(self, scheduled):
        from repro.config import ArchConfig, EngineConfig
        from repro.sim import SystemSimulator

        dag, schedule, placement = scheduled
        arch = ArchConfig(
            mesh_rows=2, mesh_cols=2,
            engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=32 * 1024),
        )
        _, timeline = SystemSimulator(arch, dag).run_timeline(
            schedule, placement
        )
        return timeline

    def test_export_valid_json(self, scheduled, timeline, tmp_path):
        import json

        from repro.obs import trace_to_chrome
        from repro.obs.export import SIM_PID

        dag, _, _ = scheduled
        out = tmp_path / "trace.json"
        trace_to_chrome(out, timeline=timeline)
        events = json.loads(out.read_text())["traceEvents"]
        atoms = [
            e for e in events
            if e["ph"] == "X" and e["pid"] == SIM_PID
            and e["tid"] < timeline.num_engines
        ]
        assert len(atoms) == dag.num_atoms
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")

    def test_events_do_not_overlap_per_engine(self, timeline, tmp_path):
        import json
        from collections import defaultdict

        from repro.obs import trace_to_chrome

        out = tmp_path / "trace.json"
        trace_to_chrome(out, timeline=timeline)
        events = json.loads(out.read_text())["traceEvents"]
        lanes = defaultdict(list)
        for e in events:
            if e["ph"] == "X":
                lanes[(e["pid"], e["tid"])].append((e["ts"], e["ts"] + e["dur"]))
        for spans in lanes.values():
            spans.sort()
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9